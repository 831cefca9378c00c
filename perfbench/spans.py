"""Layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces the public functions of the weakmeas modules with
timing wrappers.  Every binding of the same function object is replaced: the
defining module's attribute, the names other weakmeas modules imported from
it, and values of module-level dicts (the CLI's profile table).  Class-level
entry points (``QuadratureGrid.gauss_legendre``, the ``BasisPair``
constructors, ``DetectorKernel.__call__``) are replaced on their class.
``restore`` puts every original object back.  The wrappers only time the
call and then count work from its arguments and result, so results are
bit-identical to the untraced library.

A span is ``[name, start, end, parent_index, op_id, counts]``.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("fockspace", "povm", "quasiprob", "weakvalues", "vonneumann", "cli")


def _arg(bound, name):
    return bound.arguments.get(name)


def _wvfd_cells(bound, result):
    """Distribution-route weak value: cells built against cells the value
    depends on.  The projective path builds the full (n_phi, n_xi) product
    and S grids and then reads one row of each."""
    basis = _arg(bound, "basis")
    n_phi, n_xi = basis.phi_grid.size, basis.xi_points.size
    if _arg(bound, "kernel").is_projective:
        return {"built": 2 * n_phi * n_xi + 2 * n_xi, "useful": 2 * n_xi}
    return {"built": 2 * n_phi * n_xi, "useful": 2 * n_phi * n_xi}


def _pointer_cells(bound, result):
    joint = _arg(bound, "joint")
    n_phi, n_q = result.shape
    return {"cells": n_phi * n_q * joint.pointer.weights.size * joint.state_weights.size}


# (module, attribute path, span name, counter(bound arguments, result) -> dict)
TARGETS = (
    ("fockspace", "QuadratureGrid.gauss_legendre", "fockspace.gauss_legendre",
     lambda b, r: {"nodes": r.size}),
    ("fockspace", "displaced_thermal_state", "fockspace.displaced_thermal_state", None),
    ("fockspace", "displacement_operator", "fockspace.displacement_operator", None),
    ("fockspace", "wavefunction_table", "fockspace.wavefunction_table",
     lambda b, r: {"cells": r.size}),
    ("povm", "DetectorKernel.__call__", "povm.kernel_eval",
     lambda b, r: {"cells": np.size(r)}),
    ("povm", "smear_matrix", "povm.smear_matrix", lambda b, r: {"cells": r.size}),
    ("quasiprob", "BasisPair.position_fock", "quasiprob.basis_pair", None),
    ("quasiprob", "BasisPair.position_momentum", "quasiprob.basis_pair", None),
    ("quasiprob", "BasisPair.position_custom", "quasiprob.basis_pair", None),
    ("quasiprob", "s_distribution", "quasiprob.s_distribution",
     lambda b, r: {"cells": r.values.size}),
    ("quasiprob", "effective_distribution", "quasiprob.effective_distribution", None),
    ("quasiprob", "negativity_scan", "quasiprob.negativity_scan", None),
    ("quasiprob", "weak_value_from_distribution", "quasiprob.weak_value_from_distribution",
     _wvfd_cells),
    ("weakvalues", "weak_value", "weakvalues.weak_value",
     lambda b, r: {"points": np.size(_arg(b, "phi"))}),
    ("weakvalues", "p2_closed_profile", "weakvalues.closed_profile", None),
    ("weakvalues", "h_closed_profile", "weakvalues.closed_profile", None),
    ("weakvalues", "n_closed_profile", "weakvalues.closed_profile", None),
    ("weakvalues", "negativity_probability", "weakvalues.negativity_probability",
     lambda b, r: {"quadrature": int(r.method == "quadrature")}),
    ("vonneumann", "evolve_exact", "vonneumann.evolve_exact", None),
    ("vonneumann", "joint_distribution", "vonneumann.joint_distribution", None),
    ("vonneumann", "position_density", "vonneumann.position_density", _pointer_cells),
    ("vonneumann", "check_zero_current", "vonneumann.check_zero_current", None),
    ("vonneumann", "simulate_cross_kerr", "vonneumann.simulate_cross_kerr",
     lambda b, r: {"postselections": r.postselect_q.size}),
    ("vonneumann", "simulate_qubit_pointer", "vonneumann.simulate_qubit_pointer", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records nested spans of wrapped weakmeas calls in one process."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[5] = counter(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every weakmeas module that binds it."""
        modules = [importlib.import_module("weakmeas")]
        modules += [importlib.import_module(f"weakmeas.{m}") for m in MODULES]
        for mod_name, path, span_name, counter in TARGETS:
            owner = importlib.import_module(f"weakmeas.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name, counter))
                else:
                    new = self._wrap(raw, span_name, counter)
                self._undo.append((setattr, cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self._wrap(orig, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((setattr, mod, attr, orig))
                        setattr(mod, attr, new)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._undo.append((dict.__setitem__, value, key, orig))
                                value[key] = new

    def restore(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def dump(spans: list, path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def load_spans(path: str, offset: int = 0) -> list:
    """Read spans written by ``dump``; parent indices are shifted by
    ``offset`` so the spans can be appended to a list that long."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    for rec in spans:
        if rec[3] >= 0:
            rec[3] += offset
    return spans


def summarize(spans: list) -> dict:
    """Per span name: calls, total and self seconds, summed counts.

    Self time is the span's duration minus the durations of its direct
    children; calls run on one thread, so children nest inside their parent.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict = {}
    for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            s[key] = s.get(key, 0) + value
    return out


def top_level_seconds(spans: list) -> dict:
    """Seconds per op id covered by spans that have no parent."""
    out: dict = {}
    for name, start, end, parent, op, _counts in spans:
        if parent < 0:
            out[op] = out.get(op, 0.0) + end - start
    return out
