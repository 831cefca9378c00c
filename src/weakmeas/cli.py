"""Command-line surface: weak-value queries, probability sweeps behind the
figure data, distribution grids and pointer simulations.

Every command is deterministic given its flags.  ``figure`` and
``distribution`` write CSV grids whose 17-digit cells round-trip to the
exact double.  Exit codes: 0 success, 1 usage error, 2 numerical-domain
error, such as a non-finite number in any flag, or a weak value whose two
routes, closed form and trace formula, differ by more than ``ROUTE_TOL`` in
their real parts.  A flat JSON config file can preload any flag (``--config``):
explicit flags win, a key the command does not read exits 2, and a value gets
its flag's type and choices.  The Fock truncation is 40 unless ``--dim`` or
the config's ``dim`` sets it.  ``simulate`` couplings share the state flags,
``--epsilon``, ``--fock``, ``--dim`` and ``--postselect-q``; besides those,
each reads only its own (``_COUPLINGS``) and refuses another coupling's, by
flag or config, with exit 2, as ``--fock`` refuses the displaced thermal
state's.  The kerr meter reads the quadrature at right angles to its nonzero
pointer amplitude beta.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fockspace, povm, quasiprob, vonneumann, weakvalues

__all__ = ["main", "build_parser", "FIGURES"]

USAGE_EXIT = 1
DOMAIN_EXIT = 2
ROUTE_TOL = 1e-6  # closed form against the dim-truncated trace formula, Re parts
DEFAULT_DIM = 40

_PROFILE_BUILDERS = {
    "p2": weakvalues.p2_closed_profile,
    "H": weakvalues.h_closed_profile,
    "n": weakvalues.n_closed_profile,
}
_OPERATOR_KINDS = {"p2": "momentum_squared", "H": "hamiltonian", "n": "number"}

# figure_id -> swept axes with (min, max, steps) defaults and pinned parameters
FIGURES = {
    "p2_eta_nth": {"observable": "p2", "axes": ("eta", "nth"),
                   "ranges": {"eta": (0.5, 1.0, 21), "nth": (0.0, 1.0, 21)},
                   "fixed": {"alpha_r": 0.0, "alpha_i": 0.0}},
    "h_ideal": {"observable": "H", "axes": ("alpha_r", "alpha_i"),
                "ranges": {"alpha_r": (0.0, 3.0, 31), "alpha_i": (0.0, 2.0, 21)},
                "fixed": {"eta": 1.0, "nth": 0.0}},
    "h_noisy": {"observable": "H", "axes": ("alpha_r", "alpha_i"),
                "ranges": {"alpha_r": (0.0, 3.0, 31), "alpha_i": (0.0, 2.0, 21)},
                "fixed": {"eta": 0.7, "nth": 0.3}},
    "h_eta_nth": {"observable": "H", "axes": ("eta", "nth"),
                  "ranges": {"eta": (0.5, 1.0, 21), "nth": (0.0, 1.0, 21)},
                  "fixed": {"alpha_r": 1.0, "alpha_i": 0.0}},
    "n_ideal": {"observable": "n", "axes": ("alpha_r", "alpha_i"),
                "ranges": {"alpha_r": (0.0, 3.0, 31), "alpha_i": (0.0, 2.0, 21)},
                "fixed": {"eta": 1.0, "nth": 0.0}},
    "n_noisy": {"observable": "n", "axes": ("alpha_r", "alpha_i"),
                "ranges": {"alpha_r": (0.0, 3.0, 31), "alpha_i": (0.0, 2.0, 21)},
                "fixed": {"eta": 0.7, "nth": 0.3}},
    "n_eta_nth": {"observable": "n", "axes": ("eta", "nth"),
                  "ranges": {"eta": (0.5, 1.0, 21), "nth": (0.0, 0.3, 21)},
                  "fixed": {"alpha_r": 0.1, "alpha_i": 0.0}},
}


def _write_csv(path: str, header, rows, cols, *columns) -> None:
    """CSV with ``header`` and one CRLF line per node pair (rows[i], cols[j]),
    i major, followed by each column's [i, j] cell: the bytes ``csv.writer``
    writes for ``format(x, ".17g")`` cells.  Each node is formatted once per
    axis, and a str column (no "%" in it) is the same text on every line."""
    cols = ["%.17g" % x for x in np.asarray(cols, dtype=float).tolist()]
    cells = [c for c in columns if not isinstance(c, str)]
    tail = "".join("," + c if isinstance(c, str) else ",%.17g" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, node in enumerate(np.asarray(rows, dtype=float).tolist()):
            line = "%.17g" % node + ",%s" + tail
            fh.writelines(map(line.__mod__, zip(cols, *(c[i].tolist() for c in cells))))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_state_flags(p):
    p.add_argument("--alpha-r", type=float, default=None,
                   help="real quadrature mean of the coherent amplitude")
    p.add_argument("--alpha-i", type=float, default=None,
                   help="imaginary quadrature mean")
    p.add_argument("--nth", type=float, default=None, help="thermal occupation")
    p.add_argument("--eta", type=float, default=None,
                   help="detector quantum efficiency in (0, 1]")
    p.add_argument("--dim", type=int, default=None,
                   help=f"Fock truncation (default {DEFAULT_DIM})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weakmeas",
                     description="Weak measurements of a harmonic oscillator "
                                 "with imperfect detectors")
    parser.add_argument("--config", default=None,
                        help="flat JSON file preloading flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weak-value", parents=[], help="complex weak value at one "
                       "postselected position, with strangeness classification")
    p.add_argument("--observable", choices=("p2", "H", "n"), default=None)
    _add_state_flags(p)
    p.add_argument("--q", type=float, default=None, help="postselected position")

    p = sub.add_parser("figure", help="negativity-probability sweep data")
    p.add_argument("figure_id", choices=sorted(FIGURES))
    p.add_argument("--output", default=None, help="output path (default <figure_id>.csv)")
    p.add_argument("--steps", type=int, default=None,
                   help="override the step count of both swept axes")
    for axis in ("alpha-r", "alpha-i", "nth", "eta"):
        for end in ("min", "max"):
            p.add_argument(f"--{axis}-{end}", type=float, default=None,
                           help=f"override the swept {end} of the {axis} axis")
    _add_state_flags(p)

    p = sub.add_parser("distribution", help="quasi-distribution grid as CSV")
    p.add_argument("--kind", choices=("S", "T", "S_eta", "T_eta"), default=None)
    p.add_argument("--xi-basis", choices=("fock", "momentum"), default=None)
    _add_state_flags(p)
    p.add_argument("--points", type=int, default=None, help="grid nodes per axis")
    p.add_argument("--output", default=None)

    p = sub.add_parser("simulate", help="finite-strength pointer simulation")
    p.add_argument("--coupling", choices=("generic", "kerr", "qubit"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--observable", choices=("p2", "H", "n"), default=None)
    p.add_argument("--fock", type=int, default=None,
                   help="use a number state instead of the displaced thermal family")
    _add_state_flags(p)
    p.add_argument("--postselect-q", type=float, default=None)
    p.add_argument("--pointer-sigma", type=float, default=None)
    p.add_argument("--sx", type=float, default=None, help="qubit Bloch x component")
    p.add_argument("--sy", type=float, default=None, help="qubit Bloch y component")
    p.add_argument("--beta-r", type=float, default=None,
                   help="pointer-mode coherent amplitude (real quadrature)")
    p.add_argument("--beta-i", type=float, default=None)
    for p in sub.choices.values():  # the config check reads each flag's action
        p.set_defaults(actions={action.dest: action for action in p._actions})
    return parser


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag value if given, else config value, else built-in default.  A config
    key outside ``defaults`` is refused, and so is a value its flag could not
    give, by the flag's type (a float flag takes any JSON number) and choices."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a flat JSON object")
    unread = sorted(set(cfg) - set(defaults))
    if unread:
        raise ValueError(f"{args.command} does not read config key {' or '.join(unread)}")
    for key, value in cfg.items():
        action = args.actions[key]
        kind = action.type or str
        if type(value) not in {str: (str,), int: (int,), float: (int, float)}[kind]:
            raise ValueError(f"config key {key} takes {kind.__name__}, got {json.dumps(value)}")
        cfg[key] = kind(str(value))  # as the flag converts its text: 10**400 is inf
        if action.choices is not None and cfg[key] not in action.choices:
            raise ValueError(f"config key {key}: invalid choice {json.dumps(value)} "
                             f"(choose from {', '.join(action.choices)})")
    merged = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else cfg.get(key, fallback)
        if isinstance(merged[key], float) and not math.isfinite(merged[key]):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, "
                             f"got {merged[key]}")
    return merged


def _dim(opts) -> int:
    dim = opts["dim"]
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return dim


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(params: dict, results: dict) -> None:
    print(json.dumps(_sanitize({"params": params, "results": results}), sort_keys=True))


# ---------------------------------------------------------------------------

def cmd_weak_value(args) -> int:
    opts = _merge_config(args, {"observable": "H", "alpha_r": 0.0, "alpha_i": 0.0,
                                "nth": 0.0, "eta": 1.0, "q": 0.0, "dim": DEFAULT_DIM})
    sigma_eta = povm.sigma_from_efficiency(opts["eta"])
    profile = _PROFILE_BUILDERS[opts["observable"]](
        opts["alpha_r"], opts["alpha_i"], opts["nth"], sigma_eta)
    value = profile.value(opts["q"])
    if profile.observable == "p2":
        classification = "not_strange" if value.real >= 0.0 else "strange_negative"
    else:
        classification = weakvalues.classify_strange(profile, opts["q"])

    dim = _dim(opts)
    rho = fockspace.displaced_thermal_state(
        fockspace.alpha_from_quadratures(opts["alpha_r"], opts["alpha_i"]),
        opts["nth"], dim)
    nu = fockspace.make_operator(_OPERATOR_KINDS[opts["observable"]], dim)
    trace_value = weakvalues.weak_value(nu, rho, povm.gaussian_kernel(sigma_eta),
                                        opts["q"])
    if not abs(value.real - trace_value.real) <= ROUTE_TOL:
        raise ValueError(f"closed form re = {value.real:.17g} and trace formula "
                         f"re = {trace_value.real:.17g} differ by more than {ROUTE_TOL:g} "
                         f"at dim {dim}: the Fock truncation is too small for this state")
    density = weakvalues.marginal_density(opts["q"], opts["alpha_r"], opts["nth"],
                                          sigma_eta)
    _emit({**opts, "sigma_eta": sigma_eta},
          {"re": value.real, "im": value.imag,
           "re_trace_formula": trace_value.real, "im_trace_formula": trace_value.imag,
           "classification": classification,
           "postselection_density": float(density)})
    return 0


def _figure_cells(figure_id: str, opts: dict):
    spec = FIGURES[figure_id]
    ax1, ax2 = spec["axes"]
    fixed = {key: value if opts[key] is None else opts[key]
             for key, value in spec["fixed"].items()}
    steps = opts["steps"]
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    axes_vals = {}
    for ax in (ax1, ax2):
        lo, hi, n = spec["ranges"][ax]
        lo = opts.get(f"{ax}_min") if opts.get(f"{ax}_min") is not None else lo
        hi = opts.get(f"{ax}_max") if opts.get(f"{ax}_max") is not None else hi
        if hi < lo:
            raise ValueError(f"{ax} range is empty: [{lo}, {hi}]")
        if ax == "eta" and not (0.0 < lo and hi <= 1.0):
            raise ValueError(f"eta range must lie in (0, 1], got [{lo}, {hi}]")
        if ax == "nth" and lo < 0.0:
            raise ValueError(f"nth range must be nonnegative, got min {lo}")
        axes_vals[ax] = np.linspace(lo, hi, steps if steps else n)
    build = _PROFILE_BUILDERS[spec["observable"]]
    probs = np.empty((axes_vals[ax1].size, axes_vals[ax2].size))
    for i, v1 in enumerate(axes_vals[ax1].tolist()):
        for j, v2 in enumerate(axes_vals[ax2].tolist()):
            cell = {**fixed, ax1: v1, ax2: v2}
            profile = build(cell["alpha_r"], cell["alpha_i"], cell["nth"],
                            povm.sigma_from_efficiency(cell["eta"]))
            probs[i, j] = weakvalues.negativity_probability(profile).probability
    return axes_vals, probs


def cmd_figure(args) -> int:
    all_axes = ("alpha_r", "alpha_i", "nth", "eta")
    opts = _merge_config(args, {"output": None, "steps": None, "dim": None,
                                **{f"{ax}{end}": None for ax in all_axes
                                   for end in ("", "_min", "_max")}})
    figure_id = args.figure_id
    spec = FIGURES[figure_id]
    # closed forms need no truncation; a swept axis takes a range, a pinned one a value
    unused = ["dim", *spec["axes"], *(f"{ax}_{end}" for ax in spec["fixed"]
                                      for end in ("min", "max"))]
    given = [f"--{k.replace('_', '-')}" for k in unused if opts[k] is not None]
    if given:
        raise ValueError(f"figure {figure_id} does not use {' or '.join(given)}: it sweeps "
                         f"{' and '.join(spec['axes'])} and pins {' and '.join(spec['fixed'])}")
    nodes, probs = _figure_cells(figure_id, opts)
    path = opts["output"] or f"{figure_id}.csv"
    _write_csv(path, (*nodes, "probability"), *nodes.values(), probs)
    _emit({"figure_id": figure_id, "axes": list(nodes), "cells": probs.size,
           "output": path},
          {"min_probability": float(probs.min()), "max_probability": float(probs.max())})
    return 0


def cmd_distribution(args) -> int:
    opts = _merge_config(args, {"kind": "T", "xi_basis": "fock", "alpha_r": 0.0,
                                "alpha_i": 0.0, "nth": 0.0, "eta": 1.0,
                                "points": 200, "output": "distribution.csv",
                                "dim": DEFAULT_DIM})
    if opts["points"] < 1:
        raise ValueError(f"--points must be >= 1, got {opts['points']}")
    dim = _dim(opts)
    alpha = fockspace.alpha_from_quadratures(opts["alpha_r"], opts["alpha_i"])
    rho = fockspace.displaced_thermal_state(alpha, opts["nth"], dim)
    grid = fockspace.default_grid(dim=dim, alpha=alpha, n_th=opts["nth"],
                                  points=opts["points"])
    if opts["xi_basis"] == "fock":
        basis = quasiprob.BasisPair.position_fock(dim, grid)
    else:
        basis = quasiprob.BasisPair.position_momentum(dim, grid, grid)
    dist = quasiprob.s_distribution(rho, basis)
    results = {"output": opts["output"]}
    if opts["kind"].endswith("_eta"):
        kernel = povm.gaussian_kernel(povm.sigma_from_efficiency(opts["eta"]))
        dist = quasiprob.effective_distribution(dist, kernel)
        try:  # the smear's quadrature error on this grid, reported, not refused
            defect = povm.validate(kernel, grid).max_normalization_defect
        except ValueError:  # the grid is too narrow to probe the kernel
            defect = math.nan
        results["smear_normalization_defect"] = defect
    if opts["kind"].startswith("T"):
        dist = quasiprob.t_distribution(dist)

    values = dist.values
    _write_csv(opts["output"], ("phi", "xi", "re", "im"), basis.phi_grid.points,
               basis.xi_points, values.real, "0" if dist.is_real_kind else values.imag)
    # the negativity summary always refers to the real part of the grid
    scan = quasiprob.negativity_scan(dist if dist.is_real_kind
                                     else quasiprob.t_distribution(dist))
    results.update(rows=values.size, **vars(scan))
    _emit(opts, results)
    return 0


def _state_from_opts(opts, dim):
    if opts.get("fock") is not None:
        level = opts["fock"]
        if not 0 <= level < dim:
            raise ValueError(f"Fock level {level} outside truncation dim={dim}")
        return fockspace.DensityOperator(np.diag(np.eye(dim)[level]))  # |level><level|
    alpha = fockspace.alpha_from_quadratures(opts["alpha_r"], opts["alpha_i"])
    return fockspace.displaced_thermal_state(alpha, opts["nth"], dim)


def _simulate_generic(opts) -> dict:
    dim = _dim(opts)
    q = opts["postselect_q"]
    pointer = vonneumann.PointerState.gaussian(opts["pointer_sigma"])
    rho = _state_from_opts(opts, dim)
    nu = fockspace.make_operator(_OPERATOR_KINDS[opts["observable"]], dim)
    sigma_eta = povm.sigma_from_efficiency(opts["eta"])
    kernel_phi = povm.gaussian_kernel(sigma_eta)
    eps = opts["epsilon"]
    if opts.get("fock") is not None:
        reference = float(weakvalues.weak_value(nu, rho, kernel_phi, q).real)
    else:
        reference = _PROFILE_BUILDERS[opts["observable"]](
            opts["alpha_r"], opts["alpha_i"], opts["nth"], sigma_eta).real_value(q)
    if eps == 0.0:
        return {"shift_over_epsilon": 0.0, "reference_re_weak_value": reference,
                "relative_deviation": math.nan, "richardson_ratio": math.nan,
                "note": "zero coupling leaves the joint state a product"}

    # the one eigh of nu and the one U^dag rho U; every coupling composes on them
    start = vonneumann.evolve_exact(rho, pointer, nu, 0.0)
    shift, shift_half = (
        vonneumann.pointer_shift(vonneumann.evolve_further(start, e), kernel_phi, q)
        for e in (eps, eps / 2.0))
    dev, dev_half = abs(shift - reference), abs(shift_half - reference)
    # a deviation within round-off of the shift has no order to measure
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(reference))
    return {"shift_over_epsilon": shift,
            "reference_re_weak_value": reference,
            "relative_deviation": dev / max(1.0, abs(reference)),
            "richardson_ratio": dev / dev_half if dev_half > floor else math.nan}


def _simulate_kerr(opts) -> dict:
    beta_r, beta_i = opts["beta_r"], opts["beta_i"]
    if beta_r == 0.0 and beta_i == 0.0:
        raise ValueError("pointer amplitude beta must be nonzero: the vacuum pointer "
                         "has no phase for the coupling to shift")
    # only the quadrature at right angles to beta has a slope free of Im n_w
    # (Jozsa, PRA 76, 044103 (2007)); pi/2 exactly for real beta > 0
    phase = math.pi / 2 + math.atan2(beta_i, beta_r)
    dim = _dim(opts)
    rho_a = _state_from_opts(opts, dim)
    rho_b = fockspace.coherent_state(fockspace.alpha_from_quadratures(beta_r, beta_i), dim)
    res = vonneumann.simulate_cross_kerr(rho_a, rho_b, opts["epsilon"], phase,
                                         [opts["postselect_q"]])
    extracted, reference = float(res.extracted_n_w[0]), float(res.reference_re_n_w[0])
    return {"shift_over_epsilon": float(res.shift_over_epsilon[0]),
            "calibration": float(res.calibration[0]),
            "extracted_n_w": extracted,
            "reference_re_weak_value": reference,
            "relative_deviation": abs(extracted - reference) / max(1.0, abs(reference)),
            "readout_phase": phase}


def _simulate_qubit(opts) -> dict:
    dim = _dim(opts)
    rho = _state_from_opts(opts, dim)
    pointer = vonneumann.PointerState.qubit(opts["sx"], opts["sy"])
    res = vonneumann.simulate_qubit_pointer(rho, pointer, opts["epsilon"],
                                            [opts["postselect_q"]])
    return {"sigma_x": float(res.sigma_x[0]), "sigma_y": float(res.sigma_y[0]),
            "sigma_x_slope": float(res.sigma_x_slope[0]),
            "sigma_y_slope": float(res.sigma_y_slope[0]),
            "extracted_n_w": float(res.n_estimate[0]),
            "reference_re_weak_value": float(res.reference_re_n_w[0]),
            "sigma_y_response_ratio": float(res.sigma_y_response_ratio[0])}


# simulate flags that one coupling reads besides the shared ones, with their
# defaults; the kerr and qubit meters measure n with no postselection kernel
_COUPLINGS = {
    "generic": (_simulate_generic, {"observable": "H", "eta": 1.0, "pointer_sigma": 1.0}),
    "kerr": (_simulate_kerr, {"beta_r": 1.0, "beta_i": 0.0}),
    "qubit": (_simulate_qubit, {"sx": 1.0, "sy": 0.0}),
}
# the displaced thermal family's flags, with their defaults; --fock uses none
_STATE = {"alpha_r": 1.0, "alpha_i": 0.0, "nth": 0.0}


def _refuse_given(opts: dict, keys, user: str) -> None:
    """Drop ``keys`` from ``opts``; any that was set, by flag or config, is refused."""
    given = [f"--{key.replace('_', '-')}" for key in keys if opts.pop(key) is not None]
    if given:
        raise ValueError(f"{user} does not use {' or '.join(given)}")


def cmd_simulate(args) -> int:
    opts = _merge_config(args, {
        "coupling": "generic", "epsilon": 1e-3, "fock": None, "postselect_q": 0.0,
        "dim": DEFAULT_DIM, **dict.fromkeys(_STATE),
        **{key: None for _, own in _COUPLINGS.values() for key in own}})
    coupling = opts["coupling"]
    simulate, defaults = _COUPLINGS[coupling]
    _refuse_given(opts, [key for _, flags in _COUPLINGS.values() for key in flags
                         if key not in defaults], f"--coupling {coupling}")
    if opts["fock"] is None:
        defaults = {**_STATE, **defaults}
    else:
        _refuse_given(opts, _STATE, "--fock")
    opts.update({key: value for key, value in defaults.items() if opts[key] is None})
    _emit(opts, simulate(opts))
    return 0


_COMMANDS = {"weak-value": cmd_weak_value, "figure": cmd_figure,
             "distribution": cmd_distribution, "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"weakmeas: error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
