"""Command-line surface: weak-value queries, probability sweeps behind the
figure data, distribution grids and pointer simulations.

Every command is deterministic given its flags.  Numbers are written with 17
significant digits so CSV output round-trips to the exact double.  Exit
codes: 0 success, 1 usage error, 2 numerical-domain error, such as a
non-finite number in any flag, or a weak value whose closed form and trace
formula differ by more than ``TRACE_TOL`` in their real parts.  A flat JSON
config file can preload any flag (``--config``); explicit flags win.  The
environment variable WEAKMEAS_DIM overrides the default Fock truncation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import fockspace, povm, quasiprob, vonneumann, weakvalues

__all__ = ["main", "build_parser", "FIGURES", "summarize_distribution_rows"]

USAGE_EXIT = 1
DOMAIN_EXIT = 2
TRACE_TOL = 1e-6  # closed form against the dim-truncated trace formula, Re parts

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
                   help="Fock truncation (default 40 or WEAKMEAS_DIM)")


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
    p.add_argument("--format", choices=("csv", "json"), default=None)
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
    p.add_argument("--pointer-center", type=float, default=None)
    p.add_argument("--pointer-boost", type=float, default=None,
                   help="momentum kick; nonzero values violate the zero-current "
                        "pointer condition and are rejected")
    p.add_argument("--sx", type=float, default=None, help="qubit Bloch x component")
    p.add_argument("--sy", type=float, default=None, help="qubit Bloch y component")
    p.add_argument("--beta-r", type=float, default=None,
                   help="pointer-mode coherent amplitude (real quadrature)")
    p.add_argument("--beta-i", type=float, default=None)
    p.add_argument("--readout-phase", type=float, default=None,
                   help="homodyne quadrature phase for the kerr readout")
    return parser


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag value if given, else config value, else built-in default."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a flat JSON object")
    merged = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else cfg.get(key, fallback)
        if isinstance(merged[key], float) and not math.isfinite(merged[key]):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, "
                             f"got {merged[key]}")
    return merged


def _dim(opts) -> int:
    return opts["dim"] if opts.get("dim") else fockspace.default_dim()


def _sigma(opts) -> float:
    return povm.sigma_from_efficiency(opts["eta"])


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
                                "nth": 0.0, "eta": 1.0, "q": 0.0, "dim": None})
    sigma_eta = _sigma(opts)
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
    if not abs(value.real - trace_value.real) <= TRACE_TOL:
        raise ValueError(f"closed form re = {value.real:.17g} and trace formula "
                         f"re = {trace_value.real:.17g} differ by more than {TRACE_TOL:g} "
                         f"at dim {dim}: the Fock truncation is too small for this state")
    density = weakvalues.marginal_density(opts["q"], opts["alpha_r"], opts["nth"],
                                          sigma_eta)
    _emit({**opts, "dim": dim, "sigma_eta": sigma_eta},
          {"re": value.real, "im": value.imag,
           "re_trace_formula": trace_value.real, "im_trace_formula": trace_value.imag,
           "classification": classification,
           "postselection_density": float(density)})
    return 0


def _figure_cells(figure_id: str, opts: dict, steps: int | None):
    spec = FIGURES[figure_id]
    ax1, ax2 = spec["axes"]
    fixed = dict(spec["fixed"])
    for key in fixed:
        if opts.get(key) is not None:
            fixed[key] = opts[key]
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
    rows = []
    for v1 in axes_vals[ax1]:
        for v2 in axes_vals[ax2]:
            cell = {**fixed, ax1: float(v1), ax2: float(v2)}
            profile = build(cell["alpha_r"], cell["alpha_i"], cell["nth"],
                            povm.sigma_from_efficiency(cell["eta"]))
            prob = weakvalues.negativity_probability(profile).probability
            rows.append((float(v1), float(v2), prob))
    return (ax1, ax2), rows


def cmd_figure(args) -> int:
    defaults = {"output": None, "format": "csv", "steps": None,
                "alpha_r": None, "alpha_i": None, "nth": None,
                "eta": None, "dim": None}
    for axis in ("alpha_r", "alpha_i", "nth", "eta"):
        defaults[f"{axis}_min"] = None
        defaults[f"{axis}_max"] = None
    opts = _merge_config(args, defaults)
    figure_id = args.figure_id
    (ax1, ax2), rows = _figure_cells(figure_id, opts, opts["steps"])
    path = opts["output"] or f"{figure_id}.{opts['format']}"
    if opts["format"] == "json":
        with open(path, "w") as fh:
            json.dump([{ax1: a, ax2: b, "probability": p} for a, b, p in rows], fh)
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([ax1, ax2, "probability"])
            for a, b, p in rows:
                writer.writerow([_fmt(a), _fmt(b), _fmt(p)])
    probs = [p for _, _, p in rows]
    _emit({"figure_id": figure_id, "axes": [ax1, ax2], "cells": len(rows),
           "output": path},
          {"min_probability": min(probs), "max_probability": max(probs)})
    return 0


def summarize_distribution_rows(re_values: np.ndarray, phi: np.ndarray,
                                xi: np.ndarray) -> dict:
    """Grid-cell negativity summary, a pure function of exported CSV rows
    (unweighted by quadrature, so re-reading the file reproduces it exactly)."""
    re_values = np.asarray(re_values, dtype=float)
    i = int(np.argmin(re_values))
    abs_sum = float(np.sum(np.abs(re_values)))
    neg_sum = float(np.sum(np.abs(re_values[re_values < 0.0])))
    return {"min_value": float(re_values[i]), "min_phi": float(phi[i]),
            "min_xi": float(xi[i]),
            "negative_cell_fraction": neg_sum / abs_sum if abs_sum > 0 else 0.0}


def cmd_distribution(args) -> int:
    opts = _merge_config(args, {"kind": "T", "xi_basis": "fock", "alpha_r": 0.0,
                                "alpha_i": 0.0, "nth": 0.0, "eta": 1.0,
                                "points": 200, "output": "distribution.csv",
                                "dim": None})
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
    if opts["kind"].endswith("_eta"):
        dist = quasiprob.effective_distribution(dist, povm.gaussian_kernel(_sigma(opts)))
    if opts["kind"].startswith("T"):
        dist = quasiprob.t_distribution(dist)

    phi_col = np.repeat(basis.phi_grid.points, basis.xi_points.size)
    xi_col = np.tile(basis.xi_points, basis.phi_grid.size)
    flat = dist.values.reshape(-1)
    with open(opts["output"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "xi", "re", "im"])
        for ph, xv, val in zip(phi_col, xi_col, flat):
            writer.writerow([_fmt(ph), _fmt(xv), _fmt(np.real(val)), _fmt(np.imag(val))])

    # negativity summaries always refer to the real part of the grid
    results = {"output": opts["output"], "rows": int(flat.size)}
    results.update(summarize_distribution_rows(np.real(flat), phi_col, xi_col))
    scan_src = dist if dist.is_real_kind else quasiprob.t_distribution(dist)
    scan = quasiprob.negativity_scan(scan_src)
    results["negative_mass_fraction"] = scan.negative_mass_fraction
    _emit({**opts, "dim": dim}, results)
    return 0


def _state_from_opts(opts, dim):
    if opts.get("fock") is not None:
        level = opts["fock"]
        if not 0 <= level < dim:
            raise ValueError(f"Fock level {level} outside truncation dim={dim}")
        m = np.zeros((dim, dim), dtype=complex)
        m[level, level] = 1.0
        return fockspace.DensityOperator(m)
    alpha = fockspace.alpha_from_quadratures(opts["alpha_r"], opts["alpha_i"])
    return fockspace.displaced_thermal_state(alpha, opts["nth"], dim)


def _simulate_generic(opts) -> dict:
    dim = _dim(opts)
    q = opts["postselect_q"]
    pointer = vonneumann.PointerState.gaussian(opts["pointer_sigma"],
                                               opts["pointer_center"],
                                               opts["pointer_boost"])
    current = vonneumann.check_zero_current(pointer)
    if current.max_violation > 1e-8:
        raise ValueError(
            f"pointer violates the zero-current condition (max current density "
            f"{current.max_violation:.3e} at Q={current.location:.3f}); the "
            f"first-order readout law does not apply")
    rho = _state_from_opts(opts, dim)
    nu = fockspace.make_operator(_OPERATOR_KINDS[opts["observable"]], dim)
    sigma_eta = _sigma(opts)
    kernel_phi = povm.gaussian_kernel(sigma_eta)
    phi_grid = fockspace.default_grid(dim=dim).with_points([q])
    eps = opts["epsilon"]
    if opts.get("fock") is not None:
        reference = float(weakvalues.weak_value(nu, rho,
                                                kernel_phi, q).real)
    else:
        reference = _PROFILE_BUILDERS[opts["observable"]](
            opts["alpha_r"], opts["alpha_i"], opts["nth"], sigma_eta).real_value(q)
    if eps == 0.0:
        return {"shift_over_epsilon": 0.0, "reference_re_weak_value": reference,
                "relative_deviation": math.nan, "richardson_ratio": math.nan,
                "note": "zero coupling leaves the joint state a product"}

    start = vonneumann.evolve_exact(rho, pointer, nu, 0.0)  # the one pair of eigh

    def table(e, q_grid=None):
        joint = vonneumann.evolve_further(start, e)
        return vonneumann.joint_distribution(joint, kernel_phi, None, phi_grid, q_grid)

    full = table(eps)  # its default Q grid covers the largest pointer translation
    baseline = vonneumann.joint_distribution(start, kernel_phi, None, phi_grid, full.Q_grid)
    shift = vonneumann.conditional_pointer_shift(full, q, baseline)
    shift_half = vonneumann.conditional_pointer_shift(table(eps / 2.0, full.Q_grid),
                                                      q, baseline)
    dev, dev_half = abs(shift - reference), abs(shift_half - reference)
    return {"shift_over_epsilon": shift,
            "reference_re_weak_value": reference,
            "relative_deviation": dev / max(1.0, abs(reference)),
            "richardson_ratio": dev / dev_half if dev_half > 0 else math.inf}


def _simulate_kerr(opts) -> dict:
    dim = _dim(opts)
    rho_a = _state_from_opts(opts, dim)
    beta = fockspace.alpha_from_quadratures(opts["beta_r"], opts["beta_i"])
    rho_b = fockspace.coherent_state(beta, dim)
    res = vonneumann.simulate_cross_kerr(rho_a, rho_b, opts["epsilon"],
                                         opts["readout_phase"],
                                         [opts["postselect_q"]])
    extracted, reference = float(res.extracted_n_w[0]), float(res.reference_re_n_w[0])
    return {"shift_over_epsilon": float(res.shift_over_epsilon[0]),
            "calibration": float(res.calibration[0]),
            "extracted_n_w": extracted,
            "reference_re_weak_value": reference,
            "relative_deviation": abs(extracted - reference) / max(1.0, abs(reference))}


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


def cmd_simulate(args) -> int:
    opts = _merge_config(args, {
        "coupling": "generic", "epsilon": 1e-3, "observable": "H",
        "alpha_r": 1.0, "alpha_i": 0.0, "nth": 0.0, "eta": 1.0, "fock": None,
        "postselect_q": 0.0, "pointer_sigma": 1.0, "pointer_center": 0.0,
        "pointer_boost": 0.0, "sx": 1.0, "sy": 0.0, "beta_r": 1.0,
        "beta_i": 0.0, "readout_phase": math.pi / 2, "dim": None})
    if opts["coupling"] == "generic":
        results = _simulate_generic(opts)
    elif opts["coupling"] == "kerr":
        results = _simulate_kerr(opts)
    else:
        results = _simulate_qubit(opts)
    _emit({**opts, "dim": _dim(opts)}, results)
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
