"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Ops come in rounds of ``ROUND`` ops, and a run is a whole number of
rounds: its length in seconds over ``ROUND_SECONDS``, the time one round
takes on the reference machine (2 vCPUs, one BLAS thread).  So the seed and
the run length alone fix which ops a run makes, on every version of the
code, and every repeat of a run attempts, and fails, the same ops.

Within a round, the choices that set an op's cost class (grid size, basis,
coupling, pointer shape, projective or not) follow a fixed cycle, and
the detector efficiency of ``trace_sweep`` visits every one of its strata
once.  So every round has the same mix of cheap and expensive ops whatever
the seed, which keeps ops/s and the latency quantiles steady across seeds.
That matters most for ``trace_sweep``, whose cost is steep in the
efficiency: the top 2 % of the efficiency range takes about half its time.

The continuous parameters of op k come from a Cranley-Patterson rotated R_d
low-discrepancy sequence: the seed fixes a random offset per parameter axis,
and op k sits at ``offset + k * step`` (mod 1).  Draws stay continuous,
differ between seeds and cover the domain evenly.

Each op is checked by an independent route after it returns; the check is
not part of the op's timed latency.  A check returns ``None`` when the op is
correct and a one-line reason otherwise.  Reasons start with a short tag
(before the first colon) that the run report counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

DIM = 40  # the paper's Fock truncation, kept for every workload

# Tier-1 tolerances reused as the checks' thresholds
TRACE_VS_CLOSED_TOL = 1e-6  # tests/test_weakvalues.py, closed vs trace formula
MARGINAL_TOL = 1e-6  # criterion 05, marginal identities
# distribution route vs trace formula: criterion 06 on the Fock basis; on the
# momentum basis the route is a quadrature over the p grid, held to the 1e-6
# that criteria 04 and 05 set for momentum-grid quantities
ROUTE_TOL = {"fock": 1e-8, "momentum": 1e-6}
# first-order pointer law: |shift/eps - Re nu_w| <= POINTER_TOL * eps * (1 + |Re nu_w|)
POINTER_TOL = 20.0  # about 3x the largest constant seen over the domain

OBSERVABLES = ("p2", "H", "n")
OPERATOR_KINDS = {"p2": "momentum_squared", "H": "hamiltonian", "n": "number"}


def _rd_steps(dims: int) -> np.ndarray:
    """Step vector of the R_d sequence (Roberts 2018): powers of the inverse
    of the unique positive root of x^(d+1) = x + 1."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    return (1.0 / g) ** np.arange(1, dims + 1) % 1.0


class Draws:
    """Seeded low-discrepancy points in [0, 1)^dims, one per op index."""

    def __init__(self, seed: int, dims: int, stream: str):
        # the stream name keeps workloads on the same seed independent
        salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
        self.offset = np.random.default_rng([seed, salt]).random(dims)
        self.step = _rd_steps(dims)

    def __call__(self, k: int) -> np.ndarray:
        return (self.offset + (k + 1) * self.step) % 1.0


def _lerp(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _pick(u: float, options):
    return options[min(int(u * len(options)), len(options) - 1)]


def _eta(u_gate: float, u_value: float) -> float:
    """A quarter of draws are exactly 1 (projective); the rest are
    continuous in [0.5, 0.999]."""
    return 1.0 if u_gate < 0.25 else _lerp(u_value, 0.5, 0.999)


def digest(obj) -> str:
    """SHA-256 over the exact bytes of an op result (arrays, numbers, strings)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(key.encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for item in x:
                feed(item)
        elif isinstance(x, (str, bytes)):
            h.update(x.encode() if isinstance(x, str) else x)
        elif x is None:
            h.update(b"None")
        elif hasattr(x, "values"):  # QuasiDistribution
            feed(x.values)
        elif hasattr(x, "matrix"):  # DensityOperator, Observable
            feed(x.matrix)
        else:
            arr = np.asarray(x)
            h.update(str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())

    feed(obj)
    return h.hexdigest()


def _state(wm, p):
    alpha = wm.fockspace.alpha_from_quadratures(p["alpha_r"], p["alpha_i"])
    return wm.fockspace.displaced_thermal_state(alpha, p["nth"], DIM)


def _closed(wm, observable, p, sigma_eta):
    build = {"p2": wm.weakvalues.p2_closed_profile, "H": wm.weakvalues.h_closed_profile,
             "n": wm.weakvalues.n_closed_profile}[observable]
    return build(p["alpha_r"], p["alpha_i"], p["nth"], sigma_eta)


# ---------------------------------------------------------------------------
# trace_sweep: trace-formula weak values against closed-form profiles

class TraceSweep:
    """One op: one displaced thermal state from the paper's figure domain,
    ``weak_value`` at a vector of postselections, the closed-form profile at
    the same points, the negativity probability and the strangeness class."""

    name = "trace_sweep"
    in_process = True
    ROUND = 128  # every fourth op projective, the other 96 one per eta stratum
    ROUND_SECONDS = 10.5
    STRATA = 96
    warmup = {"alpha_r": 1.0, "alpha_i": 0.5, "nth": 0.3, "eta": 0.9,
              "observable": "H", "q": [-0.5, 0.5, 1.5]}

    def __init__(self, seed: int):
        self.seed = seed
        self.draws = Draws(seed, 6, self.name)

    def _efficiency(self, k: int, u: float) -> float:
        """1 for every fourth op.  The other ops of a round cut [0.5, 0.999]
        into 96 equal strata and take one each, in a seeded order, at a seeded
        position inside the stratum, so adaptive grid sizes rarely repeat."""
        r, i = divmod(k, self.ROUND)
        if i % 4 == 3:
            return 1.0
        order = np.random.default_rng([self.seed, r]).permutation(self.STRATA)
        return 0.5 + 0.499 * (order[i - (i + 1) // 4] + u) / self.STRATA

    def inputs(self, k: int) -> dict:
        u = self.draws(k)
        ar = _lerp(u[0], 0.0, 3.0)
        return {"alpha_r": ar, "alpha_i": _lerp(u[1], 0.0, 2.0),
                "nth": _lerp(u[2], 0.0, 1.0), "eta": self._efficiency(k, u[3]),
                "observable": _pick(u[4], OBSERVABLES),
                "q": (np.linspace(ar - 2.5, ar + 2.5, 8) + _lerp(u[5], -0.2, 0.2)).tolist()}

    def run(self, wm, p) -> dict:
        rho = _state(wm, p)
        nu = wm.fockspace.make_operator(OPERATOR_KINDS[p["observable"]], DIM)
        sigma = wm.povm.sigma_from_efficiency(p["eta"])
        q = np.asarray(p["q"])
        trace = wm.weakvalues.weak_value(nu, rho, wm.povm.gaussian_kernel(sigma), q)
        profile = _closed(wm, p["observable"], p, sigma)
        neg = wm.weakvalues.negativity_probability(profile)
        classes = ([wm.weakvalues.classify_strange(profile, float(x)) for x in q]
                   if p["observable"] != "p2" else [])
        return {"trace": trace, "closed": profile.value(q),
                "probability": neg.probability, "method": neg.method, "classes": classes}

    def check(self, wm, p, r):
        gap = float(np.max(np.abs(r["trace"] - r["closed"])))
        if not gap <= TRACE_VS_CLOSED_TOL:
            return (f"trace_vs_closed: |trace - closed| = {gap:.2e} > {TRACE_VS_CLOSED_TOL:g} "
                    f"at alpha_r={p['alpha_r']:.3f} alpha_i={p['alpha_i']:.3f} "
                    f"nth={p['nth']:.3f} eta={p['eta']:.4f} {p['observable']}")
        if not 0.0 <= r["probability"] <= 1.0:
            return f"probability_range: {r['probability']!r} outside [0, 1]"
        return None


# ---------------------------------------------------------------------------
# distribution_grid: quasi-distribution grids and the distribution route

class DistributionGrid:
    """One op: one quasi-distribution grid with its negativity scan and
    distribution-route weak values.  Basis, nodes per axis and smearing follow
    ``CYCLE``; the state, S or T, and the observable are drawn."""

    name = "distribution_grid"
    in_process = True
    warmup = {"alpha_r": 0.5, "alpha_i": 0.5, "nth": 0.2, "eta": 0.8, "basis": "fock",
              "points": 200, "kind": "T_eta", "observable": "H", "phi": [0.0, 0.5, 1.0]}

    # (basis, nodes per axis, smeared kind): one round is one of each
    CYCLE = tuple((basis, points, smeared) for basis in ("fock", "momentum")
                  for points in (200, 400) for smeared in (False, True))
    ROUND = len(CYCLE)
    ROUND_SECONDS = 0.25

    def __init__(self, seed: int):
        self.draws = Draws(seed, 7, self.name)

    def inputs(self, k: int) -> dict:
        u = self.draws(k)
        ar = _lerp(u[0], 0.0, 3.0)
        basis, points, smeared = self.CYCLE[k % self.ROUND]
        return {"alpha_r": ar, "alpha_i": _lerp(u[1], 0.0, 2.0),
                "nth": _lerp(u[2], 0.0, 1.0), "eta": _lerp(u[3], 0.5, 0.999),
                "basis": basis, "points": points,
                "kind": _pick(u[4], ("S", "T")) + ("_eta" if smeared else ""),
                "observable": _pick(u[5], OBSERVABLES),
                "phi": [ar + _lerp(u[6], -1.5, -0.5), ar + _lerp(u[6], -0.25, 0.25),
                        ar + _lerp(u[6], 0.5, 1.5)]}

    def run(self, wm, p) -> dict:
        fs, qp = wm.fockspace, wm.quasiprob
        alpha = fs.alpha_from_quadratures(p["alpha_r"], p["alpha_i"])
        rho = fs.displaced_thermal_state(alpha, p["nth"], DIM)
        grid = fs.default_grid(dim=DIM, alpha=alpha, n_th=p["nth"], points=p["points"])
        if p["basis"] == "fock":
            basis = qp.BasisPair.position_fock(DIM, grid)
        else:
            basis = qp.BasisPair.position_momentum(DIM, grid, grid)
        plain = qp.s_distribution(rho, basis)
        dist = plain
        if p["kind"].endswith("_eta"):
            kernel = wm.povm.gaussian_kernel(wm.povm.sigma_from_efficiency(p["eta"]))
            dist = qp.effective_distribution(dist, kernel)
        if p["kind"].startswith("T"):
            dist = qp.t_distribution(dist)
        scan = qp.negativity_scan(dist if dist.is_real_kind else qp.t_distribution(dist))
        nu = fs.make_operator(OPERATOR_KINDS[p["observable"]], DIM)
        projective = wm.povm.delta_kernel()
        route = [qp.weak_value_from_distribution(rho, nu, basis, projective, phi)
                 for phi in p["phi"]]
        return {"plain": plain, "dist": dist,
                "scan": [scan.min_value, scan.min_phi, scan.min_xi,
                         scan.negative_mass_fraction],
                "route": np.asarray(route), "rho": rho, "nu": nu}

    def check(self, wm, p, r):
        phi_grid = r["plain"].basis.phi_grid
        density = wm.fockspace.position_density(r["rho"], phi_grid.points)
        expected = density  # xi-marginal of the returned grid, S, T or smeared
        if p["kind"].endswith("_eta"):
            kernel = wm.povm.gaussian_kernel(wm.povm.sigma_from_efficiency(p["eta"]))
            expected = wm.povm.smear_matrix(kernel, phi_grid.points, phi_grid) @ density
        for tag, dist, ref in (("marginal_vs_density", r["plain"], density),
                               ("result_marginal_vs_density", r["dist"], expected)):
            gap = float(np.max(np.abs(wm.quasiprob.marginal_over_xi(dist) - ref)))
            if not gap <= MARGINAL_TOL:
                return (f"{tag}: {gap:.2e} > {MARGINAL_TOL:g} "
                        f"({p['basis']}, {p['points']} nodes, {p['kind']})")
        trace = wm.weakvalues.weak_value(r["nu"], r["rho"], wm.povm.delta_kernel(),
                                         np.asarray(p["phi"]))
        gap = float(np.max(np.abs(r["route"] - trace) / np.maximum(1.0, np.abs(trace))))
        if not gap <= ROUTE_TOL[p["basis"]]:
            return (f"route_vs_trace: {gap:.2e} > {ROUTE_TOL[p['basis']]:g} "
                    f"({p['basis']}, {p['points']} nodes, {p['observable']})")
        if not -1e-12 <= r["scan"][3] <= 1.0:
            return f"negative_mass_range: {r['scan'][3]!r} outside [0, 1]"
        return None


# ---------------------------------------------------------------------------
# pointer_sim: finite-strength pointer simulations

# One round, as (coupling, two-component pointer, n_th band).  Band "pure" is
# n_th = 0 (rank 1); band j of NTH_BANDS is n_th in [j/6, (j+1)/6), at a
# seeded point inside it, which at dim 40 gives rank about 2-17, 17-23,
# 23-29, 29-35, 35-40 and 40 (eigenvalues below RANK_CLIP of the largest are
# dropped).  Every band meets both pointer shapes once per round.  The generic
# impulse costs about 130 ms at rank 1, and about 300 ms with one component
# and 550 ms with two at rank 40; kerr and qubit ops cost 10-20 ms.
NTH_BANDS = 6
POINTER_CYCLE = (("kerr", None, None), ("generic", False, 5), ("generic", True, 0),
                 ("generic", False, "pure"), ("generic", True, 3), ("generic", False, 1),
                 ("qubit", None, None), ("generic", True, 5), ("generic", False, 2),
                 ("generic", True, "pure"), ("generic", False, 4), ("generic", True, 1),
                 ("generic", False, 3), ("generic", True, 4), ("generic", False, 0),
                 ("generic", True, 2))


class PointerSim:
    """One op: one finite-strength simulation.  Fourteen ops in sixteen are
    the generic impulse (single-Gaussian or two-component-mixture pointer;
    a pure state, or n_th from one of the bands of ``POINTER_CYCLE``, so
    state ranks run from 1 to 40); one each is a cross-Kerr and a qubit
    pointer, on states with n_th anywhere in [0, 1]."""

    name = "pointer_sim"
    in_process = True
    ROUND = len(POINTER_CYCLE)
    ROUND_SECONDS = 4.6
    warmup = {"coupling": "generic", "alpha_r": 1.0, "alpha_i": 0.0, "nth": 0.0,
              "eta": 1.0, "observable": "H", "q": 0.5, "epsilon": 1e-3,
              "mixture": False, "pointer_sigma": 1.0}

    def __init__(self, seed: int):
        self.draws = Draws(seed, 9, self.name)

    def inputs(self, k: int) -> dict:
        u = self.draws(k)
        ar = _lerp(u[0], 0.0, 2.0)
        coupling, mixture, band = POINTER_CYCLE[k % self.ROUND]
        if band is None:
            nth = _lerp(u[2], 0.0, 1.0)
        elif band == "pure":
            nth = 0.0
        else:
            nth = (band + u[2]) / NTH_BANDS
        p = {"coupling": coupling,
             "alpha_r": ar, "alpha_i": _lerp(u[1], 0.0, 1.5),
             "nth": nth, "epsilon": _lerp(u[3], 1e-3, 4e-3)}
        if p["coupling"] == "generic":
            p.update(eta=_eta(u[4], u[5]), observable=_pick(u[6], OBSERVABLES),
                     q=ar + _lerp(u[7], -1.5, 1.5), mixture=mixture,
                     pointer_sigma=_lerp(u[8], 0.7, 1.3))
        elif p["coupling"] == "kerr":
            p.update(beta_r=_lerp(u[4], 1.0, 2.0),
                     q=np.linspace(ar - 2.0, ar + 2.0, 50).tolist())
        else:
            s_x = _lerp(u[4], 0.6, 1.0)
            p.update(s_x=s_x, s_y=_lerp(u[5], -0.5, 0.5) * math.sqrt(1.0 - s_x * s_x),
                     q=np.linspace(ar - 2.5, ar + 2.5, 400).tolist())
        return p

    def run(self, wm, p) -> dict:
        fs, vn = wm.fockspace, wm.vonneumann
        rho = _state(wm, p)
        eps = p["epsilon"]
        if p["coupling"] == "kerr":
            beta = fs.alpha_from_quadratures(p["beta_r"], 0.0)
            res = vn.simulate_cross_kerr(rho, fs.coherent_state(beta, DIM), eps,
                                         math.pi / 2, p["q"])
            return {"estimate": res.extracted_n_w, "shift": res.shift_over_epsilon}
        if p["coupling"] == "qubit":
            res = vn.simulate_qubit_pointer(rho, vn.PointerState.qubit(p["s_x"], p["s_y"]),
                                            eps, p["q"])
            return {"estimate": res.n_estimate, "slopes": [res.sigma_x_slope,
                                                           res.sigma_y_slope]}
        if p["mixture"]:
            pointer = vn.PointerState.gaussian_mixture(
                [(0.6, -0.8, 0.7 * p["pointer_sigma"]), (0.4, 1.0, 1.3 * p["pointer_sigma"])])
        else:
            pointer = vn.PointerState.gaussian(p["pointer_sigma"])
        current = vn.check_zero_current(pointer)
        nu = fs.make_operator(OPERATOR_KINDS[p["observable"]], DIM)
        kernel = wm.povm.gaussian_kernel(wm.povm.sigma_from_efficiency(p["eta"]))
        phi_grid = fs.default_grid(dim=DIM).with_points([p["q"]])
        span = float(np.max(np.abs(pointer.centers) + 10.0 * pointer.sigmas)) + 1.0
        q_grid = fs.QuadratureGrid.gauss_legendre(span, 500)

        def table(e):
            return vn.joint_distribution(vn.evolve_exact(rho, pointer, nu, e),
                                         kernel, None, phi_grid, q_grid)

        baseline = table(0.0)
        shifts = [vn.conditional_pointer_shift(table(e), p["q"], baseline)
                  for e in (eps, eps / 2.0)]
        return {"estimate": np.asarray(shifts[:1]), "half": shifts[1],
                "current": current.max_violation}

    def check(self, wm, p, r):
        sigma = 0.0 if p["coupling"] != "generic" else \
            wm.povm.sigma_from_efficiency(p["eta"])
        observable = p.get("observable", "n")
        ref = _closed(wm, observable, p, sigma).real_value(np.asarray(p["q"]))
        ref = np.atleast_1d(ref)
        tol = POINTER_TOL * p["epsilon"] * (1.0 + np.abs(ref))
        dev = np.abs(r["estimate"] - ref)
        if not np.all(dev <= tol):
            i = int(np.argmax(dev / tol))
            return (f"{p['coupling']}_shift_vs_closed: |estimate - Re nu_w| = {dev[i]:.2e} "
                    f"> {tol[i]:.2e} (eps={p['epsilon']:.2e})")
        return None


# ---------------------------------------------------------------------------
# cli_cold: README commands, each in a fresh interpreter

# One round.  The import-dominated commands come twice, so that the median op
# and the tail percentile both fall inside that class rather than on its edge
# with the costlier ones, where a slower machine moment moves them most.  The
# projective weak-value has eta = 1; the other has eta in NEAR_ONE, where the
# adaptive grid asks for its 3000-node cap.
CLI_MIX = ("weak-value projective", "figure h_noisy", "distribution fock", "simulate kerr",
           "figure p2_eta_nth", "simulate qubit", "simulate generic", "weak-value projective",
           "figure h_noisy", "distribution fock", "weak-value near_one", "simulate kerr",
           "figure p2_eta_nth", "simulate qubit", "distribution momentum")
NEAR_ONE = (0.995, 0.999)


class CliCold:
    """One op: one README command in a fresh ``python -m weakmeas.cli``
    process, from a fixed cyclic mix with parameters drawn from the seed."""

    name = "cli_cold"
    in_process = False
    ROUND = len(CLI_MIX)
    ROUND_SECONDS = 11.2
    warmup = None

    def __init__(self, seed: int):
        self.draws = Draws(seed, 7, self.name)

    def inputs(self, k: int) -> dict:
        u = self.draws(k)
        command = CLI_MIX[k % self.ROUND]
        state = {"alpha_r": _lerp(u[0], 0.0, 3.0), "alpha_i": _lerp(u[1], 0.0, 2.0),
                 "nth": _lerp(u[2], 0.0, 1.0)}
        if command.startswith("weak-value"):
            eta = 1.0 if command.endswith("projective") else _lerp(u[3], *NEAR_ONE)
            p = dict(state, eta=eta, observable=_pick(u[5], OBSERVABLES),
                     q=state["alpha_r"] + _lerp(u[6], -2.0, 2.0))
        elif command.startswith("figure"):
            fig = command.split()[1]
            p = {"figure": fig, "steps": 21}
            if fig == "h_noisy":
                p["alpha_r_max"] = _lerp(u[3], 2.0, 3.0)
            else:
                p["nth_max"] = _lerp(u[3], 0.5, 1.0)
        elif command.startswith("distribution"):
            p = dict(state, basis=command.split()[1], eta=_lerp(u[3], 0.5, 0.999),
                     kind=_pick(u[4], ("S", "T", "S_eta", "T_eta")), points=200)
        else:
            coupling = command.split()[1]
            p = {"coupling": coupling, "alpha_r": _lerp(u[0], 0.0, 2.0),
                 "alpha_i": _lerp(u[1], 0.0, 1.5), "nth": _lerp(u[2], 0.0, 1.0),
                 "epsilon": _lerp(u[3], 1e-3, 4e-3)}
            p["q"] = p["alpha_r"] + _lerp(u[4], -1.5, 1.5)
            if coupling == "generic":
                p["observable"] = _pick(u[5], OBSERVABLES)
            elif coupling == "qubit":
                p["sx"] = _lerp(u[5], 0.6, 1.0)
        p["command"] = command.split()[0]
        return p

    @staticmethod
    def argv(p: dict, out_path: str) -> list:
        """weakmeas CLI arguments for one op; files go to ``out_path``."""
        def f(x):
            return format(float(x), ".17g")

        state = ["--alpha-r", f(p["alpha_r"]), "--alpha-i", f(p["alpha_i"]),
                 "--nth", f(p["nth"])] if "alpha_r" in p else []
        if p["command"] == "weak-value":
            return ["weak-value", "--observable", p["observable"], *state,
                    "--eta", f(p["eta"]), "--q", f(p["q"])]
        if p["command"] == "figure":
            extra = (["--alpha-r-max", f(p["alpha_r_max"])] if "alpha_r_max" in p
                     else ["--nth-max", f(p["nth_max"])])
            return ["figure", p["figure"], "--output", out_path,
                    "--steps", str(p["steps"]), *extra]
        if p["command"] == "distribution":
            return ["distribution", "--kind", p["kind"], "--xi-basis", p["basis"], *state,
                    "--eta", f(p["eta"]), "--points", str(p["points"]),
                    "--output", out_path]
        argv = ["simulate", "--coupling", p["coupling"], *state,
                "--epsilon", f(p["epsilon"]), "--postselect-q", f(p["q"])]
        if p["coupling"] == "generic":
            argv += ["--observable", p["observable"]]
        if p["coupling"] == "qubit":
            argv += ["--sx", f(p["sx"])]
        return argv

    def check(self, wm, p, r):
        """Exit code, JSON shape, row counts, probabilities in [0, 1], and the
        closed form against the trace formula."""
        if r["returncode"] != 0:
            tail = r["stderr"].strip().splitlines()[-1:] or [""]
            return f"exit_{r['returncode']}: {p['command']}: {tail[0][:160]}"
        try:
            record = json.loads(r["stdout"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"json_shape: {p['command']}: last stdout line is not JSON"
        if set(record) != {"params", "results"}:
            return f"json_shape: {p['command']}: keys {sorted(record)}"
        res = record["results"]
        if p["command"] == "weak-value":
            gap = abs(res["re"] - res["re_trace_formula"])
            if not gap <= TRACE_VS_CLOSED_TOL:
                return (f"trace_vs_closed: |re - re_trace_formula| = {gap:.2e} "
                        f"> {TRACE_VS_CLOSED_TOL:g} ({p['observable']}, eta={p['eta']:.4f})")
        elif p["command"] == "figure":
            rows = r["rows"]
            if len(rows) != p["steps"] ** 2 or record["params"]["cells"] != len(rows):
                return f"row_count: figure {p['figure']}: {len(rows)} rows"
            probs = [float(row[2]) for row in rows]
            if not all(0.0 <= x <= 1.0 for x in probs):
                return f"probability_range: figure {p['figure']}"
        elif p["command"] == "distribution":
            xi_count = DIM if p["basis"] == "fock" else p["points"]
            if len(r["rows"]) != p["points"] * xi_count or res["rows"] != len(r["rows"]):
                return f"row_count: distribution: {len(r['rows'])} rows"
            if not 0.0 <= res["negative_mass_fraction"] <= 1.0:
                return "probability_range: distribution negative_mass_fraction"
        else:
            estimate = res.get("extracted_n_w", res.get("shift_over_epsilon"))
            ref = res["reference_re_weak_value"]
            tol = POINTER_TOL * p["epsilon"] * (1.0 + abs(ref))
            if not abs(estimate - ref) <= tol:
                return (f"{p['coupling']}_shift_vs_closed: {abs(estimate - ref):.2e} "
                        f"> {tol:.2e}")
        return None


def run_cli(argv: list, root: str, launcher: list | None = None) -> dict:
    """Run one weakmeas command in a fresh interpreter.

    ``launcher`` replaces ``-m weakmeas.cli`` (the traced run uses its own
    child entry point).  Returns exit code, stdout and stderr.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, *(launcher or ["-m", "weakmeas.cli"]), *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=170)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def read_output(out_path: str) -> tuple[list, int]:
    """CSV data rows (header dropped) and byte size of a command's output file."""
    if not os.path.exists(out_path):
        return [], 0
    size = os.path.getsize(out_path)
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    os.remove(out_path)
    return rows, size


WORKLOADS = {w.name: w for w in (CliCold, TraceSweep, DistributionGrid, PointerSim)}
