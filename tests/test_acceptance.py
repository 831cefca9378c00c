"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Each
criterion is asserted at its stated tolerance; nothing is recalibrated here.
"""

import math
import time

import numpy as np
from scipy.special import erfc

from weakmeas import (
    BasisPair,
    DensityOperator,
    Observable,
    PointerState,
    QuadratureGrid,
    alpha_from_quadratures,
    coherent_state,
    conditional_pointer_shift,
    default_grid,
    delta_kernel,
    displaced_thermal_state,
    effective_distribution,
    effective_marginal,
    effective_thermal_s,
    evolve_exact,
    gaussian_kernel,
    h_closed_profile,
    joint_distribution,
    make_operator,
    marginal_over_phi,
    marginal_over_xi,
    n_closed_profile,
    negativity_probability,
    negativity_scan,
    p2_closed_profile,
    phi_marginal,
    position_density,
    s_distribution,
    sigma_from_efficiency,
    t_distribution,
    thermal_s,
    validate,
    wavefunction_table,
    weak_value,
    weak_value_from_distribution,
)
from conftest import random_density, random_hermitian


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kinetic_energy_negativity():
    target = erfc(1.0)
    start = time.perf_counter()
    closed_err = quad_err = 0.0
    for alpha_r in (0.0, 1.0, 5.0, 50.0):
        profile = p2_closed_profile(alpha_r)
        closed = negativity_probability(profile, "closed_form").probability
        quad = negativity_probability(profile, "quadrature").probability
        closed_err = max(closed_err, abs(closed - target))
        quad_err = max(quad_err, abs(quad - target))
    elapsed = time.perf_counter() - start
    ok = closed_err < 1e-9 and quad_err < 1e-6 and elapsed < 1.0
    _report(1, "P[Re(p2)_w<0] = erfc(1), amplitude-independent", ok,
            f"closed err {closed_err:.2e}, quadrature err {quad_err:.2e}, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_energy_negativity():
    target = 0.5 * erfc(1.0)
    profile = h_closed_profile(1.0, 0.0, 0.0, 0.0)
    closed = negativity_probability(profile, "closed_form").probability
    quad = negativity_probability(profile, "quadrature").probability
    ok = abs(closed - target) < 1e-9 and abs(quad - target) < 1e-6
    _report(2, "P[Re(H_w)<0] = erfc(1)/2 at alpha_r=1, ideal detection", ok,
            f"closed {closed:.10f}, quadrature {quad:.10f}")


def test_criterion_03_photon_number_negativity():
    errs = [abs(negativity_probability(n_closed_profile(a)).probability
                - 0.5 * erfc(a / 2.0)) for a in (0.02, 0.1, 0.5, 1.0, 2.0)]
    near_half = negativity_probability(n_closed_profile(0.02)).probability
    at_zero = negativity_probability(n_closed_profile(0.0)).probability
    ok = max(errs) < 1e-9 and near_half >= 0.49 and at_zero == 0.0
    _report(3, "P[Re(n_w)<0] = erfc(alpha_r/2)/2, limit 1/2, vanishing at 0", ok,
            f"max err {max(errs):.2e}, P(0.02) = {near_half:.4f}, P(0) = {at_zero}")


def test_criterion_04_thermal_distribution_oracle():
    dim = 60
    qs = np.linspace(-3.0, 3.0, 21)
    phi_grid = default_grid(dim=dim).with_points(qs)
    p_grid = default_grid(dim=dim).with_points(qs)
    basis = BasisPair.position_momentum(dim, phi_grid, p_grid)
    sel_q = np.isin(basis.phi_grid.points, qs)
    sel_p = np.isin(basis.xi_points, qs)
    qq = basis.phi_grid.points[sel_q][:, None]
    pp = basis.xi_points[sel_p][None, :]
    worst_plain = worst_eff = 0.0
    for n_th in (0.0, 0.5, 2.0):
        rho = displaced_thermal_state(0.0, n_th, dim)
        dist = s_distribution(rho, basis)
        got = dist.values[np.ix_(sel_q, sel_p)]
        worst_plain = max(worst_plain, np.max(np.abs(got - thermal_s(qq, pp, n_th))))
        for sig2 in (0.0, 0.5):
            eff = effective_distribution(dist, gaussian_kernel(math.sqrt(sig2)))
            got = eff.values[np.ix_(sel_q, sel_p)]
            ref = effective_thermal_s(qq, pp, n_th, math.sqrt(sig2))
            worst_eff = max(worst_eff, np.max(np.abs(got - ref)))
    ok = worst_plain < 1e-6 and worst_eff < 1e-6
    _report(4, "Fock-numeric quasi-distribution matches thermal closed forms", ok,
            f"plain err {worst_plain:.2e}, smeared err {worst_eff:.2e}")


def test_criterion_05_marginality_suite(rng):
    dim = 20
    bases = {"fock": BasisPair.position_fock(dim),
             "momentum": BasisPair.position_momentum(dim)}
    worst = 0.0
    for _ in range(10):
        rho = random_density(dim, rng)
        for basis in bases.values():
            phi_target = position_density(rho, basis.phi_grid.points)
            xi_target = np.einsum("nj,nm,mj->j", basis.xi_matrix.conj(),
                                  rho.matrix, basis.xi_matrix).real
            dist = s_distribution(rho, basis)
            for d in (dist, t_distribution(dist)):
                worst = max(worst,
                            np.max(np.abs(marginal_over_xi(d) - phi_target)),
                            np.max(np.abs(marginal_over_phi(d) - xi_target)))
    ok = worst < 1e-6
    _report(5, "both marginal identities for 10 random states, both bases", ok,
            f"max defect {worst:.2e}")


def test_criterion_06_conditional_expectation_equivalence(rng):
    dim = 16
    basis = BasisPair.position_fock(dim)
    worst = 0.0
    for _ in range(20):
        rho = random_density(dim, rng)
        nu = Observable(random_hermitian(dim, rng))
        phi = float(rng.uniform(-1.5, 1.5))
        sigma = float(rng.uniform(0.0, 0.8))
        kernel = gaussian_kernel(sigma) if sigma > 0.05 else delta_kernel()
        lhs = weak_value_from_distribution(rho, nu, basis, kernel, phi)
        rhs = weak_value(nu, rho, kernel, phi)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    _report(6, "distribution-route weak value equals trace formula", ok,
            f"max |difference| {worst:.2e}")


_LAW_EPS = (1e-3, 5e-4)  # coupling and its half, for the Richardson ratio


def _pointer_law_system():
    """Object state, measured observable and postselected positions of
    criterion 07: coherent alpha_r = 1, energy, q in {-1, 0, 2}."""
    dim = 40
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), dim)
    return rho, make_operator("hamiltonian", dim), [-1.0, 0.0, 2.0]


def _pointer_law(pointer) -> dict:
    """Signed deviations shift - q at eps and at eps/2, keyed by q."""
    rho, nu, qs = _pointer_law_system()
    phi_grid = default_grid(dim=rho.dim, points=120).with_points(qs)
    q_grid = QuadratureGrid.gauss_legendre(14.0, 600)

    def table(eps):
        return joint_distribution(evolve_exact(rho, pointer, nu, eps),
                                  phi_grid=phi_grid, Q_grid=q_grid)

    baseline = table(0.0)
    tables = [table(eps) for eps in _LAW_EPS]
    return {q: tuple(conditional_pointer_shift(t, q, baseline) - q for t in tables)
            for q in qs}


def _second_order_shift(rho, nu, q: float, sigma: float) -> float:
    """c(q) in shift/eps = Re nu_w(q) + c(q) eps^2 + O(eps^4) for a real
    Gaussian pointer whose position density has standard deviation sigma.

    Expanding the pair overlaps int g(Q-a) g(Q-b) dQ = exp(-(a-b)^2/8 sigma^2)
    and int Q g(Q-a) g(Q-b) dQ = (a+b)/2 times that overlap to eps^2 gives

        c = [-Re W30 + Re W21 + Re W10 (2 Re W20 - 2 W11)] / (8 sigma^2),

    with W_ab = <q|nu^a rho nu^b|q> / <q|rho|q>; valid for mixed rho.
    """
    psi = wavefunction_table(rho.dim, q)[:, 0]
    power = np.linalg.matrix_power
    norm = (psi @ rho.matrix @ psi).real

    def w(a, b):
        return psi @ power(nu.matrix, a) @ rho.matrix @ power(nu.matrix, b) @ psi / norm

    w10 = w(1, 0).real
    return ((-w(3, 0).real + w(2, 1).real
             + w10 * (2.0 * w(2, 0).real - 2.0 * w(1, 1).real))
            / (8.0 * sigma * sigma))


def test_criterion_07_first_order_pointer_law():
    """Shift/eps tends to Re nu_w for a single Gaussian pointer and for a
    two-component Gaussian mixture, each at the rate its symmetry allows.

    For a real, even pointer the conditional mean is odd in the coupling, so
    shift - q = c(q) eps^2 + O(eps^4): the signed deviation over eps^2 must
    match the analytic coefficient c(q) (``_second_order_shift``) to 1e-3
    relative at both couplings, and where c(q) vanishes the deviation must
    stay below 1e-9.  The mixture with distinct centers and widths keeps the
    generic first-order remainder, so its signed Richardson halving ratio
    must lie in [1.8, 2.2].
    """
    sigma = 1.0
    single = _pointer_law(PointerState.gaussian(sigma=sigma))
    mix = _pointer_law(PointerState.gaussian_mixture(
        [(0.6, -0.8, 0.7), (0.4, 1.0, 1.3)]))
    rho, nu, _ = _pointer_law_system()

    def worst_dev(devs):
        return max(abs(d[0]) / max(1.0, abs(q)) for q, d in devs.items())

    dev_ok = worst_dev(single) < 0.02 and worst_dev(mix) < 0.02
    single_checks, single_detail = [], []
    for q, devs in single.items():
        c = _second_order_shift(rho, nu, q, sigma)
        scaled = [d / (eps * eps) for d, eps in zip(devs, _LAW_EPS)]
        if abs(c) > 1e-12:
            single_checks += [abs(s - c) <= 1e-3 * abs(c) for s in scaled]
        else:
            single_checks += [abs(d) <= 1e-9 for d in devs]
        single_detail.append(f"q={q:g}: " + "/".join(f"{s:.6g}" for s in scaled)
                             + f" vs c {c:.6g}")
    zero_half = [q for q, (_, half) in mix.items() if half == 0.0]
    if zero_half:
        _report(7, "mixture deviation at eps/2 is nonzero", False,
                f"exactly zero at q = {zero_half}, no halving ratio")
    mix_ratios = [full / half for full, half in mix.values()]
    mix_ratio_ok = all(1.8 <= r <= 2.2 for r in mix_ratios)
    detail = (f"devs {worst_dev(single):.2e}/{worst_dev(mix):.2e}; single-Gaussian "
              f"dev/eps^2 at eps {_LAW_EPS[0]:g}/{_LAW_EPS[1]:g}: "
              + "; ".join(single_detail) + "; mixture ratios "
              + "/".join(f"{r:.2f}" for r in mix_ratios))
    _report(7, "pointer shift/eps -> Re nu_w: single Gaussian at c(q) eps^2, "
            "mixture halving ratio in [1.8, 2.2]",
            dev_ok and all(single_checks) and mix_ratio_ok, detail)


def test_criterion_08_undisturbed_postselection_marginal():
    dim = 30
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), dim)
    nu = make_operator("hamiltonian", dim)
    kernel_phi = gaussian_kernel(0.3)
    phi_grid = default_grid(dim=dim, points=300)
    exact = effective_marginal(rho, kernel_phi)(phi_grid.points)

    def deviation(eps):
        joint = evolve_exact(rho, PointerState.gaussian(), nu, eps)
        return np.max(np.abs(phi_marginal(
            joint_distribution(joint, kernel_phi, None, phi_grid)) - exact))

    ratio = deviation(1e-2) / deviation(5e-3)
    ok = 3.5 <= ratio <= 4.5
    _report(8, "postselection marginal disturbed only at second order", ok,
            f"deviation ratio {ratio:.3f}")


def test_criterion_09_povm_validity():
    grid = default_grid(dim=2, points=800)
    worst = 0.0
    for eta in (0.5, 0.7, 1.0):
        report = validate(gaussian_kernel(sigma_from_efficiency(eta)), grid)
        worst = max(worst, report.max_normalization_defect, report.max_bias_defect)
    ok = worst < 1e-8
    _report(9, "Gaussian detector kernels normalized and unbiased", ok,
            f"max defect {worst:.2e}")


def test_criterion_10_classicality_gate(rng):
    dim = 20
    basis = BasisPair.position_fock(dim)
    h = make_operator("hamiltonian", dim)
    scan_q = np.linspace(-8.0, 8.0, 161)
    floor = math.inf
    gate_ok = True
    for _ in range(10):
        rho = DensityOperator(np.diag(rng.dirichlet(np.ones(dim))).astype(complex))
        t = t_distribution(s_distribution(rho, basis))
        gate_ok &= negativity_scan(t).min_value >= -1e-10
        floor = min(floor, np.min(weak_value(h, rho, delta_kernel(), scan_q).real))
    coherent = coherent_state(alpha_from_quadratures(1.0, 0.0), 40)
    h40 = make_operator("hamiltonian", 40)
    # narrower scan: the coherent tail density underflows the postselection
    # floor beyond |q - 1| ~ 5, and the negative region sits at small q anyway
    coherent_min = np.min(weak_value(h40, coherent, delta_kernel(),
                                     np.linspace(-4.0, 4.0, 81)).real)
    ok = gate_ok and floor >= 0.5 - 1e-6 and coherent_min < 0.0
    _report(10, "nonnegative number-basis distribution keeps Re H_w above 1/2", ok,
            f"mixture floor {floor:.8f}, coherent minimum {coherent_min:.3f}")


def test_criterion_11_figure_regeneration(tmp_path, capsys):
    from weakmeas.cli import FIGURES, main

    start = time.perf_counter()
    tables = {}
    for figure_id in FIGURES:
        path = tmp_path / f"{figure_id}.csv"
        assert main(["figure", figure_id, "--output", str(path)]) == 0
        rows = np.genfromtxt(path, delimiter=",", names=True)
        tables[figure_id] = rows
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # drop the per-figure summary lines

    # noisy-energy sweep: a strictly positive amplitude threshold
    h_noisy = tables["h_noisy"]
    row = h_noisy[h_noisy["alpha_i"] == 0.0]
    alphas, probs = row["alpha_r"], row["probability"]
    positive = alphas[probs > 0]
    threshold_ok = (probs[alphas == 0.0] == 0.0).all() and positive.size > 0 \
        and positive.min() > 0.5
    # photon-number efficiency bound: present at n_th = 0.3, absent at n_th = 0
    n_sweep = tables["n_eta_nth"]
    cold = n_sweep[n_sweep["nth"] == 0.0]
    warm = n_sweep[np.isclose(n_sweep["nth"], 0.3)]
    cold_min_eta = cold["eta"][cold["probability"] > 0].min()
    warm_positive = warm["eta"][warm["probability"] > 0]
    warm_min_eta = warm_positive.min() if warm_positive.size else math.inf
    bound_ok = cold_min_eta <= 0.5 and warm_min_eta > 0.5
    ok = threshold_ok and bound_ok and elapsed < 60.0
    _report(11, "figure sweeps reproduce the qualitative anchors", ok,
            f"h_noisy threshold > {positive.min() if positive.size else math.nan:.2f}, "
            f"efficiency bound {warm_min_eta}, runtime {elapsed:.1f} s")
