import numpy as np
import pytest
from scipy.special import erfc

from weakmeas import (
    Observable,
    UndefinedWeakValueError,
    alpha_from_quadratures,
    classify_strange,
    coherent_state,
    default_grid,
    delta_kernel,
    displaced_thermal_state,
    gaussian_kernel,
    h_closed_profile,
    make_operator,
    n_closed_profile,
    negative_intervals,
    negativity_probability,
    p2_closed_profile,
    sigma_from_efficiency,
    weak_value,
)
from weakmeas.weakvalues import marginal_density
from conftest import random_density, random_hermitian


def test_identity_weak_value_is_one(rng):
    dim = 14
    rho = random_density(dim, rng)
    ident = Observable(np.eye(dim), 1.0)
    for kernel in (delta_kernel(), gaussian_kernel(0.4)):
        for phi in (-0.7, 0.0, 1.3):
            assert weak_value(ident, rho, kernel, phi) == pytest.approx(1.0, abs=1e-10)


def test_weak_value_matches_complex_trace_formula(rng):
    """The real-arithmetic quadratic forms against the complex formula
    sum_i w_i psi(x_i)^T nu rho psi(x_i) / sum_i w_i psi(x_i)^T rho psi(x_i)."""
    from weakmeas import wavefunction_table

    dim = 16
    rho = random_density(dim, rng)
    nu = Observable(random_hermitian(dim, rng), 1.0)
    grid = default_grid(dim=dim, points=300)
    phi = np.array([-1.1, 0.2, 1.9])
    table = wavefunction_table(dim, grid.points)
    f_num = np.einsum("ni,nm,mi->i", table, nu.matrix @ rho.matrix, table)
    f_den = np.einsum("ni,nm,mi->i", table, rho.matrix, table).real
    for kernel in (delta_kernel(), gaussian_kernel(0.6)):
        if kernel.is_projective:
            psi = wavefunction_table(dim, phi)
            ref = (np.einsum("ni,nm,mi->i", psi, nu.matrix @ rho.matrix, psi)
                   / np.einsum("ni,nm,mi->i", psi, rho.matrix, psi).real)
        else:
            smear = kernel(phi[:, None], grid.points[None, :]) * grid.weights
            ref = (smear @ f_num) / (smear @ f_den)
        wv = weak_value(nu, rho, kernel, phi)
        assert np.max(np.abs(wv - ref) / np.abs(ref)) < 1e-12


def test_eigenstate_weak_value_is_eigenvalue():
    dim = 20
    m = np.zeros((dim, dim), dtype=complex)
    m[3, 3] = 1.0
    from weakmeas import DensityOperator

    rho = DensityOperator(m)
    n = make_operator("number", dim)
    for kernel in (delta_kernel(), gaussian_kernel(0.5)):
        assert weak_value(n, rho, kernel, 0.9) == pytest.approx(3.0, abs=1e-9)


def test_vanishing_postselection_raises():
    rho = coherent_state(0.0, 12)
    n = make_operator("number", 12)
    with pytest.raises(UndefinedWeakValueError):
        weak_value(n, rho, delta_kernel(), 40.0)


def test_weak_value_scalar_in_scalar_out():
    rho = coherent_state(0.5, 12)
    n = make_operator("number", 12)
    for q in (0.5, np.float64(0.5), np.array(0.5)):
        assert type(weak_value(n, rho, gaussian_kernel(0.3), q)) is complex
    for q in ([0.5], np.array([0.5]), np.array([0.5, 1.0])):
        assert weak_value(n, rho, gaussian_kernel(0.3), q).shape == np.shape(q)
    assert weak_value(n, rho, gaussian_kernel(0.3), [0.5])[0] == weak_value(
        n, rho, gaussian_kernel(0.3), 0.5)


def test_trace_formula_matches_p2_profile_at_examples():
    rho = coherent_state(0.0, 40)
    p2 = make_operator("momentum_squared", 40)
    profile = p2_closed_profile(0.0)
    wv = weak_value(p2, rho, delta_kernel(), 2.0)
    assert wv.real == pytest.approx(profile.real_value(2.0), abs=1e-8)


def test_p2_profile_ideal_vacuum():
    profile = p2_closed_profile(0.0)
    assert profile.roots == pytest.approx((-1.0, 1.0))
    assert profile.real_value(0.0) == pytest.approx(1.0)
    for root in profile.roots:
        assert abs(profile.real_value(root)) < 1e-12


def test_p2_profile_translates_with_real_amplitude():
    base = p2_closed_profile(0.0, 0.4, 0.3, 0.2)
    shifted = p2_closed_profile(2.5, 0.4, 0.3, 0.2)
    q = np.linspace(-2, 2, 11)
    assert np.max(np.abs(shifted.real_value(q + 2.5) - base.real_value(q))) < 1e-12


def test_h_profile_linear_at_zero_temperature():
    profile = h_closed_profile(1.0)
    assert profile.a == 0.0
    assert profile.b == pytest.approx(1.0)
    assert profile.c == pytest.approx(0.0)
    assert profile.roots == pytest.approx((0.0,))


def test_h_profile_rootless_without_real_displacement():
    profile = h_closed_profile(0.0, 0.8)
    assert profile.a == 0.0 and profile.b == 0.0
    assert profile.c == pytest.approx(0.5 + 0.8 ** 2 / 2)
    assert profile.roots == ()
    assert negative_intervals(profile) == ()


def test_n_profile_is_shifted_energy_profile():
    h = h_closed_profile(0.7, -0.2, 0.4, 0.3)
    n = n_closed_profile(0.7, -0.2, 0.4, 0.3)
    q = np.linspace(-3, 3, 13)
    assert np.max(np.abs(n.value(q) - (h.value(q) - 0.5))) < 1e-12


def test_n_profile_root_for_small_amplitude():
    profile = n_closed_profile(0.1)
    assert len(profile.roots) == 1
    assert abs(profile.real_value(profile.roots[0])) < 1e-10
    assert profile.roots[0] == pytest.approx(0.05)


def test_vacuum_number_weak_value_vanishes_identically():
    profile = n_closed_profile(0.0)
    q = np.linspace(-4, 4, 17)
    assert np.max(np.abs(profile.value(q))) < 1e-14


def test_closed_profiles_match_trace_formula(rng):
    """Closed-form quadratics against the Fock-space trace route, both parts."""
    dim = 60
    operators = {"p2": make_operator("momentum_squared", dim),
                 "H": make_operator("hamiltonian", dim),
                 "n": make_operator("number", dim)}
    builders = {"p2": p2_closed_profile, "H": h_closed_profile, "n": n_closed_profile}
    worst = 0.0
    for _ in range(50):
        alpha_r = rng.uniform(-1.2, 1.2)
        alpha_i = rng.uniform(-1.2, 1.2)
        n_th = rng.uniform(0.0, 1.0)
        eta = rng.uniform(0.5, 1.0)
        sigma = 0.0 if eta > 0.97 else sigma_from_efficiency(eta)
        kernel = gaussian_kernel(sigma)
        rho = displaced_thermal_state(alpha_from_quadratures(alpha_r, alpha_i), n_th, dim)
        tag = ("p2", "H", "n")[rng.integers(3)]
        profile = builders[tag](alpha_r, alpha_i, n_th, sigma)
        qs = np.linspace(alpha_r - 2.5, alpha_r + 2.5, 20)
        wv = weak_value(operators[tag], rho, kernel, qs)
        worst = max(worst, np.max(np.abs(wv - profile.value(qs))))
    assert worst < 1e-6


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.999, 0.9999, 0.99999])
def test_gaussian_weak_value_without_grid_is_exact(eta):
    """With no grid the Gaussian kernel is integrated exactly, so the trace
    route meets the closed profiles however narrow the kernel is."""
    dim = 40
    sigma = sigma_from_efficiency(eta)
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.2, dim)
    q = np.linspace(-1.5, 3.5, 11)
    for kind, build in (("momentum_squared", p2_closed_profile),
                        ("hamiltonian", h_closed_profile), ("number", n_closed_profile)):
        wv = weak_value(make_operator(kind, dim), rho, gaussian_kernel(sigma), q)
        assert np.max(np.abs(wv - build(1.0, 0.3, 0.2, sigma).value(q))) < 1e-10


def test_gaussian_weak_value_without_grid_is_exact_at_large_dim():
    """At dim 800 numpy's hermgauss nodes are NaN and e^{-x^2/2} underflows at the
    outer nodes (|x| = 39.5); the rule stays finite and exact."""
    dim = 800
    sigma = sigma_from_efficiency(0.9)
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.2, dim)
    q = np.array([-1.5, 1.0, 3.5])
    wv = weak_value(make_operator("hamiltonian", dim), rho, gaussian_kernel(sigma), q)
    assert np.max(np.abs(wv - h_closed_profile(1.0, 0.3, 0.2, sigma).value(q))) < 1e-10


def test_profile_roots_are_true_zeros(rng):
    builders = (p2_closed_profile, h_closed_profile, n_closed_profile)
    for _ in range(60):
        build = builders[rng.integers(3)]
        profile = build(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5),
                        rng.uniform(0, 1.5), rng.uniform(0, 1.0))
        for root in profile.roots:
            assert abs(profile.real_value(root)) < 1e-8
        # between/outside structure: the profile is strictly negative at the
        # midpoint of every reported negative interval
        for lo, hi in negative_intervals(profile):
            mid = np.clip(0.5 * (lo + hi), lo + 1e-3, hi - 1e-3) \
                if np.isfinite(lo) and np.isfinite(hi) else \
                (hi - 1.0 if np.isfinite(hi) else lo + 1.0)
            assert profile.real_value(float(mid)) < 0


def test_p2_negativity_probability_closed_form():
    for alpha_r in (0.0, 1.0, 5.0, 50.0):
        res = negativity_probability(p2_closed_profile(alpha_r), "closed_form")
        assert res.probability == pytest.approx(erfc(1.0), abs=1e-12)


def test_h_negativity_probability_peak():
    res = negativity_probability(h_closed_profile(1.0), "closed_form")
    assert res.probability == pytest.approx(0.5 * erfc(1.0), abs=1e-12)


def test_n_negativity_probability_small_amplitude_limit():
    assert negativity_probability(n_closed_profile(0.02)).probability >= 0.49
    assert negativity_probability(n_closed_profile(0.0)).probability == 0.0
    got = negativity_probability(n_closed_profile(0.6, 0.3)).probability
    assert got == pytest.approx(0.5 * erfc((0.36 + 0.09) / 1.2), abs=1e-12)


def test_quadrature_agrees_with_closed_form():
    cases = [p2_closed_profile(0.7, 0.3, 0.4, 0.5),
             p2_closed_profile(0.0),
             h_closed_profile(1.0),
             h_closed_profile(0.4, 0.2),
             n_closed_profile(0.8),
             n_closed_profile(0.05)]
    for profile in cases:
        closed = negativity_probability(profile, "closed_form").probability
        quad = negativity_probability(profile, "quadrature").probability
        assert abs(closed - quad) < 1e-15


def test_closed_form_unavailable_for_noisy_energy():
    with pytest.raises(ValueError):
        negativity_probability(h_closed_profile(1.0, 0.0, 0.3, 0.2), "closed_form")
    res = negativity_probability(h_closed_profile(1.0, 0.0, 0.3, 0.2))
    assert res.method == "quadrature"


def test_p2_probability_monotone_in_each_noise_parameter():
    base = negativity_probability(p2_closed_profile(1.0)).probability
    for kwargs in ({"alpha_i": 0.5}, {"n_th": 0.4}, {"sigma_eta": 0.6}):
        lower = negativity_probability(p2_closed_profile(1.0, **kwargs)).probability
        assert lower < base
    # and non-increasing along a sweep of each parameter
    for key in ("alpha_i", "n_th", "sigma_eta"):
        probs = [negativity_probability(p2_closed_profile(1.0, **{key: v})).probability
                 for v in np.linspace(0, 1.5, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))


def test_negative_energy_rarer_than_below_zero_point():
    for args in ((1.0, 0.0, 0.0, 0.0), (0.8, 0.3, 0.2, 0.4), (1.5, 0.0, 0.5, 0.3)):
        below_zero = negativity_probability(h_closed_profile(*args)).probability
        below_floor = negativity_probability(n_closed_profile(*args)).probability
        assert below_zero <= below_floor + 1e-12


def test_representation_independent_probability():
    # Re H_w(q) evaluated through the number-basis and momentum-basis
    # conditional expectations gives the same negativity probability
    from weakmeas import BasisPair, weak_value_from_distribution

    dim = 60
    alpha_r, n_th = 1.0, 0.0
    rho = displaced_thermal_state(alpha_from_quadratures(alpha_r, 0.0), n_th, dim)
    h = make_operator("hamiltonian", dim)
    bases = (BasisPair.position_fock(dim), BasisPair.position_momentum(dim))
    qs = np.linspace(-3.0, 3.0, 61)
    exact = h_closed_profile(alpha_r).real_value(qs)  # Re H_w(q) = q
    # at q = 0 the exact value is 0, and its computed sign is round-off's
    away = np.abs(qs) > 1e-8
    signs = []
    for basis in bases:
        vals = np.array([weak_value_from_distribution(rho, h, basis,
                                                      delta_kernel(), q).real
                         for q in qs])
        assert np.max(np.abs(vals - exact)) < 1e-8
        signs.append(vals[away] < 0)
    assert np.array_equal(signs[0], signs[1])
    density = marginal_density(qs[away], alpha_r, n_th, 0.0)
    dq = qs[1] - qs[0]
    probs = [float(np.sum(density * mask) * dq) for mask in signs]
    assert abs(probs[0] - probs[1]) < 1e-8


def test_classify_strange_categories():
    profile = h_closed_profile(1.0)  # Re H_w(q) = q
    assert classify_strange(profile, 0.7) == "not_strange"
    assert classify_strange(profile, 0.3) == "category_i"
    assert classify_strange(profile, -0.2) == "category_ii"


def test_classify_strange_number_thresholds():
    profile = n_closed_profile(1.0)  # Re n_w(q) = q - 1/2
    assert classify_strange(profile, 0.8) == "not_strange"
    assert classify_strange(profile, 0.2) == "category_i"
    assert classify_strange(profile, -0.2) == "category_ii"
    with pytest.raises(ValueError):
        classify_strange(p2_closed_profile(0.0), 0.0)


def test_profile_imaginary_part_matches_trace_formula():
    dim = 60
    rho = displaced_thermal_state(alpha_from_quadratures(0.5, 0.9), 0.4, dim)
    p2 = make_operator("momentum_squared", dim)
    profile = p2_closed_profile(0.5, 0.9, 0.4, 0.0)
    for q in (-1.0, 0.3, 1.7):
        wv = weak_value(p2, rho, delta_kernel(), q)
        assert wv.imag == pytest.approx(profile.value(q).imag, abs=1e-8)


def test_profile_parameter_validation():
    with pytest.raises(ValueError):
        h_closed_profile(0.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        p2_closed_profile(0.0, 0.0, 0.0, -0.5)
