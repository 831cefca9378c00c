import math

import numpy as np
import pytest

from weakmeas import (
    BasisPair,
    alpha_from_quadratures,
    coherent_state,
    custom_kernel,
    default_grid,
    delta_kernel,
    displaced_thermal_state,
    effective_marginal,
    gaussian_kernel,
    h_closed_profile,
    make_operator,
    n_closed_profile,
    p2_closed_profile,
    position_density,
    sigma_from_efficiency,
    validate,
    wavefunction_table,
    weak_value,
    weak_value_from_distribution,
)
from weakmeas.povm import postselection_rule
from weakmeas.weakvalues import marginal_density


def test_zero_width_is_projective():
    k = gaussian_kernel(0.0)
    assert k.is_projective
    rho = coherent_state(0.0, 10)
    grid = default_grid(dim=10)
    density = effective_marginal(rho, k, grid)
    exact = position_density(rho, grid.points)
    assert np.max(np.abs(density(grid.points) - exact)) < 1e-14


def test_gaussian_peak_value():
    k = gaussian_kernel(1.0)
    assert k(0.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-14)


def test_gaussian_kernel_rejects_negative_width():
    with pytest.raises(ValueError):
        gaussian_kernel(-0.2)


def test_gaussian_normalization_and_bias():
    report = validate(gaussian_kernel(0.5), default_grid(dim=2, points=600))
    assert report.max_normalization_defect < 1e-10
    assert report.max_bias_defect < 1e-10
    assert report.passed()


@pytest.mark.parametrize("eta,expected", [(1.0, 0.0),
                                          (0.5, math.sqrt(0.5)),
                                          (0.7, math.sqrt(3.0 / 14.0))])
def test_sigma_from_efficiency_values(eta, expected):
    assert sigma_from_efficiency(eta) == pytest.approx(expected, abs=1e-12)


def test_sigma_from_efficiency_domain_and_monotonicity():
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            sigma_from_efficiency(bad)
    etas = np.linspace(0.05, 1.0, 40)
    sigmas = [sigma_from_efficiency(e) for e in etas]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[-1] == 0.0


def _triangle(offset):
    # unit-area triangle of half-width 1 centered at phi' + offset
    def func(phi, phi_prime):
        x = np.abs(np.asarray(phi) - np.asarray(phi_prime) - offset)
        return np.maximum(1.0 - x, 0.0)

    return func


def _kink_aligned_grid():
    # trapezoid nodes every 0.05 so the triangle kinks land on nodes exactly
    from weakmeas import QuadratureGrid

    return QuadratureGrid.uniform(8.0, 321)


def test_symmetric_triangle_kernel_passes():
    report = validate(custom_kernel(_triangle(0.0), 0.5), _kink_aligned_grid())
    assert report.max_normalization_defect < 1e-10
    assert report.max_bias_defect < 1e-10


def test_shifted_triangle_kernel_flags_bias():
    report = validate(custom_kernel(_triangle(0.2), 0.5), _kink_aligned_grid())
    assert report.max_normalization_defect < 1e-10
    assert report.max_bias_defect == pytest.approx(0.2, abs=1e-10)


def test_variable_width_gaussian_family_is_admissible():
    # width may depend on the true value; normalization and unbiasedness
    # survive because each column stays a centered Gaussian
    def func(phi, phi_prime):
        sigma = 0.3 + 0.05 * np.tanh(np.asarray(phi_prime))
        return np.exp(-((np.asarray(phi) - phi_prime) ** 2) / (2 * sigma**2)) \
            / (np.sqrt(2 * np.pi) * sigma)

    report = validate(custom_kernel(func, 0.35), default_grid(dim=2, points=900))
    assert report.max_normalization_defect < 1e-10
    assert report.max_bias_defect < 1e-10


def test_effective_marginal_ideal_detector_gaussian():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.0, 40)
    grid = default_grid(dim=40)
    density = effective_marginal(rho, gaussian_kernel(0.0), grid)
    q = np.linspace(-2, 4, 25)
    assert np.max(np.abs(density(q) - marginal_density(q, 1.0, 0.0, 0.0))) < 1e-8


def test_effective_marginal_adds_detector_variance():
    sigma = math.sqrt(0.5)
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.0, 40)
    grid = default_grid(dim=40)
    density = effective_marginal(rho, gaussian_kernel(sigma), grid)
    q = grid.points
    mean = grid.integrate(q * density(q))
    var = grid.integrate((q - mean) ** 2 * density(q))
    assert mean == pytest.approx(1.0, abs=1e-8)
    assert var == pytest.approx(1.0, abs=1e-8)  # 1/2 thermal + 1/2 detector


def test_effective_marginal_vacuum_peak():
    rho = coherent_state(0.0, 20)
    density = effective_marginal(rho, gaussian_kernel(0.0), default_grid(dim=20))
    assert density(0.0) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-10)


def test_effective_marginal_is_convolution(rng):
    from conftest import random_density

    grid = default_grid(dim=16, points=500)
    kernel = gaussian_kernel(0.45)
    for _ in range(20):
        rho = random_density(16, rng)
        density = effective_marginal(rho, kernel, grid)
        q = np.linspace(-4, 4, 9)
        # independent route: direct convolution integral of the exact diagonal
        diag = position_density(rho, grid.points)
        direct = [grid.integrate(kernel(qi, grid.points) * diag) for qi in q]
        assert np.max(np.abs(density(q) - np.array(direct))) < 1e-6


def test_effective_marginal_preserves_mass(rng):
    from conftest import random_density

    grid = default_grid(dim=14, points=500)
    for sigma in (0.0, 0.3, 0.8):
        rho = random_density(14, rng)
        density = effective_marginal(rho, gaussian_kernel(sigma), grid)
        wide = default_grid(dim=14, points=700)
        assert wide.integrate(density(wide.points)) == pytest.approx(1.0, abs=1e-6)


def _product_integrals(nodes, weights, dim):
    """sum_j w[i, j] psi_m psi_n(x[i, j]) for every row i, shape (rows, dim, dim)."""
    table = wavefunction_table(dim, nodes.ravel()).reshape((dim,) + nodes.shape)
    table = np.broadcast_to(table, (dim,) + weights.shape)
    return np.einsum("ij,mij,nij->imn", weights, table, table)


def test_postselection_rule_integrates_every_wavefunction_product():
    dim, phi = 12, np.array([-1.0, 0.5, 2.0])
    fine = default_grid(dim=dim, points=2000)
    for sigma in (0.3, 1.5):
        kernel = gaussian_kernel(sigma)
        nodes, weights = postselection_rule(kernel, phi, dim)
        assert nodes.shape == weights.shape == (phi.size, dim)
        ref_nodes, ref_weights = postselection_rule(kernel, phi, dim, fine)
        assert ref_nodes.shape == (1, fine.size)
        assert ref_weights.shape == (phi.size, fine.size)
        err = (_product_integrals(nodes, weights, dim)
               - _product_integrals(ref_nodes, ref_weights, dim))
        assert np.max(np.abs(err)) < 1e-12
    nodes, weights = postselection_rule(delta_kernel(), phi, dim)
    psi = wavefunction_table(dim, phi)
    exact = np.einsum("mi,ni->imn", psi, psi)
    assert np.array_equal(_product_integrals(nodes, weights, dim), exact)


_RHO = coherent_state(0.5, 8)
_N = make_operator("number", 8)


@pytest.mark.parametrize("call", [
    lambda: weak_value(_N, _RHO, delta_kernel(), math.nan),
    lambda: weak_value(_N, _RHO, gaussian_kernel(0.3), [0.0, math.inf]),
    lambda: weak_value(_N, _RHO, gaussian_kernel(0.3), math.nan, grid=default_grid(dim=8)),
    lambda: weak_value_from_distribution(_RHO, _N, BasisPair.position_fock(8),
                                         delta_kernel(), math.nan),
    lambda: effective_marginal(_RHO, gaussian_kernel(0.3), default_grid(dim=8))(math.nan),
    lambda: gaussian_kernel(math.nan),
    lambda: gaussian_kernel(math.inf),
    lambda: h_closed_profile(1.0, 0.0, math.nan, 0.1),
    lambda: p2_closed_profile(math.inf),
    lambda: n_closed_profile(1.0, math.nan),
    lambda: h_closed_profile(1.0, 0.0, 0.2, math.inf),
], ids=["weak_value_delta", "weak_value_hermite", "weak_value_grid", "distribution_route",
        "effective_marginal", "kernel_nan", "kernel_inf", "profile_n_th", "profile_alpha_r",
        "profile_alpha_i", "profile_sigma_eta"])
def test_non_finite_input_refused(call):
    with pytest.raises(ValueError, match="finite"):
        call()
