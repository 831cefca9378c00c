import dataclasses
import math

import numpy as np
import pytest

from weakmeas import (
    BasisPair,
    alpha_from_quadratures,
    coherent_state,
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
from weakmeas.povm import postselection_rule, smear_matrix
from weakmeas.weakvalues import marginal_density


def test_zero_width_is_projective():
    k = gaussian_kernel(0.0)
    assert k.is_projective
    rho = coherent_state(0.0, 10)
    grid = default_grid(dim=10)
    density = effective_marginal(rho, k)
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


def test_effective_marginal_ideal_detector_gaussian():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.0, 40)
    density = effective_marginal(rho, gaussian_kernel(0.0))
    q = np.linspace(-2, 4, 25)
    assert np.max(np.abs(density(q) - marginal_density(q, 1.0, 0.0, 0.0))) < 1e-8


def test_effective_marginal_adds_detector_variance():
    sigma = math.sqrt(0.5)
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.0, 40)
    grid = default_grid(dim=40)
    density = effective_marginal(rho, gaussian_kernel(sigma))
    q = grid.points
    mean = grid.weights @ (q * density(q))
    var = grid.weights @ ((q - mean) ** 2 * density(q))
    assert mean == pytest.approx(1.0, abs=1e-8)
    assert var == pytest.approx(1.0, abs=1e-8)  # 1/2 thermal + 1/2 detector


def test_gaussian_kernel_takes_the_exact_rule_with_or_without_grid():
    """A kernel is its width alone and carries no grid: a Gaussian kernel's
    rule is the dim-node Hermite rule, and ``effective_marginal`` meets the
    closed-form marginal with it."""
    dim, phi = 40, np.array([-1.0, 0.5, 2.0])
    kernel = gaussian_kernel(0.3)
    assert [f.name for f in dataclasses.fields(kernel)] == ["width_sigma_eta"]
    assert (kernel.kind, delta_kernel().kind) == ("gaussian", "delta")
    assert postselection_rule(kernel, phi, dim)[0].shape == (phi.size, dim)
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.4, dim)
    density = effective_marginal(rho, kernel)
    exact = marginal_density(phi, 1.0, 0.4, 0.3)
    assert np.max(np.abs(density(phi) - exact)) < 1e-12


def test_near_projective_gaussian_meets_the_projective_rule():
    """The rule takes the kernel's offset phi - x from its parts, not as the
    difference of phi and a node within about sigma_eta of it, which cancels
    the offset's leading digits, so the marginal and the weak value meet the
    projective ones from sigma_eta = 1e-8 down to 1.5e-154, the least width
    whose square is a normal float (the difference was 6.6 times off at
    1e-20).  A narrower width is refused with the advice to pass 0."""
    dim, phi = 20, 0.4
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.2, dim)
    nu = make_operator("hamiltonian", dim)
    marginal = effective_marginal(rho, delta_kernel())(phi)
    value = weak_value(nu, rho, delta_kernel(), phi)
    for sigma in (1e-8, 1e-12, 1e-20, 1e-100, 1.5e-154):
        kernel = gaussian_kernel(sigma)
        assert abs(effective_marginal(rho, kernel)(phi) - marginal) <= 1e-15, sigma
        assert abs(weak_value(nu, rho, kernel, phi) - value) <= 1e-14, sigma
    for sigma in (1e-155, 1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="pass 0 for a projective detector"):
            gaussian_kernel(sigma)


def test_smear_matrix_evaluates_a_gaussian_only_within_reach(monkeypatch):
    """A Gaussian row is evaluated only at the nodes within sigma_eta
    sqrt(106 ln 2) of its outcome, where the table equals kernel x weight bit
    for bit, and is exactly 0 beyond, where the kernel is below 2^-53 of its
    peak; on symmetric and asymmetric grids and at outcomes off the grid."""
    from weakmeas import DetectorKernel, QuadratureGrid

    seen = []
    evaluate = DetectorKernel.__call__

    def recorded(self, a, b):
        seen.append(np.abs(np.asarray(a) - np.asarray(b)))
        return evaluate(self, a, b)

    sym = [QuadratureGrid.gauss_legendre(9.0, n) for n in (200, 201)]
    grids = sym + [sym[0].with_points([0.3, 1.7]), QuadratureGrid.gauss_legendre(7.0, 150)]
    for eta in (0.5, 0.9, 0.999):
        gauss = gaussian_kernel(sigma_from_efficiency(eta))
        reach = gauss.width_sigma_eta * math.sqrt(106.0 * math.log(2.0))
        assert gauss(0.0, reach) / gauss(0.0, 0.0) == pytest.approx(2.0 ** -53)
        for grid in grids:
            x = grid.points
            for outcomes in (x, np.linspace(-9.5, 9.5, 37)):
                seen.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(DetectorKernel, "__call__", recorded)
                    got = smear_matrix(gauss, outcomes, grid)
                full = gauss(outcomes[:, None], x[None, :]) * grid.weights[None, :]
                dist = np.abs(outcomes[:, None] - x[None, :])
                inside, outside = dist <= reach * (1 - 1e-12), dist > reach * (1 + 1e-12)
                assert np.array_equal(got[inside], full[inside])
                assert not got[outside].any()
                edge = ~inside & ~outside
                assert np.all((got[edge] == 0) | (got[edge] == full[edge]))
                (evaluated,) = seen
                assert np.count_nonzero(inside) <= evaluated.size <= np.count_nonzero(~outside)
                assert np.all(evaluated <= reach * (1 + 1e-12))


def test_smear_matrix_refuses_non_finite_outcomes():
    grid = default_grid(dim=20, points=60)
    for bad in ([math.nan, 0.0], [0.0, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match=r"finite.*(nan|inf)"):
            smear_matrix(gaussian_kernel(0.3), bad, grid)


def test_effective_marginal_vacuum_peak():
    rho = coherent_state(0.0, 20)
    density = effective_marginal(rho, gaussian_kernel(0.0))
    assert density(0.0) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-10)


def test_effective_marginal_scalar_in_scalar_out():
    density = effective_marginal(coherent_state(0.0, 20), gaussian_kernel(0.3))
    for q in (0.5, np.float64(0.5), np.array(0.5)):
        assert type(density(q)) is float
    for q in ([0.5], np.array([0.5]), np.array([0.5, 1.0])):
        assert density(q).shape == np.shape(q)
    assert density(np.array([0.5]))[0] == density(0.5)


def test_effective_marginal_is_convolution(rng):
    from conftest import random_density

    grid = default_grid(dim=16, points=500)
    kernel = gaussian_kernel(0.45)
    for _ in range(20):
        rho = random_density(16, rng)
        density = effective_marginal(rho, kernel)
        q = np.linspace(-4, 4, 9)
        # independent route: direct convolution integral of the exact diagonal
        diag = position_density(rho, grid.points)
        direct = [grid.weights @ (kernel(qi, grid.points) * diag) for qi in q]
        assert np.max(np.abs(density(q) - np.array(direct))) < 1e-6


def test_effective_marginal_preserves_mass(rng):
    from conftest import random_density

    for sigma in (0.0, 0.3, 0.8):
        rho = random_density(14, rng)
        density = effective_marginal(rho, gaussian_kernel(sigma))
        wide = default_grid(dim=14, points=700)
        assert wide.weights @ density(wide.points) == pytest.approx(1.0, abs=1e-6)


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
        # the reference: the kernel times the fine grid's weights, one shared row
        ref_nodes = fine.points[None, :]
        ref_weights = kernel(phi[:, None], ref_nodes) * fine.weights
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
    lambda: weak_value_from_distribution(_RHO, _N, BasisPair.position_fock(8),
                                         delta_kernel(), math.nan),
    lambda: effective_marginal(_RHO, gaussian_kernel(0.3))(math.nan),
    lambda: gaussian_kernel(math.nan),
    lambda: gaussian_kernel(math.inf),
    lambda: h_closed_profile(1.0, 0.0, math.nan, 0.1),
    lambda: p2_closed_profile(math.inf),
    lambda: n_closed_profile(1.0, math.nan),
    lambda: h_closed_profile(1.0, 0.0, 0.2, math.inf),
], ids=["weak_value_delta", "weak_value_hermite", "distribution_route",
        "effective_marginal", "kernel_nan", "kernel_inf", "profile_n_th", "profile_alpha_r",
        "profile_alpha_i", "profile_sigma_eta"])
def test_non_finite_input_refused(call):
    with pytest.raises(ValueError, match="finite"):
        call()
