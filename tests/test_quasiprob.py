import math

import numpy as np
import pytest

from weakmeas import (
    BasisPair,
    DensityOperator,
    Observable,
    alpha_from_quadratures,
    coherent_state,
    custom_kernel,
    default_grid,
    delta_kernel,
    displaced_thermal_s,
    displaced_thermal_state,
    effective_distribution,
    effective_marginal,
    effective_thermal_s,
    gaussian_kernel,
    h_closed_profile,
    make_operator,
    marginal_over_phi,
    marginal_over_xi,
    n_closed_profile,
    negativity_scan,
    p2_closed_profile,
    position_density,
    s_distribution,
    s_representation,
    sigma_from_efficiency,
    t_distribution,
    thermal_s,
    weak_value,
    weak_value_from_distribution,
)
from conftest import random_density, random_hermitian


def _fock_projector(level: int, dim: int) -> DensityOperator:
    m = np.zeros((dim, dim), dtype=complex)
    m[level, level] = 1.0
    return DensityOperator(m)


def test_bases_resolve_identity():
    for basis in (BasisPair.position_fock(40), BasisPair.position_momentum(40)):
        phi_defect, xi_defect = basis.completeness_defect()
        assert phi_defect < 1e-6
        assert xi_defect < 1e-6


def test_thermal_matches_closed_form():
    basis = BasisPair.position_momentum(60)
    for n_th in (0.0, 0.5, 2.0):
        rho = displaced_thermal_state(0.0, n_th, 60)
        dist = s_distribution(rho, basis)
        q = basis.phi_grid.points[:, None]
        p = basis.xi_points[None, :]
        inner = (np.abs(q) <= 3.5) & (np.abs(p) <= 3.5)
        err = np.abs(dist.values - thermal_s(q, p, n_th))
        assert err[inner].max() < 1e-8


def test_thermal_origin_value():
    assert thermal_s(0.0, 0.0, 0.0) == pytest.approx(1 / (math.pi * math.sqrt(2)), abs=1e-12)


def test_eigenbasis_distribution_real_nonnegative():
    dim = 20
    rho = _fock_projector(2, dim)
    dist = s_distribution(rho, BasisPair.position_fock(dim))
    assert np.max(np.abs(dist.values.imag)) < 1e-14
    assert dist.values.real.min() > -1e-14


def test_t_of_real_distribution_equals_s():
    dim = 16
    dist = s_distribution(_fock_projector(1, dim), BasisPair.position_fock(dim))
    t = t_distribution(dist)
    assert np.max(np.abs(t.values - dist.values.real)) < 1e-15
    assert t.kind == "T"


def test_thermal_t_negative_where_phase_dominates():
    # at q = p = 2 the phase factor cos(2pq) = cos 8 < 0 drives T negative
    val = thermal_s(2.0, 2.0, 0.0)
    assert val.real < 0
    rho = displaced_thermal_state(0.0, 0.0, 50)
    basis = BasisPair.position_momentum(50)
    t = t_distribution(s_distribution(rho, basis))
    i = np.argmin(np.abs(basis.phi_grid.points - 2.0))
    j = np.argmin(np.abs(basis.xi_points - 2.0))
    assert t.values[i, j] < 0


def test_t_marginals_match_s_marginals(rng):
    rho = random_density(18, rng)
    dist = s_distribution(rho, BasisPair.position_fock(18))
    t = t_distribution(dist)
    assert np.max(np.abs(marginal_over_xi(t) - marginal_over_xi(dist).real)) < 1e-10
    assert np.max(np.abs(marginal_over_phi(t) - marginal_over_phi(dist).real)) < 1e-10


@pytest.mark.parametrize("xi_kind", ["fock", "momentum"])
def test_marginality_for_random_states(rng, xi_kind):
    # the identities hold for the distribution, its complex conjugate and
    # its real part alike
    dim = 20
    basis = (BasisPair.position_fock(dim) if xi_kind == "fock"
             else BasisPair.position_momentum(dim))
    for _ in range(4):
        rho = random_density(dim, rng)
        dist = s_distribution(rho, basis)
        against_phi = position_density(rho, basis.phi_grid.points)
        expected_xi = np.einsum("nj,nm,mj->j", basis.xi_matrix.conj(),
                                rho.matrix, basis.xi_matrix).real
        for values in (dist.values, dist.values.conj(), dist.values.real):
            assert np.max(np.abs(values @ basis.xi_weights - against_phi)) < 1e-6
            assert np.max(np.abs(basis.phi_grid.weights @ values - expected_xi)) < 1e-6


def test_kinetic_representation_is_squared_momentum():
    basis = BasisPair.position_momentum(40)
    rep = s_representation(make_operator("momentum_squared", 40), basis)
    expected = basis.xi_points[None, :] ** 2
    assert np.max(np.abs(rep - expected)) < 1e-12


def test_energy_representation_discrete():
    basis = BasisPair.position_fock(30)
    rep = s_representation(make_operator("hamiltonian", 30), basis)
    expected = np.arange(30)[None, :] + 0.5
    finite = np.isfinite(rep)
    assert np.max(np.abs(rep[finite].real - np.broadcast_to(expected, rep.shape)[finite])) < 1e-9
    assert np.max(np.abs(rep[finite].imag)) < 1e-9


def test_energy_representation_phase_space():
    basis = BasisPair.position_momentum(30)
    rep = s_representation(make_operator("hamiltonian", 30), basis)
    q = basis.phi_grid.points[:, None]
    p = basis.xi_points[None, :]
    assert np.max(np.abs(rep - (q * q + p * p) / 2.0)) < 1e-12


def test_representation_flags_undefined_points():
    grid = default_grid(dim=6, half_width=14.0)
    basis = BasisPair.position_fock(6, grid)
    rep = s_representation(make_operator("number", 6), basis)
    assert np.isnan(rep).any()  # corners where <q|n> underflows are flagged


def test_custom_basis_accepts_only_orthonormal_columns(rng):
    cols = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    with pytest.raises(ValueError):
        BasisPair.position_custom(cols)
    q, _ = np.linalg.qr(cols)
    basis = BasisPair.position_custom(q)
    assert basis.xi_points.size == 3


def test_effective_distribution_projective_is_identity():
    rho = displaced_thermal_state(0.0, 0.3, 30)
    dist = s_distribution(rho, BasisPair.position_momentum(30))
    eff = effective_distribution(dist, delta_kernel())
    assert eff.kind == "S_eta"
    assert np.max(np.abs(eff.values - dist.values)) < 1e-15


def test_effective_thermal_matches_closed_form():
    sigma = math.sqrt(0.5)
    assert effective_thermal_s(0.0, 0.0, 0.0, sigma) == pytest.approx(
        1 / (math.pi * math.sqrt(3)), abs=1e-12)
    rho = displaced_thermal_state(0.0, 0.0, 60)
    basis = BasisPair.position_momentum(60)
    eff = effective_distribution(s_distribution(rho, basis), gaussian_kernel(sigma))
    q = basis.phi_grid.points[:, None]
    p = basis.xi_points[None, :]
    inner = (np.abs(q) <= 3.0) & (np.abs(p) <= 3.0)
    err = np.abs(eff.values - effective_thermal_s(q, p, 0.0, sigma))
    assert err[inner].max() < 1e-7


def test_effective_marginal_consistency():
    sigma = 0.6
    rho = displaced_thermal_state(alpha_from_quadratures(0.8, -0.3), 0.2, 40)
    basis = BasisPair.position_momentum(40)
    eff = effective_distribution(s_distribution(rho, basis), gaussian_kernel(sigma))
    independent = effective_marginal(rho, gaussian_kernel(sigma), basis.phi_grid)
    assert np.max(np.abs(marginal_over_xi(eff).real
                         - independent(basis.phi_grid.points))) < 1e-6


def test_negativity_scan_eigenbasis_state_nonnegative():
    dim = 20
    dist = t_distribution(s_distribution(_fock_projector(0, dim),
                                         BasisPair.position_fock(dim)))
    assert negativity_scan(dist).min_value >= -1e-12


@pytest.mark.parametrize("n_th", [0.0, 0.5, 2.0])
def test_negativity_persists_for_all_thermal_occupations(n_th):
    rho = displaced_thermal_state(alpha_from_quadratures(0.5, 0.0), n_th, 50)
    dist = t_distribution(s_distribution(rho, BasisPair.position_momentum(50)))
    report = negativity_scan(dist)
    assert report.min_value < 0
    assert report.negative_mass_fraction > 0


def test_coherent_fock_basis_negativity():
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), 40)
    dist = t_distribution(s_distribution(rho, BasisPair.position_fock(40)))
    assert negativity_scan(dist).min_value < 0


def test_sign_of_t_tracks_weak_density(rng):
    dim = 14
    rho = random_density(dim, rng)
    basis = BasisPair.position_fock(dim)
    t = t_distribution(s_distribution(rho, basis))
    cross = (basis.xi_matrix.conj().T @ rho.matrix @ basis.phi_table).T
    mags = np.abs(basis.overlap)
    ok = mags > 1e-6 * mags.max()
    weak_density = np.zeros_like(t.values)
    weak_density[ok] = (cross[ok] / basis.overlap[ok]).real
    disagree = ok & (np.abs(t.values) > 1e-12) & (np.sign(t.values) != np.sign(weak_density))
    assert not disagree.any()


def test_conditional_expectation_matches_trace_formula(rng):
    dim = 16
    basis = BasisPair.position_fock(dim)
    for _ in range(6):
        rho = random_density(dim, rng)
        nu = Observable(random_hermitian(dim, rng))
        phi = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(0.0, 0.8)
        kernel = gaussian_kernel(sigma) if sigma > 0.05 else delta_kernel()
        lhs = weak_value_from_distribution(rho, nu, basis, kernel, phi)
        rhs = weak_value(nu, rho, kernel, phi, grid=basis.phi_grid)
        assert abs(lhs - rhs) < 1e-8


def test_conditional_expectation_momentum_basis():
    dim = 60
    rho = displaced_thermal_state(alpha_from_quadratures(0.7, 0.2), 0.3, dim)
    basis = BasisPair.position_momentum(dim)
    nu = make_operator("hamiltonian", dim)
    for phi in (-0.5, 0.8):
        lhs = weak_value_from_distribution(rho, nu, basis, delta_kernel(), phi)
        rhs = weak_value(nu, rho, delta_kernel(), phi)
        assert abs(lhs - rhs) < 1e-6


def test_classicality_gate(rng):
    # states with nonnegative number-basis distribution keep the energy weak
    # value at or above the zero-point floor everywhere
    dim = 20
    nu = make_operator("hamiltonian", dim)
    grid = default_grid(dim=dim, half_width=8.0, points=300)
    for _ in range(5):
        probs = rng.dirichlet(np.ones(dim))
        rho = DensityOperator(np.diag(probs).astype(complex))
        t = t_distribution(s_distribution(rho, BasisPair.position_fock(dim)))
        assert negativity_scan(t).min_value >= -1e-10
        values = [weak_value(nu, rho, delta_kernel(), q).real for q in grid.points]
        assert min(values) >= 0.5 - 1e-8


def test_displaced_thermal_s_shift_property():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.7), 0.5, 60)
    basis = BasisPair.position_momentum(60)
    dist = s_distribution(rho, basis)
    q = basis.phi_grid.points[:, None]
    p = basis.xi_points[None, :]
    inner = (np.abs(q) <= 3.0) & (np.abs(p) <= 3.0)
    err = np.abs(dist.values - displaced_thermal_s(q, p, 1.0, 0.7, 0.5))
    assert err[inner].max() < 1e-8


_CLOSED_PROFILES = {"momentum_squared": p2_closed_profile, "hamiltonian": h_closed_profile,
                    "number": n_closed_profile}


@pytest.mark.parametrize("kind", ["fock", "momentum"])
@pytest.mark.parametrize("eta", [0.5, 0.9, 0.99, 0.999, 0.9999])
def test_distribution_route_matches_closed_profiles(eta, kind):
    # the grid-smeared route was 4.7e-2 off at eta = 0.999; the postselection
    # rule integrates the Gaussian kernel exactly at every efficiency
    dim, (ar, ai, n_th) = 40, (1.0, 0.3, 0.2)
    rho = displaced_thermal_state(alpha_from_quadratures(ar, ai), n_th, dim)
    basis = getattr(BasisPair, f"position_{kind}")(dim)
    sigma = sigma_from_efficiency(eta)
    for op, closed in _CLOSED_PROFILES.items():
        nu, profile = make_operator(op, dim), closed(ar, ai, n_th, sigma)
        for phi in (-1.0, 0.2, 1.1, 2.5):
            lhs = weak_value_from_distribution(rho, nu, basis, gaussian_kernel(sigma), phi)
            assert abs(lhs - profile.value(phi)) < 1e-10


def test_custom_kernel_distribution_route_matches_grid_trace_formula(rng):
    dim = 16
    triangle = custom_kernel(lambda a, b: np.maximum(0.0, 1.0 - np.abs(a - b) / 0.5) / 0.5)
    basis = BasisPair.position_fock(dim)
    for _ in range(4):
        rho = random_density(dim, rng)
        nu = Observable(random_hermitian(dim, rng))
        phi = float(rng.uniform(-1.5, 1.5))
        lhs = weak_value_from_distribution(rho, nu, basis, triangle, phi)
        rhs = weak_value(nu, rho, triangle, phi, grid=default_grid(dim=dim))
        assert abs(lhs - rhs) < 1e-10
