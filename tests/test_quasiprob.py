import math

import numpy as np
import pytest

from weakmeas import (
    BasisPair,
    DensityOperator,
    Observable,
    alpha_from_quadratures,
    coherent_state,
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
    QuasiDistribution,
    s_distribution,
    sigma_from_efficiency,
    t_distribution,
    thermal_s,
    wavefunction_table,
    weak_value,
    weak_value_from_distribution,
)
from weakmeas.povm import smear_matrix
from weakmeas.quasiprob import _cross_kernel, _fourier_overlap
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


# the momentum-basis representation <q|nu|p>/<q|p> of an observable is its
# phase-space symbol, which weak_value_from_distribution takes in that basis
def test_kinetic_representation_is_squared_momentum():
    basis = BasisPair.position_momentum(40)
    q, p = basis.phi_grid.points[:, None], basis.xi_points[None, :]
    rep = make_operator("momentum_squared", 40).phase_space_symbol(q, p)
    assert rep.shape == (q.size, p.size)
    assert np.max(np.abs(rep - p ** 2)) < 1e-12


def test_energy_representation_phase_space():
    basis = BasisPair.position_momentum(30)
    q, p = basis.phi_grid.points[:, None], basis.xi_points[None, :]
    rep = make_operator("hamiltonian", 30).phase_space_symbol(q, p)
    assert np.max(np.abs(rep - (q * q + p * p) / 2.0)) < 1e-12


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
    independent = effective_marginal(rho, gaussian_kernel(sigma))
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
        rhs = weak_value(nu, rho, kernel, phi)
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


def _smear_cases(rng):
    """(basis name, S distribution) on the fock, momentum and custom bases."""
    dim = 40
    rho = displaced_thermal_state(alpha_from_quadratures(1.3, 0.6), 0.4, dim)
    grid = default_grid(dim=dim, alpha=alpha_from_quadratures(1.3, 0.6), n_th=0.4,
                        points=400)
    g = rng.normal(size=(dim, 12)) + 1j * rng.normal(size=(dim, 12))
    columns = np.linalg.qr(g)[0]
    for name, basis in (("fock", BasisPair.position_fock(dim, grid)),
                        ("momentum", BasisPair.position_momentum(dim, grid, grid)),
                        ("custom", BasisPair.position_custom(columns, grid))):
        yield name, s_distribution(rho, basis)


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.99])
def test_effective_distribution_matches_dense_smear(rng, eta):
    kernel = gaussian_kernel(sigma_from_efficiency(eta))
    for name, dist in _smear_cases(rng):
        grid = dist.basis.phi_grid
        dense = smear_matrix(kernel, grid.points, grid)
        for src in (dist, t_distribution(dist)):
            eff = effective_distribution(src, kernel)
            assert eff.values.dtype == src.values.dtype
            ref = dense @ src.values
            bound = 1e-14 * np.max(np.abs(src.values))
            assert np.max(np.abs(eff.values - ref)) <= bound, (name, src.kind)


def _dense_smear_cases():
    """(label, S distribution, kernel): Gaussian kernels from eta 0.5 to
    0.9999 on the fock and momentum bases over 200-, 201- and 400-node
    Gauss-Legendre grids and a grid with inserted nodes."""
    dim = 40
    alpha = alpha_from_quadratures(1.3, 0.6)
    rho = displaced_thermal_state(alpha, 0.4, dim)
    g200 = default_grid(dim=dim, alpha=alpha, n_th=0.4, points=200)
    grids = (g200, default_grid(dim=dim, alpha=alpha, n_th=0.4, points=201),
             default_grid(dim=dim, alpha=alpha, n_th=0.4, points=400),
             g200.with_points([0.3, 1.7]))
    for grid in grids:
        for name, basis in (("fock", BasisPair.position_fock(dim, grid)),
                            ("momentum", BasisPair.position_momentum(dim, grid, grid))):
            dist = s_distribution(rho, basis)
            for eta in (0.5, 0.9, 0.99, 0.999, 0.9999):
                yield f"{name} {grid.size} eta={eta}", dist, gaussian_kernel(
                    sigma_from_efficiency(eta))


def test_effective_distribution_matches_full_dense_product():
    # dropping weights below 2^-53 of their row's largest, and multiplying
    # row blocks over their kept columns only, stays within round-off of the
    # full product kernel(x, x) w @ V, sub-tiny weights included
    for label, dist, kernel in _dense_smear_cases():
        x, w = dist.basis.phi_grid.points, dist.basis.phi_grid.weights
        full = kernel(x[:, None], x[None, :]) * w
        for src in (dist, t_distribution(dist)):
            got = effective_distribution(src, kernel).values
            ref = full @ src.values
            bound = 1e-14 * np.max(np.abs(src.values))
            assert np.max(np.abs(got - ref)) <= bound, (label, src.kind)


class _RecordedMatmul(np.ndarray):
    """Smear table whose views append a copy of each left operand of np.matmul
    to the shared list ``left_operands``."""

    def __array_finalize__(self, obj):
        self.left_operands = getattr(obj, "left_operands", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(arrays):
            return [np.asarray(a) if isinstance(a, _RecordedMatmul) else a for a in arrays]

        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(plain(out))
        if ufunc is np.matmul:
            self.left_operands.append(np.array(inputs[0]))
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        return out[0] if out is not None and len(out) == 1 else result


def test_effective_distribution_multiplies_no_sub_tiny_weight(monkeypatch):
    # every weight that reaches the product is 0 or at least 2^-53 of the
    # largest weight of its row, which the block keeps, and every row is
    # multiplied once
    import weakmeas.quasiprob as quasiprob

    tables = []

    def recorded(kernel, outcomes, grid):
        table = smear_matrix(kernel, outcomes, grid).view(_RecordedMatmul)
        table.left_operands = []
        tables.append((np.asarray(table).copy(), table.left_operands))
        return table

    monkeypatch.setattr(quasiprob, "smear_matrix", recorded)
    sub_tiny_tables = 0
    for label, dist, kernel in _dense_smear_cases():
        tables.clear()
        effective_distribution(dist, kernel)
        ((table, blocks),) = tables
        floor = 2.0 ** -53 * np.abs(table).max(axis=1)
        sub_tiny_tables += np.any((table != 0) & (np.abs(table) < floor[:, None]))
        assert sum(b.shape[0] for b in blocks) == table.shape[0], label
        for block in blocks:
            size = np.abs(block)
            kept_floor = 2.0 ** -53 * size.max(axis=1, keepdims=True)
            assert np.all((size == 0) | (size >= kept_floor)), label
    assert sub_tiny_tables > 0


def test_effective_distribution_of_zero_grid_is_zero():
    basis = BasisPair.position_momentum(20, default_grid(dim=20, points=60))
    zero = QuasiDistribution(np.zeros((60, 60), dtype=complex), basis, "S")
    out = effective_distribution(zero, gaussian_kernel(0.5)).values
    assert np.array_equal(out, np.zeros_like(out))


def test_cross_kernel_on_few_rows_matches_full_grid_order(rng):
    # a postselection row contracts as P^T (diag(i^-n) rho psi); the full
    # grid keeps the rho^T diag(i^-n) P order
    dim = 40
    basis = BasisPair.position_momentum(dim, default_grid(dim=dim, points=200))
    for rho in (random_density(dim, rng),
                displaced_thermal_state(alpha_from_quadratures(1.3, 0.6), 0.4, dim)):
        full = _cross_kernel(rho, basis, basis.phi_table)
        scale = np.max(np.abs(rho.matrix))
        for i in (0, 57, 100, 199):
            row = _cross_kernel(rho, basis, basis.phi_table[:, [i]])
            assert row.shape == (1, 200)
            assert np.max(np.abs(row[0] - full[i])) <= 1e-15 * scale
        rows = _cross_kernel(rho, basis, basis.phi_table[:, :99])
        assert np.max(np.abs(rows - full[:99])) <= 1e-15 * scale


def test_momentum_basis_matches_exponential_construction():
    dim = 30
    phi_grid = default_grid(dim=dim, points=240)
    other = default_grid(dim=dim, points=170, half_width=9.0)
    for p_grid in (phi_grid, other):
        basis = BasisPair.position_momentum(dim, phi_grid, p_grid)
        overlap = np.exp(1j * np.outer(phi_grid.points, p_grid.points)) / math.sqrt(
            2.0 * math.pi)
        xi_matrix = (1j) ** np.arange(dim)[:, None] * wavefunction_table(dim, p_grid.points)
        assert np.array_equal(basis.overlap, overlap)
        assert np.array_equal(basis.xi_matrix, xi_matrix)
        assert np.array_equal(basis.phi_table, wavefunction_table(dim, phi_grid.points))


def test_negativity_scan_matches_weighted_mass(rng):
    dim = 24
    for basis in (BasisPair.position_fock(dim), BasisPair.position_momentum(dim)):
        for _ in range(3):
            dist = t_distribution(s_distribution(random_density(dim, rng), basis))
            mass = np.abs(dist.values) * np.outer(basis.phi_grid.weights, basis.xi_weights)
            expected = mass[dist.values < 0].sum() / mass.sum()
            assert abs(negativity_scan(dist).negative_mass_fraction - expected) < 1e-14


def _full_fourier_overlap(q, p):
    # every entry evaluated, as the overlap was built before the mirroring
    qp = np.outer(q, p)
    out = np.empty(qp.shape, dtype=complex)
    np.cos(qp, out=out.real)
    np.sin(qp, out=out.imag)
    out /= math.sqrt(2.0 * math.pi)
    return out


def test_fourier_overlap_matches_full_evaluation():
    even = default_grid(dim=30, points=240).points
    odd = default_grid(dim=30, points=171, half_width=9.0).points
    shifted = even + 0.25  # no longer symmetric about 0
    extra = default_grid(dim=30, points=120).with_points([0.37, -1.2]).points
    rows = np.array([-0.8, 0.1, 1.7])  # asymmetric rows, as of a postselection rule
    axes = (even, odd, shifted, extra, rows, np.array([0.0]), np.array([-2.0, 2.0]))
    for q in axes:
        for p in axes:
            assert np.array_equal(_fourier_overlap(q, p), _full_fourier_overlap(q, p))


def test_fourier_overlap_evaluates_one_quadrant_of_symmetric_axes(monkeypatch):
    evaluated = []
    real_cos = np.cos

    def counted(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return real_cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    for n, m in ((400, 400), (201, 200), (171, 33)):
        q = default_grid(dim=30, points=n).points
        p = default_grid(dim=30, points=m, half_width=9.0).points
        evaluated.clear()
        _fourier_overlap(q, p)
        assert sum(evaluated) <= -(-n // 2) * -(-m // 2)
    # one asymmetric axis is evaluated in full, the symmetric one in half
    evaluated.clear()
    _fourier_overlap(q + 0.25, p)
    assert sum(evaluated) == n * -(-m // 2)


@pytest.mark.parametrize("points", [200, 201, 400])
def test_momentum_s_matches_complex_product(rng, points):
    dim = 40
    alpha = alpha_from_quadratures(1.7, 0.9)
    grid = default_grid(dim=dim, alpha=alpha, n_th=0.4, points=points)
    other = default_grid(dim=dim, points=points - 31, half_width=9.0)
    kernel = gaussian_kernel(sigma_from_efficiency(0.8))
    for rho in (displaced_thermal_state(alpha, 0.4, dim), random_density(dim, rng)):
        for p_grid in (grid, other):
            basis = BasisPair.position_momentum(dim, grid, p_grid)
            cross = (basis.xi_matrix.conj().T @ rho.matrix @ basis.phi_table).T
            ref = basis.overlap * cross
            dist = s_distribution(rho, basis)
            assert dist.values.flags.c_contiguous
            bound = 2e-15 * np.max(np.abs(ref))
            assert np.max(np.abs(dist.values - ref)) <= bound
            smeared = effective_distribution(dist, kernel).values
            smeared_ref = effective_distribution(
                QuasiDistribution(ref, basis, "S"), kernel).values
            assert np.max(np.abs(smeared - smeared_ref)) <= 2e-15 * np.max(np.abs(smeared_ref))


def test_fock_and_custom_s_keep_the_complex_product(rng):
    dim = 24
    rho = random_density(dim, rng)
    columns = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    for basis in (BasisPair.position_fock(dim), BasisPair.position_custom(columns)):
        cross = (basis.xi_matrix.conj().T @ rho.matrix @ basis.phi_table).T
        assert np.array_equal(s_distribution(rho, basis).values, basis.overlap * cross)
