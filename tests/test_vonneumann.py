import dataclasses
import functools
import math

import numpy as np
import pytest

from weakmeas import (
    BasisPair,
    DensityOperator,
    Observable,
    PointerState,
    UnsupportedPointerError,
    alpha_from_quadratures,
    coherent_state,
    conditional_pointer_shift,
    default_grid,
    displaced_thermal_state,
    effective_marginal,
    evolve_exact,
    evolve_further,
    gaussian_kernel,
    joint_distribution,
    make_operator,
    n_closed_profile,
    phi_marginal,
    pointer_shift,
    position_density,
    sigma_from_efficiency,
    simulate_cross_kerr,
    simulate_qubit_pointer,
    wavefunction_table,
    weak_value,
    weak_value_from_distribution,
)
from weakmeas.fockspace import displacement_operator
from weakmeas.povm import smear_matrix
from weakmeas.vonneumann import check_zero_current
from weakmeas.vonneumann import position_density as joint_density
from weakmeas import QuadratureGrid
from conftest import trapezoid_grid
from test_acceptance import _pointer_law_system, _second_order_shift


def _fock(level, dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[level, level] = 1.0
    return DensityOperator(m)


MIXTURE = PointerState.gaussian_mixture([(0.6, -0.8, 0.7), (0.4, 1.0, 1.3)])


def test_real_gaussian_mixture_carries_no_current():
    assert check_zero_current(MIXTURE).max_violation < 1e-10


def test_qubit_equatorial_state_carries_no_current():
    assert check_zero_current(PointerState.qubit(0.6, 0.3)).max_violation < 1e-14


def test_qubit_bloch_vector_domain():
    with pytest.raises(ValueError):
        PointerState.qubit(0.9, 0.6)


def test_zero_coupling_leaves_product_state():
    rho = displaced_thermal_state(alpha_from_quadratures(0.7, 0.0), 0.2, 24)
    nu = make_operator("hamiltonian", 24)
    joint = evolve_exact(rho, PointerState.gaussian(), nu, 0.0)
    phi = np.linspace(-3, 3, 7)
    Q = np.linspace(-3, 3, 9)
    got = joint_density(joint, phi, Q)
    pointer_density = np.exp(-Q * Q / 2.0) / math.sqrt(2.0 * math.pi)
    expected = np.outer(position_density(rho, phi), pointer_density)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_eigenstate_pointer_shift_exact_at_any_strength():
    dim = 16
    rho = _fock(3, dim)
    nu = make_operator("number", dim)
    eps = 0.7  # far outside the weak regime
    grid_phi = default_grid(dim=dim, points=200).with_points([0.5])
    baseline = joint_distribution(evolve_exact(rho, PointerState.gaussian(), nu, 0.0),
                                  phi_grid=grid_phi)
    table = joint_distribution(evolve_exact(rho, PointerState.gaussian(), nu, eps),
                               phi_grid=grid_phi,
                               Q_grid=baseline.Q_grid.with_points([]))
    shift = eps * conditional_pointer_shift(table, 0.5, baseline)
    assert shift == pytest.approx(eps * 3.0, abs=1e-9)


def test_incompatible_pointer_is_rejected():
    rho = _fock(0, 8)
    nu = make_operator("number", 8)
    with pytest.raises(UnsupportedPointerError):
        evolve_exact(rho, PointerState.qubit(1.0, 0.0), nu, 0.1)


def test_exact_evolution_matches_dense_matrix_exponential():
    """Independent oracle: evolve the joint state by a dense matrix
    exponential on a two-mode Fock space (pointer = squeezed vacuum with
    unit position spread) and compare joint densities pointwise."""
    from scipy.linalg import expm

    da, db, eps = 10, 32, 0.2
    rho_a = coherent_state(alpha_from_quadratures(0.8, 0.0), da)
    nu = make_operator("momentum_squared", da)

    a_b = np.diag(np.sqrt(np.arange(1, db)), k=1).astype(complex)
    r = -0.5 * math.log(2.0)  # squeeze so Var(q) = e^{-2r}/2 = 1
    squeeze = expm(0.5 * r * (a_b @ a_b - a_b.conj().T @ a_b.conj().T))
    g = squeeze @ np.eye(db)[:, 0]
    p_b = (a_b - a_b.conj().T) / (1j * math.sqrt(2))
    u = expm(-1j * eps * np.kron(nu.matrix, p_b))
    rho_tot = u @ np.kron(rho_a.matrix, np.outer(g, g.conj())) @ u.conj().T

    from weakmeas import wavefunction_table

    phis = np.array([-0.7, 0.3, 1.4])
    Qs = np.array([-1.1, 0.0, 0.9])
    ta, tb = wavefunction_table(da, phis), wavefunction_table(db, Qs)
    reference = np.array([[(np.kron(ta[:, i], tb[:, j]) @ rho_tot
                            @ np.kron(ta[:, i], tb[:, j])).real
                           for j in range(3)] for i in range(3)])

    joint = evolve_exact(rho_a, PointerState.gaussian(sigma=1.0), nu, eps)
    got = joint_density(joint, phis, Qs)
    # residual is the pointer-mode Fock truncation of the oracle, not the
    # simulator, which carries no propagation error at all
    assert np.max(np.abs(got - reference)) < 1e-7


def test_single_gaussian_pointer_remainder_is_second_order():
    """For any real single-Gaussian pointer the conditional mean is odd in
    the coupling, so the shift deviation halves by a factor 4, not 2; checked
    here against a grid-free analytic evaluation of the readout integrals."""
    dim, sigma, q = 30, 1.0, -1.0
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), dim)
    nu = make_operator("hamiltonian", dim)
    vals = np.diag(nu.matrix).real  # eigenbasis is the Fock basis
    psi = np.ravel(__import__("weakmeas").wavefunction_table(dim, q))
    m = np.outer(psi, psi) * rho.matrix

    def analytic_mean(eps):
        delta2 = (vals[:, None] - vals[None, :]) ** 2
        sums = vals[:, None] + vals[None, :]
        overlap = np.exp(-eps * eps * delta2 / (8.0 * sigma * sigma))
        num = np.sum(m * overlap * eps * sums / 2.0).real
        return num / np.sum(m * overlap).real

    devs = [abs(analytic_mean(eps) / eps - q) for eps in (1e-3, 5e-4)]
    assert devs[0] / devs[1] == pytest.approx(4.0, abs=0.05)


def test_two_half_steps_compose_to_one_full_step():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.3, 20)
    nu = make_operator("hamiltonian", 20)
    eps = 0.2
    direct = evolve_exact(rho, MIXTURE, nu, 2 * eps)
    composed = evolve_further(evolve_exact(rho, MIXTURE, nu, eps), eps)
    phi = np.linspace(-3, 3, 11)
    Q = np.linspace(-4, 4, 13)
    assert np.max(np.abs(joint_density(direct, phi, Q)
                         - joint_density(composed, phi, Q))) < 1e-10


def test_joint_table_mass_and_positivity():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.0), 0.2, 30)
    nu = make_operator("hamiltonian", 30)
    joint = evolve_exact(rho, MIXTURE, nu, 0.3)
    table = joint_distribution(joint, gaussian_kernel(0.4), gaussian_kernel(0.3))
    assert np.all(table.values >= -1e-14)
    assert table.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_zero_coupling_table_is_product_of_effective_marginals():
    rho = displaced_thermal_state(alpha_from_quadratures(0.5, 0.0), 0.1, 24)
    nu = make_operator("number", 24)
    kernel_phi, kernel_q = gaussian_kernel(0.5), gaussian_kernel(0.35)
    table = joint_distribution(evolve_exact(rho, PointerState.gaussian(), nu, 0.0),
                               kernel_phi, kernel_q)
    obj = effective_marginal(rho, kernel_phi)(table.phi_grid.points)
    vac_pointer = np.exp(-table.Q_grid.points ** 2 / 2.0) / math.sqrt(2 * math.pi)
    smear = kernel_q(table.Q_grid.points[:, None], table.Q_grid.points[None, :])
    pnt = smear @ (table.Q_grid.weights * vac_pointer)
    assert np.max(np.abs(table.values - np.outer(obj, pnt))) < 1e-10


def _shift_setup(alpha_r, pointer, qs, dim=40):
    rho = coherent_state(alpha_from_quadratures(alpha_r, 0.0), dim)
    nu = make_operator("hamiltonian", dim)
    phi_grid = default_grid(dim=dim, points=120).with_points(qs)
    q_grid = QuadratureGrid.gauss_legendre(14.0, 600)

    def table(eps):
        return joint_distribution(evolve_exact(rho, pointer, nu, eps),
                                  phi_grid=phi_grid, Q_grid=q_grid)

    return table


def test_conditional_shift_reads_negative_energy():
    table = _shift_setup(1.0, PointerState.gaussian(), [-1.0])
    baseline = table(0.0)
    shift = conditional_pointer_shift(table(1e-3), -1.0, baseline)
    # Re H_w(q) = q for this state: a negative-energy readout at q = -1
    assert shift == pytest.approx(-1.0, abs=1e-2)
    assert shift < 0


def test_mixture_pointer_deviation_is_first_order():
    qs = [-1.0, 0.0, 2.0]
    table = _shift_setup(1.0, MIXTURE, qs)
    baseline = table(0.0)
    for q in qs:
        dev = [abs(conditional_pointer_shift(table(eps), q, baseline) - q)
               for eps in (1e-3, 5e-4)]
        assert dev[0] / dev[1] == pytest.approx(2.0, abs=0.2)


def test_marginal_disturbance_is_second_order():
    dim = 30
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), dim)
    nu = make_operator("hamiltonian", dim)
    kernel_phi = gaussian_kernel(0.3)
    phi_grid = default_grid(dim=dim, points=300)
    exact = effective_marginal(rho, kernel_phi)(phi_grid.points)

    def deviation(eps):
        joint = evolve_exact(rho, PointerState.gaussian(), nu, eps)
        table = joint_distribution(joint, kernel_phi, None, phi_grid)
        return np.max(np.abs(phi_marginal(table) - exact))

    ratio = deviation(1e-2) / deviation(5e-3)
    assert 3.5 <= ratio <= 4.5


def _values_mean(table, phi):
    """Readout mean E(Q | phi) of the table's ``values`` at the node phi."""
    row = table.values[int(np.flatnonzero(table.phi_grid.points == phi)[0])]
    q_grid = table.Q_grid
    return float(q_grid.weights @ (q_grid.points * row) / (q_grid.weights @ row))


def test_conditional_mean_requires_grid_node():
    table = _shift_setup(1.0, PointerState.gaussian(), [0.0])
    with pytest.raises(ValueError, match="not a node"):
        conditional_pointer_shift(table(1e-3), 0.123456, table(0.0))


def test_narrow_readout_grid_warns():
    rho = coherent_state(alpha_from_quadratures(0.5, 0.0), 16)
    nu = make_operator("number", 16)
    joint = evolve_exact(rho, PointerState.gaussian(), nu, 0.1)
    with pytest.warns(UserWarning, match="border"):
        joint_distribution(joint, Q_grid=QuadratureGrid.gauss_legendre(3.0, 80))


@pytest.mark.parametrize("pointer", [
    PointerState.gaussian(0.8, 0.3),
    PointerState.gaussian_mixture([(0.6, -0.8, 0.7), (0.4, 1.0, 1.3)]),
], ids=["gaussian", "mixture"])
def test_border_density_is_the_diagonal_of_the_pair_gaussians(pointer, monkeypatch):
    """The border check sums w_c N(Q; c_c + s_j, sigma_c^2) in closed form; it
    equals the j = l pairs of ``_pair_gaussians`` bit for bit."""
    from weakmeas.vonneumann import _pair_gaussians

    dim = 16
    rho = displaced_thermal_state(alpha_from_quadratures(0.7, -0.4), 0.3, dim)
    phi_grid, q_grid = default_grid(dim=dim), QuadratureGrid.gauss_legendre(4.0, 80)
    reduced, real_max = [], np.max

    def recorded_max(a, *args, **kwargs):
        reduced.append(np.array(a))
        return real_max(a, *args, **kwargs)

    for eps in (0.0, 0.1, -0.35, 1.5):
        joint = evolve_exact(rho, pointer, make_operator("hamiltonian", dim), eps)
        d = np.arange(dim)
        pairs = _pair_gaussians(joint, d, d, q_grid.points[[0, -1]])
        expected = joint.state.diagonal().real @ pairs
        reduced.clear()
        monkeypatch.setattr(np, "max", recorded_max)
        with pytest.warns(UserWarning, match="border"):
            joint_distribution(joint, None, None, phi_grid, q_grid)
        monkeypatch.undo()
        assert len(reduced) == 1
        assert reduced[0].tobytes() == expected.tobytes()


def _rank(rho):
    """Numerical rank of rho: eigenvalues above 1e-14 of the largest."""
    lam = np.linalg.eigvalsh(rho.matrix)
    return int(np.sum(lam > 1e-14 * lam.max()))


def _assert_state_is_rotated(joint, rho, nu):
    """The joint state holds U^dag rho U, U from a dense eigh of nu: every
    rank is kept, with nothing clipped."""
    u = np.linalg.eigh(nu.matrix)[1]
    assert np.max(np.abs(joint.state - u.conj().T @ (rho.matrix @ u))) <= 1e-15


def test_conditional_shift_leaves_table_unbuilt():
    table = _shift_setup(1.0, MIXTURE, [-1.0])
    baseline, evolved = table(0.0), table(1e-3)
    conditional_pointer_shift(evolved, -1.0, baseline)
    assert "values" not in evolved.__dict__
    assert "values" not in baseline.__dict__


def test_one_eigh_per_observable_and_one_postselection_matrix_per_shift(monkeypatch):
    """Three couplings of one state and one observable diagonalize nu once
    and rho never; composing a coupling diagonalizes nothing; a closed-form
    shift builds one postselection matrix for both of its couplings."""
    import weakmeas.vonneumann as vn

    dim, eps, phi = 24, 1e-3, 0.5
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), 0.4, dim)
    make_operator.cache_clear()  # the operator below must be built, and diagonalized, here
    nu = make_operator("momentum_squared", dim)
    calls = []
    for name in ("eigh", "eigvalsh", "eig"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    evolved, _, start = (evolve_exact(rho, MIXTURE, nu, e) for e in (eps, eps / 2.0, 0.0))
    assert calls == ["eigh"]
    calls.clear()
    evolve_further(start, eps)
    assert calls == []
    vals, vecs = nu.eigensystem
    assert nu.eigensystem[1] is vecs is evolved.nu_vectors is start.nu_vectors
    for array in (vals, vecs, evolved.state):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0

    built = []  # rows of postselection matrices per call
    real = vn._postselection_matrices
    monkeypatch.setattr(vn, "_postselection_matrices",
                        lambda *args: built.append(len(args[1])) or real(*args))
    kernel = gaussian_kernel(0.4)
    phi_grid = default_grid(dim=dim, points=60).with_points([phi])
    q_grid = QuadratureGrid.gauss_legendre(14.0, 100)
    baseline, table = (joint_distribution(j, kernel, None, phi_grid, q_grid)
                       for j in (start, evolved))
    assert math.isfinite(conditional_pointer_shift(table, phi, baseline))
    assert built == [1]


def _other_setups(dim, phi):
    """A table builder, and tables at eps = 0 that each differ from its
    default setup in one of grids, nu eigenvectors, state, pointer, phi
    kernel and Q kernel."""
    def table(e, rho=None, nu=None, pointer=MIXTURE, kernel_phi=None, kernel_q=None,
              phi_points=60):
        rho = rho or displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), 0.4, dim)
        nu = nu or make_operator("hamiltonian", dim)
        phi_grid = default_grid(dim=dim, points=phi_points).with_points([phi])
        return joint_distribution(evolve_exact(rho, pointer, nu, e),
                                  kernel_phi or gaussian_kernel(0.4), kernel_q, phi_grid,
                                  QuadratureGrid.gauss_legendre(14.0, 100))

    other_pointer = PointerState.gaussian_mixture([(0.6, -0.8, 0.7), (0.4, 1.0, 1.4)])
    return table, {
        "grids": table(0.0, phi_points=61),
        "nu eigenvectors": table(0.0, nu=make_operator("momentum_squared", dim)),
        "state": table(0.0, rho=displaced_thermal_state(0.5, 0.4, dim)),
        "pointer": table(0.0, pointer=other_pointer),
        "phi kernel": table(0.0, kernel_phi=gaussian_kernel(0.5)),
        "Q kernel": table(0.0, kernel_q=gaussian_kernel(0.3)),
    }


def test_shift_refuses_a_baseline_of_another_setup():
    """The baseline enters no number: one of another setup at eps = 0 gives
    the same shift to the bit.  A baseline at eps != 0 is refused."""
    dim, eps, phi = 20, 1e-3, 0.5
    table, others = _other_setups(dim, phi)
    evolved = table(eps)
    want = conditional_pointer_shift(evolved, phi, table(0.0))
    for baseline in others.values():
        assert conditional_pointer_shift(evolved, phi, baseline) == want
    with pytest.raises(ValueError, match="eps = 0"):
        conditional_pointer_shift(evolved, phi, table(eps / 2.0))


def test_shift_refuses_vanishing_postselection():
    dim = 12
    rho = _fock(1, dim)  # psi_1(0) = 0: phi = 0 is never postselected
    nu = make_operator("number", dim)
    phi_grid = default_grid(dim=dim, points=40).with_points([0.0])
    q_grid = QuadratureGrid.gauss_legendre(14.0, 100)
    baseline, table = (
        joint_distribution(evolve_exact(rho, PointerState.gaussian(), nu, e),
                           None, None, phi_grid, q_grid) for e in (0.0, 1e-3))
    with pytest.raises(ValueError, match="below 1e-12"):
        conditional_pointer_shift(table, 0.0, baseline)


def test_shift_accepts_a_rebuilt_or_composed_baseline():
    """The CLI's route, every coupling composed from one eps = 0 start, gives
    the shift of tables built from rebuilt inputs to the bit."""
    dim, eps, phi = 20, 1e-3, 0.5
    table, _ = _other_setups(dim, phi)  # rebuilds every input on each call
    evolved = table(eps)
    want = conditional_pointer_shift(evolved, phi, table(0.0))
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), 0.4, dim)
    start = evolve_exact(rho, MIXTURE, make_operator("hamiltonian", dim), 0.0)

    def read(joint):
        return joint_distribution(joint, gaussian_kernel(0.4), None, evolved.phi_grid,
                                  evolved.Q_grid)

    assert conditional_pointer_shift(read(evolve_further(start, eps)), phi, read(start)) == want


def test_table_values_are_smeared_position_density():
    """``values`` on the default 400-node phi grid against the grid route on
    fine trapezoid grids: ``position_density`` on 6000 phi nodes (and 361 Q
    nodes for a smeared Q axis), smeared onto the table's points by
    ``smear_matrix``.  The trapezoid rule resolves the eta = 0.999 kernel
    (sigma_eta = 0.022, 4.8 node spacings), where a smear on the table's own
    grid is 0.27 of the largest value off.  Every eighth phi row."""
    dim, eps = 16, 0.2
    kernels = {"projective": None, "gaussian 0.4": gaussian_kernel(0.4),
               "gaussian": gaussian_kernel(0.3),
               **{f"eta {eta}": gaussian_kernel(sigma_from_efficiency(eta))
                  for eta in (0.9, 0.99, 0.999)}}
    cases = [("eta 0.999", "projective"), ("eta 0.99", "gaussian"), ("eta 0.9", "gaussian 0.4"),
             ("gaussian 0.4", "gaussian 0.4"),
             ("projective", "gaussian")]  # (phi kernel, Q kernel)
    phi_fine, q_fine = trapezoid_grid(14.0, 6000), trapezoid_grid(18.0, 361)
    phi_grid, q_grid = default_grid(dim=dim), trapezoid_grid(16.0, 161)
    rows = phi_grid.points[::8]
    failures = []
    for pointer, name in ((PointerState.gaussian(0.9), "single"), (MIXTURE, "mixture")):
        for n_th in (0.0, 0.8):
            rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), n_th, dim)
            assert _rank(rho) == (1 if n_th == 0.0 else dim)
            joint = evolve_exact(rho, pointer, make_operator("hamiltonian", dim), eps)
            densities = {}  # position_density per (smeared phi, smeared Q)
            for phi_name, q_name in cases:
                kernel_phi, kernel_q = kernels[phi_name], kernels[q_name]
                table = joint_distribution(joint, kernel_phi, kernel_q, phi_grid, q_grid)
                smeared = (kernel_phi is not None, kernel_q is not None)
                if smeared not in densities:
                    densities[smeared] = joint_density(
                        joint, phi_fine.points if smeared[0] else rows,
                        q_fine.points if smeared[1] else q_grid.points)
                want = densities[smeared]
                if kernel_phi is not None:
                    want = smear_matrix(kernel_phi, rows, phi_fine) @ want
                if kernel_q is not None:
                    want = want @ smear_matrix(kernel_q, q_grid.points, q_fine).T
                got = table.values[::8]
                error = np.max(np.abs(got - want)) / np.max(np.abs(got))
                if not error <= 1e-12:
                    failures.append(f"{name} n_th={n_th} phi {phi_name} Q {q_name}: "
                                    f"{error:.1e}")
            assert table.values is table.values
    assert not failures, failures


@pytest.mark.parametrize("pointer", [PointerState.gaussian(0.9), MIXTURE],
                         ids=["single", "mixture"])
@pytest.mark.parametrize("n_th", [0.0, 0.8], ids=["rank1", "full_rank"])
@pytest.mark.parametrize("kernel_phi", [
    None, gaussian_kernel(0.4), gaussian_kernel(sigma_from_efficiency(0.99)),
], ids=["phi_projective", "phi_gaussian", "phi_eta_0.99"])
def test_exact_readout_matches_fine_table_route(pointer, n_th, kernel_phi):
    """The closed-form shift, read from tables on the 400-node default phi
    grid, against the table route: the means of ``values`` at the node on a
    1000-node phi grid.  The values of a projective or Gaussian phi kernel
    take the exact postselection rule on any grid."""
    dim, eps, phi = 20, 0.05, 0.37
    rho = displaced_thermal_state(alpha_from_quadratures(0.9, 0.4), n_th, dim)
    nu = make_operator("hamiltonian", dim)
    joints = [evolve_exact(rho, pointer, nu, e) for e in (eps, 0.0)]
    assert _rank(rho) == (1 if n_th == 0.0 else dim)
    _assert_state_is_rotated(joints[0], rho, nu)
    q_grid = trapezoid_grid(16.0, 161)  # trapezoid: resolves the 0.3 Q smear

    def tables(points, kernel_q):
        phi_grid = default_grid(dim=dim, points=points).with_points([phi])
        return [joint_distribution(j, kernel_phi, kernel_q, phi_grid, q_grid) for j in joints]

    for kernel_q in (None, gaussian_kernel(0.3)):
        exact, fine = tables(400, kernel_q), tables(1000, kernel_q)
        want = (_values_mean(fine[0], phi) - _values_mean(fine[1], phi)) / eps
        assert abs(conditional_pointer_shift(exact[0], phi, exact[1]) - want) <= 1e-12


@pytest.mark.parametrize("pointer", [PointerState.gaussian(0.9), MIXTURE],
                         ids=["single", "mixture"])
@pytest.mark.parametrize("n_th", [0.0, 0.8], ids=["rank1", "full_rank"])
@pytest.mark.parametrize("kernel_phi", [None, gaussian_kernel(0.4)],
                         ids=["phi_projective", "phi_gaussian"])
def test_pointer_shift_is_the_table_shift(pointer, n_th, kernel_phi):
    """The shift read from the evolved state alone is the table route's to
    the bit."""
    dim, eps, phi = 20, 0.05, 0.37
    rho = displaced_thermal_state(alpha_from_quadratures(0.9, 0.4), n_th, dim)
    start = evolve_exact(rho, pointer, make_operator("hamiltonian", dim), 0.0)
    joint = evolve_further(start, eps)
    phi_grid = default_grid(dim=dim, points=80).with_points([phi])
    baseline, table = (joint_distribution(j, kernel_phi, None, phi_grid,
                                          QuadratureGrid.gauss_legendre(16.0, 100))
                       for j in (start, joint))
    want = conditional_pointer_shift(table, phi, baseline)
    assert pointer_shift(joint, kernel_phi or gaussian_kernel(0.0), phi) == want


def test_gaussian_kernel_agrees_on_every_route():
    """A Gaussian kernel takes the exact postselection rule on every route,
    whatever the table's 80-node phi grid: the closed-form shift is the
    table's to the bit, the trace formula is the distribution route's, and
    the eps = 0 table's phi marginal is ``effective_marginal``."""
    dim, eps, phi = 20, 0.05, 0.37
    kernel = gaussian_kernel(0.4)
    rho = displaced_thermal_state(alpha_from_quadratures(0.9, 0.4), 0.8, dim)
    nu = make_operator("hamiltonian", dim)
    phi_grid = default_grid(dim=dim, points=80).with_points([phi])
    baseline, table = (
        joint_distribution(evolve_exact(rho, MIXTURE, nu, e), kernel, None, phi_grid,
                           QuadratureGrid.gauss_legendre(16.0, 100)) for e in (0.0, eps))
    assert pointer_shift(table.joint, kernel, phi) == conditional_pointer_shift(table, phi,
                                                                                baseline)
    distribution = weak_value_from_distribution(rho, nu, BasisPair.position_fock(dim),
                                                kernel, phi)
    assert abs(weak_value(nu, rho, kernel, phi) - distribution) <= 1e-12
    marginal = effective_marginal(rho, kernel)(phi_grid.points)
    assert np.max(np.abs(phi_marginal(baseline) - marginal)) <= 1e-12


def test_pointer_shift_refusals():
    dim = 12
    joint = evolve_exact(_fock(1, dim), PointerState.gaussian(), make_operator("number", dim),
                         1e-3)
    kernel = gaussian_kernel(0.0)
    with pytest.raises(ValueError, match="nonzero coupling"):
        pointer_shift(evolve_further(joint, -1e-3), kernel, 0.5)
    with pytest.raises(ValueError, match="below 1e-12"):
        pointer_shift(joint, kernel, 0.0)  # psi_1(0) = 0
    assert pointer_shift(joint, kernel, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_shift_has_no_cancellation_floor():
    """Criterion 07's system with a single Gaussian pointer.  The shift is
    one contraction, not (E_eps - E_0)/eps, so dev = shift - q keeps
    following c(q) eps^2 at eps = 1e-5 and stays at round-off at eps = 1e-7,
    where the difference of two grid means left about 5e-10."""
    rho, nu, qs = _pointer_law_system()
    pointer = PointerState.gaussian(sigma=1.0)
    phi_grid = default_grid(dim=rho.dim, points=120).with_points(qs)
    q_grid = QuadratureGrid.gauss_legendre(14.0, 600)

    def table(eps):
        return joint_distribution(evolve_exact(rho, pointer, nu, eps),
                                  phi_grid=phi_grid, Q_grid=q_grid)

    baseline, weak, weaker = table(0.0), table(1e-5), table(1e-7)
    for q in qs:
        c = _second_order_shift(rho, nu, q, 1.0)
        dev = conditional_pointer_shift(weak, q, baseline) - q
        if abs(c) > 1e-12:
            assert dev / 1e-10 == pytest.approx(c, rel=1e-3)
        else:
            assert abs(dev) <= 1e-12
        assert abs(conditional_pointer_shift(weaker, q, baseline) - q) <= 1e-12


@pytest.mark.parametrize("kernel_q", [None, gaussian_kernel(0.3)],
                         ids=["Q_projective", "Q_gaussian"])
@pytest.mark.parametrize("kernel_phi", [None, gaussian_kernel(0.4)],
                         ids=["phi_projective", "phi_gaussian"])
def test_exact_readout_never_evaluates_pointer_on_q_grid(kernel_phi, kernel_q, monkeypatch):
    """The shift reads the pair overlaps e^{x_c}, never the pair Gaussians on Q nodes."""
    import weakmeas.vonneumann as vn

    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), 0.3, 24)
    phi_grid = default_grid(dim=24, points=100).with_points([0.5])
    q_grid = QuadratureGrid.gauss_legendre(21.0, 200)
    baseline, evolved = (
        joint_distribution(evolve_exact(rho, MIXTURE, make_operator("hamiltonian", 24), e),
                           kernel_phi, kernel_q, phi_grid, q_grid) for e in (0.0, 0.1))

    def refuse(joint, j, l, Q, widening=0.0):
        raise AssertionError(f"pair Gaussians evaluated at {np.size(Q)} Q nodes")

    monkeypatch.setattr(vn, "_pair_gaussians", refuse)
    assert math.isfinite(conditional_pointer_shift(evolved, 0.5, baseline))
    with pytest.raises(AssertionError, match="pair Gaussians"):
        evolved.values  # the table does read them


def test_kerr_fock_state_phase_shift_is_exact():
    dim = 25
    eps, k = 0.13, 3
    beta = alpha_from_quadratures(1.0, 0.0)
    rho_b = coherent_state(beta, dim)
    x_mean = simulate_cross_kerr(_fock(k, dim), rho_b, eps, 0.0, [0.4]).evolved_mean[0]
    p_mean = simulate_cross_kerr(_fock(k, dim), rho_b, eps, math.pi / 2, [0.4]).evolved_mean[0]
    # the pointer amplitude rotates to beta e^{-i eps k}, any coupling strength
    rotated = beta * np.exp(-1j * eps * k)
    assert x_mean == pytest.approx(math.sqrt(2) * rotated.real, abs=1e-10)
    assert p_mean == pytest.approx(math.sqrt(2) * rotated.imag, abs=1e-10)


def test_kerr_zero_coupling_gives_zero_shift():
    res = simulate_cross_kerr(_fock(1, 12), coherent_state(0.7, 12), 0.0, math.pi / 2, [0.5])
    assert np.all(res.shift_over_epsilon == 0.0)


def test_kerr_extraction_tracks_weak_value_in_negative_region():
    dim = 30
    rho_a = coherent_state(alpha_from_quadratures(0.5, 0.0), dim)
    rho_b = coherent_state(alpha_from_quadratures(1.0, 0.0), dim)
    qs = [-0.5, 0.0, 1.0]
    res = simulate_cross_kerr(rho_a, rho_b, 1e-3, math.pi / 2, qs)
    profile = n_closed_profile(0.5)
    for got, q, ref in zip(res.extracted_n_w, qs, res.reference_re_n_w):
        expected = profile.real_value(q)
        assert ref == pytest.approx(expected, abs=1e-8)
        assert got == pytest.approx(expected, abs=0.05 * max(1.0, abs(expected)))
    assert res.extracted_n_w[0] < 0  # negative photon-number readout


def _two_mode_conditional(rho_a, rho_b, g, eps, q):
    """Pointer state given the postselection q, from the dense two-mode state
    exp(-i eps n x diag(g)) (rho_a x rho_b) exp(+i eps n x diag(g))."""
    from scipy.linalg import expm

    u = expm(-1j * eps * np.kron(make_operator("number", rho_a.shape[0]).matrix,
                                 np.diag(g)))
    joint = u @ np.kron(rho_a, rho_b) @ u.conj().T
    bra = np.kron(wavefunction_table(rho_a.shape[0], q), np.eye(len(g)))
    cond = bra.T @ joint @ bra
    return cond / np.trace(cond)


def test_discrete_pointers_match_dense_two_mode_oracle():
    rho = displaced_thermal_state(alpha_from_quadratures(0.8, 0.5), 0.4, 14)
    eps, theta, qs = 0.3, 0.7, [-1.0, 0.2, 1.7]
    rho_b = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.2, 12)
    b = np.diag(np.sqrt(np.arange(1, 12)), k=1)
    x_theta = (b * np.exp(-1j * theta) + b.T * np.exp(1j * theta)) / math.sqrt(2)
    sx, sy = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    qubit = PointerState.qubit(0.6, -0.5)
    qubit_rho = 0.5 * (np.eye(2) + 0.6 * sx - 0.5 * sy)
    kerr = simulate_cross_kerr(rho, rho_b, eps, theta, qs).evolved_mean
    bloch = simulate_qubit_pointer(rho, qubit, eps, qs)
    for i, q in enumerate(qs):
        cond = _two_mode_conditional(rho.matrix, rho_b.matrix, np.arange(12), eps, [q])
        assert kerr[i] == pytest.approx(np.trace(cond @ x_theta).real, abs=1e-12)
        cond = _two_mode_conditional(rho.matrix, qubit_rho, [1.0, -1.0], eps, [q])
        assert bloch.sigma_x[i] == pytest.approx(np.trace(cond @ sx).real, abs=1e-12)
        assert bloch.sigma_y[i] == pytest.approx(np.trace(cond @ sy).real, abs=1e-12)


def test_kerr_calibration_matches_dense_two_mode_oracle():
    """The calibration is the pointer's response to mode a in |1>, which is the
    same at every postselection: the dense two-mode state gives it at two q."""
    rho = displaced_thermal_state(alpha_from_quadratures(0.8, 0.5), 0.4, 14)
    eps, theta, qs = 0.3, 0.7, [-1.0, 1.7]
    rho_b = displaced_thermal_state(alpha_from_quadratures(1.0, 0.3), 0.2, 12)
    b = np.diag(np.sqrt(np.arange(1, 12)), k=1)
    x_theta = (b * np.exp(-1j * theta) + b.T * np.exp(1j * theta)) / math.sqrt(2)
    base = np.trace(rho_b.matrix @ x_theta).real
    res = simulate_cross_kerr(rho, rho_b, eps, theta, qs)
    one = _fock(1, 14).matrix
    for i, q in enumerate(qs):
        cond = _two_mode_conditional(one, rho_b.matrix, np.arange(12), eps, [q])
        expected = (np.trace(cond @ x_theta).real - base) / eps
        assert res.calibration[i] == pytest.approx(expected, abs=1e-12)
    assert res.extracted_n_w == pytest.approx(res.shift_over_epsilon / res.calibration,
                                              rel=1e-15)


def test_discrete_meters_refuse_a_pointer_that_cannot_respond():
    """A number-state kerr pointer has no quadrature mean for the coupling
    to shift, and a zero Bloch vector no phase to rotate: both are refused,
    naming no CLI flag."""
    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), 12)
    for level in (0, 2):
        with pytest.raises(ValueError, match="calibration response vanishes") as err:
            simulate_cross_kerr(rho, _fock(level, 12), 1e-3, math.pi / 2, [0.0])
        assert "--" not in str(err.value) and "phase" not in str(err.value)
    with pytest.raises(ValueError, match="Bloch vector must be nonzero"):
        simulate_qubit_pointer(rho, PointerState.qubit(0.0, 0.0), 1e-3, [0.0])


def test_qubit_zero_coupling_leaves_bloch_vector():
    res = simulate_qubit_pointer(_fock(2, 16), PointerState.qubit(0.8, 0.1), 0.0, [0.3])
    assert res.sigma_x[0] == pytest.approx(0.8, abs=1e-12)
    assert res.sigma_y[0] == pytest.approx(0.1, abs=1e-12)
    assert res.sigma_y_slope[0] == 0.0


def test_qubit_fock_state_rotation_recovers_photon_number():
    res = simulate_qubit_pointer(_fock(2, 16), PointerState.qubit(1.0, 0.0), 0.05, [0.3])
    assert res.n_estimate[0] == pytest.approx(2.0, abs=1e-10)


def test_qubit_response_sign_flips_across_weak_value_root():
    dim = 30
    rho = coherent_state(alpha_from_quadratures(0.1, 0.0), dim)
    pointer = PointerState.qubit(1.0, 0.0)
    root = n_closed_profile(0.1).roots[0]
    res = simulate_qubit_pointer(rho, pointer, 1e-3, [root - 0.35, root + 0.35])
    assert res.sigma_y_slope[0] < 0 < res.sigma_y_slope[1]
    # measured proportionality approaches 2 s_x in the weak limit
    assert np.allclose(res.sigma_y_response_ratio, 2.0, atol=5e-3)


def test_qubit_rejects_wrong_pointer_kind():
    with pytest.raises(UnsupportedPointerError):
        simulate_qubit_pointer(_fock(0, 8), PointerState.gaussian(), 0.1)


def test_position_density_matches_dense_operator_oracle():
    """Independent oracle for the pair contraction: for each pointer position
    Q and component c the Kraus operator
    K_c(Q) = N_c exp(-(Q - c_c - eps nu)^2 / (4 s_c^2))
    acts on the full state, density = sum_c w_c psi(phi)^T K_c rho K_c^dag psi(phi),
    with no eigendecomposition of rho.  Full rank, two-component mixture,
    strong coupling; a dropped off-diagonal pair factor fails it.
    Gaussian phi and Q kernels smear the oracle on fine trapezoid grids (8
    and 3 nodes per kernel width) against the table's ``values``."""
    from scipy.linalg import expm

    dim, eps = 24, 0.3
    rho = displaced_thermal_state(alpha_from_quadratures(0.8, -0.5), 0.8, dim)
    pointer = MIXTURE
    phis = np.linspace(-2.5, 2.5, 5)
    Qs = np.linspace(-2.0, 8.0, 7)
    phi_fine, q_fine = trapezoid_grid(6.0, 241), trapezoid_grid(11.0, 221)
    psi = wavefunction_table(dim, np.concatenate([phis, phi_fine.points]))
    phi_grid = default_grid(dim=dim, points=40).with_points(phis)
    q_grid = QuadratureGrid.gauss_legendre(30.0, 60).with_points(Qs)
    cells = np.ix_(np.searchsorted(phi_grid.points, phis), np.searchsorted(q_grid.points, Qs))
    for kind in ("hamiltonian", "momentum_squared"):
        nu = make_operator(kind, dim)
        joint = evolve_exact(rho, pointer, nu, eps)
        assert _rank(rho) == dim
        _assert_state_is_rotated(joint, rho, nu)
        Q_all = np.concatenate([Qs, q_fine.points])
        reference = np.zeros((psi.shape[1], Q_all.size))
        for i, Q in enumerate(Q_all):
            for w, c, s in zip(pointer.weights, pointer.centers, pointer.sigmas):
                x = (Q - c) * np.eye(dim) - eps * nu.matrix
                kraus = (2.0 * np.pi * s * s) ** -0.25 * expm(-x @ x / (4.0 * s * s))
                sandwich = kraus @ rho.matrix @ kraus.conj().T
                reference[:, i] += w * np.einsum("np,nm,mp->p", psi, sandwich, psi).real
        got = joint_density(joint, phis, Qs)
        want = reference[:phis.size, :Qs.size]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        for kernel_phi, kernel_q in ((gaussian_kernel(0.4), None),
                                     (None, gaussian_kernel(0.3)),
                                     (gaussian_kernel(0.4), gaussian_kernel(0.3))):
            got = joint_distribution(joint, kernel_phi, kernel_q, phi_grid, q_grid).values[cells]
            want = reference
            if kernel_phi is None:
                want = want[:phis.size]
            else:
                want = smear_matrix(kernel_phi, phis, phi_fine) @ want[phis.size:]
            if kernel_q is None:
                want = want[:, :Qs.size]
            else:
                want = want[:, Qs.size:] @ smear_matrix(kernel_q, Qs, q_fine).T
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("call, name", [
    (lambda: coherent_state(math.nan, 10), "alpha"),
    (lambda: coherent_state(complex(0.0, math.inf), 10), "alpha"),
    (lambda: displaced_thermal_state(math.nan, 0.1, 10), "alpha"),
    (lambda: displacement_operator(math.nan, 4), "alpha"),
    (lambda: displacement_operator(complex(math.inf, 0.0), 4), "alpha"),
    (lambda: displaced_thermal_state(0.5, math.nan, 10), "n_th"),
    (lambda: displaced_thermal_state(0.5, math.inf, 10), "n_th"),
    (lambda: PointerState.qubit(math.nan, 0.0), "Bloch"),
    (lambda: PointerState.qubit(0.0, math.inf), "Bloch"),
    (lambda: PointerState.gaussian(sigma=math.nan), "sigmas"),
    (lambda: PointerState.gaussian(center=math.inf), "centers"),
    (lambda: PointerState.gaussian_mixture([(math.nan, 0.0, 1.0), (0.5, 1.0, 1.0)]),
     "weights"),
], ids=["coherent_nan", "coherent_inf", "thermal_alpha", "displacement_nan",
        "displacement_inf", "thermal_n_th_nan",
        "thermal_n_th_inf", "qubit_s_x", "qubit_s_y", "gaussian_sigma", "gaussian_center",
        "mixture_weight"])
def test_non_finite_state_and_pointer_refused(call, name):
    with pytest.raises(ValueError, match=f"{name}.*finite"):
        call()


@pytest.mark.parametrize("component", [(1.0, 0.0), (1.0, 0.0, 1.0, 0.5),
                                       (1.0, 0.0, 1.0, 0.5, 2.0)], ids=["pair", "four", "five"])
def test_mixture_component_must_be_a_triple(component):
    with pytest.raises(ValueError, match=r"\(weight, center, sigma\) triple"):
        PointerState.gaussian_mixture([component])


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_refused(epsilon):
    rho = coherent_state(0.5, 8)
    nu = make_operator("number", 8)
    joint = evolve_exact(rho, PointerState.gaussian(), nu, 0.1)
    calls = [
        lambda: evolve_exact(rho, PointerState.gaussian(), nu, epsilon),
        lambda: evolve_further(joint, epsilon),
        lambda: simulate_cross_kerr(rho, coherent_state(0.7, 8), epsilon),
        lambda: simulate_qubit_pointer(rho, PointerState.qubit(1.0, 0.0), epsilon),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="epsilon must be finite"):
            call()


@pytest.mark.parametrize("phase", [math.nan, math.inf])
def test_non_finite_readout_phase_refused(phase):
    with pytest.raises(ValueError, match="readout quadrature phase must be finite"):
        simulate_cross_kerr(coherent_state(0.5, 8), coherent_state(0.5, 8), 1e-3, phase, [0.1])


def test_hermiticity_is_checked_once_per_observable(monkeypatch):
    make_operator.cache_clear()  # the operators below must be built, and checked, here
    calls = []
    real = Observable.hermiticity_defect.func

    def counted(self):
        calls.append(self)
        return real(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Observable, "hermiticity_defect")
    monkeypatch.setattr(Observable, "hermiticity_defect", prop)
    dim = 12
    nu = make_operator("hamiltonian", dim)
    rho = displaced_thermal_state(0.4, 0.2, dim)
    pointer = PointerState.gaussian(1.0)
    for eps in (1e-3, 5e-4, 0.0):
        evolve_exact(rho, pointer, nu, eps)
    assert nu.is_hermitian() and calls == [nu]
    other = make_operator("number", dim)
    evolve_exact(rho, pointer, other, 1e-3)
    assert calls == [nu, other]


def test_make_operator_shares_one_read_only_operator_per_kind_and_dim(monkeypatch):
    for kind in ("number", "momentum", "annihilation"):
        op = make_operator(kind, 9)
        assert make_operator(kind, 9) is op and make_operator(kind, 10) is not op
        for array in (op.matrix, *op.eigensystem):
            with pytest.raises(ValueError, match="read-only"):
                array[0, ...] = 0.0
    make_operator.cache_clear()
    rho = displaced_thermal_state(0.4, 0.2, 12)
    pointer = PointerState.gaussian(1.0)
    calls, real_eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for eps in (1e-3, 5e-4, 0.0):
        evolve_exact(rho, pointer, make_operator("hamiltonian", 12), eps)
    for eps in (1e-3, 5e-4):
        joint = evolve_exact(rho, pointer, make_operator("hamiltonian", 12), eps)
        assert math.isfinite(pointer_shift(joint, gaussian_kernel(0.3), 0.2))
    assert len(calls) == 1
    assert np.array_equal(calls[0], make_operator("hamiltonian", 12).matrix)


def test_non_hermitian_observable_refused():
    ladder = make_operator("annihilation", 6)
    assert ladder.hermiticity_defect == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ValueError, match="measured observable must be Hermitian"):
        evolve_exact(coherent_state(0.3, 6), PointerState.gaussian(1.0), ladder, 1e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ladder.hermiticity_defect = 0.0
