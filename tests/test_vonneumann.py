import math

import numpy as np
import pytest

from weakmeas import (
    DensityOperator,
    PointerState,
    UnsupportedPointerError,
    alpha_from_quadratures,
    check_zero_current,
    coherent_state,
    conditional_mean,
    conditional_pointer_shift,
    custom_kernel,
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
    position_density,
    simulate_cross_kerr,
    simulate_qubit_pointer,
    wavefunction_table,
)
from weakmeas.povm import smear_matrix
from weakmeas.vonneumann import position_density as joint_density
from weakmeas import QuadratureGrid


def _fock(level, dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[level, level] = 1.0
    return DensityOperator(m)


MIXTURE = PointerState.gaussian_mixture([(0.6, -0.8, 0.7), (0.4, 1.0, 1.3)])


def test_real_gaussian_mixture_carries_no_current():
    assert check_zero_current(MIXTURE).max_violation < 1e-10


def test_qubit_equatorial_state_carries_no_current():
    assert check_zero_current(PointerState.qubit(0.6, 0.3)).max_violation < 1e-14


def test_boosted_gaussian_current_equals_boost_times_density():
    k = 0.5
    pointer = PointerState.gaussian(sigma=1.0, center=0.0, boost=k)
    report = check_zero_current(pointer)
    density_at_max = math.exp(-report.location ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert report.max_violation == pytest.approx(k * density_at_max, rel=1e-12)
    assert report.max_violation == pytest.approx(k / math.sqrt(2 * math.pi), rel=1e-2)
    assert abs(report.location) < 0.1


def test_fock_mode_pointer_current():
    thermal = displaced_thermal_state(0.0, 0.4, 30)
    assert check_zero_current(PointerState.fock_mode(thermal)).max_violation < 1e-10
    moving = displaced_thermal_state(alpha_from_quadratures(0.0, 0.8), 0.0, 30)
    assert check_zero_current(PointerState.fock_mode(moving)).max_violation > 1e-3


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
    shift = conditional_mean(table, 0.5) - conditional_mean(baseline, 0.5)
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
    obj = effective_marginal(rho, kernel_phi, table.phi_grid)(table.phi_grid.points)
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
    exact = effective_marginal(rho, kernel_phi, phi_grid)(phi_grid.points)

    def deviation(eps):
        joint = evolve_exact(rho, PointerState.gaussian(), nu, eps)
        table = joint_distribution(joint, kernel_phi, None, phi_grid)
        return np.max(np.abs(phi_marginal(table) - exact))

    ratio = deviation(1e-2) / deviation(5e-3)
    assert 3.5 <= ratio <= 4.5


def test_biased_readout_kernel_offsets_conditional_mean_by_its_bias():
    bias, sigma = 0.3, 0.4
    norm = 1.0 / (math.sqrt(2 * math.pi) * sigma)

    def biased(Q, Qp):
        return norm * np.exp(-((np.asarray(Q) - np.asarray(Qp) - bias) ** 2)
                             / (2 * sigma * sigma))

    rho = coherent_state(alpha_from_quadratures(1.0, 0.0), 24)
    nu = make_operator("hamiltonian", 24)
    joint = evolve_exact(rho, PointerState.gaussian(), nu, 0.05)
    phi_grid = default_grid(dim=24, points=100).with_points([0.5])
    q_grid = QuadratureGrid.gauss_legendre(14.0, 700)
    fair = joint_distribution(joint, None, gaussian_kernel(sigma), phi_grid, q_grid)
    skew = joint_distribution(joint, None, custom_kernel(biased, sigma), phi_grid, q_grid)
    delta = conditional_mean(skew, 0.5) - conditional_mean(fair, 0.5)
    assert delta == pytest.approx(bias, abs=1e-10)


def test_conditional_mean_requires_grid_node():
    table = _shift_setup(1.0, PointerState.gaussian(), [0.0])(1e-3)
    with pytest.raises(ValueError):
        conditional_mean(table, 0.123456)


def test_narrow_readout_grid_warns():
    rho = coherent_state(alpha_from_quadratures(0.5, 0.0), 16)
    nu = make_operator("number", 16)
    joint = evolve_exact(rho, PointerState.gaussian(), nu, 0.1)
    with pytest.warns(UserWarning, match="border"):
        joint_distribution(joint, Q_grid=QuadratureGrid.gauss_legendre(3.0, 80))


BOOSTED = PointerState.gaussian_mixture([(0.6, -0.8, 0.7, 0.5), (0.4, 1.0, 1.3)])


@pytest.mark.parametrize("pointer", [PointerState.gaussian(0.9), MIXTURE, BOOSTED],
                         ids=["single", "mixture", "boosted"])
@pytest.mark.parametrize("n_th", [0.0, 0.8], ids=["rank1", "full_rank"])
def test_row_readout_matches_table_row(pointer, n_th):
    dim = 20
    rho = displaced_thermal_state(alpha_from_quadratures(0.9, 0.4), n_th, dim)
    joint = evolve_exact(rho, pointer, make_operator("hamiltonian", dim), 0.3)
    assert joint.state_weights.size == (1 if n_th == 0.0 else dim)
    phi_grid = default_grid(dim=dim, points=60).with_points([0.37])
    q_grid = QuadratureGrid.gauss_legendre(21.0, 200)
    node = int(np.flatnonzero(phi_grid.points == 0.37)[0])
    for kernel_phi in (None, gaussian_kernel(0.4)):
        for kernel_q in (None, gaussian_kernel(0.3)):
            table = joint_distribution(joint, kernel_phi, kernel_q, phi_grid, q_grid)
            rows = np.array([table.row(i) for i in range(phi_grid.size)])
            # both routes sum the same quadratic form in another order, so
            # they share its absolute round-off floor, a few 1e-16 of the
            # table maximum; rows far in the state's tail sit near that floor
            err = np.max(np.abs(rows - table.values), axis=1)
            row_max = np.max(np.abs(table.values), axis=1)
            assert np.max(err) <= 1e-14 * np.max(row_max)
            held = row_max > 1e-2 * np.max(row_max)
            assert node in np.flatnonzero(held)
            assert np.all(err[held] <= 1e-13 * row_max[held])


def test_conditional_shift_leaves_table_unbuilt():
    table = _shift_setup(1.0, MIXTURE, [-1.0])
    baseline, evolved = table(0.0), table(1e-3)
    conditional_pointer_shift(evolved, -1.0, baseline)
    assert "values" not in evolved.__dict__
    assert "values" not in baseline.__dict__


def test_table_values_are_smeared_position_density():
    rho = displaced_thermal_state(alpha_from_quadratures(1.0, 0.2), 0.3, 24)
    joint = evolve_exact(rho, MIXTURE, make_operator("hamiltonian", 24), 0.2)
    kernel_phi, kernel_q = gaussian_kernel(0.4), gaussian_kernel(0.3)
    table = joint_distribution(joint, kernel_phi, kernel_q)
    phi, q = table.phi_grid, table.Q_grid
    expected = (smear_matrix(kernel_phi, phi.points, phi)
                @ joint_density(joint, phi.points, q.points)
                @ smear_matrix(kernel_q, q.points, q).T)
    assert np.array_equal(table.values, expected)
    assert table.values is table.values


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
    K_c(Q) = N_c exp(-(Q - c_c - eps nu)^2 / (4 s_c^2)) exp(i k_c (Q - eps nu))
    acts on the full state, density = sum_c w_c psi(phi)^T K_c rho K_c^dag psi(phi),
    with no eigendecomposition of rho.  Full rank, boosted mixture, strong
    coupling; a dropped off-diagonal pair factor or boost term fails it."""
    from scipy.linalg import expm

    dim, eps = 24, 0.3
    rho = displaced_thermal_state(alpha_from_quadratures(0.8, -0.5), 0.8, dim)
    pointer = PointerState.gaussian_mixture([(0.6, -0.5, 0.8, 0.7), (0.4, 0.9, 1.2)])
    phis = np.linspace(-2.5, 2.5, 5)
    Qs = np.linspace(-2.0, 8.0, 7)
    psi = wavefunction_table(dim, phis)
    for kind in ("hamiltonian", "momentum_squared"):
        nu = make_operator(kind, dim)
        joint = evolve_exact(rho, pointer, nu, eps)
        assert joint.state_weights.size == dim
        reference = np.zeros((phis.size, Qs.size))
        for i, Q in enumerate(Qs):
            for w, c, s, k in zip(pointer.weights, pointer.centers, pointer.sigmas,
                                  pointer.boosts):
                x = (Q - c) * np.eye(dim) - eps * nu.matrix
                kraus = ((2.0 * np.pi * s * s) ** -0.25 * expm(-x @ x / (4.0 * s * s))
                         @ expm(1j * k * (Q * np.eye(dim) - eps * nu.matrix)))
                sandwich = kraus @ rho.matrix @ kraus.conj().T
                reference[:, i] += w * np.einsum("np,nm,mp->p", psi, sandwich, psi).real
        got = joint_density(joint, phis, Qs)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(reference)


@pytest.mark.parametrize("call, name", [
    (lambda: coherent_state(math.nan, 10), "alpha"),
    (lambda: coherent_state(complex(0.0, math.inf), 10), "alpha"),
    (lambda: displaced_thermal_state(math.nan, 0.1, 10), "alpha"),
    (lambda: displaced_thermal_state(0.5, math.nan, 10), "n_th"),
    (lambda: displaced_thermal_state(0.5, math.inf, 10), "n_th"),
    (lambda: PointerState.qubit(math.nan, 0.0), "Bloch"),
    (lambda: PointerState.qubit(0.0, math.inf), "Bloch"),
    (lambda: PointerState.gaussian(sigma=math.nan), "sigmas"),
    (lambda: PointerState.gaussian(center=math.inf), "centers"),
    (lambda: PointerState.gaussian(boost=math.nan), "boosts"),
    (lambda: PointerState.gaussian_mixture([(math.nan, 0.0, 1.0), (0.5, 1.0, 1.0)]),
     "weights"),
], ids=["coherent_nan", "coherent_inf", "thermal_alpha", "thermal_n_th_nan",
        "thermal_n_th_inf", "qubit_s_x", "qubit_s_y", "gaussian_sigma", "gaussian_center",
        "gaussian_boost", "mixture_weight"])
def test_non_finite_state_and_pointer_refused(call, name):
    with pytest.raises(ValueError, match=f"{name}.*finite"):
        call()


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
