import decimal
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import weakmeas
from weakmeas import (
    DensityOperator,
    Observable,
    QuadratureGrid,
    TruncationWarning,
    alpha_from_quadratures,
    coherent_state,
    default_grid,
    displaced_thermal_state,
    gaussian_kernel,
    make_operator,
    position_density,
    thermal_state,
    wavefunction_table,
    weak_value,
)
from weakmeas.fockspace import (OPERATOR_KINDS, _position_eigensystem, displacement_operator,
                                hermite_rule)


def test_number_operator_diagonal():
    n = make_operator("number", 4)
    assert np.allclose(n.matrix, np.diag([0, 1, 2, 3]))
    assert n.spectrum_lower_bound == 0.0


def test_hamiltonian_diagonal():
    h = make_operator("hamiltonian", 4)
    assert np.allclose(h.matrix, np.diag([0.5, 1.5, 2.5, 3.5]))
    assert h.spectrum_lower_bound == 0.5


def test_canonical_commutator_on_inner_block():
    dim = 40
    q = make_operator("position", dim).matrix
    p = make_operator("momentum", dim).matrix
    comm = q @ p - p @ q
    # truncation corrupts only the top levels; the inner block is exact
    block = comm[:30, :30]
    assert np.max(np.abs(block - 1j * np.eye(30))) < 1e-10


def test_ladder_quadrature_relation():
    dim = 25
    a = make_operator("annihilation", dim).matrix
    q = make_operator("position", dim).matrix
    p = make_operator("momentum", dim).matrix
    assert np.max(np.abs(a - (q + 1j * p) / math.sqrt(2))) < 1e-12


def test_momentum_squared_is_exact_ladder_combination():
    dim = 12
    p2 = make_operator("momentum_squared", dim)
    assert p2.is_hermitian()
    # diagonal n + 1/2, off-diagonal -sqrt(n(n-1))/2 two levels away
    assert np.allclose(np.diag(p2.matrix), np.arange(dim) + 0.5)
    assert p2.matrix[0, 2] == pytest.approx(-math.sqrt(2) / 2)


def test_hermitian_kinds_are_hermitian():
    for kind in ("number", "position", "momentum", "momentum_squared", "hamiltonian"):
        assert make_operator(kind, 17).is_hermitian(), kind


def test_make_operator_rejects_small_dim_and_unknown_kind():
    with pytest.raises(ValueError):
        make_operator("number", 1)
    with pytest.raises(ValueError):
        make_operator("parity", 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imag_inf"])
@pytest.mark.parametrize("cls", [DensityOperator, Observable])
def test_non_finite_matrix_refused(cls, bad):
    m = thermal_state(0.3, 6).matrix.copy()
    m[2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        cls(m)


@pytest.mark.parametrize("dim", [0, 1])
def test_displacement_operator_rejects_small_dim(dim):
    with pytest.raises(ValueError, match="dim must be >= 2"):
        displacement_operator(0.5, dim)


def _ladder_product_operator(kind, dim):
    """The operator kinds as dense products of the complex ladder matrices."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)
    adag = a.conj().T
    eye = np.eye(dim, dtype=complex)
    number = adag @ a
    return {
        "annihilation": a,
        "creation": adag,
        "number": number,
        "position": (a + adag) / math.sqrt(2.0),
        "momentum": (a - adag) / (1j * math.sqrt(2.0)),
        "momentum_squared": number + 0.5 * eye - 0.5 * (a @ a + adag @ adag),
        "hamiltonian": number + 0.5 * eye,
    }[kind]


@pytest.mark.parametrize("dim", [2, 3, 40, 120])
def test_make_operator_matches_ladder_products(dim):
    for kind in OPERATOR_KINDS:
        reference = _ladder_product_operator(kind, dim)
        got = make_operator(kind, dim).matrix
        assert np.all(np.abs(got - reference) <= 1e-15 * np.abs(reference)), kind
    assert np.array_equal(np.diag(make_operator("number", dim).matrix), np.arange(dim))


def test_coherent_vacuum_is_ground_projector():
    rho = coherent_state(0.0, 8)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.matrix - expected)) < 1e-15


def test_coherent_mean_photon_number():
    alpha = alpha_from_quadratures(1.0, 1.0)  # |alpha| = 1
    rho = coherent_state(alpha, 30)
    n = make_operator("number", 30)
    assert np.trace(n.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-8)


def test_coherent_is_pure():
    rho = coherent_state(alpha_from_quadratures(1.4, -0.6), 30)
    assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10
    rho.validate()


def test_coherent_truncation_guard():
    with pytest.warns(TruncationWarning):
        coherent_state(3.0, 20)  # |alpha|^2 = 9 > 20/4


def test_displaced_thermal_reduces_to_coherent():
    alpha = alpha_from_quadratures(0.9, 0.4)
    hot = displaced_thermal_state(alpha, 0.0, 30)
    cold = coherent_state(alpha, 30)
    assert np.max(np.abs(hot.matrix - cold.matrix)) < 1e-10


def test_thermal_quadrature_variance():
    rho = displaced_thermal_state(0.0, 0.5, 40)
    q = make_operator("position", 40)
    var = np.trace(q.matrix @ q.matrix @ rho.matrix).real
    assert var == pytest.approx(1.0, abs=1e-6)  # n_th + 1/2


def test_thermal_ground_population():
    rho = displaced_thermal_state(0.0, 1.0, 40)
    assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-10)


def test_displaced_thermal_validates(rng):
    for _ in range(5):
        alpha = alpha_from_quadratures(rng.uniform(-1, 1), rng.uniform(-1, 1))
        displaced_thermal_state(alpha, rng.uniform(0, 1), 36).validate()


def test_wavefunction_ground_peak():
    assert wavefunction_table(1, 0.0)[0, 0] == pytest.approx(np.pi ** -0.25, abs=1e-12)


def test_wavefunction_odd_parity():
    assert wavefunction_table(2, 0.0)[1, 0] == pytest.approx(0.0, abs=1e-14)


def test_wavefunction_orthonormality_on_grid():
    grid = default_grid(dim=6)
    psi0 = wavefunction_table(1, grid.points)[0]
    psi3 = wavefunction_table(4, grid.points)[3]
    psi5 = wavefunction_table(6, grid.points)[5]
    assert grid.weights @ (psi0 * psi0) == pytest.approx(1.0, abs=1e-8)
    assert abs(grid.weights @ (psi3 * psi5)) < 1e-8
    assert grid.weights @ (psi5 * psi5) == pytest.approx(1.0, abs=1e-8)


def test_spectrum_lower_bounds_hold():
    for kind in ("number", "momentum_squared", "hamiltonian", "position", "momentum"):
        op = make_operator(kind, 24)
        smallest = np.linalg.eigvalsh(op.matrix).min()
        assert smallest >= op.spectrum_lower_bound - 1e-10


def test_wavefunction_matches_recurrence_free_low_orders():
    q = np.linspace(-2, 2, 9)
    # psi_2 = (2 q^2 - 1)/sqrt(2) * psi_0
    psi0 = np.pi ** -0.25 * np.exp(-q * q / 2)
    assert np.allclose(wavefunction_table(3, q)[2], (2 * q * q - 1) / math.sqrt(2) * psi0)


def test_position_kernel_vacuum_center():
    rho = coherent_state(0.0, 10)
    assert position_density(rho, 0.0)[0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)


def test_position_kernel_diagonal_nonnegative(rng):
    from conftest import random_density

    rho = random_density(12, rng)
    dens = position_density(rho, np.linspace(-6, 6, 101))
    assert np.all(dens >= -1e-14)


def test_thermal_diagonal_matches_gaussian():
    rho = displaced_thermal_state(0.0, 0.5, 40)
    q = np.linspace(-3, 3, 13)
    expected = np.exp(-q * q / 2.0) / math.sqrt(2 * math.pi)  # variance n_th + 1/2 = 1
    assert np.max(np.abs(position_density(rho, q) - expected)) < 1e-6


def test_grid_total_probability(rng):
    from conftest import random_density

    grid = default_grid(dim=20)
    for _ in range(3):
        rho = random_density(20, rng)
        assert grid.weights @ position_density(rho, grid.points) == pytest.approx(
            1.0, abs=1e-6)


def test_doubling_dim_leaves_scalars_converged():
    alpha = alpha_from_quadratures(1.0, 0.5)
    vals = []
    for dim in (30, 60):
        rho = displaced_thermal_state(alpha, 0.4, dim)
        n = make_operator("number", dim)
        vals.append([np.trace(n.matrix @ rho.matrix).real,
                     position_density(rho, 0.7)[0],
                     np.trace(rho.matrix @ rho.matrix).real])
    assert np.max(np.abs(np.array(vals[0]) - np.array(vals[1]))) < 1e-8


def test_thermal_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        thermal_state(-0.1, 10)


@pytest.mark.parametrize("dim", [0, 1])
def test_thermal_state_rejects_dim_below_two(dim):
    with pytest.raises(ValueError, match="dim must be >= 2"):
        thermal_state(0.3, dim)


@pytest.mark.parametrize("points, weights", [
    ([-1.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
    ([-1.0, 0.0, math.inf], [1.0, 1.0, 1.0]),
    ([-1.0, 0.0, 1.0], [1.0, math.inf, 1.0]),
    ([-1.0, 0.0, 1.0], [1.0, math.nan, 1.0]),
], ids=["nan_point", "inf_point", "inf_weight", "nan_weight"])
def test_grid_rejects_non_finite_points_and_weights(points, weights):
    with pytest.raises(ValueError, match="finite"):
        QuadratureGrid(points, weights)


@pytest.mark.parametrize("build, domain", [
    (lambda: QuadratureGrid.gauss_legendre(5.0, 0), "n >= 1"),
    (lambda: default_grid(points=0), "n >= 1"),
], ids=["gauss_legendre_0", "default_grid_0"])
def test_grid_refuses_node_count_below_its_domain(build, domain):
    with pytest.raises(ValueError, match=f"needs {domain} nodes"):
        build()


def test_grid_with_points_injects_zero_weight_nodes():
    # at an odd node count 0.0 is already a node: it keeps its weight, with no
    # copy (an unstable sort kept the zero-weight copy at 401 nodes)
    for n in (50, 51, 401):
        grid = QuadratureGrid.gauss_legendre(5.0, n)
        extended = grid.with_points([0.0, 1.25])
        assert {0.0, 1.25} <= set(extended.points)
        assert extended.size == n + (2 if n % 2 == 0 else 1)
        assert extended.weights.sum() == pytest.approx(10.0, abs=1e-12)


def test_wavefunction_table_shape_and_tail():
    table = wavefunction_table(25, np.array([-14.0, 0.0, 14.0]))
    assert table.shape == (25, 3)
    assert np.all(np.abs(table[:, [0, 2]]) < 1e-12)  # far tails vanish


@pytest.mark.parametrize("q", [-45.0, 60.0])
def test_wavefunction_table_past_gaussian_underflow(q):
    """Where e^{-q^2/2} underflows, every psi_n that is a normal double still
    matches the recurrence run in 60-digit decimal arithmetic."""
    dim = 2000
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, one = decimal.Decimal(q), decimal.Decimal(1)
        ref = [0, (-x * x / 2).exp() / decimal.Decimal(math.pi).sqrt().sqrt()]
        for n in range(dim - 1):
            ref.append((2 * one / (n + 1)).sqrt() * x * ref[-1]
                       - (n * one / (n + 1)).sqrt() * ref[-2])
    ref = np.array([float(v) for v in ref[1:]])
    table = wavefunction_table(dim, np.array([q]))[:, 0]
    normal = np.abs(ref) > 1e-300
    assert normal.sum() > 500
    assert np.max(np.abs(table[~normal])) < 2e-300
    assert np.max(np.abs(table[normal] - ref[normal]) / np.abs(ref[normal])) < 1e-9


def test_wavefunction_table_is_zero_without_warning_at_huge_q():
    """Far past any dim's support the table is zeros, and neither q * q nor
    the power-of-two exponent overflows on the way there."""
    q = np.array([1e9, -1e10, 1e154, -1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = wavefunction_table(40, q)
    assert table.shape == (40, 5) and not table.any()


@pytest.mark.parametrize("dim", [40, 120])
def test_displacement_operator_matches_expm(dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    for alpha in (alpha_from_quadratures(1.0, 0.3), alpha_from_quadratures(-2.5, 1.7)):
        reference = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(displacement_operator(alpha, dim) - reference)) < 1e-13


def _generator_route(alpha, dim):
    """D(alpha) through an eigh of the Hermitian generator i(alpha a^dag - alpha* a)."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    lam, v = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return (v * np.exp(-1j * lam)) @ v.conj().T


# zero, each axis, each quadrant
ORACLE_ALPHAS = [0.0, 1.2, -1.2, 1.2j, -1.2j,
                 1.1 + 0.7j, -0.9 + 1.3j, -1.4 - 0.6j, 0.5 - 1.6j]


@pytest.mark.parametrize("dim", [2, 3, 16, 40, 80, 200])
def test_displacement_matches_generator_eigh(dim):
    for alpha in ORACLE_ALPHAS:
        disp = _generator_route(alpha, dim)
        assert np.max(np.abs(displacement_operator(alpha, dim) - disp)) <= 1e-13, alpha
        for n_th in (0.0, 0.45):
            rho = disp @ thermal_state(n_th, dim).matrix @ disp.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / np.trace(rho).real
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                got = displaced_thermal_state(alpha, n_th, dim).matrix
            assert np.max(np.abs(got - rho)) <= 1e-14, (alpha, n_th)


@pytest.mark.parametrize("dim", [2, 3, 16, 40, 80, 200])
def test_displacement_is_unitary_with_inverse_at_minus_alpha(dim):
    eye = np.eye(dim)
    for alpha in ORACLE_ALPHAS:
        disp = displacement_operator(alpha, dim)
        assert np.max(np.abs(disp @ disp.conj().T - eye)) <= 1e-13, alpha
        assert np.max(np.abs(disp @ displacement_operator(-alpha, dim) - eye)) <= 1e-13, alpha


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha_r=st.floats(-3.0, 3.0), alpha_i=st.floats(-2.0, 2.0), n_th=st.floats(0.0, 1.0),
       dim=st.integers(2, 80))
def test_displaced_thermal_state_always_validates(alpha_r, alpha_i, n_th, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = displaced_thermal_state(alpha_from_quadratures(alpha_r, alpha_i), n_th, dim)
    rho.validate()


def test_displacement_reuses_one_eigensystem_per_dim(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "eig"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    # at a dim no earlier call has cached, the first Gaussian-kernel weak value
    # (its Gauss-Hermite rule) and the first displaced state share one call
    dim = 29
    _position_eigensystem.cache_clear()
    hermite_rule.cache_clear()
    weak_value(make_operator("number", dim), thermal_state(0.2, dim), gaussian_kernel(0.4), 0.5)
    displaced_thermal_state(0.3, 0.2, dim)
    assert calls == ["eigh"]
    calls.clear()
    for alpha in ORACLE_ALPHAS:
        displaced_thermal_state(alpha, 0.6, dim)
        displacement_operator(alpha, dim)
    assert calls == []


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(weakmeas.__file__))
    code = ("import sys, weakmeas; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _wavefunction_table_loop(dim, q):
    # the recurrence as first written: coefficients and temporaries per row
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty((dim, q.size))
    e = np.minimum(0.0, np.ceil((690.0 - 0.5 * q * q) / math.log(2.0))).astype(int)
    far = bool(e.any())
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * q * q - e * math.log(2.0))
    if dim > 1:
        out[1] = math.sqrt(2.0) * q * out[0]
    for n in range(1, dim - 1):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * q * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
        if far and np.abs(out[n + 1]).max() > 2.0 ** 512:
            big = np.abs(out[n + 1]) > 2.0 ** 512
            out[:n + 2, big], e[big] = out[:n + 2, big] * 2.0 ** -512, e[big] + 512
    return np.ldexp(out, e) if far else out


@pytest.mark.parametrize("dim", [1, 2, 3, 40, 200])
def test_wavefunction_table_matches_row_loop_bit_for_bit(dim, rng):
    q = np.concatenate([[-45.0, 60.0, -37.5, 38.0, 0.0], rng.uniform(-15.0, 15.0, 60)])
    for points in (q, q[:1], q[1:2], q[5:6], q[5:]):
        assert np.array_equal(wavefunction_table(dim, points),
                              _wavefunction_table_loop(dim, points))
