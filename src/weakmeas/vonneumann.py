"""Exact finite-strength simulation of the impulsive measurement interaction.

The measured observable nu couples to the pointer momentum through the
impulse Hamiltonian eps * delta(t) * nu x P, realized here as the one-shot
unitary U = exp(-i eps nu x P) with no free evolution before readout.  In
the nu-eigenbasis U translates the pointer by eps times the eigenvalue, so
the joint state is computed exactly to all orders in eps: eigendecompose nu,
translate each pointer component, superpose.  There is no propagation or
Trotter error.  The object state is held as R = U^dag rho U, one matrix
product with no eigendecomposition of rho and no rank clip, and the one
``eigh`` of nu is kept on the ``Observable``, shared by every joint state
built from it.  The product of two translated pointer components is a
Gaussian in Q times their overlap e^{x_c}, so the joint position density is
one real matrix product over pairs j <= l of nu eigenvectors, whatever the
rank of the state (``position_density``).  A ``joint_distribution`` table
builds its ``values`` on first access from that closed form, widened by a
Gaussian Q kernel, and the exact postselection rule on its phi axis.
``pointer_shift`` is the one pointer readout: it reads the shift from the
evolved state alone, a closed form in the pair overlaps over the same rule,
with no table.
``conditional_pointer_shift`` only looks up a node of a table's phi axis.

Pointers are mixtures of real Gaussian wavefunctions.  The first-order
readout law (conditional pointer mean shifted by eps * Re nu_w) requires
that the pointer current density vanishes,

    j(Q) = (1/2) <Q|(P rho_a + rho_a P)|Q> = 0,

and every such mixture satisfies it; a pointer with position-momentum
correlation would mix Im nu_w into the shift (Jozsa, PRA 76, 044103 (2007)).

Two physical couplings where the pointer is not a free particle are
simulated exactly as well: a second field mode coupled through the
photon-number product (cross-Kerr, homodyne readout of a pointer
quadrature) and a two-level atom coupled through number x sigma_z
(readout of the equatorial Bloch components).  Both couplings are
eps n x diag(g), with g = (0, 1, ..., d_b - 1) for the mode and g = (+1, -1)
for the atom, so a readout R of the pointer given the postselected position
q is the postselected form of ``weak_value``, exact in eps:

    Tr(rho_b(q) R) = psi(q)^T Re(rho o K_R) psi(q) / psi(q)^T Re(rho o K_1) psi(q),
    K_R = E (rho_b o R^T) E^dag,  E[n, m] = e^{-i eps n g_m}.

At eps = 0 the two stay uncorrelated and the readout reads Tr(rho_b R).  In
both, the response slope is proportional to Re n_w; the proportionality
constant is measured on the one-photon state, not assumed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DensityOperator,
    Observable,
    QuadratureGrid,
    default_grid,
    make_operator,
    wavefunction_table,
)
from .povm import DetectorKernel, _postselected_forms, delta_kernel, postselection_rule
from .weakvalues import weak_value

__all__ = [
    "UnsupportedPointerError",
    "PointerState",
    "JointState",
    "JointOutcomeTable",
    "evolve_exact",
    "evolve_further",
    "position_density",
    "joint_distribution",
    "phi_marginal",
    "pointer_shift",
    "conditional_pointer_shift",
    "simulate_cross_kerr",
    "simulate_qubit_pointer",
    "CrossKerrResult",
    "QubitPointerResult",
]

class UnsupportedPointerError(TypeError):
    """Pointer representation incompatible with the requested coupling."""


@dataclass(frozen=True)
class PointerState:
    """Auxiliary readout system in one of two representations.

    * ``gaussian_mixture`` -- weights/centers/sigmas arrays; component
      wavefunctions (2 pi s^2)^(-1/4) exp(-(Q-Q0)^2/(4 s^2)), real, with
      sigma the standard deviation of the position density.
    * ``qubit``            -- equatorial Bloch state (1 + s_x sx + s_y sy)/2.
    """

    kind: str
    weights: np.ndarray | None = None
    centers: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    s_x: float = 0.0
    s_y: float = 0.0

    @classmethod
    def gaussian(cls, sigma: float = 1.0, center: float = 0.0) -> "PointerState":
        return cls.gaussian_mixture([(1.0, center, sigma)])

    @classmethod
    def gaussian_mixture(cls, components) -> "PointerState":
        """components: iterable of (weight, center, sigma) triples."""
        comps = [tuple(c) for c in components]
        if any(len(c) != 3 for c in comps):
            raise ValueError(f"mixture components are (weight, center, sigma) triples, "
                             f"got {comps}")
        w, q0, s = (np.array([c[i] for c in comps], dtype=float) for i in range(3))
        for name, values in (("weights", w), ("centers", q0), ("sigmas", s)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"mixture {name} must be finite, got {values.tolist()}")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(s <= 0):
            raise ValueError("component widths must be positive")
        return cls("gaussian_mixture", weights=w, centers=q0, sigmas=s)

    @classmethod
    def qubit(cls, s_x: float, s_y: float) -> "PointerState":
        if not (math.isfinite(s_x) and math.isfinite(s_y)):
            raise ValueError(f"Bloch components must be finite, got ({s_x}, {s_y})")
        if s_x * s_x + s_y * s_y > 1.0 + 1e-12:
            raise ValueError(f"Bloch components must satisfy s_x^2 + s_y^2 <= 1, "
                             f"got {s_x * s_x + s_y * s_y:.6f}")
        return cls("qubit", s_x=float(s_x), s_y=float(s_y))


@dataclass(frozen=True)
class CurrentReport:
    """Largest pointer current-density magnitude."""

    max_violation: float


def _gaussian(Q, mean, var):
    """Normal density N(Q; mean, var), broadcast over its arguments."""
    return np.exp(-(Q - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def check_zero_current(pointer: PointerState) -> CurrentReport:
    """Current density j(Q) = Re <Q|P rho_a|Q> of the pointer state: none for
    every pointer, since each Gaussian component is real and every qubit
    pointer is equatorial (sigma_z rho_b + rho_b sigma_z = sigma_z, whose
    sigma_x-eigenstate elements vanish).  Not exported; ``perfbench`` calls it.
    """
    return CurrentReport(0.0)


@dataclass(frozen=True)
class JointState:
    """Exactly evolved object-pointer state in the observable's eigenbasis.

    Holds the eigensystem U of nu (shared with the ``Observable``, one
    ``eigh`` per observable) and the object state as R = U^dag rho U, any
    rank and no clip, rather than a grid, so evaluation at any resolution
    stays exact in the coupling strength and composition of interactions is
    just addition of pointer translations.
    """

    nu_eigvals: np.ndarray       # (dim,)
    nu_vectors: np.ndarray       # (dim, dim), columns are eigenvectors
    state: np.ndarray            # (dim, dim), R = U^dag rho U, read-only
    pointer: PointerState
    epsilon: float

    @property
    def shifts(self) -> np.ndarray:
        """Pointer translation per observable eigenvalue."""
        return self.epsilon * self.nu_eigvals


def _finite_coupling(epsilon: float) -> float:
    if not math.isfinite(epsilon):
        raise ValueError(f"coupling epsilon must be finite, got {epsilon}")
    return float(epsilon)


def evolve_exact(rho_s: DensityOperator, pointer: PointerState, nu: Observable,
                 epsilon: float) -> JointState:
    """Apply the impulse unitary exactly (all orders in the coupling)."""
    epsilon = _finite_coupling(epsilon)
    if pointer.kind != "gaussian_mixture":
        raise UnsupportedPointerError(
            f"the impulse coupling takes a gaussian_mixture pointer, got "
            f"{pointer.kind!r}; use the dedicated cross-Kerr or qubit simulators")
    if not nu.is_hermitian():
        raise ValueError("measured observable must be Hermitian")
    if nu.dim != rho_s.dim:
        raise ValueError(f"observable dim {nu.dim} != state dim {rho_s.dim}")
    vals, vecs = nu.eigensystem
    state = vecs.conj().T @ rho_s.matrix @ vecs
    state.setflags(write=False)
    return JointState(vals, vecs, state, pointer, epsilon)


def evolve_further(joint: JointState, extra_epsilon: float) -> JointState:
    """Compose another impulse of the same coupling; translations add."""
    return JointState(joint.nu_eigvals, joint.nu_vectors, joint.state, joint.pointer,
                      joint.epsilon + _finite_coupling(extra_epsilon))


def _postselection_matrices(joint: JointState, nodes, weights) -> np.ndarray:
    """B_i^T diag(w_i) conj(B_i) per row i of a postselection rule (nodes x,
    weights w), B_i = psi(x_i)^T U: the postselection in the nu eigenbasis."""
    dim = joint.nu_eigvals.size
    bras = (wavefunction_table(dim, nodes.ravel()).T @ joint.nu_vectors).reshape(
        *nodes.shape, dim)
    return np.swapaxes(bras * weights[..., None], 1, 2) @ bras.conj()


def _pair_exponents(pointer: PointerState, shifts: np.ndarray) -> np.ndarray:
    """x_c[j, l] = -(s_j - s_l)^2/(8 sigma_c^2), the log of the overlap of
    component c translated by s_j with its translate by s_l."""
    gap = shifts[:, None] - shifts[None, :]
    return -gap * gap / (8.0 * pointer.sigmas[:, None, None] ** 2)


def _pair_gaussians(joint: JointState, j, l, Q, widening: float = 0.0) -> np.ndarray:
    """P[p, q] = sum_c w_c A_cj(Q_q) A_cl(Q_q) for the pairs (j_p, l_p), in
    closed form: A_cj A_cl = e^{x_c[j, l]} N(Q; c_c + (s_j + s_l)/2,
    sigma_c^2), a Gaussian that a Gaussian Q kernel of variance ``widening``
    widens to sigma_c^2 + widening."""
    pointer, s = joint.pointer, joint.shifts
    scale = pointer.weights[:, None] * np.exp(_pair_exponents(pointer, s)[:, j, l])
    mid = 0.5 * (s[j] + s[l])[:, None]
    return sum(f[:, None] * _gaussian(Q, c + mid, v) for f, c, v in
               zip(scale, pointer.centers, pointer.sigmas ** 2 + widening))


def _density(joint: JointState, nodes, weights, Q, widening: float = 0.0) -> np.ndarray:
    """The density of ``position_density`` integrated over each row of a
    postselection rule."""
    dim = joint.nu_eigvals.size
    j, l = np.triu_indices(dim)
    coef = np.take(_postselection_matrices(joint, nodes, weights).reshape(-1, dim * dim),
                   j * dim + l, axis=1)
    coef *= np.where(j == l, 1.0, 2.0) * joint.state[j, l]
    return coef.real @ _pair_gaussians(joint, j, l, Q, widening)


def position_density(joint: JointState, phi_points, Q_points) -> np.ndarray:
    """Joint position density <phi, Q| rho_eps |phi, Q> on arbitrary points.

    With b = psi(phi)^T U the postselection bra in the nu eigenbasis,
    R = U^dag rho U the state there and A_cj(Q) the pointer component c
    translated by eps nu_j, the density is a sum over eigenvector pairs j <= l:

        sum_{j<=l} (2 - delta_jl) Re[b_j conj(b_l) R_jl P_jl(Q)],
        P_jl(Q) = sum_c w_c A_cj(Q) A_cl(Q),

    P in closed form (``_pair_gaussians``): n_phi dim(dim+1)/2 n_Q real
    multiply-adds whatever the rank of rho.
    """
    phi_points = np.atleast_1d(np.asarray(phi_points, dtype=float))
    Q_points = np.atleast_1d(np.asarray(Q_points, dtype=float))
    return _density(joint, phi_points[:, None], np.ones((phi_points.size, 1)), Q_points)


@dataclass(frozen=True)
class JointOutcomeTable:
    """Smeared joint outcome density over (phi, Q) readout grids.

    Holds the evolved state, both detector kernels and both grids.  The
    (n_phi, n_Q) ``values`` are built on first access and kept: the phi axis
    by ``postselection_rule``, exact, the Q axis by the pair Gaussians,
    widened by a Gaussian Q kernel.  The table's grids are the output points
    only.
    """

    joint: JointState
    kernel_phi: DetectorKernel
    kernel_Q: DetectorKernel
    phi_grid: QuadratureGrid
    Q_grid: QuadratureGrid

    @property
    def epsilon(self) -> float:
        return self.joint.epsilon

    @functools.cached_property
    def values(self) -> np.ndarray:
        rule = postselection_rule(self.kernel_phi, self.phi_grid.points,
                                  self.joint.nu_eigvals.size)
        return _density(self.joint, *rule, self.Q_grid.points,
                        self.kernel_Q.width_sigma_eta ** 2)

    def total_mass(self) -> float:
        return float(self.phi_grid.weights @ self.values @ self.Q_grid.weights)


def _default_pointer_grid(joint: JointState) -> QuadratureGrid:
    span = float(np.max(np.abs(joint.pointer.centers) + 10.0 * joint.pointer.sigmas)
                 + np.max(np.abs(joint.shifts), initial=0.0))
    return QuadratureGrid.gauss_legendre(span, 500)


def joint_distribution(joint: JointState,
                       kernel_phi: DetectorKernel | None = None,
                       kernel_Q: DetectorKernel | None = None,
                       phi_grid: QuadratureGrid | None = None,
                       Q_grid: QuadratureGrid | None = None) -> JointOutcomeTable:
    """Readout table rho_eps(phi, Q) after both detector POVMs, built on
    first access to its ``values``; warns now if the pointer density at the
    Q-grid border exceeds 1e-12."""
    kernel_phi = kernel_phi or delta_kernel()
    kernel_Q = kernel_Q or delta_kernel()
    if phi_grid is None:
        phi_grid = default_grid(dim=joint.nu_eigvals.size)
    if Q_grid is None:
        Q_grid = _default_pointer_grid(joint)
    # the readout law assumes the pointer density dies off inside the grid: the
    # occupation-weighted densities of the translated components (j = l pairs)
    pointer, s = joint.pointer, joint.shifts[:, None]
    borders = sum(w * _gaussian(Q_grid.points[[0, -1]], c + s, v) for w, c, v in
                  zip(pointer.weights, pointer.centers, pointer.sigmas ** 2))
    border_density = float(np.max(joint.state.diagonal().real @ borders))
    if border_density > 1e-12:
        warnings.warn(f"pointer density {border_density:.2e} at the readout-grid "
                      f"border exceeds 1e-12; widen the Q grid", stacklevel=2)
    return JointOutcomeTable(joint, kernel_phi, kernel_Q, phi_grid, Q_grid)


def phi_marginal(table: JointOutcomeTable) -> np.ndarray:
    """Postselection-axis marginal, integral dQ rho_eps(phi, Q)."""
    return table.values @ table.Q_grid.weights


def _node(table: JointOutcomeTable, phi: float) -> int:
    idx = np.flatnonzero(np.abs(table.phi_grid.points - phi) < 1e-9)
    if idx.size == 0:
        raise ValueError(
            f"phi={phi} is not a node of the table's postselection axis; build the "
            f"grid with with_points() to place readout positions exactly")
    return int(idx[0])


def pointer_shift(joint: JointState, kernel_phi: DetectorKernel, phi: float) -> float:
    """[E_eps(Q|phi) - E_0(Q|phi)] / eps, the pointer estimate of Re nu_w(phi),
    read from the evolved state alone.  A projective or Gaussian Q readout is
    normalized and unbiased, so E(Q|phi) is the pointer mean; E_0 = sum_c w_c c_c.

    With C the postselection matrix by the kernel's postselection rule and
    s_j = eps nu_j, the shift is one contraction, with no subtraction of two
    means: since sum_c w_c (c_c - E_0) = 0,

        shift = Re sum C o N / Re sum C o M0,
        N  = sum_c w_c [(c_c - E_0) expm1(x_c)/eps + (nu_j + nu_l)/2 e^{x_c}],
        M0 = sum_c w_c e^{x_c},  x_c of ``_pair_exponents``:

    components dim^2 exponentials, no Q grid.  C does not depend on eps, and
    Re sum C, the uncoupled postselection probability, is refused below
    1e-12, as are Re sum C o M0 below 1e-12 and eps = 0.
    """
    eps = joint.epsilon
    if eps == 0.0:
        raise ValueError("shift extraction needs a nonzero coupling")
    rule = postselection_rule(kernel_phi, phi, joint.nu_eigvals.size)
    coef = _postselection_matrices(joint, *rule)[0] * joint.state
    pointer, nu = joint.pointer, joint.nu_eigvals
    x = _pair_exponents(pointer, joint.shifts).reshape(pointer.weights.size, -1)
    m0 = (pointer.weights @ np.exp(x)).reshape(coef.shape)
    probability = float(np.sum(coef * m0).real)
    if float(np.sum(coef).real) < 1e-12 or probability < 1e-12:
        raise ValueError(f"postselection probability at phi={phi} is below 1e-12")
    mean = np.multiply(pointer.centers, pointer.weights).sum() / pointer.weights.sum()
    n = (((pointer.weights * (pointer.centers - mean)) @ np.expm1(x)).reshape(coef.shape) / eps
         + 0.5 * (nu[:, None] + nu[None, :]) * m0)
    return float(np.sum(coef * n).real) / probability


def conditional_pointer_shift(table: JointOutcomeTable, phi: float,
                              baseline: JointOutcomeTable) -> float:
    """``pointer_shift`` of the table's state and phi kernel at a node of its
    phi axis.

    ``baseline`` is the eps = 0 table and enters no number; one at another
    eps is refused.
    """
    if baseline.epsilon != 0.0:
        raise ValueError("baseline table must be computed at eps = 0")
    return pointer_shift(table.joint, table.kernel_phi, table.phi_grid.points[_node(table, phi)])


# ---------------------------------------------------------------------------
# discrete pointers: eps * n x diag(g), conditioned on a postselected position

def _meter_readouts(rho: DensityOperator, g, rho_pointer: np.ndarray, epsilon: float,
                    readouts, q: np.ndarray):
    """Tr(rho_b(q) R)/Tr(rho_b(q)) per readout R and per q for the pointer
    state rho_b(q) given q, exact in eps, and the kernels K_R: the postselected
    forms over Re(rho o K_R), K_R = E (rho_b o R^T) E^dag with E[n, m] =
    e^{-i eps n g_m}, divided by that at R = 1 (the last kernel)."""
    e = np.exp(-1j * epsilon * np.outer(np.arange(rho.dim), g))
    kernels = [e @ (rho_pointer * r.T) @ e.conj().T for r in (*readouts, np.eye(len(g)))]
    *forms, norm = _postselected_forms(delta_kernel(), q, rho.dim,
                                       [(rho.matrix * k).real for k in kernels])
    if np.any(norm < 1e-14):
        raise ValueError(f"postselection probability below 1e-14 at "
                         f"q={q[norm < 1e-14].tolist()}")
    return np.array(forms) / norm, kernels


# ---------------------------------------------------------------------------
# cross-Kerr coupling: eps * (n of mode a) x (n of mode b), homodyne readout

@dataclass(frozen=True)
class CrossKerrResult:
    postselect_q: np.ndarray
    epsilon: float
    readout_phase: float
    baseline_mean: np.ndarray
    evolved_mean: np.ndarray
    shift_over_epsilon: np.ndarray
    calibration: np.ndarray
    extracted_n_w: np.ndarray
    reference_re_n_w: np.ndarray


def simulate_cross_kerr(rho_a_mode: DensityOperator, rho_b_pointer: DensityOperator,
                        epsilon: float, readout_quadrature_phase: float = math.pi / 2,
                        postselect_q=(0.0,)) -> CrossKerrResult:
    """Weak photon-number measurement through a cross-Kerr phase shift.

    Mode b picks up a phase proportional to the photon number of mode a; a
    homodyne quadrature x_theta = (b e^{-i theta} + b^dag e^{i theta})/sqrt(2)
    of b is read out conditioned on projectively postselecting the position
    quadrature of mode a.  The shift-to-weak-value constant is calibrated by
    an identical run with mode a in the one-photon state (for which n_w = 1
    at every postselection), never assumed.
    """
    epsilon = _finite_coupling(epsilon)
    q = np.atleast_1d(np.asarray(postselect_q, dtype=float))
    db = rho_b_pointer.dim
    ladder = np.diag(np.sqrt(np.arange(1, db, dtype=float)), k=1).astype(complex)
    theta = float(readout_quadrature_phase)
    if not math.isfinite(theta):
        raise ValueError(f"readout quadrature phase must be finite, got {theta}")
    quad = (ladder * np.exp(-1j * theta) + ladder.conj().T * np.exp(1j * theta)) / math.sqrt(2.0)

    base = np.full(q.size, np.trace(rho_b_pointer.matrix @ quad).real)
    ref = weak_value(make_operator("number", rho_a_mode.dim), rho_a_mode,
                     delta_kernel(), q).real
    if epsilon == 0.0:
        # zero coupling leaves the modes uncorrelated: no shift, no estimate
        zeros, nans = np.zeros(q.size), np.full(q.size, np.nan)
        return CrossKerrResult(q, 0.0, theta, base, base.copy(), zeros, nans, nans, ref)
    (evolved,), kernels = _meter_readouts(rho_a_mode, np.arange(db), rho_b_pointer.matrix,
                                          epsilon, [quad], q)
    shift = (evolved - base) / epsilon

    # calibration: with mode a in the one-photon state the weak value is 1 at
    # every postselection, and rho o K_R keeps only K_R[1, 1], so the pointer
    # is the same at every q and its mean is Re K_quad[1, 1] / Re K_1[1, 1];
    # refused within the round-off of Tr(rho_b x_theta), as for a number state
    response = float(kernels[0][1, 1].real / kernels[1][1, 1].real - base[0])
    if abs(response) <= 64 * np.finfo(float).eps * np.sum(np.abs(rho_b_pointer.matrix * quad.T)):
        raise ValueError("calibration response vanishes: no coupling moves this pointer mean")
    cal = np.full(q.size, response / epsilon)
    return CrossKerrResult(q, float(epsilon), theta, base, evolved, shift, cal,
                           shift / cal, ref)


# ---------------------------------------------------------------------------
# dispersive qubit pointer: eps * n x sigma_z, Bloch-vector readout

@dataclass(frozen=True)
class QubitPointerResult:
    postselect_q: np.ndarray
    epsilon: float
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_x_slope: np.ndarray
    sigma_y_slope: np.ndarray
    n_estimate: np.ndarray
    reference_re_n_w: np.ndarray
    sigma_y_response_ratio: np.ndarray
    sigma_x_response_ratio: np.ndarray


def simulate_qubit_pointer(rho_s: DensityOperator, qubit: PointerState,
                           epsilon: float, postselect_q=(0.0,)) -> QubitPointerResult:
    """Weak photon-number measurement with a dispersively coupled atom.

    The conditional atomic state given a projectively postselected position q
    is computed exactly; the Bloch vector rotates about z by twice the
    accumulated photon-number phase.  Reports the sigma_x / sigma_y linear
    response slopes, their ratio to Re n_w(q) (measured proportionality,
    expected 2 s_x for sigma_y and -2 s_y for sigma_x as eps -> 0), and a
    rotation-angle estimate of the photon number that is exact for Fock
    states at any coupling strength (NaN at eps = 0).
    """
    if qubit.kind != "qubit":
        raise UnsupportedPointerError("this coupling needs a qubit pointer")
    if qubit.s_x == 0.0 and qubit.s_y == 0.0:
        raise ValueError("Bloch vector must be nonzero: a maximally mixed atom has no phase")
    epsilon = _finite_coupling(epsilon)
    q = np.atleast_1d(np.asarray(postselect_q, dtype=float))
    ref = weak_value(make_operator("number", rho_s.dim), rho_s, delta_kernel(), q).real
    if epsilon == 0.0:
        sx, sy = np.full(q.size, qubit.s_x), np.full(q.size, qubit.s_y)
        sx_slope = sy_slope = np.zeros(q.size)
        n_est = np.full(q.size, np.nan)
    else:
        pauli = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
        rho_b = (np.eye(2) + qubit.s_x * pauli[0] + qubit.s_y * pauli[1]) / 2.0
        (sx, sy), _ = _meter_readouts(rho_s, [1.0, -1.0], rho_b, epsilon, pauli, q)
        sx_slope = (sx - qubit.s_x) / epsilon
        sy_slope = (sy - qubit.s_y) / epsilon
        angle = np.arctan2(sy, sx) - math.atan2(qubit.s_y, qubit.s_x)
        angle = np.mod(angle + np.pi, 2.0 * np.pi) - np.pi
        n_est = angle / (2.0 * epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_y = np.where(np.abs(ref) > 1e-12, sy_slope / ref, np.nan)
        ratio_x = np.where(np.abs(ref) > 1e-12, sx_slope / ref, np.nan)
    return QubitPointerResult(q, float(epsilon), sx, sy, sx_slope, sy_slope,
                              n_est, ref, ratio_y, ratio_x)
