"""Exact finite-strength simulation of the impulsive measurement interaction.

The measured observable nu couples to the pointer momentum through the
impulse Hamiltonian eps * delta(t) * nu x P, realized here as the one-shot
unitary U = exp(-i eps nu x P) with no free evolution before readout.  In
the nu-eigenbasis U translates the pointer by eps times the eigenvalue, so
the joint state is computed exactly to all orders in eps: eigendecompose nu,
translate each pointer component, superpose.  There is no propagation or
Trotter error; the only numerics are quadratures on readout grids.  The
joint position density is one sum over pairs j <= l of nu eigenvectors, a
real matrix product of n_phi dim(dim+1)/2 n_Q multiply-adds whatever the
rank of the state or the number of pointer components (``position_density``).
A ``joint_distribution`` table builds that density, and its smears, on first
access to ``values``; ``conditional_mean`` never builds it but contracts one
postselection row (``JointOutcomeTable.row``), n_nodes dim^2 + components
dim^2 n_Q multiply-adds for n_nodes postselection nodes.

Pointers may be arbitrary Gaussian mixtures.  The first-order readout law
(conditional pointer mean shifted by eps * Re nu_w) requires only that the
pointer current density vanishes,

    j(Q) = (1/2) <Q|(P rho_a + rho_a P)|Q> = 0,

which every mixture of real (unboosted) wavefunctions satisfies;
``check_zero_current`` measures the violation for anything else.

Two physical couplings where the pointer is not a free particle are
simulated exactly as well: a second field mode coupled through the
photon-number product (cross-Kerr, homodyne readout of a pointer
quadrature) and a two-level atom coupled through number x sigma_z
(readout of the equatorial Bloch components).  Both couplings are
eps n x diag(g), with g = (0, 1, ..., d_b - 1) for the mode and g = (+1, -1)
for the atom, so one contraction gives the pointer state conditioned on the
postselected position q, exact in eps:

    rho_b[m, m'] sum_nn' psi_n(q) rho[n, n'] psi_n'(q) e^{-i eps (n g_m - n' g_m')}.

At eps = 0 the two stay uncorrelated and the readout R reads Tr(rho_b R).
In both, the response slope is proportional to Re n_w; the proportionality
constant is measured against a Fock-state calibration run, not assumed.
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
from .povm import DetectorKernel, delta_kernel, postselection_rule, smear_matrix
from .weakvalues import weak_value

__all__ = [
    "UnsupportedPointerError",
    "PointerState",
    "CurrentReport",
    "JointState",
    "JointOutcomeTable",
    "check_zero_current",
    "evolve_exact",
    "evolve_further",
    "position_density",
    "joint_distribution",
    "phi_marginal",
    "conditional_mean",
    "conditional_pointer_shift",
    "simulate_cross_kerr",
    "simulate_qubit_pointer",
    "CrossKerrResult",
    "QubitPointerResult",
]

RANK_CLIP = 1e-14  # relative eigenvalue cutoff when decomposing mixed states
PHI_BLOCK = 64     # postselection rows per block of pair coefficients


class UnsupportedPointerError(TypeError):
    """Pointer representation incompatible with the requested coupling."""


@dataclass(frozen=True)
class PointerState:
    """Auxiliary readout system in one of three representations.

    * ``gaussian_mixture`` -- weights/centers/sigmas/boosts arrays; component
      wavefunctions (2 pi s^2)^(-1/4) exp(-(Q-Q0)^2/(4 s^2)) exp(i k Q), with
      sigma the standard deviation of the position density.  Nonzero boosts
      k violate the zero-current condition and exist to exercise the check.
    * ``fock_mode``        -- a second bosonic mode given as a DensityOperator.
    * ``qubit``            -- equatorial Bloch state (1 + s_x sx + s_y sy)/2.
    """

    kind: str
    weights: np.ndarray | None = None
    centers: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    boosts: np.ndarray | None = None
    rho: DensityOperator | None = None
    s_x: float = 0.0
    s_y: float = 0.0

    @classmethod
    def gaussian(cls, sigma: float = 1.0, center: float = 0.0,
                 boost: float = 0.0) -> "PointerState":
        return cls.gaussian_mixture([(1.0, center, sigma, boost)])

    @classmethod
    def gaussian_mixture(cls, components) -> "PointerState":
        """components: iterable of (weight, center, sigma[, boost])."""
        comps = [tuple(c) for c in components]
        w = np.array([c[0] for c in comps], dtype=float)
        q0 = np.array([c[1] for c in comps], dtype=float)
        s = np.array([c[2] for c in comps], dtype=float)
        k = np.array([c[3] if len(c) > 3 else 0.0 for c in comps], dtype=float)
        for name, values in (("weights", w), ("centers", q0), ("sigmas", s), ("boosts", k)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"mixture {name} must be finite, got {values.tolist()}")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(s <= 0):
            raise ValueError("component widths must be positive")
        return cls("gaussian_mixture", weights=w, centers=q0, sigmas=s, boosts=k)

    @classmethod
    def fock_mode(cls, rho: DensityOperator) -> "PointerState":
        return cls("fock_mode", rho=rho)

    @classmethod
    def qubit(cls, s_x: float, s_y: float) -> "PointerState":
        if not (math.isfinite(s_x) and math.isfinite(s_y)):
            raise ValueError(f"Bloch components must be finite, got ({s_x}, {s_y})")
        if s_x * s_x + s_y * s_y > 1.0 + 1e-12:
            raise ValueError(f"Bloch components must satisfy s_x^2 + s_y^2 <= 1, "
                             f"got {s_x * s_x + s_y * s_y:.6f}")
        return cls("qubit", s_x=float(s_x), s_y=float(s_y))

    def amplitudes(self, Q, shifts=0.0) -> np.ndarray:
        """Component wavefunctions evaluated at Q - shift, shape
        (n_components, n_shifts, n_Q); ``shifts`` broadcasts over axis 1."""
        if self.kind != "gaussian_mixture":
            raise UnsupportedPointerError("amplitudes exist for Gaussian mixtures only")
        Q = np.atleast_1d(np.asarray(Q, dtype=float))
        shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
        x = Q[None, None, :] - shifts[None, :, None] - self.centers[:, None, None]
        s = self.sigmas[:, None, None]
        amp = (2.0 * np.pi * s * s) ** -0.25 * np.exp(-x * x / (4.0 * s * s))
        if np.any(self.boosts != 0.0):
            amp = amp * np.exp(1j * self.boosts[:, None, None]
                               * (Q[None, None, :] - shifts[None, :, None]))
        return amp


@dataclass(frozen=True)
class CurrentReport:
    """Largest pointer current-density magnitude found, and where."""

    max_violation: float
    location: float  # grid position; NaN for qubit pointers


def check_zero_current(pointer: PointerState,
                       grid: QuadratureGrid | None = None) -> CurrentReport:
    """Current density j(Q) = Re <Q|P rho_a|Q> of the pointer state.

    Real Gaussian mixtures carry none; a boost k makes j = k * density.  For
    qubit pointers the analogous condition, on the two sigma_x eigenstates,
    holds identically, since every qubit pointer is equatorial.
    """
    if pointer.kind == "qubit":
        # sigma_z rho_b + rho_b sigma_z = sigma_z for equatorial rho_b: <+-|.|+-> = 0
        return CurrentReport(0.0, math.nan)

    if grid is None:
        if pointer.kind == "gaussian_mixture":
            span = float(np.max(np.abs(pointer.centers) + 10.0 * pointer.sigmas))
            grid = QuadratureGrid.gauss_legendre(span, 400)
        else:
            grid = default_grid(dim=pointer.rho.dim)
    Q = grid.points

    if pointer.kind == "gaussian_mixture":
        amp = pointer.amplitudes(Q)[:, 0, :]
        x = Q[None, :] - pointer.centers[:, None]
        s2 = (pointer.sigmas ** 2)[:, None]
        damp = (-x / (2.0 * s2) + 1j * pointer.boosts[:, None]) * amp
        j = np.sum(pointer.weights[:, None]
                   * (-1j * damp * amp.conj()).real, axis=0)
    else:  # fock_mode
        dim = pointer.rho.dim
        table = wavefunction_table(dim, Q)
        # psi_n' = sqrt(2n) psi_{n-1} - q psi_n
        dtable = -Q[None, :] * table
        dtable[1:] += np.sqrt(2.0 * np.arange(1, dim))[:, None] * table[:-1]
        rho_psi = pointer.rho.matrix @ table
        j = (-1j * np.einsum("ni,ni->i", dtable, rho_psi)).real
    i = int(np.argmax(np.abs(j)))
    return CurrentReport(float(abs(j[i])), float(Q[i]))


@dataclass(frozen=True)
class JointState:
    """Exactly evolved object-pointer state in the observable's eigenbasis.

    Holds the eigendecompositions rather than a grid, so evaluation at any
    resolution stays exact in the coupling strength and composition of
    interactions is just addition of pointer translations.
    """

    nu_eigvals: np.ndarray       # (dim,)
    nu_vectors: np.ndarray       # (dim, dim), columns are eigenvectors
    state_weights: np.ndarray    # (rank,)
    state_vectors: np.ndarray    # (dim, rank), object eigvecs in nu-eigenbasis
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
    vals, vecs = np.linalg.eigh(nu.matrix)
    lam, u = np.linalg.eigh(rho_s.matrix)
    keep = lam > RANK_CLIP * lam.max()
    lam, u = lam[keep], u[:, keep]
    return JointState(vals, vecs, lam, vecs.conj().T @ u, pointer, epsilon)


def evolve_further(joint: JointState, extra_epsilon: float) -> JointState:
    """Compose another impulse of the same coupling; translations add."""
    return JointState(joint.nu_eigvals, joint.nu_vectors, joint.state_weights,
                      joint.state_vectors, joint.pointer,
                      joint.epsilon + _finite_coupling(extra_epsilon))


def _bra_and_state(joint: JointState, phi_points: np.ndarray):
    """psi(phi)^T U, the postselection bras in the nu eigenbasis, and
    R = U^dag rho U, the state there."""
    bra = wavefunction_table(joint.nu_eigvals.size, phi_points).T @ joint.nu_vectors
    vecs = joint.state_vectors
    return bra, (vecs * joint.state_weights) @ vecs.conj().T


def position_density(joint: JointState, phi_points, Q_points) -> np.ndarray:
    """Joint position density <phi, Q| rho_eps |phi, Q> on arbitrary points.

    With b = psi(phi)^T U the postselection bra in the nu eigenbasis,
    R = U^dag rho U the state there and A_cj(Q) the pointer component c
    translated by eps nu_j, the density is a sum over eigenvector pairs j <= l:

        sum_{j<=l} (2 - delta_jl) Re[b_j conj(b_l) R_jl P_jl(Q)],
        P_jl(Q) = sum_c w_c A_cj(Q) conj(A_cl(Q)).

    That is one real product of an (n_phi, dim(dim+1)/2) coefficient table
    with the (dim(dim+1)/2, n_Q) pair table: n_phi dim(dim+1)/2 n_Q real
    multiply-adds (four times that for a boosted pointer, whose pairs are
    complex), whatever the rank of rho and the number of components.
    """
    phi_points = np.atleast_1d(np.asarray(phi_points, dtype=float))
    Q_points = np.atleast_1d(np.asarray(Q_points, dtype=float))
    dim = joint.nu_eigvals.size
    bra, rho_nu = _bra_and_state(joint, phi_points)                  # (n_phi, dim)
    j, l = np.triu_indices(dim)
    rho_pairs = np.where(j == l, 1.0, 2.0) * rho_nu[j, l]
    amps = joint.pointer.amplitudes(Q_points, joint.shifts)         # (c, dim, n_Q)
    weighted, conjugate = joint.pointer.weights[:, None, None] * amps, np.conj(amps)
    pairs = np.concatenate([np.einsum("cq,ckq->kq", weighted[:, row], conjugate[:, row:])
                            for row in range(dim)])                 # rows in (j, l) order
    boosted = np.iscomplexobj(pairs)  # a real pointer's pairs need only Re coef
    density = np.empty((phi_points.size, Q_points.size))
    for start in range(0, phi_points.size, PHI_BLOCK):
        b = bra[start:start + PHI_BLOCK]
        coef = b[:, j] * b[:, l].conj() * rho_pairs
        density[start:start + PHI_BLOCK] = (coef @ pairs).real if boosted else coef.real @ pairs
    return density


@dataclass(frozen=True)
class JointOutcomeTable:
    """Smeared joint outcome density over (phi, Q) readout grids.

    Holds the evolved state, both detector kernels and both grids.  The
    (n_phi, n_Q) ``values`` are built on first access, by ``position_density``
    and then ``smear_matrix`` on each smeared axis, and kept.  ``row`` reads
    one postselection row without them.
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
        density = position_density(self.joint, self.phi_grid.points, self.Q_grid.points)
        if not self.kernel_phi.is_projective:
            density = smear_matrix(self.kernel_phi, self.phi_grid.points,
                                   self.phi_grid) @ density
        if not self.kernel_Q.is_projective:
            density = density @ smear_matrix(self.kernel_Q, self.Q_grid.points,
                                             self.Q_grid).T
        return density

    def row(self, index: int) -> np.ndarray:
        """``values[index]`` to round-off, without building ``values``.

        With postselection nodes x_k and weights w_k (the row of the phi
        smear, or the node itself with weight 1 when projective),
        B = psi(x)^T U, R = U^dag rho U and A_c the translated pointer
        components, the row before the Q smear is

            sum_c w_c Re sum_j A_cj(Q) (C conj(A_c))_j(Q),
            C = (B^T diag(w) conj(B)) o R:

        n_nodes dim^2 + components dim^2 n_Q multiply-adds.
        """
        joint = self.joint
        nodes, weights = postselection_rule(self.kernel_phi, self.phi_grid.points[index],
                                            joint.nu_eigvals.size, self.phi_grid)
        bra, rho_nu = _bra_and_state(joint, nodes[0])
        coef = (bra.T * weights[0]) @ bra.conj() * rho_nu
        amps = joint.pointer.amplitudes(self.Q_grid.points, joint.shifts)  # (c, dim, n_Q)
        if not np.iscomplexobj(amps):  # a real pointer needs only Re C
            coef = coef.real
        row = np.einsum("c,cjq,cjq->q", joint.pointer.weights, amps,
                        coef @ amps.conj()).real
        if not self.kernel_Q.is_projective:
            row = smear_matrix(self.kernel_Q, self.Q_grid.points, self.Q_grid) @ row
        return row

    def total_mass(self) -> float:
        return float(self.phi_grid.weights @ self.values @ self.Q_grid.weights)


def _default_pointer_grid(joint: JointState, points: int = 500) -> QuadratureGrid:
    span = float(np.max(np.abs(joint.pointer.centers) + 10.0 * joint.pointer.sigmas)
                 + np.max(np.abs(joint.shifts), initial=0.0))
    return QuadratureGrid.gauss_legendre(span, points)


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
    # the readout law assumes the pointer density dies off inside the grid;
    # the phi-integrated pointer density is occupation-weighted over the
    # translated components
    occupation = np.abs(joint.state_vectors) ** 2 @ joint.state_weights
    borders = joint.pointer.amplitudes(Q_grid.points[[0, -1]], joint.shifts)
    per_shift = np.sum(joint.pointer.weights[:, None, None] * np.abs(borders) ** 2,
                       axis=0)
    border_density = float(np.max(occupation @ per_shift))
    if border_density > 1e-12:
        warnings.warn(f"pointer density {border_density:.2e} at the readout-grid "
                      f"border exceeds 1e-12; widen the Q grid", stacklevel=2)
    return JointOutcomeTable(joint, kernel_phi, kernel_Q, phi_grid, Q_grid)


def phi_marginal(table: JointOutcomeTable) -> np.ndarray:
    """Postselection-axis marginal, integral dQ rho_eps(phi, Q)."""
    return table.values @ table.Q_grid.weights


def conditional_mean(table: JointOutcomeTable, phi: float) -> float:
    """E(Q | phi) at a grid node of the phi axis, from ``table.row`` alone:
    n_nodes dim^2 + components dim^2 n_Q multiply-adds, not the
    n_phi dim(dim+1)/2 n_Q + n_phi^2 n_Q of building ``table.values``."""
    idx = np.flatnonzero(np.abs(table.phi_grid.points - phi) < 1e-9)
    if idx.size == 0:
        raise ValueError(
            f"phi={phi} is not a node of the table's postselection axis; build the "
            f"grid with with_points() to place readout positions exactly")
    row = table.row(idx[0])
    den = float(table.Q_grid.weights @ row)
    if den < 1e-12:
        raise ValueError(f"postselection probability at phi={phi} is below 1e-12")
    return float(table.Q_grid.weights @ (table.Q_grid.points * row) / den)


def conditional_pointer_shift(table: JointOutcomeTable, phi: float,
                              baseline: JointOutcomeTable) -> float:
    """[E_eps(Q|phi) - E_0(Q|phi)] / eps, the pointer estimate of Re nu_w(phi).

    ``baseline`` must be the eps = 0 table on identical grids and kernels so
    that quadrature bias cancels in the difference.
    """
    if baseline.epsilon != 0.0:
        raise ValueError("baseline table must be computed at eps = 0")
    if table.epsilon == 0.0:
        raise ValueError("shift extraction needs a nonzero coupling")
    if not np.array_equal(table.phi_grid.points, baseline.phi_grid.points) or \
       not np.array_equal(table.Q_grid.points, baseline.Q_grid.points):
        raise ValueError("baseline grids differ from the table grids")
    return (conditional_mean(table, phi) - conditional_mean(baseline, phi)) / table.epsilon


# ---------------------------------------------------------------------------
# discrete pointers: eps * n x diag(g), conditioned on a postselected position

def _pointer_given_q(rho, g, rho_pointer, epsilon, q):
    """Normalized pointer states given each postselection q after
    exp(-i eps n x diag(g)), exact in eps; shape (n_q, len(g), len(g))."""
    phases = np.exp(-1j * epsilon * np.outer(np.arange(rho.dim), g))
    left = wavefunction_table(rho.dim, q).T[:, :, None] * phases  # (n_q, dim, len(g))
    states = rho_pointer * (np.swapaxes(left, 1, 2) @ (rho.matrix @ left.conj()))
    norm = np.trace(states, axis1=1, axis2=2).real
    if np.any(norm < 1e-14):
        raise ValueError(f"postselection probability below 1e-14 at "
                         f"q={q[norm < 1e-14].tolist()}")
    return states / norm[:, None, None]


def _qubit_rho(pointer: PointerState) -> np.ndarray:
    """(1 + s_x sigma_x + s_y sigma_y)/2 of an equatorial qubit pointer."""
    off = (pointer.s_x - 1j * pointer.s_y) / 2.0
    return np.array([[0.5, off], [np.conj(off), 0.5]])


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
    quad = (ladder * np.exp(-1j * theta) + ladder.conj().T * np.exp(1j * theta)) / math.sqrt(2.0)

    def mean(states):
        return np.einsum("imk,km->i", states, quad).real

    base = np.full(q.size, np.trace(rho_b_pointer.matrix @ quad).real)
    ref = weak_value(make_operator("number", rho_a_mode.dim), rho_a_mode,
                     delta_kernel(), q).real
    if epsilon == 0.0:
        # zero coupling leaves the modes uncorrelated: no shift, no estimate
        zeros, nans = np.zeros(q.size), np.full(q.size, np.nan)
        return CrossKerrResult(q, 0.0, theta, base, base.copy(), zeros, nans, nans, ref)
    g = np.arange(db)
    evolved = mean(_pointer_given_q(rho_a_mode, g, rho_b_pointer.matrix, epsilon, q))
    shift = (evolved - base) / epsilon

    # calibration: with mode a in the one-photon state the weak value is 1 at
    # every postselection and the pointer decorrelates, so the response is
    # postselection-independent; one evaluation away from the psi_1 node at
    # q = 0 fixes the shift-to-weak-value constant
    one = np.zeros((rho_a_mode.dim, rho_a_mode.dim), dtype=complex)
    one[1, 1] = 1.0
    cal_mean = mean(_pointer_given_q(DensityOperator(one), g, rho_b_pointer.matrix,
                                     epsilon, np.array([1.0])))[0]
    cal_value = float(cal_mean - base[0]) / epsilon
    if abs(cal_value) < 1e-12:
        raise ValueError("calibration response vanishes; pick a readout phase with "
                         "nonzero quadrature sensitivity for this pointer state")
    cal = np.full(q.size, cal_value)
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
    epsilon = _finite_coupling(epsilon)
    q = np.atleast_1d(np.asarray(postselect_q, dtype=float))
    ref = weak_value(make_operator("number", rho_s.dim), rho_s, delta_kernel(), q).real
    if epsilon == 0.0:
        sx, sy = np.full(q.size, qubit.s_x), np.full(q.size, qubit.s_y)
        sx_slope = sy_slope = np.zeros(q.size)
        n_est = np.full(q.size, np.nan)
    else:
        r01 = _pointer_given_q(rho_s, np.array([1.0, -1.0]), _qubit_rho(qubit),
                               epsilon, q)[:, 0, 1]
        sx, sy = 2.0 * r01.real, -2.0 * r01.imag
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
