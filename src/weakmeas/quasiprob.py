"""Generalized Kirkwood quasi-probability distributions over a basis pair.

For a postselection basis |phi> (position here) and any second complete set
|xi>, the complex distribution

    S(phi, xi) = <phi|xi><xi|rho|phi>

carries both marginals of rho exactly; its real part T(phi, xi) is the
Terletsky-Margenau-Hill distribution, which also has correct marginals but
can go negative.  An observable gets the c-number representation
S_nu(phi, xi) = <phi|nu|xi>/<phi|xi>, and detector-smeared ("effective")
distributions arise by convolving the phi axis with a POVM kernel.

Second-basis choices:

* ``fock``     -- number states; <q|n> are the real Hermite functions.
* ``momentum`` -- quadrature eigenstates conjugate to position, realized
  through the Fourier phase convention <n|p> = i^n psi_n(p),
  <q|p> = exp(i p q)/sqrt(2 pi).
* ``custom``   -- any orthonormal set given as Fock-space columns.

Closed forms for the displaced-thermal family (``thermal_s`` and friends)
are kept alongside the Fock-numeric route so each can serve as an
independent check of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DensityOperator,
    Observable,
    QuadratureGrid,
    default_grid,
    wavefunction_table,
)
from .povm import DetectorKernel, postselection_rule, smear_matrix

__all__ = [
    "BasisPair",
    "QuasiDistribution",
    "NegativityReport",
    "s_distribution",
    "t_distribution",
    "s_representation",
    "effective_distribution",
    "marginal_over_xi",
    "marginal_over_phi",
    "negativity_scan",
    "weak_value_from_distribution",
    "thermal_s",
    "effective_thermal_s",
    "displaced_thermal_s",
]

OVERLAP_THRESHOLD = 1e-12  # relative to the largest overlap magnitude


@dataclass(frozen=True)
class BasisPair:
    """Position grid paired with a second basis, with cached transforms.

    ``phi_table`` holds psi_n(phi_i); ``xi_matrix`` holds <n|xi_j>;
    ``overlap`` holds <phi_i|xi_j>.  ``xi_weights`` is the integration
    measure on the xi axis (counting measure for discrete bases).
    """

    dim: int
    phi_grid: QuadratureGrid
    xi_kind: str  # fock | momentum | custom
    xi_points: np.ndarray
    xi_weights: np.ndarray
    phi_table: np.ndarray
    xi_matrix: np.ndarray
    overlap: np.ndarray

    @classmethod
    def position_fock(cls, dim: int, phi_grid: QuadratureGrid | None = None) -> "BasisPair":
        if phi_grid is None:
            phi_grid = default_grid(dim=dim)
        table = wavefunction_table(dim, phi_grid.points)
        xi_matrix = np.eye(dim, dtype=complex)
        # <phi|n> is real; the overlap is just the wavefunction table
        return cls(dim, phi_grid, "fock", np.arange(dim, dtype=float),
                   np.ones(dim), table, xi_matrix, table.T.astype(complex))

    @classmethod
    def position_momentum(cls, dim: int, phi_grid: QuadratureGrid | None = None,
                          p_grid: QuadratureGrid | None = None) -> "BasisPair":
        if phi_grid is None:
            phi_grid = default_grid(dim=dim)
        if p_grid is None:
            p_grid = default_grid(dim=dim, points=phi_grid.size)
        table = wavefunction_table(dim, phi_grid.points)
        phases = (1j) ** np.arange(dim)
        xi_matrix = phases[:, None] * wavefunction_table(dim, p_grid.points)
        overlap = np.exp(1j * np.outer(phi_grid.points, p_grid.points)) / math.sqrt(2.0 * math.pi)
        return cls(dim, phi_grid, "momentum", p_grid.points, p_grid.weights,
                   table, xi_matrix, overlap)

    @classmethod
    def position_custom(cls, columns: np.ndarray,
                        phi_grid: QuadratureGrid | None = None) -> "BasisPair":
        """Second basis given by orthonormal Fock-space column vectors."""
        columns = np.asarray(columns, dtype=complex)
        dim, k = columns.shape
        gram_defect = np.max(np.abs(columns.conj().T @ columns - np.eye(k)))
        if gram_defect > 1e-10:
            raise ValueError(f"columns are not orthonormal (defect {gram_defect:.3e})")
        if phi_grid is None:
            phi_grid = default_grid(dim=dim)
        table = wavefunction_table(dim, phi_grid.points)
        overlap = table.T.astype(complex) @ columns
        return cls(dim, phi_grid, "custom", np.arange(k, dtype=float),
                   np.ones(k), table, columns, overlap)

    def completeness_defect(self) -> tuple[float, float]:
        """Identity-resolution defect of each side on the dim-level span."""
        eye = np.eye(self.dim)
        gram_phi = (self.phi_table * self.phi_grid.weights) @ self.phi_table.T
        phi_defect = float(np.max(np.abs(gram_phi - eye)))
        gram_xi = (self.xi_matrix * self.xi_weights) @ self.xi_matrix.conj().T
        xi_defect = float(np.max(np.abs(gram_xi - eye)))
        return phi_defect, xi_defect


@dataclass(frozen=True)
class QuasiDistribution:
    """Grid of quasi-probability values over (phi, xi)."""

    values: np.ndarray  # (n_phi, n_xi), complex for S kinds, real for T kinds
    basis: BasisPair
    kind: str  # S | T | S_eta | T_eta

    @property
    def is_real_kind(self) -> bool:
        return self.kind in ("T", "T_eta")


def _cross_kernel(rho: DensityOperator, basis: BasisPair, psi: np.ndarray) -> np.ndarray:
    """<xi_j|rho|phi_i> as an (n_phi, n_xi) array; ``psi`` holds psi_n(phi_i)."""
    if rho.dim != basis.dim:
        raise ValueError(f"state dim {rho.dim} does not match basis dim {basis.dim}")
    return (basis.xi_matrix.conj().T @ rho.matrix @ psi).T


def s_distribution(rho: DensityOperator, basis: BasisPair) -> QuasiDistribution:
    """Complex quasi-distribution <phi|xi><xi|rho|phi> on the basis grids."""
    return QuasiDistribution(basis.overlap * _cross_kernel(rho, basis, basis.phi_table),
                             basis, "S")


def t_distribution(dist: QuasiDistribution) -> QuasiDistribution:
    """Real part of an S-kind distribution; marginals are preserved."""
    if dist.kind not in ("S", "S_eta"):
        raise ValueError(f"expected an S-kind distribution, got kind {dist.kind!r}")
    return QuasiDistribution(dist.values.real, dist.basis,
                             "T" if dist.kind == "S" else "T_eta")


def s_representation(nu: Observable, basis: BasisPair) -> np.ndarray:
    """c-number representation <phi|nu|xi>/<phi|xi> of an observable.

    For the momentum basis this evaluates the operator's phase-space symbol,
    which is exact; truncated matrix elements between two continuum states
    are not trustworthy and are refused.  For discrete second bases, grid
    points where the overlap is negligibly small (below 1e-12 of the peak)
    are returned as NaN rather than fabricated.
    """
    if basis.xi_kind == "momentum":
        if nu.phase_space_symbol is None:
            raise ValueError(
                "momentum-basis representation needs the observable's phase-space "
                "symbol; truncated Fock matrices cannot resolve <q|nu|p>")
        q = basis.phi_grid.points[:, None]
        p = basis.xi_points[None, :]
        return np.broadcast_to(nu.phase_space_symbol(q, p),
                               (q.size, p.size)).astype(complex)
    numerator = basis.phi_table.T @ nu.matrix @ basis.xi_matrix
    mags = np.abs(basis.overlap)
    bad = mags < OVERLAP_THRESHOLD * mags.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = numerator / basis.overlap
    rep[bad] = np.nan
    return rep


def effective_distribution(dist: QuasiDistribution, kernel: DetectorKernel) -> QuasiDistribution:
    """Convolve the phi axis with a detector kernel."""
    if dist.kind not in ("S", "T"):
        raise ValueError(f"distribution of kind {dist.kind!r} is already smeared")
    if kernel.is_projective:
        return QuasiDistribution(dist.values, dist.basis, dist.kind + "_eta")
    smear = smear_matrix(kernel, dist.basis.phi_grid.points, dist.basis.phi_grid)
    return QuasiDistribution(smear @ dist.values, dist.basis, dist.kind + "_eta")


def marginal_over_xi(dist: QuasiDistribution) -> np.ndarray:
    """Integral over the second basis; equals <phi|rho|phi> for S and T kinds."""
    return dist.values @ dist.basis.xi_weights


def marginal_over_phi(dist: QuasiDistribution) -> np.ndarray:
    """Integral over phi; equals <xi|rho|xi> for S and T kinds."""
    return dist.basis.phi_grid.weights @ dist.values


@dataclass(frozen=True)
class NegativityReport:
    min_value: float
    min_phi: float
    min_xi: float
    negative_mass_fraction: float


def negativity_scan(dist: QuasiDistribution) -> NegativityReport:
    """Global minimum and negative-mass fraction of a real-kind distribution.

    The fraction is normalized by the total absolute mass (the signed mass
    integrates to one, so it would carry no information).
    """
    if not dist.is_real_kind:
        raise ValueError("negativity scan is defined for T-kind distributions")
    vals = dist.values.real
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    mass = np.abs(vals) * np.outer(dist.basis.phi_grid.weights, dist.basis.xi_weights)
    total = mass.sum()
    negative = mass[vals < 0].sum()
    return NegativityReport(float(vals[i, j]), float(dist.basis.phi_grid.points[i]),
                            float(dist.basis.xi_points[j]),
                            float(negative / total) if total > 0 else 0.0)


def weak_value_from_distribution(rho: DensityOperator, nu: Observable,
                                 basis: BasisPair, kernel: DetectorKernel,
                                 phi: float) -> complex:
    """Weak value as a conditional expectation over the quasi-distribution.

    Evaluates integral of S_nu * S against the detector kernel, normalized
    by the smeared distribution mass.  The product S_nu * S equals
    <phi|nu|xi><xi|rho|phi> with no overlap division, so points where the
    representation alone would be undefined contribute their finite limit.
    The phi integral takes the nodes and weights of ``postselection_rule``
    with no grid: the single row at phi when projective, the exact
    Gauss-Hermite rows for a Gaussian kernel, and for a custom kernel the rows
    of ``default_grid(dim)``, the phi grid a ``BasisPair`` builds by default.
    """
    (rows,), (row_weights,) = postselection_rule(kernel, phi, basis.dim)
    psi = wavefunction_table(basis.dim, rows)
    if basis.xi_kind == "momentum":
        if nu.phase_space_symbol is None:
            raise ValueError("momentum-basis evaluation needs a phase-space symbol")
        overlap = np.exp(1j * np.outer(rows, basis.xi_points)) / math.sqrt(2.0 * math.pi)
        nu_overlap = nu.phase_space_symbol(rows[:, None], basis.xi_points[None, :]) * overlap
    else:
        overlap = psi.T @ basis.xi_matrix
        nu_overlap = psi.T @ nu.matrix @ basis.xi_matrix
    cross = _cross_kernel(rho, basis, psi)
    num = np.sum(basis.xi_weights * (row_weights @ (nu_overlap * cross)))
    den = np.sum(basis.xi_weights * (row_weights @ (overlap * cross)))
    if abs(den) < 1e-14:
        raise ValueError(f"postselection mass at phi={phi} is numerically zero")
    return complex(num / den)


# ---------------------------------------------------------------------------
# closed forms for the displaced-thermal family in the (q, p) pair

def thermal_s(q, p, n_th: float):
    """Closed-form thermal-state quasi-distribution over (q, p).

    S_th(q, p) = exp[-(2 s^2 (p^2+q^2) - 2 i p q)/(1 + 4 s^4)]
                 / (pi sqrt(1 + 4 s^4)),   s^2 = n_th + 1/2.
    """
    s2 = n_th + 0.5
    den = 1.0 + 4.0 * s2 * s2
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return np.exp(-(2.0 * s2 * (p * p + q * q) - 2.0j * p * q) / den) / (np.pi * math.sqrt(den))


def effective_thermal_s(q, p, n_th: float, sigma_eta: float):
    """Thermal quasi-distribution after Gaussian smearing of the q axis.

    S_eta(q, p) = exp[-(2 s^2 (p^2+q^2) + 2 p^2 e^2 - 2 i p q)/D]/(pi sqrt(D)),
    D = 1 + 4 s^4 + 4 s^2 e^2,  s^2 = n_th + 1/2,  e = sigma_eta.
    """
    s2 = n_th + 0.5
    e2 = sigma_eta * sigma_eta
    den = 1.0 + 4.0 * s2 * s2 + 4.0 * s2 * e2
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    expo = -(2.0 * s2 * (p * p + q * q) + 2.0 * p * p * e2 - 2.0j * p * q) / den
    return np.exp(expo) / (np.pi * math.sqrt(den))


def displaced_thermal_s(q, p, alpha_r: float, alpha_i: float, n_th: float,
                        sigma_eta: float = 0.0):
    """Displaced-thermal quasi-distribution: the thermal form shifted to the
    quadrature means (alpha_r, alpha_i)."""
    q = np.asarray(q, dtype=float) - alpha_r
    p = np.asarray(p, dtype=float) - alpha_i
    if sigma_eta == 0.0:
        return thermal_s(q, p, n_th)
    return effective_thermal_s(q, p, n_th, sigma_eta)
