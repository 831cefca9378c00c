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
  <q|p> = exp(i p q)/sqrt(2 pi).  The overlap is evaluated on one quadrant
  of a grid pair symmetric about 0 and mirrored by conjugation, and
  <p|rho|phi> is taken from the real table psi_n(p) in real products.
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
    "effective_distribution",
    "marginal_over_xi",
    "marginal_over_phi",
    "negativity_scan",
    "weak_value_from_distribution",
    "thermal_s",
    "effective_thermal_s",
    "displaced_thermal_s",
]

@dataclass(frozen=True)
class BasisPair:
    """Position grid paired with a second basis, with cached transforms.

    ``phi_table`` holds psi_n(phi_i); ``xi_matrix`` holds <n|xi_j>;
    ``overlap`` holds <phi_i|xi_j>.  ``xi_weights`` is the integration
    measure on the xi axis (counting measure for discrete bases).  For the
    momentum basis ``xi_table`` holds the real psi_n(p_j), so that
    ``xi_matrix`` = i^n ``xi_table``; it is None for the other bases.
    """

    dim: int
    phi_grid: QuadratureGrid
    xi_kind: str  # fock | momentum | custom
    xi_points: np.ndarray
    xi_weights: np.ndarray
    phi_table: np.ndarray
    xi_matrix: np.ndarray
    overlap: np.ndarray
    xi_table: np.ndarray | None = None

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
        """Position paired with momentum; ``p_grid`` defaults to a grid of as
        many nodes as ``phi_grid``.  The overlap is taken from cos and sin of
        phi p (``_fourier_overlap``), and passing the same grid object for
        both axes builds the wavefunction table once."""
        if phi_grid is None:
            phi_grid = default_grid(dim=dim)
        if p_grid is None:
            p_grid = default_grid(dim=dim, points=phi_grid.size)
        table = wavefunction_table(dim, phi_grid.points)
        p_table = table if p_grid is phi_grid else wavefunction_table(dim, p_grid.points)
        phases = (1j) ** np.arange(dim)
        xi_matrix = phases[:, None] * p_table
        return cls(dim, phi_grid, "momentum", p_grid.points, p_grid.weights,
                   table, xi_matrix, _fourier_overlap(phi_grid.points, p_grid.points),
                   p_table)

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


def _mirrored_half(x: np.ndarray) -> int:
    """Leading entries of ``x`` to evaluate: ceil(n/2) when x[::-1] == -x
    exactly (every Gauss-Legendre grid), else all n."""
    return (x.size + 1) // 2 if np.array_equal(x[::-1], -x) else x.size


def _fourier_overlap(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """<q_i|p_j> = exp(i p_j q_i)/sqrt(2 pi), from cos and sin written into the
    real and imaginary parts of one array; bit-identical to ``np.exp(1j * qp)``,
    without its complex temporaries.

    On an axis symmetric about 0 only its leading half is evaluated: the
    node -x gives the product -(q p) exactly, cos is even and sin odd, so the
    mirrored half is the conjugate.  Two symmetric axes cost one quadrant.
    """
    n, m = q.size, p.size
    hq, hp = _mirrored_half(q), _mirrored_half(p)
    out = np.empty((n, m), dtype=complex)
    block = out[:hq, :hp]
    qp = np.outer(q[:hq], p[:hp])
    np.cos(qp, out=block.real)
    np.sin(qp, out=block.imag)
    block /= math.sqrt(2.0 * math.pi)
    if hp < m:  # column m-1-j is the conjugate of column j
        np.conjugate(out[:hq, m // 2 - 1::-1], out=out[:hq, hp:])
    if hq < n:  # row n-1-i is the conjugate of row i
        np.conjugate(out[n // 2 - 1::-1], out=out[hq:])
    return out


@dataclass(frozen=True)
class QuasiDistribution:
    """Grid of quasi-probability values over (phi, xi)."""

    values: np.ndarray  # (n_phi, n_xi), complex for S kinds, real for T kinds
    basis: BasisPair
    kind: str  # S | T | S_eta | T_eta

    @property
    def is_real_kind(self) -> bool:
        return self.kind in ("T", "T_eta")


_I_POWERS = np.array([1.0, -1j, -1.0, 1j])  # i^-n at n mod 4


def _cross_kernel(rho: DensityOperator, basis: BasisPair, psi: np.ndarray) -> np.ndarray:
    """<xi_j|rho|phi_i> as an (n_phi, n_xi) array; ``psi`` holds psi_n(phi_i).

    In the momentum basis <p_j|n> = i^-n psi_n(p_j) with psi_n real, so
    R = rho^T diag(i^-n) P comes from one real product on the interleaved
    columns of diag(i^-n) rho, and <p_j|rho|phi_i> = sum_m psi_m(phi_i) R[m, j]
    from one more on those of R, C-ordered like the overlap.  Fewer than half
    as many phi as p nodes (postselection rows) take P^T (diag(i^-n) rho psi):
    4 dim^2 multiply-adds per phi node, where R takes 2 dim^2 per p node.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"state dim {rho.dim} does not match basis dim {basis.dim}")
    if basis.xi_kind != "momentum":
        return (basis.xi_matrix.conj().T @ rho.matrix @ psi).T
    phased = _I_POWERS[np.arange(basis.dim) % 4, None] * rho.matrix
    if 2 * psi.shape[1] < basis.xi_points.size:
        return (basis.xi_table.T @ (phased @ psi).view(float)).view(complex).T
    r_t = (basis.xi_table.T @ phased.view(float)).view(complex)
    return (psi.T @ np.ascontiguousarray(r_t.T).view(float)).view(complex)


def s_distribution(rho: DensityOperator, basis: BasisPair) -> QuasiDistribution:
    """Complex quasi-distribution <phi|xi><xi|rho|phi> on the basis grids.

    The overlap is multiplied into the fresh cross kernel in place, so the
    grid costs one n_phi x n_xi array, not two.
    """
    cross = _cross_kernel(rho, basis, basis.phi_table)
    return QuasiDistribution(np.multiply(basis.overlap, cross, out=cross), basis, "S")


def t_distribution(dist: QuasiDistribution) -> QuasiDistribution:
    """Real part of an S-kind distribution; marginals are preserved."""
    if dist.kind not in ("S", "S_eta"):
        raise ValueError(f"expected an S-kind distribution, got kind {dist.kind!r}")
    return QuasiDistribution(dist.values.real, dist.basis,
                             "T" if dist.kind == "S" else "T_eta")


_SMEAR_ROW_BLOCK = 32  # rows per block of the smear product; measured against 16, 24, 48 and 64


def effective_distribution(dist: QuasiDistribution, kernel: DetectorKernel) -> QuasiDistribution:
    """Convolve the phi axis with a detector kernel.

    Weights of the real smear matrix K of ``smear_matrix`` below 2^-53 of their
    row's largest are dropped, which moves a value by at most n_phi 2^-53
    max_i K[k, i] max|V|; each block of rows of K then multiplies the
    interleaved real view V of the values (n_phi, 2 n_xi for S kinds) over the
    columns the block keeps, so no sub-tiny weight reaches BLAS.
    """
    if dist.kind not in ("S", "T"):
        raise ValueError(f"distribution of kind {dist.kind!r} is already smeared")
    if kernel.is_projective:
        return QuasiDistribution(dist.values, dist.basis, dist.kind + "_eta")
    grid = dist.basis.phi_grid
    values = np.ascontiguousarray(dist.values)
    real = values.view(float)
    smear = smear_matrix(kernel, grid.points, grid)
    out = np.empty_like(real)
    for start in range(0, grid.size, _SMEAR_ROW_BLOCK):
        rows = slice(start, start + _SMEAR_ROW_BLOCK)
        size = np.abs(smear[rows])
        drop = size < 2.0 ** -53 * size.max(axis=1, keepdims=True)
        smear[rows][drop] = 0.0
        kept = np.flatnonzero(~drop.all(axis=0))
        cols = slice(kept[0], kept[-1] + 1)
        np.matmul(smear[rows, cols], real[cols], out=out[rows])
    return QuasiDistribution(out.view(values.dtype), dist.basis, dist.kind + "_eta")


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
    integrates to one, so it would carry no information).  Both masses are
    weighted contractions, w_phi |T| w_xi and -w_phi min(T, 0) w_xi.
    """
    if not dist.is_real_kind:
        raise ValueError("negativity scan is defined for T-kind distributions")
    vals = dist.values.real
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    w_phi, w_xi = dist.basis.phi_grid.weights, dist.basis.xi_weights
    total = w_phi @ np.abs(vals) @ w_xi
    negative = -(w_phi @ np.minimum(vals, 0.0) @ w_xi)
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
    The phi integral takes the nodes and weights of ``postselection_rule``:
    the single row at phi when projective, the exact Gauss-Hermite row for a
    Gaussian kernel.
    """
    (rows,), (row_weights,) = postselection_rule(kernel, phi, basis.dim)
    psi = wavefunction_table(basis.dim, rows)
    if basis.xi_kind == "momentum":
        if nu.phase_space_symbol is None:
            raise ValueError("momentum-basis evaluation needs a phase-space symbol")
        overlap = _fourier_overlap(rows, basis.xi_points)
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
    """Closed-form thermal-state quasi-distribution over (q, p): the
    ``effective_thermal_s`` of a projective detector.

    S_th(q, p) = exp[-(2 s^2 (p^2+q^2) - 2 i p q)/(1 + 4 s^4)]
                 / (pi sqrt(1 + 4 s^4)),   s^2 = n_th + 1/2.
    """
    return effective_thermal_s(q, p, n_th, 0.0)


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
    return effective_thermal_s(np.asarray(q, dtype=float) - alpha_r,
                               np.asarray(p, dtype=float) - alpha_i, n_th, sigma_eta)
