"""Diagonal POVM detector models: kernels, the postselection rule, effective marginals.

An imperfect detector for a continuous observable is modeled by a diagonal
POVM built from a nonnegative kernel Pi(phi, phi'), giving outcome phi when
the true value is phi'.  A physically admissible kernel is

* normalized over outcomes:  integral dphi Pi(phi, phi') = 1, and
* unbiased:                  integral dphi phi Pi(phi, phi') = phi',

so that an imperfect detector reproduces the mean of a perfect one.  The
detector is a homodyne one: a Gaussian kernel whose width is set by the
efficiency, or, at width 0, perfect (projective) detection, a distinct
``delta`` kind that is never evaluated pointwise, which keeps every code
path free of numerical singularities.

With a Gaussian kernel, ``postselection_rule`` integrates
psi_m psi_n Pi(phi, .), a polynomial of degree <= 2 dim - 2 times a Gaussian,
by the Gauss-Hermite rule of dim nodes centred on that Gaussian, which is
exact (Golub & Welsch, Math. Comp. 23, 221 (1969)) at every efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import DensityOperator, QuadratureGrid, _psi_form, hermite_rule, wavefunction_table

__all__ = [
    "DetectorKernel",
    "ValidationReport",
    "gaussian_kernel",
    "delta_kernel",
    "sigma_from_efficiency",
    "validate",
    "postselection_rule",
    "effective_marginal",
    "smear_matrix",
]


@dataclass(frozen=True)
class DetectorKernel:
    """Detector smearing kernel: the Gaussian of r.m.s. width
    ``width_sigma_eta``, or the projective (delta) kind at width 0, whose
    smearing is the identity by definition.  Calling it evaluates the
    outcome density Pi(phi, phi_prime); it broadcasts over numpy arrays."""

    width_sigma_eta: float

    @property
    def kind(self) -> str:  # gaussian | delta
        return "delta" if self.is_projective else "gaussian"

    @property
    def is_projective(self) -> bool:
        return self.width_sigma_eta == 0

    def __call__(self, phi, phi_prime):
        if self.is_projective:
            raise ValueError("projective (delta) kernels cannot be evaluated pointwise")
        sigma = self.width_sigma_eta
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        two_var = 2.0 * sigma * sigma
        phi = np.asarray(phi, dtype=float)
        phi_prime = np.asarray(phi_prime, dtype=float)
        return norm * np.exp(-((phi - phi_prime) ** 2) / two_var)


def gaussian_kernel(sigma_eta: float) -> DetectorKernel:
    """Gaussian kernel of r.m.s. width sigma_eta; sigma_eta = 0 is projective."""
    if not (math.isfinite(sigma_eta) and sigma_eta >= 0):
        raise ValueError(f"sigma_eta must be finite and >= 0, got {sigma_eta}")
    if sigma_eta > 0 and sigma_eta * sigma_eta < np.finfo(float).tiny:
        raise ValueError(f"sigma_eta = {sigma_eta} has a square below the smallest normal "
                         f"float; pass 0 for a projective detector")
    return DetectorKernel(sigma_eta)


def delta_kernel() -> DetectorKernel:
    """Projective detection; consumers treat its smearing as the identity."""
    return DetectorKernel(0.0)


def sigma_from_efficiency(eta: float) -> float:
    """Kernel width for a homodyne detector of quantum efficiency eta.

    Uses sigma_eta^2 = (1 - eta)/(2 eta); strictly decreasing in eta with
    sigma_eta(1) = 0.  Isolated here so an alternative efficiency model can
    be swapped in without touching anything else.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {eta}")
    return math.sqrt((1.0 - eta) / (2.0 * eta))


@dataclass(frozen=True)
class ValidationReport:
    """Worst-case kernel defects over the probed parameter values."""

    max_normalization_defect: float
    max_bias_defect: float


def validate(kernel: DetectorKernel, grid: QuadratureGrid) -> ValidationReport:
    """Measure normalization and bias defects of a kernel on a grid.

    Probes phi' values kept 8 kernel widths away from the grid edge so that
    the reported defects reflect the kernel, not missing support.  Defects
    are reported, never raised; a grid too narrow to probe is refused.
    """
    if kernel.is_projective:
        return ValidationReport(0.0, 0.0)
    margin = 8.0 * kernel.width_sigma_eta
    lo, hi = grid.points[0] + margin, grid.points[-1] - margin
    probes = grid.points[(grid.points >= lo) & (grid.points <= hi)]
    if probes.size == 0:
        raise ValueError("grid too narrow for the probe margin")
    # rows: outcomes phi (integration axis), columns: probed phi'
    k = kernel(grid.points[:, None], probes[None, :])
    norms = grid.weights @ k
    means = (grid.weights * grid.points) @ k
    norm_defect = float(np.max(np.abs(norms - 1.0)))
    bias_defect = float(np.max(np.abs(means / norms - probes)))
    return ValidationReport(norm_defect, bias_defect)


def postselection_rule(kernel: DetectorKernel, phi, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w, one row per phi, with sum_j w[i, j] f(x[i, j]) =
    integral dx Pi(phi_i, x) f(x) for every f = psi_m psi_n, m, n < dim.

    Projective: the node phi_i with weight 1.  Gaussian: the dim-node
    Gauss-Hermite rule mapped onto the Gaussian of psi_m psi_n Pi(phi_i, .),
    exact.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"phi must be finite, got {phi[~np.isfinite(phi)].tolist()}")
    if kernel.is_projective:
        return phi[:, None], np.ones((phi.size, 1))
    # psi_m psi_n times the kernel is a polynomial times
    # exp(-a (x - m)^2), a = 1 + 1/(2 s^2), m = phi/(1 + 2 s^2)
    x, w = hermite_rule(dim)
    s2 = kernel.width_sigma_eta ** 2
    root_a = math.sqrt(1.0 + 0.5 / s2)
    step = x / root_a
    nodes = (phi / (1.0 + 2.0 * s2))[:, None] + step
    # phi - nodes from its parts: the difference of the nearly equal phi and
    # nodes loses the offset, of order s, when s is small
    offsets = (phi * (2.0 * s2 / (1.0 + 2.0 * s2)))[:, None] - step
    return nodes, kernel(offsets, 0.0) * (w / root_a)


def _postselected_forms(kernel: DetectorKernel, phi, dim: int, matrices) -> np.ndarray:
    """sum_j w[i, j] psi(x[i, j])^T A psi(x[i, j]) per real A in ``matrices`` and
    per phi_i, by ``postselection_rule`` and one ``wavefunction_table`` for all A."""
    nodes, weights = postselection_rule(kernel, phi, dim)
    table = wavefunction_table(dim, nodes.ravel())
    return np.array([np.sum(weights * _psi_form(a, table).reshape(nodes.shape), axis=1)
                     for a in matrices])


def effective_marginal(rho: DensityOperator, kernel: DetectorKernel):
    """Outcome density of an imperfect position measurement.

    Returns q -> integral dq' Pi(q, q') <q'|rho|q'>, evaluable anywhere, by
    ``postselection_rule``, exact.
    """
    def density(q):
        (out,) = _postselected_forms(kernel, q, rho.dim, [rho.matrix.real])
        return float(out[0]) if np.ndim(q) == 0 else out

    return density


def smear_matrix(kernel: DetectorKernel, outcomes: np.ndarray,
                 grid: QuadratureGrid) -> np.ndarray:
    """Quadrature matrix K with (K f)[i] = integral dx Pi(outcome_i, x) f(x).

    For projective kernels the outcomes must coincide with the grid nodes,
    where smearing is the identity.  A Gaussian row is evaluated only within
    r = sigma_eta sqrt(106 ln 2) of its outcome, beyond which Pi(phi, x) <
    2^-53 Pi(phi, phi), and is exactly 0 elsewhere, so no exp underflows.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if not np.all(np.isfinite(outcomes)):
        raise ValueError("outcomes must be finite, got "
                         f"{outcomes[~np.isfinite(outcomes)].tolist()}")
    x, w, n = grid.points, grid.weights, outcomes.size
    if kernel.is_projective:
        if outcomes.shape != x.shape or not np.allclose(outcomes, x, rtol=0.0, atol=1e-12):
            raise ValueError("projective smearing requires outcomes identical to grid nodes")
        return np.eye(n)
    out = np.zeros((n, x.size))  # before the band's temporaries, whose heap is then reused
    reach = math.sqrt(106.0 * math.log(2.0)) * kernel.width_sigma_eta
    lo = np.searchsorted(x, outcomes - reach)
    counts = np.searchsorted(x, outcomes + reach, side="right") - lo
    # the band in row order: row k holds nodes lo[k], ..., lo[k] + counts[k] - 1
    cols = np.repeat(lo + counts - np.cumsum(counts), counts) + np.arange(counts.sum())
    band = kernel(np.repeat(outcomes, counts), x[cols]) * w[cols]
    cols += np.repeat(np.arange(0, out.size, x.size), counts)  # now the flat index
    out.reshape(-1)[cols] = band
    return out
