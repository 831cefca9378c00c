"""Diagonal POVM detector models: kernels, the postselection rule, effective marginals.

An imperfect detector for a continuous observable is modeled by a diagonal
POVM built from a nonnegative kernel Pi(phi, phi'), giving outcome phi when
the true value is phi'.  A physically admissible kernel is

* normalized over outcomes:  integral dphi Pi(phi, phi') = 1, and
* unbiased:                  integral dphi phi Pi(phi, phi') = phi',

so that an imperfect detector reproduces the mean of a perfect one.  Perfect
(projective) detection is a distinct ``delta`` kind rather than a zero-width
Gaussian, which keeps every code path free of numerical singularities.

With a Gaussian kernel and no explicit grid, ``postselection_rule`` integrates
psi_m psi_n Pi(phi, .), a polynomial of degree <= 2 dim - 2 times a Gaussian,
by the Gauss-Hermite rule of dim nodes centred on that Gaussian, which is
exact (Golub & Welsch, Math. Comp. 23, 221 (1969)) at every efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fockspace import (DensityOperator, QuadratureGrid, default_grid, hermite_rule,
                        position_density)

__all__ = [
    "DetectorKernel",
    "ValidationReport",
    "gaussian_kernel",
    "delta_kernel",
    "custom_kernel",
    "sigma_from_efficiency",
    "validate",
    "postselection_rule",
    "effective_marginal",
    "smear_matrix",
]


@dataclass(frozen=True)
class DetectorKernel:
    """Detector smearing kernel.

    ``func(phi, phi_prime)`` evaluates the outcome density; it broadcasts
    over numpy arrays.  ``func`` is None for the projective kind, whose
    smearing is the identity by definition.
    """

    kind: str  # gaussian | delta | custom
    width_sigma_eta: float
    func: Callable | None

    @property
    def is_projective(self) -> bool:
        return self.kind == "delta"

    def __call__(self, phi, phi_prime):
        if self.func is None:
            raise ValueError("projective (delta) kernels cannot be evaluated pointwise")
        return self.func(phi, phi_prime)


def gaussian_kernel(sigma_eta: float) -> DetectorKernel:
    """Gaussian kernel of r.m.s. width sigma_eta; sigma_eta = 0 is projective."""
    if not (math.isfinite(sigma_eta) and sigma_eta >= 0):
        raise ValueError(f"sigma_eta must be finite and >= 0, got {sigma_eta}")
    if sigma_eta == 0:
        return delta_kernel()
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_eta)
    two_var = 2.0 * sigma_eta * sigma_eta

    def func(phi, phi_prime):
        phi = np.asarray(phi, dtype=float)
        phi_prime = np.asarray(phi_prime, dtype=float)
        return norm * np.exp(-((phi - phi_prime) ** 2) / two_var)

    return DetectorKernel("gaussian", sigma_eta, func)


def delta_kernel() -> DetectorKernel:
    """Projective detection; consumers treat its smearing as the identity."""
    return DetectorKernel("delta", 0.0, None)


def custom_kernel(func: Callable, width_sigma_eta: float = math.nan) -> DetectorKernel:
    """Wrap a user kernel func(phi, phi_prime); validity is checked, not assumed."""
    return DetectorKernel("custom", width_sigma_eta, func)


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

    def passed(self, tol: float = 1e-8) -> bool:
        return self.max_normalization_defect <= tol and self.max_bias_defect <= tol


def validate(kernel: DetectorKernel, grid: QuadratureGrid,
             probe_margin: float | None = None) -> ValidationReport:
    """Measure normalization and bias defects of a kernel on a grid.

    Probes phi' values kept ``probe_margin`` away from the grid edge
    (default 8 kernel widths, or a quarter span for custom kernels) so
    that the reported defects reflect the kernel, not missing support.
    Defects are reported, never raised.
    """
    if kernel.is_projective:
        return ValidationReport(0.0, 0.0)
    if probe_margin is None:
        if math.isfinite(kernel.width_sigma_eta) and kernel.width_sigma_eta > 0:
            probe_margin = 8.0 * kernel.width_sigma_eta
        else:
            probe_margin = 0.25 * grid.half_width
    lo, hi = grid.points[0] + probe_margin, grid.points[-1] - probe_margin
    probes = grid.points[(grid.points >= lo) & (grid.points <= hi)]
    if probes.size == 0:
        raise ValueError("grid too narrow for the requested probe margin")
    # rows: outcomes phi (integration axis), columns: probed phi'
    k = kernel(grid.points[:, None], probes[None, :])
    norms = grid.weights @ k
    means = (grid.weights * grid.points) @ k
    norm_defect = float(np.max(np.abs(norms - 1.0)))
    bias_defect = float(np.max(np.abs(means / norms - probes)))
    return ValidationReport(norm_defect, bias_defect)


def postselection_rule(kernel: DetectorKernel, phi, dim: int,
                       grid: QuadratureGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w, one row per phi, with sum_j w[i, j] f(x[i, j]) =
    integral dx Pi(phi_i, x) f(x) for every f = psi_m psi_n, m, n < dim.

    Projective: the node phi_i with weight 1.  Gaussian with no ``grid``: the
    dim-node Gauss-Hermite rule mapped onto the Gaussian of psi_m psi_n
    Pi(phi_i, .), exact.  Otherwise ``grid`` (default ``default_grid(dim)``),
    whose nodes come back as one row shared by every phi.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"phi must be finite, got {phi[~np.isfinite(phi)].tolist()}")
    if kernel.is_projective:
        return phi[:, None], np.ones((phi.size, 1))
    if grid is None and kernel.kind == "gaussian":
        # psi_m psi_n times the kernel is a polynomial times
        # exp(-a (x - m)^2), a = 1 + 1/(2 s^2), m = phi/(1 + 2 s^2)
        x, w = hermite_rule(dim)
        s2 = kernel.width_sigma_eta ** 2
        root_a = math.sqrt(1.0 + 0.5 / s2)
        nodes, weights = (phi / (1.0 + 2.0 * s2))[:, None] + x / root_a, w / root_a
    else:
        grid = grid or default_grid(dim=dim)
        nodes, weights = grid.points[None, :], grid.weights
    return nodes, kernel(phi[:, None], nodes) * weights


def effective_marginal(rho: DensityOperator, kernel: DetectorKernel,
                       grid: QuadratureGrid):
    """Outcome density of an imperfect position measurement.

    Returns q -> integral dq' Pi(q, q') <q'|rho|q'>, evaluable anywhere, by
    ``postselection_rule`` on ``grid``: the exact diagonal density for the
    projective kind.
    """
    def density(q):
        nodes, weights = postselection_rule(kernel, q, rho.dim, grid)
        out = np.sum(weights * position_density(rho, nodes.ravel()).reshape(nodes.shape), axis=1)
        return out if out.size > 1 else float(out[0])

    return density


def smear_matrix(kernel: DetectorKernel, outcomes: np.ndarray,
                 grid: QuadratureGrid) -> np.ndarray:
    """Quadrature matrix K with (K f)[i] = integral dx Pi(outcome_i, x) f(x).

    For projective kernels the outcomes must coincide with the grid nodes,
    where smearing is the identity.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if kernel.is_projective:
        if outcomes.shape != grid.points.shape or not np.allclose(
                outcomes, grid.points, rtol=0.0, atol=1e-12):
            raise ValueError("projective smearing requires outcomes identical to grid nodes")
        return np.eye(outcomes.size)
    return kernel(outcomes[:, None], grid.points[None, :]) * grid.weights[None, :]
