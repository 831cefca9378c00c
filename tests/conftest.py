import numpy as np
import pytest

from weakmeas import DensityOperator, QuadratureGrid


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Generic full-rank mixed state from a complex Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def trapezoid_grid(half_width: float, n: int) -> QuadratureGrid:
    """Equispaced trapezoid rule of n >= 2 nodes on [-half_width, half_width]:
    exact for piecewise-linear integrands whose kinks fall on nodes."""
    pts = np.linspace(-half_width, half_width, n)
    h = pts[1] - pts[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return QuadratureGrid(pts, w)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
