"""Truncated-Fock-basis linear algebra for a single bosonic mode.

Conventions (hbar = 1, omega = 1, dimensionless quadratures):

* ladder action  a|n> = sqrt(n)|n-1>,  [q, p] = i,
  q = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),
  so a = (q + i p)/sqrt(2).
* position wavefunctions <q|n> are the real Hermite functions
  psi_n(q) = pi^(-1/4) (2^n n!)^(-1/2) H_n(q) exp(-q^2/2); the phase
  convention is fixed here once because every quasi-probability phase
  downstream depends on it.
* complex displacement amplitude alpha relates to the quadrature means
  through alpha = (alpha_r + i alpha_i)/sqrt(2), i.e. <q> = alpha_r and
  <p> = alpha_i.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "TruncationWarning",
    "DensityOperator",
    "Observable",
    "QuadratureGrid",
    "default_dim",
    "alpha_from_quadratures",
    "make_operator",
    "displacement_operator",
    "coherent_state",
    "thermal_state",
    "displaced_thermal_state",
    "quadrature_wavefunction",
    "wavefunction_table",
    "position_kernel",
    "position_density",
    "glauber_p_displaced_thermal",
    "default_grid",
]

DEFAULT_DIM = 40

# numerical tolerances for state validation; PSD allows the tiny negative
# eigenvalues produced by truncation + renormalization
TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PSD_TOL = -1e-10

OPERATOR_KINDS = (
    "annihilation",
    "creation",
    "number",
    "position",
    "momentum",
    "momentum_squared",
    "hamiltonian",
)


class TruncationWarning(UserWarning):
    """Fock-space truncation is likely inadequate for the requested state."""


def default_dim() -> int:
    """Default Fock truncation; WEAKMEAS_DIM overrides the built-in 40."""
    env = os.environ.get("WEAKMEAS_DIM")
    if env is None:
        return DEFAULT_DIM
    dim = int(env)
    if dim < 2:
        raise ValueError(f"WEAKMEAS_DIM must be >= 2, got {dim}")
    return dim


def alpha_from_quadratures(alpha_r: float, alpha_i: float) -> complex:
    """Complex displacement amplitude with quadrature means (alpha_r, alpha_i)."""
    return (alpha_r + 1j * alpha_i) / math.sqrt(2.0)


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one Hermitian positive-semidefinite matrix on a truncated Fock basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # own copy, frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        """Raise if trace, Hermiticity or positivity are violated."""
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, not 1 within {TRACE_TOL}")
        defect = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if defect > HERM_TOL:
            raise ValueError(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL}")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < PSD_TOL:
            raise ValueError(f"eigenvalue {evals.min():.3e} below PSD tolerance {PSD_TOL}")

    def expectation(self, operator: np.ndarray) -> complex:
        return complex(np.trace(operator @ self.matrix))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class Observable:
    """Operator on the truncated Fock basis, tagged with its spectral floor.

    ``spectrum_lower_bound`` is -inf for unbounded-below observables; it is
    what strange-value classification compares readouts against.

    ``phase_space_symbol``, when present, evaluates <q|op|p> / <q|p> as a
    c-number s(q, p).  It exists for operators that are sums of pure powers
    of q-hat and p-hat (all standard kinds here), where the mixed matrix
    element between quadrature eigenstates is exact.  Truncated matrices
    cannot deliver that element reliably: |p> has slowly decaying Fock
    content, so the symbol is the only trustworthy route.
    """

    matrix: np.ndarray
    spectrum_lower_bound: float = -math.inf
    phase_space_symbol: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # own copy, frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable matrix must be square")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


@lru_cache(maxsize=16)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit Gauss-Legendre rule on [-1, 1], read-only and cached per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=8)
def hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes x (Golub-Welsch) and weights w e^{x^2} =
    1/sum_k psi_k(x)^2, finite at any n (hermgauss nodes are NaN from n = 741)."""
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, n) / 2.0), -1))
    w = 1.0 / np.sum(wavefunction_table(n, x) ** 2, axis=0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Integration nodes and weights for quadrature-representation integrals."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise ValueError("points and weights must be matching 1-D arrays")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts < 0):
            raise ValueError("quadrature weights must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        pts.setflags(write=False)
        wts.setflags(write=False)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def half_width(self) -> float:
        return float(max(-self.points[0], self.points[-1]))

    @classmethod
    def gauss_legendre(cls, half_width: float, n: int = 400) -> "QuadratureGrid":
        """Gauss-Legendre rule on [-half_width, half_width]."""
        x, w = leggauss(n)
        return cls(x * half_width, w * half_width)

    @classmethod
    def uniform(cls, half_width: float, n: int) -> "QuadratureGrid":
        """Equispaced trapezoid rule; exact for piecewise-linear integrands
        whose kinks fall on nodes (useful for non-smooth kernels)."""
        pts = np.linspace(-half_width, half_width, n)
        h = pts[1] - pts[0]
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return cls(pts, w)

    def with_points(self, extra) -> "QuadratureGrid":
        """Insert zero-weight evaluation nodes (means and densities at exact
        locations; the quadrature itself is unchanged)."""
        extra = np.atleast_1d(np.asarray(extra, dtype=float))
        pts = np.concatenate([self.points, extra])
        wts = np.concatenate([self.weights, np.zeros(extra.size)])
        order = np.argsort(pts)
        pts, wts = pts[order], wts[order]
        keep = np.concatenate([[True], np.diff(pts) > 0])
        return QuadratureGrid(pts[keep], wts[keep])

    def integrate(self, values: np.ndarray):
        return np.sum(self.weights * values, axis=-1)


def default_grid(dim: int | None = None, alpha: complex = 0.0, n_th: float = 0.0,
                 points: int = 400, half_width: float | None = None) -> QuadratureGrid:
    """Quadrature grid wide enough for the states and bases in play.

    The span is 6 + 2*sqrt(|alpha|^2 + n_th), enlarged to cover the
    classically allowed region of every retained Fock level when ``dim``
    is given (the identity-resolution checks need that).
    """
    if half_width is None:
        half_width = 6.0 + 2.0 * math.sqrt(abs(alpha) ** 2 + max(n_th, 0.0))
        if dim is not None:
            half_width = max(half_width, math.sqrt(2.0 * dim + 1.0) + 4.0)
    return QuadratureGrid.gauss_legendre(half_width, points)


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def make_operator(kind: str, dim: int) -> Observable:
    """Standard single-mode operator in the ladder representation.

    ``momentum_squared`` and ``hamiltonian`` are assembled from ladder
    products that stay exact under truncation (n + 1/2 - (aa + a^dag a^dag)/2
    rather than the matrix square of p, whose bottom-right corner is wrong).
    ``annihilation``/``creation`` are non-Hermitian construction helpers; all
    other kinds are Hermitian observables.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    a = _ladder(dim)
    adag = a.conj().T
    eye = np.eye(dim, dtype=complex)
    number = adag @ a
    root2 = math.sqrt(2.0)
    if kind == "annihilation":
        return Observable(a, -math.inf, lambda q, p: (q + 1j * p) / root2)
    if kind == "creation":
        return Observable(adag, -math.inf, lambda q, p: (q - 1j * p) / root2)
    if kind == "number":
        return Observable(number, 0.0, lambda q, p: (q * q + p * p - 1.0) / 2.0)
    if kind == "position":
        return Observable((a + adag) / root2, -math.inf, lambda q, p: q + 0.0 * p)
    if kind == "momentum":
        return Observable((a - adag) / (1j * root2), -math.inf, lambda q, p: p + 0.0 * q)
    if kind == "momentum_squared":
        m = number + 0.5 * eye - 0.5 * (a @ a + adag @ adag)
        return Observable(m, 0.0, lambda q, p: p * p + 0.0 * q)
    # hamiltonian
    return Observable(number + 0.5 * eye, 0.5, lambda q, p: (q * q + p * p) / 2.0)


def _check_truncation(load: float, dim: int, strict: bool) -> None:
    # adequacy heuristic: mean occupation well below the truncation level
    if load > dim / 4.0:
        msg = (f"|alpha|^2 + n_th = {load:.3g} exceeds dim/4 = {dim / 4:.3g}; "
               f"truncation at dim={dim} is likely inadequate")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, TruncationWarning, stacklevel=3)


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) = exp(-i G) through the eigendecomposition
    of the Hermitian generator G = i(alpha a^dag - alpha* a)."""
    a = _ladder(dim)
    lam, v = np.linalg.eigh(1j * (alpha * a.conj().T - np.conj(alpha) * a))
    return (v * np.exp(-1j * lam)) @ v.conj().T


def coherent_state(alpha: complex, dim: int, strict: bool = False) -> DensityOperator:
    """Projector onto the truncated, renormalized coherent state |alpha>."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    _check_truncation(abs(alpha) ** 2, dim, strict)
    coeff = np.zeros(dim, dtype=complex)
    coeff[0] = 1.0
    for n in range(dim - 1):
        coeff[n + 1] = coeff[n] * alpha / math.sqrt(n + 1)
    coeff *= math.exp(-abs(alpha) ** 2 / 2.0)
    coeff /= np.linalg.norm(coeff)
    return DensityOperator(np.outer(coeff, coeff.conj()))


def thermal_state(n_th: float, dim: int) -> DensityOperator:
    """Thermal state with mean occupation n_th; geometric Fock weights
    n_th^n / (1 + n_th)^(n+1), renormalized after truncation."""
    if n_th < 0:
        raise ValueError(f"n_th must be >= 0, got {n_th}")
    if n_th == 0:
        w = np.zeros(dim)
        w[0] = 1.0
    else:
        w = np.exp(np.arange(dim) * math.log(n_th / (1.0 + n_th))) / (1.0 + n_th)
    w = w / w.sum()
    return DensityOperator(np.diag(w).astype(complex))


def displaced_thermal_state(alpha: complex, n_th: float, dim: int,
                            strict: bool = False) -> DensityOperator:
    """Thermal state conjugated by the displacement operator.

    Reduces to ``coherent_state(alpha)`` at n_th = 0.  The quadrature
    variance of the undisplaced state is sigma_th^2 = n_th + 1/2.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n_th < 0:
        raise ValueError(f"n_th must be >= 0, got {n_th}")
    _check_truncation(abs(alpha) ** 2 + n_th, dim, strict)
    disp = displacement_operator(alpha, dim)
    rho = disp @ thermal_state(n_th, dim).matrix @ disp.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityOperator(rho)


def wavefunction_table(dim: int, q) -> np.ndarray:
    """psi_n(q) for n = 0..dim-1 over an array of positions, shape (dim, len(q)).

    Uses the normalized recurrence
    psi_{n+1} = sqrt(2/(n+1)) q psi_n - sqrt(n/(n+1)) psi_{n-1}, in range
    since |psi_n| <= pi^(-1/4); where e^{-q^2/2} underflows (|q| > 37) a column
    holds psi_n 2^-e, integer e < 0, moving 2^512 into e whenever it passes that.
    """
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


def quadrature_wavefunction(n: int, q):
    """Position-representation wavefunction <q|n> of the n-th Fock state."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    scalar = np.isscalar(q)
    table = wavefunction_table(n + 1, q)
    return float(table[n, 0]) if scalar else table[n]


def position_kernel(rho: DensityOperator, q: float, q2: float | None = None) -> complex:
    """Matrix element <q|rho|q2> (the diagonal q2 = q when omitted)."""
    if q2 is None:
        q2 = q
    left = wavefunction_table(rho.dim, q)[:, 0]
    right = wavefunction_table(rho.dim, q2)[:, 0] if q2 != q else left
    return complex(left @ rho.matrix @ right)


def position_density(rho: DensityOperator, q) -> np.ndarray:
    """Diagonal <q|rho|q> over an array of positions (real, nonnegative)."""
    table = wavefunction_table(rho.dim, q)
    return np.einsum("ni,nm,mi->i", table, rho.matrix, table).real


def glauber_p_displaced_thermal(alpha: complex, n_th: float):
    """Glauber-Sudarshan P-distribution of a displaced thermal state.

    Returns the evaluable density gamma -> exp(-|gamma-alpha|^2/n_th)/(pi n_th),
    nonnegative for every n_th > 0, which is what makes the state classical by
    the P-function criterion even while its real-part quasi-distribution goes
    negative.  At n_th = 0 the distribution degenerates to a delta and is not
    representable as a function.
    """
    if n_th <= 0:
        raise ValueError("n_th must be > 0; the P-distribution of a coherent state "
                         "is a delta function, not an evaluable density")

    def density(gamma):
        gamma = np.asarray(gamma, dtype=complex)
        return np.exp(-np.abs(gamma - alpha) ** 2 / n_th) / (np.pi * n_th)

    return density
