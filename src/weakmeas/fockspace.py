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

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "TruncationWarning",
    "DensityOperator",
    "Observable",
    "QuadratureGrid",
    "alpha_from_quadratures",
    "make_operator",
    "displacement_operator",
    "coherent_state",
    "thermal_state",
    "displaced_thermal_state",
    "wavefunction_table",
    "position_density",
    "default_grid",
]

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
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
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


@dataclass(frozen=True)
class Observable:
    """Operator on the truncated Fock basis, tagged with its spectral floor.

    ``spectrum_lower_bound`` is the infimum of the untruncated operator's
    spectrum (0 for the number operator and p^2, 1/2 for the energy), -inf
    for an observable unbounded below or built without one.  Strange-value
    classification does not read it.

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
        if not np.isfinite(m).all():
            raise ValueError("observable matrix entries must be finite")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvector columns of the (Hermitian) matrix by
        one ``eigh`` on first access, read-only and kept: every use of this
        observable shares them."""
        vals, vecs = np.linalg.eigh(self.matrix)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    @cached_property
    def hermiticity_defect(self) -> float:
        """Largest |A - A^dag| entry, computed on first access and kept like
        ``eigensystem``: the matrix is read-only."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect <= HERM_TOL


@lru_cache(maxsize=16)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit Gauss-Legendre rule on [-1, 1], read-only and cached per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=8)
def _position_eigensystem(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x and the rows V^T of q = V diag(x) V^T, the truncated
    position matrix: the Jacobi matrix whose eigenvalues are ``hermite_rule``'s
    nodes.  Read-only and cached per dim: the one eigensolver call per dim of
    displacements and Gauss-Hermite rules alike."""
    x, v = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, dim) / 2.0), -1))
    vt = np.ascontiguousarray(v.T)
    x.setflags(write=False)
    vt.setflags(write=False)
    return x, vt


@lru_cache(maxsize=8)
def hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes x (Golub-Welsch: the eigenvalues of the truncated
    position matrix, ``_position_eigensystem``) and weights w e^{x^2} =
    1/sum_k psi_k(x)^2, finite at any n (hermgauss nodes are NaN from n = 741)."""
    x = _position_eigensystem(n)[0]
    w = 1.0 / np.sum(wavefunction_table(n, x) ** 2, axis=0)
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
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise ValueError("grid points and weights must be finite")
        if not (np.diff(pts) > 0).all():
            raise ValueError("grid points must be strictly increasing")
        if (wts < 0).any():
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
        """Gauss-Legendre rule of n >= 1 nodes on [-half_width, half_width]."""
        if n < 1:
            raise ValueError(f"a Gauss-Legendre grid needs n >= 1 nodes, got {n}")
        x, w = leggauss(n)
        return cls(x * half_width, w * half_width)

    def with_points(self, extra) -> "QuadratureGrid":
        """Insert zero-weight evaluation nodes (means and densities at exact
        locations; the quadrature itself is unchanged).  An extra point that is
        already a node keeps that node and its weight."""
        extra = np.setdiff1d(np.asarray(extra, dtype=float), self.points)
        pts = np.concatenate([self.points, extra])
        wts = np.concatenate([self.weights, np.zeros(extra.size)])
        order = np.argsort(pts)
        return QuadratureGrid(pts[order], wts[order])


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


def _banded(dim: int, diagonals: dict[int, np.ndarray]) -> np.ndarray:
    """Complex dim x dim matrix with the given {offset: values} diagonals."""
    m = np.zeros((dim, dim), dtype=complex)
    for k, values in diagonals.items():
        np.fill_diagonal(m[max(-k, 0):, max(k, 0):], values)
    return m


@lru_cache(maxsize=8)  # the benchmark's processes ask for 3 (kind, dim) pairs
def make_operator(kind: str, dim: int) -> Observable:
    """Standard single-mode operator in the ladder representation.

    One shared, read-only ``Observable`` per (kind, dim) for the whole process,
    so its ``eigensystem`` and ``hermiticity_defect`` are computed once per
    process.  Every kind is written from its diagonals: a has sqrt(n) one above
    the diagonal, and ``momentum_squared`` and ``hamiltonian`` keep the forms that
    stay exact under truncation, n + 1/2 on the diagonal and
    -(aa + a^dag a^dag)/2 two off it (the matrix square of p has a wrong
    bottom-right corner).  ``annihilation``/``creation`` are non-Hermitian
    construction helpers; all other kinds are Hermitian observables.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    n = np.arange(dim, dtype=float)
    root_n = np.sqrt(n[1:])
    root2 = math.sqrt(2.0)
    if kind == "annihilation":
        return Observable(_banded(dim, {1: root_n}), -math.inf,
                          lambda q, p: (q + 1j * p) / root2)
    if kind == "creation":
        return Observable(_banded(dim, {-1: root_n}), -math.inf,
                          lambda q, p: (q - 1j * p) / root2)
    if kind == "number":
        return Observable(_banded(dim, {0: n}), 0.0, lambda q, p: (q * q + p * p - 1.0) / 2.0)
    if kind == "position":
        off = root_n / root2
        return Observable(_banded(dim, {1: off, -1: off}), -math.inf, lambda q, p: q + 0.0 * p)
    if kind == "momentum":
        off = root_n / root2
        return Observable(_banded(dim, {1: -1j * off, -1: 1j * off}), -math.inf,
                          lambda q, p: p + 0.0 * q)
    if kind == "momentum_squared":
        off = -0.5 * (root_n[:-1] * root_n[1:])
        return Observable(_banded(dim, {0: n + 0.5, 2: off, -2: off}), 0.0,
                          lambda q, p: p * p + 0.0 * q)
    # hamiltonian
    return Observable(_banded(dim, {0: n + 0.5}), 0.5, lambda q, p: (q * q + p * p) / 2.0)


def _check_truncation(load: float, dim: int) -> None:
    # adequacy heuristic: mean occupation well below the truncation level
    if load > dim / 4.0:
        warnings.warn(f"|alpha|^2 + n_th = {load:.3g} exceeds dim/4 = {dim / 4:.3g}; "
                      f"truncation at dim={dim} is likely inadequate",
                      TruncationWarning, stacklevel=3)


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) on the truncated Fock basis.

    With alpha = |alpha| e^{i theta} and S = diag(e^{i n (theta - pi/2)}), the
    generator is i sqrt2 |alpha| S q S^dag exactly at every truncation, so
    D = S V diag(e^{i sqrt2 |alpha| x}) V^T S^dag from the eigensystem
    q = V diag(x) V^T of the truncated position matrix, computed once per dim.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    _require_finite_alpha(alpha)
    x, vt = _position_eigensystem(dim)
    phase = np.exp(1j * (cmath.phase(alpha) - math.pi / 2.0) * np.arange(dim))
    z = np.exp(1j * math.sqrt(2.0) * abs(alpha) * x)[:, None] * vt
    # V diag(e) V^T as one real product on the interleaved (re, im) columns of z
    w = (vt.T @ z.view(float)).view(complex)
    return phase[:, None] * w * phase.conj()


def _require_finite_alpha(alpha: complex) -> None:
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def coherent_state(alpha: complex, dim: int) -> DensityOperator:
    """Projector onto the truncated, renormalized coherent state |alpha>."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    _require_finite_alpha(alpha)
    _check_truncation(abs(alpha) ** 2, dim)
    coeff = np.zeros(dim, dtype=complex)
    coeff[0] = 1.0
    for n in range(dim - 1):
        coeff[n + 1] = coeff[n] * alpha / math.sqrt(n + 1)
    coeff *= math.exp(-abs(alpha) ** 2 / 2.0)
    coeff /= np.linalg.norm(coeff)
    return DensityOperator(np.outer(coeff, coeff.conj()))


def _thermal_weights(n_th: float, dim: int) -> np.ndarray:
    if not (math.isfinite(n_th) and n_th >= 0):
        raise ValueError(f"n_th must be finite and >= 0, got {n_th}")
    if n_th == 0:
        w = np.zeros(dim)
        w[0] = 1.0
    else:
        w = np.exp(np.arange(dim) * math.log(n_th / (1.0 + n_th))) / (1.0 + n_th)
    return w / w.sum()


def thermal_state(n_th: float, dim: int) -> DensityOperator:
    """Thermal state with mean occupation n_th; geometric Fock weights
    n_th^n / (1 + n_th)^(n+1), renormalized after truncation."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return DensityOperator(np.diag(_thermal_weights(n_th, dim)).astype(complex))


def displaced_thermal_state(alpha: complex, n_th: float, dim: int) -> DensityOperator:
    """Thermal state conjugated by the displacement operator.

    Reduces to ``coherent_state(alpha)`` at n_th = 0.  The quadrature
    variance of the undisplaced state is sigma_th^2 = n_th + 1/2.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    _require_finite_alpha(alpha)
    root_p = np.sqrt(_thermal_weights(n_th, dim))  # refuses a negative or non-finite n_th
    _check_truncation(abs(alpha) ** 2 + n_th, dim)
    m = displacement_operator(alpha, dim) * root_p  # rho = D diag(p) D^dag = M M^dag
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityOperator(rho)


@lru_cache(maxsize=8)
def _recurrence_coefficients(dim: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """sqrt(2/(n+1)) and sqrt(n/(n+1)) for n = 1..dim-2, the coefficients of
    ``wavefunction_table``'s recurrence; read-only and cached per dim."""
    n = np.arange(1.0, max(dim - 1, 1))
    a = np.sqrt(2.0 / (n + 1))
    a.setflags(write=False)
    return a, tuple(np.sqrt(n / (n + 1.0)).tolist())


def wavefunction_table(dim: int, q) -> np.ndarray:
    """psi_n(q) for n = 0..dim-1 over an array of positions, shape (dim, len(q)).

    Uses the normalized recurrence
    psi_{n+1} = sqrt(2/(n+1)) q psi_n - sqrt(n/(n+1)) psi_{n-1}, in range
    since |psi_n| <= pi^(-1/4); where e^{-q^2/2} underflows (|q| > 37) a column
    holds psi_n 2^-e, integer e < 0, moving 2^512 into e whenever it passes that.
    The coefficients are kept per dim, and each row is written in place by
    three ufunc calls in the order of the formula.  Every psi_n(q) is zero in
    doubles long before |q| = 1e9, so q is clipped there, which keeps e in
    int64 range (lost from |q| of about 3.6e9) and q * q finite.
    """
    q = np.clip(np.atleast_1d(np.asarray(q, dtype=float)), -1e9, 1e9)
    out = np.empty((dim, q.size))
    e = np.minimum(0.0, np.ceil((690.0 - 0.5 * q * q) / math.log(2.0))).astype(int)
    far = bool(e.any())
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * q * q - e * math.log(2.0))
    if dim > 1:
        out[1] = math.sqrt(2.0) * q * out[0]
    a, b = _recurrence_coefficients(dim)
    aq = np.multiply.outer(a, q)  # sqrt(2/(n+1)) q, row n-1
    first, second = np.empty(q.size), np.empty(q.size)
    rows = list(out)
    for n in range(1, dim - 1):
        np.multiply(aq[n - 1], rows[n], first)
        np.multiply(rows[n - 1], b[n - 1], second)
        np.subtract(first, second, rows[n + 1])
        if far and np.abs(rows[n + 1]).max() > 2.0 ** 512:
            big = np.abs(rows[n + 1]) > 2.0 ** 512
            out[:n + 2, big], e[big] = out[:n + 2, big] * 2.0 ** -512, e[big] + 512
    return np.ldexp(out, e) if far else out


def _psi_form(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """psi(x)^T a psi(x) per column of a real table, for real a (README numerical notes)."""
    return np.einsum("ni,ni->i", np.ascontiguousarray(a) @ table, table)


def position_density(rho: DensityOperator, q) -> np.ndarray:
    """Diagonal <q|rho|q> = psi(q)^T Re(rho) psi(q) over an array of positions."""
    return _psi_form(rho.matrix.real, wavefunction_table(rho.dim, q))
