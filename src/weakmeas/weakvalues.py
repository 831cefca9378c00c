"""Weak values under imperfect postselection, closed-form profiles and
negativity probabilities for displaced thermal states.

The weak value of an observable nu conditioned on postselecting outcome phi
through a diagonal POVM is

    nu_w(phi) = Tr(Pi_phi nu rho) / Tr(Pi_phi rho),

whose real part is what a weakly coupled pointer registers.  For displaced
thermal states (quadrature means alpha_r, alpha_i, thermal occupation n_th,
so sigma_th^2 = n_th + 1/2) postselected on position with a Gaussian kernel
of width sigma_eta, the real parts of the weak values of p^2, the oscillator
energy H = n + 1/2 and the photon number n are quadratic polynomials in the
postselected position q.  Writing V = sigma_th^2 + sigma_eta^2:

    Re (p^2)_w = [1 + 4 (alpha_i^2 + sigma_th^2) V]/(4V) - (q - alpha_r)^2/(4V^2)
    Re H_w     = a q^2 + b q + c  with
        a = (4 sigma_th^4 - 1)/(8 V^2)
        b = alpha_r (4 sigma_th^2 sigma_eta^2 + 1)/(4 V^2)
        c = sigma_th^2/2 + alpha_i^2/2 + (1 + 4 sigma_th^2 sigma_eta^2)/(8V)
            + alpha_r^2 (4 sigma_eta^4 - 1)/(8 V^2)
    Re n_w     = Re H_w - 1/2

with imaginary parts alpha_i (q - alpha_r)/V for p^2 and half that for H
and n (Gaussian conditional moments of the smeared quasi-distribution).
The closed forms double as oracles for the Fock-space trace formula and
vice versa; neither path is derived from the other in code.

Negative-readout probabilities are computed two independent ways: from the
paper's closed erfc expressions where one exists, and always as the mass of
the Gaussian postselection density over the intervals where the profile's
real part is negative, bounded by its computed roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import DensityOperator, Observable
from .povm import DetectorKernel, _postselected_forms

__all__ = [
    "UndefinedWeakValueError",
    "WeakValueProfile",
    "NegativityProbability",
    "marginal_density",
    "weak_value",
    "p2_closed_profile",
    "h_closed_profile",
    "n_closed_profile",
    "negative_intervals",
    "negativity_probability",
    "classify_strange",
]

# quadratic-root degeneracy handling at the n_th = 0 boundary
LINEAR_COEFF_TOL = 1e-14
DISCRIMINANT_TOL = 1e-12


class UndefinedWeakValueError(ValueError):
    """Postselection probability vanishes; the weak value is undefined."""


def marginal_density(q, alpha_r: float, n_th: float, sigma_eta: float):
    """Postselection outcome density for a displaced thermal state:
    Gaussian with mean alpha_r and variance sigma_th^2 + sigma_eta^2."""
    var = n_th + 0.5 + sigma_eta * sigma_eta
    q = np.asarray(q, dtype=float)
    return np.exp(-((q - alpha_r) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def weak_value(nu: Observable, rho: DensityOperator, kernel: DetectorKernel, phi):
    """Weak value by the trace formula, for any state and Hermitian observable.

    With a projective kernel this reduces to <phi|nu rho|phi>/<phi|rho|phi>.
    The postselection integral is ``postselection_rule``'s, exact.
    ``phi`` may be an array, in which case an array of weak values is returned.
    """
    if nu.dim != rho.dim:
        raise ValueError(f"observable dim {nu.dim} != state dim {rho.dim}")
    scalar = np.ndim(phi) == 0
    nu_rho = nu.matrix @ rho.matrix
    re, im, den = _postselected_forms(kernel, phi, rho.dim,
                                      [nu_rho.real, nu_rho.imag, rho.matrix.real])
    if np.any(den < 1e-14):
        bad = np.atleast_1d(phi)[den < 1e-14]
        raise UndefinedWeakValueError(
            f"postselection probability below 1e-14 at phi={bad.tolist()}")
    out = (re + 1j * im) / den
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class WeakValueProfile:
    """Closed-form weak-value profile q -> nu_w(q) for a displaced thermal state.

    ``a, b, c`` are the quadratic coefficients of the real part and ``roots``
    the real zeros of that polynomial (0, 1 or 2 of them, ascending).
    ``imag_slope`` fixes the imaginary part, linear in (q - alpha_r).
    """

    observable: str  # p2 | H | n
    alpha_r: float
    alpha_i: float
    n_th: float
    sigma_eta: float
    a: float
    b: float
    c: float
    roots: tuple
    imag_slope: float

    def value(self, q):
        """Complex weak value at postselected position q."""
        q = np.asarray(q, dtype=float)
        re = (self.a * q + self.b) * q + self.c
        im = self.imag_slope * (q - self.alpha_r)
        out = re + 1j * im
        return complex(out) if out.ndim == 0 else out

    def real_value(self, q):
        q = np.asarray(q, dtype=float)
        out = (self.a * q + self.b) * q + self.c
        return float(out) if out.ndim == 0 else out


def _real_roots(a: float, b: float, c: float) -> tuple:
    """Stable real roots of a q^2 + b q + c, degenerate cases flattened."""
    if abs(a) < LINEAR_COEFF_TOL:
        if abs(b) < LINEAR_COEFF_TOL:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    if disc < DISCRIMINANT_TOL:
        # grazing contact: treat as rootless for sign purposes
        return ()
    root = math.sqrt(disc)
    # citardauq ordering avoids cancellation
    q1 = (-b - math.copysign(root, b)) / (2.0 * a)
    q2 = c / (a * q1) if q1 != 0.0 else -b / a
    lo, hi = sorted((q1, q2))
    return (lo, hi)


def _validate_params(alpha_r, alpha_i, n_th, sigma_eta):
    params = (float(alpha_r), float(alpha_i), float(n_th), float(sigma_eta))
    if not all(map(math.isfinite, params)):
        raise ValueError(f"(alpha_r, alpha_i, n_th, sigma_eta) must be finite, got {params}")
    if n_th < 0:
        raise ValueError(f"n_th must be >= 0, got {n_th}")
    if sigma_eta < 0:
        raise ValueError(f"sigma_eta must be >= 0, got {sigma_eta}")
    return params


def p2_closed_profile(alpha_r: float, alpha_i: float = 0.0, n_th: float = 0.0,
                      sigma_eta: float = 0.0) -> WeakValueProfile:
    """Weak value of p^2 conditioned on position, with detector smearing."""
    alpha_r, alpha_i, n_th, sigma_eta = _validate_params(alpha_r, alpha_i, n_th, sigma_eta)
    st2 = n_th + 0.5
    v = st2 + sigma_eta * sigma_eta
    a = -1.0 / (4.0 * v * v)
    b = alpha_r / (2.0 * v * v)
    c = (1.0 + 4.0 * (alpha_i * alpha_i + st2) * v) / (4.0 * v) \
        - alpha_r * alpha_r / (4.0 * v * v)
    return WeakValueProfile("p2", alpha_r, alpha_i, n_th, sigma_eta,
                            a, b, c, _real_roots(a, b, c), alpha_i / v)


def h_closed_profile(alpha_r: float, alpha_i: float = 0.0, n_th: float = 0.0,
                     sigma_eta: float = 0.0) -> WeakValueProfile:
    """Weak value of the oscillator energy n + 1/2 conditioned on position."""
    alpha_r, alpha_i, n_th, sigma_eta = _validate_params(alpha_r, alpha_i, n_th, sigma_eta)
    st2 = n_th + 0.5
    se2 = sigma_eta * sigma_eta
    v = st2 + se2
    a = (4.0 * st2 * st2 - 1.0) / (8.0 * v * v)
    b = alpha_r * (4.0 * st2 * se2 + 1.0) / (4.0 * v * v)
    c = st2 / 2.0 + alpha_i * alpha_i / 2.0 + (1.0 + 4.0 * st2 * se2) / (8.0 * v) \
        + alpha_r * alpha_r * (4.0 * se2 * se2 - 1.0) / (8.0 * v * v)
    return WeakValueProfile("H", alpha_r, alpha_i, n_th, sigma_eta,
                            a, b, c, _real_roots(a, b, c), alpha_i / (2.0 * v))


def n_closed_profile(alpha_r: float, alpha_i: float = 0.0, n_th: float = 0.0,
                     sigma_eta: float = 0.0) -> WeakValueProfile:
    """Weak value of the photon number, the energy profile shifted by -1/2."""
    h = h_closed_profile(alpha_r, alpha_i, n_th, sigma_eta)
    c = h.c - 0.5
    return WeakValueProfile("n", h.alpha_r, h.alpha_i, h.n_th, h.sigma_eta,
                            h.a, h.b, c, _real_roots(h.a, h.b, c), h.imag_slope)


def negative_intervals(profile: WeakValueProfile) -> tuple:
    """Open intervals where the real part of the profile is negative.

    Endpoints may be +-inf.  Empty when the real part is nonnegative
    everywhere (not an error; the negativity probability is then zero).
    """
    a, b, c, roots = profile.a, profile.b, profile.c, profile.roots
    inf = math.inf
    if abs(a) < LINEAR_COEFF_TOL:
        if not roots:
            return ((-inf, inf),) if c < 0 else ()
        (q0,) = roots
        return ((-inf, q0),) if b > 0 else ((q0, inf),)
    if a > 0:
        return (tuple(roots),) if roots else ()
    if not roots:
        return ((-inf, inf),)
    lo, hi = roots
    return ((-inf, lo), (hi, inf))


@dataclass(frozen=True)
class NegativityProbability:
    probability: float
    method: str  # closed_form | quadrature
    intervals: tuple


def _closed_form(profile: WeakValueProfile) -> float | None:
    """erfc expression where one exists: p^2 for all parameters, H and n for
    ideal detectors and zero thermal noise.  None when unavailable."""
    ar, ai = profile.alpha_r, profile.alpha_i
    st2 = profile.n_th + 0.5
    v = st2 + profile.sigma_eta ** 2
    if profile.observable == "p2":
        return math.erfc(math.sqrt(0.5 + 2.0 * (ai * ai + st2) * v))
    if profile.n_th != 0.0 or profile.sigma_eta != 0.0:
        return None
    if ar == 0.0:
        # removable singularity: the probability vanishes exactly here even
        # though it tends to 1/2 (for n) as alpha_r -> 0
        return 0.0
    if profile.observable == "H":
        return 0.5 * math.erfc((1.0 + ar * ar + ai * ai) / (2.0 * abs(ar)))
    if profile.observable == "n":
        return 0.5 * math.erfc((ar * ar + ai * ai) / (2.0 * abs(ar)))
    return None


def _quadrature(profile: WeakValueProfile, intervals: tuple) -> float:
    """Mass of the Gaussian postselection density over the negative region:
    1/2 [erfc(z_lo) - erfc(z_hi)] per interval, z = (q - mean)/(sd sqrt 2),
    an interval below the mean mirrored above it, so that no tail is taken
    as the difference of two erfc values near 2."""
    mean = profile.alpha_r
    scale = math.sqrt(2.0 * (profile.n_th + 0.5 + profile.sigma_eta ** 2))
    total = 0.0
    for lo, hi in intervals:
        z_lo, z_hi = (lo - mean) / scale, (hi - mean) / scale
        if z_hi <= 0.0:
            z_lo, z_hi = -z_hi, -z_lo
        total += 0.5 * (math.erfc(z_lo) - math.erfc(z_hi))
    return min(total, 1.0)


def negativity_probability(profile: WeakValueProfile,
                           method: str = "auto") -> NegativityProbability:
    """Probability of postselecting a position with a negative weak value.

    ``closed_form`` uses the erfc expressions and is refused where none is
    available; ``quadrature`` always works: it takes the Gaussian CDF at the
    profile's roots, so the roots and the closed forms' algebra check each
    other.  ``auto`` prefers the closed form when it exists.
    """
    intervals = negative_intervals(profile)
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed_form"):
        value = _closed_form(profile)
        if value is not None:
            return NegativityProbability(value, "closed_form", intervals)
        if method == "closed_form":
            raise ValueError(
                f"no closed form for observable {profile.observable!r} at "
                f"n_th={profile.n_th}, sigma_eta={profile.sigma_eta}")
    return NegativityProbability(_quadrature(profile, intervals), "quadrature", intervals)


# readout thresholds per observable: (classical floor with zero-point energy,
# absolute floor of positive-energy models)
_STRANGE_THRESHOLDS = {"H": (0.5, 0.0), "n": (0.0, -0.5)}


def classify_strange(profile: WeakValueProfile, q: float) -> str:
    """Classify a readout of the energy (or photon-number) weak value.

    ``not_strange``  -- consistent with zero-point-bounded classical models;
    ``category_i``   -- below the zero-point floor but still nonnegative
                        energy: rules out classical models with energies
                        >= 1/2 only;
    ``category_ii``  -- negative energy: rules out every classical
                        stochastic model with nonnegative energies.
    """
    if profile.observable not in _STRANGE_THRESHOLDS:
        raise ValueError(
            f"strange-value categories are defined for the energy and photon-number "
            f"profiles, not {profile.observable!r}")
    upper, lower = _STRANGE_THRESHOLDS[profile.observable]
    re = profile.real_value(q)
    if re >= upper:
        return "not_strange"
    if re >= lower:
        return "category_i"
    return "category_ii"
