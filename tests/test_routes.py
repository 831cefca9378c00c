"""Which library code the weak-value routes share.

The routes are the project's oracle only while they stay independent in
code, so this test fixes what they may share.  Each route is traced with
``sys.setprofile``, with every ``lru_cache`` of the library cleared first so
that no cached call hides a shared function, and the functions of each pair
of routes in common must equal the table below.  A change that makes one
route read another's arithmetic changes a shared set and fails here.

Setting: H, the displaced thermal state (alpha_r, alpha_i, n_th) =
(1, 0.3, 0.2), sigma_eta = 0.3, q = 0.7, dim 40.
"""

import itertools
import os
import sys

import weakmeas as wm
from weakmeas import fockspace, povm, quasiprob, vonneumann, weakvalues

AR, AI, NTH, SIGMA, Q, DIM = 1.0, 0.3, 0.2, 0.3, 0.7, 40

# building rho and the observable
STATE = {
    "fockspace.alpha_from_quadratures", "fockspace.displaced_thermal_state",
    "fockspace._require_finite_alpha", "fockspace._thermal_weights",
    "fockspace.displacement_operator", "fockspace._position_eigensystem",
    "fockspace._check_truncation", "fockspace.DensityOperator.__post_init__",
    "fockspace.DensityOperator.dim", "fockspace.make_operator", "fockspace._banded",
    "fockspace.Observable.__post_init__",
}
# psi_n(x)
TABLE = {"fockspace.wavefunction_table", "fockspace._recurrence_coefficients"}
# the detector kernel and its postselection rule
RULE = {
    "povm.gaussian_kernel", "povm.DetectorKernel.is_projective", "povm.DetectorKernel.__call__",
    "povm.postselection_rule", "fockspace.hermite_rule",
}
SHARED = {
    ("closed_form", "trace"): set(),
    ("closed_form", "distribution"): set(),
    ("closed_form", "pointer"): set(),
    ("trace", "distribution"): STATE | TABLE | RULE,
    ("trace", "pointer"): STATE | TABLE | RULE | {"fockspace.Observable.dim"},
    ("distribution", "pointer"): STATE | TABLE | RULE,
}


def _inputs():
    rho = wm.displaced_thermal_state(wm.alpha_from_quadratures(AR, AI), NTH, DIM)
    return rho, wm.make_operator("hamiltonian", DIM), wm.gaussian_kernel(SIGMA)


def _closed_form():
    return wm.h_closed_profile(AR, AI, NTH, SIGMA).value(Q)


def _trace():
    rho, nu, kernel = _inputs()
    return wm.weak_value(nu, rho, kernel, Q)


def _distribution():
    rho, nu, kernel = _inputs()
    return wm.weak_value_from_distribution(rho, nu, wm.BasisPair.position_fock(DIM), kernel, Q)


def _pointer():
    rho, nu, kernel = _inputs()
    return wm.pointer_shift(wm.evolve_exact(rho, wm.PointerState.gaussian(), nu, 1e-3),
                            kernel, Q)


ROUTES = {"closed_form": _closed_form, "trace": _trace, "distribution": _distribution,
          "pointer": _pointer}
_PACKAGE = os.path.dirname(wm.__file__) + os.sep


def _caches():
    found = {}
    for module in (fockspace, povm, quasiprob, vonneumann, weakvalues):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__.startswith("weakmeas"):
                found[id(value)] = value
    return found.values()


def _called(route) -> set:
    """``module.qualname`` of every library function the route calls."""
    for cached in _caches():
        cached.cache_clear()
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(_PACKAGE):
            seen.add(f"{os.path.basename(code.co_filename)[:-3]}.{code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        route()
    finally:
        sys.setprofile(previous)
    return seen


def test_routes_share_only_the_tabled_code():
    called = {name: _called(route) for name, route in ROUTES.items()}
    assert called["closed_form"] and all(
        name.startswith("weakvalues.") for name in called["closed_form"]), called["closed_form"]
    for a, b in itertools.combinations(ROUTES, 2):
        shared = called[a] & called[b]
        assert shared == SHARED[a, b], (a, b, sorted(shared ^ SHARED[a, b]))
