"""Rational approximants r_K(x) = const + Re sum_k c_k / (x - z_k).

Four families are supported on a positive spectrum interval [a, b]:

* ``exp_neg``   -- exp(-x), best-uniform (Caratheodory-Fejer) poles of a
  Chebyshev transplant of the exponential, read from a table stored with
  the package (``tests/cf_table.py`` generates it); a parabolic-contour
  quadrature serves as fallback for orders the CF construction cannot
  reach in double precision.
* ``sqrt``      -- sqrt(x), trapezoid rule on an imaginary-axis substitution;
  all poles land on the negative real axis.
* ``log``       -- log(x), trapezoid rule on a conformal map of the right
  half-plane slit along [sqrt(a), sqrt(b)]; produces the canonical pole sum
  plus an additive constant (the constant cancels in differences).
* ``tanh_sqrt`` -- tanh(sqrt(x)), trapezoid rule on a conformal map of the
  doubly slit plane.

Poles come in conjugate pairs; only the upper-half-plane member of each
pair is stored, with its coefficient doubled, so evaluation takes a real
part of a K-term sum.

``build`` is the one constructor of an approximant: it checks K against
``K_SCHEDULE`` and the interval against the kind's lower end, rejects a
pole on [a, b] and measures the uniform error ``eps``.  Each kind supplies
only its poles, weights and constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from .elliptic import ellipj, ellipk, jacobi_cplx
from .errors import (
    ContractViolationError,
    PoleEvaluationError,
    UnreachableAccuracyError,
    UnsupportedParameterError,
)

K_SCHEDULE = range(1, 41)

# Largest half-pair order the CF construction supports before the governing
# singular value sinks below double-precision roundoff.
CF_MAX_K = 7

# transplant scales of the stored CF candidates, in the table's order
_CF_SCL_GRID = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0)

UNIFORM_ERROR_SAMPLES = 10_000


def kind_function(kind):
    """Scalar function f associated with an approximant kind (vectorized)."""
    return _kind(kind)[0]


@dataclass(frozen=True)
class RationalApproximant:
    """Pole/coefficient form of r_K, valid on the interval [a, b]."""

    kind: str
    interval: tuple
    poles: np.ndarray
    coeffs: np.ndarray
    constant: float
    K: int
    eps: float = field(default=np.nan)
    method: str = ""


def evaluate(r: RationalApproximant, x):
    """r(x) = constant + Re sum_k c_k / (x - z_k) for real x (scalar or array)."""
    x_arr = np.asarray(x, dtype=float)
    diff = x_arr[..., None] - r.poles
    if np.any(diff == 0):
        bad = r.poles[np.any(diff == 0, axis=tuple(range(x_arr.ndim)))][0]
        raise PoleEvaluationError(f"evaluation point coincides with pole {bad}")
    val = r.constant + np.sum(r.coeffs / diff, axis=-1).real
    return val if np.ndim(x) else float(val)


def _chebyshev_sample(a, b, n):
    theta = (np.arange(n) + 0.5) * np.pi / n
    x = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
    return np.concatenate([[a], x[::-1], [b]])


def uniform_error(r: RationalApproximant, f, samples=UNIFORM_ERROR_SAMPLES):
    """max |f(x) - r(x)| over a Chebyshev-point sample of [a, b] plus endpoints."""
    a, b = r.interval
    x = _chebyshev_sample(a, b, samples)
    return float(np.max(np.abs(f(x) - evaluate(r, x))))


def pole_interval_distance(poles, a, b):
    """Smallest distance from any pole to the real segment [a, b]."""
    poles = np.asarray(poles, dtype=complex)
    re, im = poles.real, poles.imag
    inside = (re >= a) & (re <= b)
    d_inside = np.abs(im)
    d_outside = np.minimum(np.abs(poles - a), np.abs(poles - b))
    return float(np.min(np.where(inside, d_inside, d_outside)))


# ----------------------------------------------------------------------
# exp(-x): Caratheodory-Fejer on a Chebyshev transplant of the negative
# real axis (Trefethen, Weideman & Schmelzer, BIT 2006).  Pole/residue sets
# depend only on the order n = 2K and the transplant scale, never on [a, b],
# so the candidate sets for K <= CF_MAX_K, one per scale in _CF_SCL_GRID,
# are stored in CF_TABLE_PATH (row 0 poles, row 1 coefficients, ordered by
# K, then by scale).  ``PYTHONPATH=src python tests/cf_table.py`` rebuilds
# it from a 75 x 75 Hankel matrix; a test compares it with that construction.
# Only the choice among the scales, by measured error on the requested
# interval, depends on [a, b].
# ----------------------------------------------------------------------

CF_TABLE_PATH = Path(__file__).with_name("cf_exp_neg.npy")


@cache
def _cf_table():
    table = np.load(CF_TABLE_PATH)
    table.flags.writeable = False
    return table


def _cf_stored(K):
    """The stored (poles, coeffs) candidates of order 2K, one per scale."""
    poles, coeffs = _cf_table()
    start = len(_CF_SCL_GRID) * K * (K - 1) // 2
    return [(poles[lo : lo + K], coeffs[lo : lo + K])
            for lo in range(start, start + len(_CF_SCL_GRID) * K, K)]


def _parabolic_exp_neg(K):
    n = 2 * K
    theta = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
    z = n * (0.1309 - 0.1194 * theta**2 + 0.2500j * theta)
    dz = n * (-2 * 0.1194 * theta + 0.2500j)
    h = 2 * np.pi / n
    # e^y = sum w_j (z_j - y)^{-1} with w_j = (h/2 pi i) e^{z_j} z'_j; the
    # sign flips from (z - y) to (y - z) and from y to -x cancel
    coeffs = h / (2j * np.pi) * np.exp(z) * dz
    poles = -z
    sel = poles.imag > 0
    return poles[sel], 2 * coeffs[sel]


def _exp_neg(K, a, b):
    """exp(-x) with K conjugate pairs kept.

    Orders up to CF_MAX_K take the stored best-uniform (Caratheodory-Fejer)
    candidate of the transplant scale with the smallest error on 512
    Chebyshev points of [a, b]; beyond that a parabolic-contour quadrature
    is substituted (recorded in ``method``).
    """
    if K > CF_MAX_K:
        return (*_parabolic_exp_neg(K), 0.0, "parabolic")
    probe = _chebyshev_sample(a, b, 512)
    f_probe = kind_function("exp_neg")(probe)
    best = None
    for poles, coeffs in _cf_stored(K):
        trial = RationalApproximant("exp_neg", (a, b), poles, coeffs, 0.0, K)
        err = np.max(np.abs(f_probe - evaluate(trial, probe)))
        if best is None or err < best[0]:
            best = (err, poles, coeffs)
    return best[1], best[2], 0.0, "cf"


# ----------------------------------------------------------------------
# sqrt(x): substitute t = sqrt(a) sc(y, 1-m) in
# sqrt(x) = (2x/pi) * integral_0^inf (t^2 + x)^{-1} dt, midpoint rule on
# y in (0, K').  All poles -t_j^2 are real negative.
# ----------------------------------------------------------------------

def _sqrt(K, a, b):
    """sqrt(x) with K real negative poles."""
    m = a / b
    Kp = ellipk(1.0 - m)
    y = (np.arange(K) + 0.5) * Kp / K
    s1, c1, d1 = ellipj(y, 1.0 - m)
    t = np.sqrt(a) * s1 / c1
    dt = np.sqrt(a) * d1 / c1**2
    pref = 2.0 * Kp / (np.pi * K)
    poles = -(t**2)
    coeffs = pref * dt * poles
    constant = pref * np.sum(dt)
    return poles, coeffs, constant, "imag-axis"


def _slit_map_nodes(a, b, K, quarter_power):
    """Midline nodes of the rectangle-to-slit-domain conformal map.

    With ``quarter_power`` the map lives in the s-plane (s^2 = z) and the
    modulus derives from (b/a)^(1/4); otherwise it acts in the z-plane with
    modulus from (b/a)^(1/2).
    """
    ratio = (b / a) ** (0.25 if quarter_power else 0.5)
    k = (ratio - 1) / (ratio + 1)
    m = k * k
    Kv = ellipk(m)
    Kp = ellipk(1.0 - m)
    u = -Kv + (np.arange(K) + 0.5) * 2.0 * Kv / K + 0.5j * Kp
    sn, cn, dn = jacobi_cplx(u, m)
    mid = (a * b) ** (0.25 if quarter_power else 0.5)
    w = mid * (1 / k + sn) / (1 / k - sn)
    dw = mid * (2 / k) * cn * dn / (1 / k - sn) ** 2
    h = 2.0 * Kv / K
    return w, dw, h


def _log(K, a, b):
    """log(x): the pole sum plus an additive constant.

    Built in the s-plane (z = s^2): the contour encircles [sqrt(a), sqrt(b)]
    away from the imaginary axis, where log(s^2) is singular.  Rewriting
    x (z - x)^{-1} = -1 + z (z - x)^{-1} turns the quadrature into the
    canonical pole sum plus a constant; the constant drops out of any
    difference of two evaluations.
    """
    s, ds, h = _slit_map_nodes(a, b, K, quarter_power=True)
    z = s**2
    pref = -2.0 * h / np.pi
    constant = -pref * np.sum((np.log(z) / s) * ds).imag
    coeffs = 1j * pref * np.log(z) * s * ds
    return z, coeffs, constant, "half-plane-slit"


def _tanh_sqrt(K, a, b):
    """tanh(sqrt(x)).

    Contour encircles [a, b] in the doubly slit plane; the poles of
    tanh(sqrt(z)) sit on the negative real axis, outside the contour.
    """
    z, dz, h = _slit_map_nodes(a, b, K, quarter_power=False)
    fz = np.tanh(np.sqrt(z))
    coeffs = -1j * (h / np.pi) * fz * dz
    return z, coeffs, 0.0, "double-slit"


# kind -> (f, (K, a, b) -> (poles, coeffs, constant, method), whether the
# interval's lower end a must be positive rather than nonnegative)
_KINDS = {
    "exp_neg": (lambda x: np.exp(-x), _exp_neg, False),
    "sqrt": (np.sqrt, _sqrt, True),
    "log": (np.log, _log, True),
    "tanh_sqrt": (lambda x: np.tanh(np.sqrt(x)), _tanh_sqrt, True),
}
KINDS = tuple(_KINDS)


def _kind(kind):
    try:
        return _KINDS[kind]
    except KeyError:
        raise UnsupportedParameterError(f"unknown function kind {kind!r}") from None


def build(kind, K, interval):
    """The approximant of ``kind`` with K poles on ``interval`` = [a, b], its
    uniform error ``eps`` measured by ``uniform_error``.

    K must lie in ``K_SCHEDULE`` (else UnsupportedParameterError), and
    0 < a < b, or 0 <= a < b for exp_neg (else ContractViolationError).
    """
    f, nodes, positive_lower = _kind(kind)
    if K not in K_SCHEDULE:
        first, last = K_SCHEDULE[0], K_SCHEDULE[-1]
        raise UnsupportedParameterError(f"{kind} supports K in [{first}, {last}], got {K}")
    a, b = float(interval[0]), float(interval[1])
    if not (0 < a < b if positive_lower else 0 <= a < b):
        bound = "0 < a < b" if positive_lower else "0 <= a < b"
        raise ContractViolationError(f"interval must satisfy {bound}, got [{a}, {b}]")
    poles, coeffs, constant, method = nodes(K, a, b)
    poles = np.asarray(poles, dtype=complex)
    if pole_interval_distance(poles, a, b) <= 0:
        raise ContractViolationError(f"{kind} construction produced a pole inside [{a}, {b}]")
    r = RationalApproximant(kind, (a, b), poles, np.asarray(coeffs, dtype=complex),
                            float(constant), int(K), method=method)
    return replace(r, eps=uniform_error(r, f))


def choose_K(kind, interval, target):
    """Smallest K in the ascending schedule with uniform error <= target."""
    if not target > 0:
        raise ContractViolationError(f"target accuracy must be positive, got {target}")
    best_k, best_eps = None, np.inf
    for K in K_SCHEDULE:
        r = build(kind, K, interval)
        if r.eps <= target:
            return r
        if r.eps < best_eps:
            best_k, best_eps = K, r.eps
    raise UnreachableAccuracyError(
        f"no {kind} approximant on {interval} reaches {target:.3e} "
        f"(best eps={best_eps:.3e} at K={best_k})",
        best_k=best_k,
        best_eps=best_eps,
    )
