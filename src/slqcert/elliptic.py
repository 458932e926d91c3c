"""Complete elliptic integral K(m) and Jacobi elliptic functions sn, cn, dn.

The conformal-map quadratures in :mod:`slqcert.rational` need K(m) and
sn/cn/dn on horizontal lines ``Im(u) = K'/2`` inside the fundamental
rectangle.  Both rest on the arithmetic-geometric mean (AGM) of 1 and
sqrt(1 - m):

* ``ellipk`` is pi / (2 AGM(1, sqrt(1 - m))) (DLMF 19.8.5);
* ``ellipj`` is the descending Landen (AGM) scale of the cephes routine
  ``ellpj`` (DLMF 22.20(ii)), with its series for m < 1e-9 and near m = 1,
  for a scalar m and an array of real u.  ``scipy.special.ellipj`` runs
  the same routine.  The two agree bit for bit when they call the same C
  library, except near m = 1, where numpy's hyperbolic functions may
  differ from the C library's in the last bit.

The complex case is assembled from the real values via the addition
theorem (Abramowitz & Stegun 16.21).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

_MACHEP = 2.0**-53  # cephes MACHEP, the stop of the AGM scale
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# the C library's asin, the one ellpj calls: numpy's arcsin differs from it in
# the last bit for about 1 argument in 12, and the quotient cn / cos(phi - b)
# of dn multiplies that up to tenfold
_asin = np.vectorize(math.asin, otypes=[float])


def _check_parameter(m: float) -> float:
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ContractViolationError(f"elliptic parameter m must lie in [0, 1], got {m}")
    return m


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind K(m), 0 <= m <= 1.

    The AGM converges quadratically: once a and b agree to sqrt(eps), one
    more step agrees to full precision.  K(1) is infinite.
    """
    m = _check_parameter(m)
    if m == 1.0:
        return math.inf
    a, b = 1.0, math.sqrt(1.0 - m)
    while a - b > _SQRT_EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def ellipj(u, m: float):
    """Jacobi sn, cn, dn at real u (scalar or array) for parameter m = k^2.

    Returns three float arrays of u's shape.
    """
    m = _check_parameter(m)
    u = np.asarray(u, dtype=float)
    if m < 1e-9:
        t = np.sin(u)
        b = np.cos(u)
        ai = 0.25 * m * (u - t * b)
        return t - ai * b, b + ai * t, 1.0 - 0.5 * m * t * t
    if m >= 0.9999999999:
        ai = 0.25 * (1.0 - m)
        b = np.cosh(u)
        t = np.tanh(u)
        phi = 1.0 / b
        twon = b * np.sinh(u)
        sn = t + ai * (twon - u) / (b * b)
        ai = ai * (t * phi)
        return sn, phi - ai * (twon - u), phi + ai * (twon + u)
    # the AGM scale depends on m alone: a_i and c_i, i = 0 .. n
    a, c = [1.0], [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    while abs(c[-1] / a[-1]) > _MACHEP:
        ai = a[-1]
        c.append(0.5 * (ai - b))
        a.append(0.5 * (ai + b))
        b = math.sqrt(ai * b)
    # the backward recurrence from phi_n = 2^n a_n u down to phi_0
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for i in range(len(a) - 1, 0, -1):
        b = phi
        phi = 0.5 * (_asin(c[i] * np.sin(phi) / a[i]) + phi)
    sn = np.sin(phi)
    cn = np.cos(phi)
    dnfac = np.cos(phi - b)
    # the quotient loses accuracy where cos(phi_1 - phi_0) is small; see the
    # discussion after DLMF 22.20.5.  Neither form can warn: the cosine of a
    # double is never exactly 0, and 1 - m sn^2 >= 1 - m > 0.
    dn = np.where(np.abs(dnfac) < 0.1, np.sqrt(1.0 - m * sn * sn), cn / dnfac)
    return sn, cn, dn


def jacobi_cplx(u, m: float):
    """Jacobi sn, cn, dn at complex argument u for parameter m = k^2.

    u may be a scalar or an ndarray.  Returns the triple (sn, cn, dn) as
    complex arrays.  The evaluation splits u = x + iy and combines the real
    Jacobi functions at x (parameter m) and y (parameter 1 - m).
    """
    u = np.asarray(u, dtype=complex)
    x = u.real
    y = u.imag
    s, c, d = ellipj(x, m)
    s1, c1, d1 = ellipj(y, 1.0 - m)
    den = c1**2 + m * (s * s1) ** 2
    if np.any(np.abs(den) < 1e-300):
        raise ZeroDivisionError("Jacobi elliptic evaluation at a pole of sn")
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * m * s * c * s1) / den
    return sn, cn, dn
