"""Jacobi elliptic functions at complex argument.

The conformal-map quadratures in :mod:`slqcert.rational` need sn/cn/dn on
horizontal lines ``Im(u) = K'/2`` inside the fundamental rectangle.  SciPy
only evaluates the Jacobi functions for real argument, so the complex case
is assembled here from the real values via the addition theorem
(Abramowitz & Stegun 16.21).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ellipj


def jacobi_cplx(u, m: float):
    """Jacobi sn, cn, dn at complex argument u for parameter m = k^2.

    u may be a scalar or an ndarray.  Returns the triple (sn, cn, dn) as
    complex arrays.  The evaluation splits u = x + iy and combines the real
    Jacobi functions at x (parameter m) and y (parameter 1 - m).
    """
    u = np.asarray(u, dtype=complex)
    x = u.real
    y = u.imag
    s, c, d, _ = ellipj(x, m)
    s1, c1, d1, _ = ellipj(y, 1.0 - m)
    den = c1**2 + m * (s * s1) ** 2
    if np.any(np.abs(den) < 1e-300):
        raise ZeroDivisionError("Jacobi elliptic evaluation at a pole of sn")
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * m * s * c * s1) / den
    return sn, cn, dn
