import numpy as np
import pytest
from scipy.special import ellipk

from slqcert.elliptic import jacobi_cplx


@pytest.mark.parametrize("m", [0.04, 0.3, 0.64, 0.95])
def test_jacobi_identities_complex(m):
    K = ellipk(m)
    Kp = ellipk(1 - m)
    x = np.linspace(-0.9 * K, 0.9 * K, 13)
    for y_frac in (0.25, 0.5, 0.75):
        u = x + 1j * y_frac * Kp
        sn, cn, dn = jacobi_cplx(u, m)
        np.testing.assert_allclose(sn**2 + cn**2, 1.0, atol=1e-12)
        np.testing.assert_allclose(m * sn**2 + dn**2, 1.0, atol=1e-12)


def test_jacobi_real_axis_reduces_to_scipy():
    from scipy.special import ellipj

    m = 0.42
    x = np.linspace(-2, 2, 9)
    sn, cn, dn = jacobi_cplx(x + 0j, m)
    s, c, d, _ = ellipj(x, m)
    np.testing.assert_allclose(sn.real, s, atol=1e-14)
    np.testing.assert_allclose(cn.real, c, atol=1e-14)
    np.testing.assert_allclose(dn.real, d, atol=1e-14)
    assert np.max(np.abs(sn.imag)) < 1e-14
