import numpy as np
import pytest
from scipy.special import ellipk
from scipy.special import ellipj as scipy_ellipj

from slqcert.elliptic import ellipj, jacobi_cplx
from slqcert.elliptic import ellipk as slq_ellipk
from slqcert.errors import ContractViolationError


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


# every branch of ellpj: the series below 1e-9, the AGM scale (2e-5 and
# 1 - 2e-5 are the sqrt kind's a/b and 1 - a/b on the 300 x 400 Laplacian)
# and the series at or above 1 - 1e-10
PARAMETERS = [0.0, 5e-10, 2e-5, 0.36, 0.77, 1 - 2e-5, 1 - 1e-11]


@pytest.mark.parametrize("m", PARAMETERS)
def test_ellipj_matches_scipy(m):
    u = np.concatenate([np.linspace(-8, 8, 801),
                        np.random.default_rng(3).uniform(-8, 8, 400)])
    ours = ellipj(u, m)
    reference = scipy_ellipj(u, m)[:3]
    # sn, cn and dn lie in [-1, 1], so an absolute bound is a relative one
    # at their scale; the AGM branch agrees bit for bit, and near m = 1
    # numpy's cosh, sinh and tanh may differ from the C library's in the
    # last bit
    for name, got, want in zip(("sn", "cn", "dn"), ours, reference):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)
        assert got.shape == u.shape


def test_ellipj_of_a_scalar():
    sn, cn, dn = ellipj(0.3, 0.5)
    np.testing.assert_allclose([sn, cn, dn], scipy_ellipj(0.3, 0.5)[:3], rtol=1e-15)


@pytest.mark.parametrize("m", PARAMETERS + [1 - 1e-15])
def test_ellipk_matches_scipy(m):
    assert slq_ellipk(m) == pytest.approx(float(ellipk(m)), rel=1e-15)


def test_ellipk_is_infinite_at_one():
    assert slq_ellipk(1.0) == np.inf


@pytest.mark.parametrize("m", [-1e-3, 1.0 + 1e-12, np.nan])
def test_parameter_outside_the_unit_interval_is_rejected(m):
    with pytest.raises(ContractViolationError):
        slq_ellipk(m)
    with pytest.raises(ContractViolationError):
        ellipj(np.zeros(3), m)
