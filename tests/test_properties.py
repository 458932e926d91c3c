"""Property tests: monitor prefix sums, JSON round-trips and the partial
reorthogonalization bound."""

import json
import math
import typing

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqcert.cli import CHOICES, ExperimentConfig
from slqcert.error_estimator import ErrorMonitor, cumulative_error
from slqcert.lanczos import lanczos_run
from slqcert.operators import DenseOperator
from slqcert.rational import KINDS, RationalApproximant

EPS = np.finfo(float).eps
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(alphas=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=40),
       betas=st.lists(st.floats(0.1, 5.0), min_size=39, max_size=39))
def test_cumulative_error_is_the_direct_sum(alphas, betas):
    # complex poles keep every pivot at least |Im z| away from zero
    r = RationalApproximant("log", (0.1, 1.0), np.array([1j, 2.0 - 0.5j]),
                            np.array([1.0, 0.3 + 0.2j]), 0.0, 2)
    monitor = ErrorMonitor(r, tol=0.0)
    for alpha, beta in zip(alphas, [0.0, *betas]):
        monitor.advance(alpha, beta)
    d = monitor.history
    J = len(d)
    assert J == len(alphas) - 1
    scale = 2 * J * EPS * math.fsum(abs(x) for x in d)
    for m in range(1, J + 1):
        for m_prime in range(m + 1, J + 2):
            direct = math.fsum(d[m - 1:m_prime - 1])
            assert abs(cumulative_error(monitor, m, m_prime) - direct) <= scale


@st.composite
def approximants(draw):
    K = draw(st.integers(1, 8))
    complexes = st.lists(st.builds(complex, FINITE, FINITE), min_size=K, max_size=K)
    a = draw(st.floats(1e-8, 1e3))
    return RationalApproximant(
        kind=draw(st.sampled_from(KINDS)),
        interval=(a, a + draw(st.floats(1e-6, 1e6))),
        poles=np.array(draw(complexes), dtype=complex),
        coeffs=np.array(draw(complexes), dtype=complex),
        constant=draw(FINITE),
        K=K,
        eps=draw(st.floats(0.0, 1.0)),
        method=draw(st.sampled_from(["", "cf", "zolotarev"])),
    )


@given(approximants())
def test_rational_approximant_json_round_trip(r):
    clone = RationalApproximant.loads(r.dumps())
    assert (clone.kind, clone.interval, clone.constant, clone.K, clone.eps,
            clone.method) == (r.kind, r.interval, r.constant, r.K, r.eps, r.method)
    np.testing.assert_array_equal(clone.poles, r.poles)
    np.testing.assert_array_equal(clone.coeffs, r.coeffs)


_SCALARS = {
    int: st.integers(),
    float: FINITE,
    str: st.sampled_from(["trace", "calibrate-delta", "report.json"]),
    type(None): st.none(),
}


def _field_values(name, hint):
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    return st.one_of(*(_SCALARS[t] for t in typing.get_args(hint) or (hint,)))


CONFIGS = st.builds(ExperimentConfig, **{
    name: _field_values(name, hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
})


@given(CONFIGS)
def test_config_json_round_trip(config):
    text = json.dumps(config.to_dict())
    assert ExperimentConfig.from_dict(json.loads(text)) == config


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(30, 120),
       log_cond=st.floats(0.0, 8.0))
# a spectrum 1e-12 wide relative to ||A||: every beta sits near the noise level
@example(seed=0, dim=30, log_cond=1e-12)
def test_partial_basis_gram_bound(seed, dim, log_cond):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * np.logspace(0.0, log_cond, dim)) @ Q.T
    state = lanczos_run(DenseOperator((A + A.T) / 2), rng.standard_normal(dim),
                        dim - 10, "partial")
    V = state.basis()
    assert np.max(np.abs(V @ V.T - np.eye(len(V)))) <= 10 * math.sqrt(EPS)
