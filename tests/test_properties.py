"""Property tests: monitor prefix sums, the lookback rule, the block monitor
against the scalar reference, the config's JSON round-trip, the partial
reorthogonalization bound, Ritz containment and the identities of the
Matern preconditioner."""

import json
import math
import typing

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqcert.cli import CHOICES, MINIMUM, POSITIVE, ExperimentConfig
from slqcert.error_estimator import ErrorMonitor, cumulative_error, lookback_check
from slqcert.errors import PivotBreakdownError
from slqcert.lanczos import lanczos_run, tridiag_eigen
from slqcert.operators import (SUPPORTED_NU, DenseOperator, PreconditionedMatern,
                               build_matern_operator, pivoted_cholesky)
from slqcert.oracles import dense_logdet
from slqcert.rational import K_SCHEDULE, RationalApproximant, build

from helpers import ReferenceMonitor, reference_lookback, with_history

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
    d = monitor.history[0].tolist()
    J = len(d)
    assert J == len(alphas) - 1
    scale = 2 * J * EPS * math.fsum(abs(x) for x in d)
    for m in range(1, J + 1):
        for m_prime in range(m + 1, J + 2):
            direct = math.fsum(d[m - 1:m_prime - 1])
            assert abs(cumulative_error(monitor, m, m_prime) - direct) <= scale


# increments over many orders of magnitude and of both signs, zeros included,
# so that the ratio test fires at some steps and not at others
INCREMENTS = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                               st.sampled_from([-1.0, 1.0]),
                                               st.floats(-12.0, 2.0)))


def _monitor_after(history, tol, t):
    """A monitor that has recorded ``history`` as its increments."""
    r = RationalApproximant("log", (0.1, 1.0), np.array([1j]), np.array([1.0]), 0.0, 1)
    return with_history(ErrorMonitor(r, tol=tol, t=t), history)


def _first_convergence(d, tol, t):
    """The first increment count at which the lookback rule converges, or None."""
    return next((J for J in range(2, len(d) + 1)
                 if lookback_check(_monitor_after(d[:J], tol, t))[0][0]), None)


@given(d=st.lists(INCREMENTS, min_size=2, max_size=30),
       tols=st.lists(st.floats(-12.0, 3.0), min_size=2, max_size=2).map(sorted),
       t=st.floats(0.01, 0.99))
def test_lookback_rule(d, tols, t):
    tol, looser = 10.0 ** tols[0], 10.0 ** tols[1]
    for J in range(2, len(d) + 1):
        (converged,), (retired,), (estimate,) = lookback_check(_monitor_after(d[:J], tol, t))
        # mbar is the largest earlier step whose increment dominates d_J by t
        mbar = max((m for m in range(1, J) if abs(d[J - 1]) <= t * abs(d[m - 1])),
                   default=0)
        assert retired == mbar
        if mbar == 0:
            assert not converged and math.isnan(estimate)
            continue
        # the estimate is the window d_mbar + ... + d_{J-1}, to the roundoff
        # of the prefix sums it is read from
        scale = 2 * J * EPS * math.fsum(abs(x) for x in d[:J])
        assert abs(estimate - math.fsum(d[mbar - 1:J - 1])) <= scale
        assert converged == (abs(estimate) < tol)
    # a looser tolerance converges no later
    first, first_looser = _first_convergence(d, tol, t), _first_convergence(d, looser, t)
    assert first is None or first_looser <= first


# the real poles of a sqrt approximant, which a pivot can hit exactly, and
# two complex ones
_SQRT = build("sqrt", 6, (0.1, 10.0))
MIXED = RationalApproximant("sqrt", (0.1, 10.0),
                            np.concatenate([_SQRT.poles, [1j, 2.0 - 0.5j]]),
                            np.concatenate([_SQRT.coeffs, [1.0, 0.3 + 0.2j]]), 0.0, 8)


@st.composite
def block_feeds(draw):
    """(alphas, betas, last step fed, tolerances) of b in 1..4 columns; one
    column may take alpha_m = z and beta_m = 0 at some step m, which makes
    its pivot u_m = alpha_m - z - beta_m^2 / u_{m-1} exactly 0."""
    b, steps = draw(st.integers(1, 4)), draw(st.integers(1, 25))
    # drawn from a seed, so that the values carry full mantissas: beta^2 by
    # C pow and by x * x differ in the last bit for about 1 beta in 1000
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = rng.uniform(0.1, 10.0, (b, steps))
    betas = rng.uniform(0.0, 5.0, (b, steps))
    betas[:, 0] = 0.0
    if draw(st.booleans()):
        j, m = draw(st.integers(0, b - 1)), draw(st.integers(0, steps - 1))
        alphas[j, m] = draw(st.sampled_from(_SQRT.poles.real.tolist()))
        betas[j, m] = 0.0
    last = draw(st.lists(st.integers(1, steps), min_size=b, max_size=b))
    tols = [10.0 ** e for e in draw(st.lists(st.floats(-12.0, 0.0), min_size=b,
                                             max_size=b))]
    return alphas, betas, last, tols


@settings(max_examples=150)
@given(feed=block_feeds(), t=st.floats(0.01, 0.99))
def test_block_monitor_matches_the_scalar_reference(feed, t):
    # every column takes every step, zeros past its last one, as a column
    # that has left its run does; up to its last step, or the step before
    # its pivot fails, each column is its own scalar monitor, and a failed
    # column records the reference's error and takes exact zeros from then on
    alphas, betas, last, tols = feed
    b, steps = alphas.shape
    past = np.arange(1, steps + 1) > np.array(last)[:, None]
    alphas[past], betas[past] = 0.0, 0.0
    block = ErrorMonitor(MIXED, tols, t=t)
    refs = [ReferenceMonitor(MIXED, tol, t=t) for tol in tols]
    ref_failed, failed_at = {}, {}
    for m in range(1, steps + 1):
        block.advance(alphas[:, m - 1], betas[:, m - 1])
        for j in block._failures:
            failed_at.setdefault(j, m)
        checked = list(zip(*lookback_check(block)))
        for j, ref in enumerate(refs):
            if m > last[j] or j in ref_failed:
                continue
            try:
                ref.advance(float(alphas[j, m - 1]), float(betas[j, m - 1]))
            except PivotBreakdownError as exc:
                ref_failed[j] = str(exc)
                continue
            np.testing.assert_array_equal(block.eta[j], ref.eta)
            converged, retired, estimate = checked[j]
            expected = reference_lookback(ref)
            assert (converged, retired) == (expected[0], expected[1] or 0)
            assert (math.isnan(estimate) if expected[2] is None
                    else estimate == expected[2])
    assert {j: str(block._failures[j]) for j in failed_at if failed_at[j] <= last[j]} \
        == ref_failed
    for j, ref in enumerate(refs):
        assert block.m == steps and block.history[j][:len(ref.history)].tolist() == ref.history
        # a window from step 1 is a prefix sum minus 0.0, which keeps it
        assert [cumulative_error(block, 1, i + 2, j)
                for i in range(len(ref.history))] == ref.prefix_sums
        if j in failed_at:
            assert not block.history[j][max(failed_at[j] - 2, 0):].any()


_SCALARS = {
    int: st.integers(),
    float: FINITE,
    str: st.sampled_from(["trace", "calibrate-delta", "report.json"]),
    type(None): st.none(),
}


def _field_values(name, hint):
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    if name in MINIMUM:
        return st.integers(min_value=MINIMUM[name])
    if name == "K":
        return st.none() | st.sampled_from(K_SCHEDULE)
    if name in ("k_min", "k_max"):
        return st.sampled_from(K_SCHEDULE)
    scalars = dict(_SCALARS)
    if name in POSITIVE:      # alpha, beta and delta are positive when set
        scalars[float] = FINITE.filter(lambda x: x > 0)
    return st.one_of(*(scalars[t] for t in typing.get_args(hint) or (hint,)))


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
    state = lanczos_run(DenseOperator((A + A.T) / 2), rng.standard_normal((1, dim)),
                        dim - 10, "partial")
    V = state.basis()
    assert np.max(np.abs(V @ V.T - np.eye(len(V)))) <= 10 * math.sqrt(EPS)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(30, 120),
       log_cond=st.floats(0.0, 8.0))
@example(seed=0, dim=30, log_cond=1e-12)
def test_ritz_values_lie_in_the_spectrum(seed, dim, log_cond):
    # the extreme Ritz values of a default-policy run leave [lambda_min,
    # lambda_max] by at most n eps ||A||; the largest breach over 400 drawn
    # operators was 0.21 n eps ||A||
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * np.logspace(0.0, log_cond, dim)) @ Q.T
    A = (A + A.T) / 2
    lam = np.linalg.eigvalsh(A)
    state = lanczos_run(DenseOperator(A), rng.standard_normal((1, dim)), dim - 10)
    thetas = tridiag_eigen(state.tridiagonal()).thetas
    theta_min, theta_max = thetas[0], thetas[-1]
    slack = dim * EPS * lam[-1]
    assert lam[0] - slack <= theta_min and theta_max <= lam[-1] + slack


@st.composite
def site_layouts(draw):
    """(n1, n2, count): a small grid and how many of its sites to sample."""
    n1, n2 = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return n1, n2, draw(st.integers(1, n1 * n2))


@settings(max_examples=80)
@given(layout=site_layouts(), site_seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-6.0, -1.0), nu=st.sampled_from(SUPPORTED_NU))
# fewer than three sites give rank 0, where B = A / tau
@example(layout=(2, 2, 2), site_seed=0, log_tau=-6.0, nu=2.5)
def test_preconditioner_identities(layout, site_seed, log_tau, nu):
    n1, n2, count = layout
    sites = np.sort(np.random.default_rng(site_seed).choice(n1 * n2, count, replace=False))
    tau = 10.0**log_tau
    op = build_matern_operator((n1, n2), sites, 0.4 * n2, 0.4 * n1, nu=nu, tau=tau)
    pre = PreconditionedMatern(op)
    A = op.dense_matrix()
    B = np.column_stack([pre(e) for e in np.eye(op.dim)])
    B_sym = (B + B.T) / 2
    # A - P is a Schur complement: the spectrum of B starts at 1
    assert np.linalg.eigvalsh(B_sym)[0] >= 1 - 1e-9
    # log det A = log det P + log det B, with log det P in closed form
    logdet_B = dense_logdet(B_sym)
    scale = abs(pre.logdet) + abs(logdet_B)
    assert abs(pre.logdet + logdet_B - dense_logdet(A)) <= 1e-9 * scale
    # B is P^{-1/2} A P^{-1/2} for P = L L^T + tau I from the pivoted factor;
    # compared as P^{1/2} B P^{1/2} = A, the well-conditioned side
    factor = pivoted_cholesky(op, pre.rank)
    w, Q = np.linalg.eigh(factor.T @ factor + tau * np.eye(op.dim))
    root = (Q * np.sqrt(w)) @ Q.T
    assert np.linalg.norm(root @ B @ root - A, 2) <= 1e-9 * np.linalg.norm(A, 2)
    # tr S for the kernel residual S = K - F^T F the factor leaves
    residual = np.trace(A - tau * np.eye(op.dim) - factor.T @ factor)
    assert abs(pre.residual_trace - residual) <= 1e-12 * op.dim
