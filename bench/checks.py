"""Ground truth computed apart from slqcert, and the checks every trace
report must pass.

Nothing here imports slqcert: the Laplacian trace comes from the closed-form
eigenvalues, and the Matern log-determinant from a kernel matrix assembled
here and factored by Cholesky.
"""

from __future__ import annotations

import math

import numpy as np

FUNCTIONS = {
    "exp_neg": lambda x: np.exp(-x),
    "log": np.log,
}

# Relative tolerances for recomputing the report's own statistics.  The
# program sums in another order than math.fsum, so the mean may differ in
# the last bits; the half-width goes through a square root and a few more
# roundings.
MEAN_RTOL = 1e-12
HALF_WIDTH_RTOL = 1e-9


def laplacian_trace(kind: str, n1: int, n2: int) -> float:
    """tr f(A) for the n1 x n2 Dirichlet Laplacian, summed over the
    closed-form eigenvalues 4 sin^2(i pi / 2(n1+1)) + 4 sin^2(j pi / 2(n2+1))."""
    lam1 = 4.0 * np.sin(np.arange(1, n1 + 1) * np.pi / (2.0 * (n1 + 1))) ** 2
    lam2 = 4.0 * np.sin(np.arange(1, n2 + 1) * np.pi / (2.0 * (n2 + 1))) ** 2
    return math.fsum(FUNCTIONS[kind](lam1[:, None] + lam2[None, :]).ravel())


def matern_sites(n1: int, n2: int, fraction: float, seed: int) -> np.ndarray:
    """The sites `slqcert --site-seed seed` samples: a uniform draw without
    replacement of round(fraction n1 n2) flat indices (second index fastest)
    from a Philox generator keyed by the seed, sorted."""
    total = n1 * n2
    count = max(1, int(round(fraction * total)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return np.sort(rng.choice(total, size=count, replace=False))


def matern_matrix(n1: int, n2: int, sites, ell_rule: float = 0.4,
                  tau: float = 1e-5) -> np.ndarray:
    """Matern nu = 1.5 kernel matrix with nugget tau on the given sites.

    Offsets along the first grid axis (length n1) are scaled by ell_rule n1,
    offsets along the second axis (length n2) by ell_rule n2.
    """
    rows, cols = np.divmod(np.asarray(sites, dtype=np.int64), n2)
    d1 = (rows[:, None] - rows[None, :]) / (ell_rule * n1)
    d2 = (cols[:, None] - cols[None, :]) / (ell_rule * n2)
    r = np.sqrt(3.0) * np.hypot(d1, d2)
    kernel = (1.0 + r) * np.exp(-r)
    kernel[np.diag_indices_from(kernel)] += tau
    return kernel


def cholesky_logdet(matrix) -> float:
    chol = np.linalg.cholesky(matrix)
    return 2.0 * math.fsum(np.log(np.diag(chol)))


def matern_logdet(n1: int, n2: int, site_seed: int, fraction: float = 0.1) -> float:
    return cholesky_logdet(matern_matrix(n1, n2, matern_sites(n1, n2, fraction, site_seed)))


def check_report(report: dict, truth: float) -> list[str]:
    """Every way the `slqcert trace` JSON report contradicts the method or
    the truth; an empty list means the report passes."""
    problems = []
    if report.get("certified") is not True:
        problems.append("report is not certified")
    samples = report["per_sample"]
    values = [s["value"] for s in samples]
    N = len(values)
    if N != report["N"] or N < 2:
        return problems + [f"{N} per-sample values for N={report['N']}"]
    mean = math.fsum(values) / N
    scale = math.fsum(abs(v) for v in values) / N
    if abs(report["mean"] - mean) > MEAN_RTOL * scale:
        problems.append(f"mean {report['mean']!r} is not the average {mean!r} "
                        "of the per-sample values")
    s = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (N - 1))
    alpha, delta = report["alpha"], report["delta"]
    half = (alpha / math.sqrt(N)) * (s + delta * math.sqrt(N / (N - 1))) + delta
    if abs(report["half_width"] - half) > HALF_WIDTH_RTOL * half:
        problems.append(f"half-width {report['half_width']!r} differs from "
                        f"{half!r} recomputed from the per-sample values")
    dim = report["operator"]["dim"]
    if not report["rational_eps"] <= delta / (2.0 * dim):
        problems.append(f"rational_eps {report['rational_eps']!r} exceeds "
                        f"delta / (2 dim) = {delta / (2.0 * dim)!r}")
    late = [s["index"] for s in samples if s["retired_step"] > s["steps_run"]]
    if late:
        problems.append(f"samples {late} retire after their last step")
    if not abs(report["mean"] - truth) <= report["half_width"]:
        problems.append(f"|mean - truth| = {abs(report['mean'] - truth)!r} exceeds "
                        f"the half-width {report['half_width']!r} (truth {truth!r})")
    return problems
