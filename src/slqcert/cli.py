"""Experiment runner: rational-approximation curves, bilinear error curves,
trace estimates with confidence intervals, and tolerance calibration.

Every run is driven by an ExperimentConfig that round-trips losslessly
through JSON, so experiments replay exactly (timing fields aside).  Not
every key applies to every command.  ``K`` is a ``bilinear-curve`` key,
which studies the monitor at a chosen pole count; ``trace`` picks K from
delta, as the smallest whose uniform error is at most delta / (2 n), and
rejects a config that sets K; ``rational-check`` sweeps ``k_min`` to
``k_max``; ``calibrate-delta`` ignores K.

On the Matern testbed with kind ``log`` (the Gaussian-process
log-determinant) every command works on the preconditioned operator
B = P^{-1/2} A P^{-1/2} of ``operators.PreconditionedMatern``, and ``trace``
reports log det A = log det P + tr log B: log det P is exact and is added to
every sample, so the standard error, delta and the half-width are those of
the estimate of tr log B.  The spectrum of B lies above 1, so the interval's
lower end a = 1 is certified; P has rank min(512, n // 3).  The other
Matern kinds and the Laplacian run on A itself.

Exit codes: 0 on certified success; 2 when a sample is uncertified (its
monitor did not converge before m_max or the operator dimension, its run
failed, or its Ritz values leave the approximant's interval [a, b]); 1 on
usage or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import oracles, rational, trace_estimator
from .errors import (
    CalibrationFailedError,
    ContractViolationError,
    NumericalFailureError,
    UnreachableAccuracyError,
)
from .error_estimator import cumulative_error
from .lanczos import DEFAULT_M_MAX, quadrature_value
from .operators import (Laplacian2D, PreconditionedMatern, build_matern_operator,
                        sample_sites)
from .rational import kind_function

# the values the parser and ExperimentConfig.from_dict accept for these keys
CHOICES = {
    "testbed": ("laplacian", "matern"),
    "kind": rational.KINDS,
    "format": ("json", "table"),
}

# the keys whose value, when set, must be positive and finite
POSITIVE = ("alpha", "beta", "delta", "tau", "ell_rule")

# the least value of these count keys
MINIMUM = {"n1": 1, "n2": 1, "n_samples": 2, "pilot_n": 2, "m_max": 1}


@dataclass
class ExperimentConfig:
    """Flat key-value description of one experiment (paper defaults)."""

    command: str = "trace"
    testbed: str = "laplacian"
    n1: int = 90
    n2: int = 120
    kind: str = "exp_neg"
    n_samples: int = trace_estimator.DEFAULT_N
    alpha: float = trace_estimator.DEFAULT_ALPHA
    beta: float = trace_estimator.DEFAULT_BETA
    delta: float | None = None
    m_max: int = DEFAULT_M_MAX
    K: int | None = None
    k_min: int = 1
    k_max: int = 14
    seed: int = 0
    sample_fraction: float = 0.1
    ell_rule: float = 0.4
    nu: float = 1.5
    tau: float = 1e-5
    site_seed: int = 0
    pilot_n: int = trace_estimator.DEFAULT_PILOT_N
    output: str | None = None
    format: str = "json"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        hints = typing.get_type_hints(cls)
        unknown = set(d) - set(hints)
        if unknown:
            raise ContractViolationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _checked(key, value, hints[key]) for key, value in d.items()})


def _checked(key, value, hint):
    """value if its JSON type fits the field's annotation (an int is taken for
    a float field) and its range: the key's CHOICES, POSITIVE, MINIMUM and,
    for K, k_min and k_max, the pole counts of ``rational.K_SCHEDULE``; else
    a ContractViolationError."""
    types = typing.get_args(hint) or (hint,)
    if float in types and type(value) is int:
        value = float(value)
    if type(value) not in types:
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ContractViolationError(f"config key {key!r} must be {expected}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ContractViolationError(
            f"config key {key!r} must be one of {list(CHOICES[key])}, got {value!r}")
    if key in POSITIVE and not (value is None or 0 < value < math.inf):
        raise ContractViolationError(
            f"config key {key!r} must be positive and finite, got {value!r}")
    if key in MINIMUM and value < MINIMUM[key]:
        raise ContractViolationError(
            f"config key {key!r} must be at least {MINIMUM[key]}, got {value!r}")
    if key in ("K", "k_min", "k_max") and not (value is None or value in rational.K_SCHEDULE):
        first, last = rational.K_SCHEDULE[0], rational.K_SCHEDULE[-1]
        nullable = "null or " if key == "K" else ""
        raise ContractViolationError(
            f"config key {key!r} must be {nullable}in [{first}, {last}], got {value!r}")
    return value


def make_operator(config: ExperimentConfig):
    """Build the testbed operator plus its spectrum interval and descriptor.

    For matern with kind log the operator is the preconditioned
    ``PreconditionedMatern``, with the certified lower end 1; the descriptor's
    ``preconditioner`` gives its rank, log det P and the trace of the kernel
    residual its factor leaves.  ``condition_estimate``
    is b / a of the operator returned, the one Lanczos runs on.  The
    descriptor's ``interval_source`` says where a and b came from: ``exact``
    (closed form), ``hint`` (a bound known in advance: the nugget tau, or 1
    for the preconditioned operator) or ``ritz`` (the inflated largest Ritz
    value of a probe run).
    """
    if config.testbed == "laplacian":
        op = Laplacian2D(config.n1, config.n2)
        interval = oracles.laplacian_extreme_eigenvalues(config.n1, config.n2)
        descriptor = {"testbed": "laplacian", "n1": config.n1, "n2": config.n2,
                      "dim": op.dim, "interval_source": {"a": "exact", "b": "exact"}}
        return op, interval, descriptor
    if config.testbed == "matern":
        sites = sample_sites(config.n1, config.n2, config.sample_fraction,
                             config.site_seed)
        ell1 = config.ell_rule * config.n2
        ell2 = config.ell_rule * config.n1
        op = build_matern_operator((config.n1, config.n2), sites, ell1, ell2,
                                   nu=config.nu, tau=config.tau)
        lower = config.tau
        if config.kind == "log":
            op, lower = PreconditionedMatern(op), 1.0
        interval = trace_estimator.estimate_spectrum_interval(
            op, lower_hint=lower, seed=config.seed)
        descriptor = {"testbed": "matern", "n1": config.n1, "n2": config.n2,
                      "dim": op.dim, "sample_fraction": config.sample_fraction,
                      "ell1": ell1, "ell2": ell2, "nu": config.nu,
                      "tau": config.tau, "site_seed": config.site_seed,
                      "condition_estimate": interval[1] / interval[0],
                      "interval_source": {"a": "hint", "b": "ritz"}}
        if isinstance(op, PreconditionedMatern):
            descriptor["preconditioner"] = {"rank": op.rank, "logdet": op.logdet,
                                            "residual_trace": op.residual_trace}
        return op, interval, descriptor
    raise ContractViolationError(f"unknown testbed {config.testbed!r}")


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rational_check(config: ExperimentConfig) -> int:
    """CSV of (kind, K, uniform error) over the K schedule."""
    if config.k_min > config.k_max:
        raise ContractViolationError(f"empty K schedule [{config.k_min}, {config.k_max}]")
    _, interval, _ = make_operator(config)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "K", "uniform_error"])
    for K in range(config.k_min, config.k_max + 1):
        r = rational.build(config.kind, K, interval)
        writer.writerow([config.kind, K, f"{r.eps:.6e}"])
    _emit(buf.getvalue(), config.output)
    return 0


def cmd_bilinear_curve(config: ExperimentConfig) -> int:
    """Per-step CSV: true bilinear error, |d_m|, and the lookback window.

    The run is one follow of a ``ProbeBlock`` of one probe at tolerance 0,
    whose monitor's column 0 gives the increments and windows; a failed
    monitor is an error.  It ends at m_max, at the operator dimension,
    on breakdown, or after the first increment d_m at most machine epsilon
    times the quadrature value Q_m it moves: later steps change nothing the
    columns can show.  Row m's window is d_{m, m'} at the first later m'
    with |d_m'| <= t |d_m|, which differs from the lookback test's backward
    search where |d| is not monotone."""
    if config.testbed != "laplacian":
        raise ContractViolationError("bilinear-curve requires the laplacian testbed")
    op, interval, _ = make_operator(config)
    f = kind_function(config.kind)
    if config.K is not None:
        r = rational.build(config.kind, config.K, interval)
    else:
        target = (1e-10 if config.delta is None
                  else trace_estimator.rational_target(config.delta, op.dim))
        try:
            r = rational.choose_K(config.kind, interval, target)
        except UnreachableAccuracyError as exc:
            r = rational.build(config.kind, exc.best_k, interval)
    u = trace_estimator.rademacher_vector(op.dim, config.seed, index=0)
    truth = oracles.exact_bilinear_laplacian(f, config.n1, config.n2,
                                             u / np.linalg.norm(u))
    block = trace_estimator.ProbeBlock(op, u[None], config.m_max)
    quad_values = []
    for monitor, (end,) in block.follow(r, 0.0):
        if end is not None and end[-1] is not None:
            raise NumericalFailureError(end[-1])
        quad_values.append(quadrature_value(block.state.tridiagonal(), f))
        d = monitor.history[0]
        if len(d) and abs(d[-1]) <= np.finfo(float).eps * abs(quad_values[-2]):
            break
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["m", "true_error", "incremental_error", "cumulative_window"])
    for m in range(1, len(quad_values) + 1):
        window = ""
        for mp in range(m + 1, len(d) + 1):
            if abs(d[mp - 1]) <= monitor.t * abs(d[m - 1]):
                window = f"{abs(cumulative_error(monitor, m, mp)):.6e}"
                break
        writer.writerow([m, f"{abs(truth - quad_values[m - 1]):.6e}",
                         f"{abs(d[m - 1]):.6e}" if m <= len(d) else "", window])
    _emit(buf.getvalue(), config.output)
    return 0


def _truth_for(config: ExperimentConfig, op, f):
    """tr f(A) of the unpreconditioned A, or None past the dense oracle's cap.

    log det A comes from a Cholesky factor: 0.03 s at 1080 sites against
    0.16 s for the eigenvalues the other kinds need (one BLAS thread).
    """
    if config.testbed == "laplacian":
        return oracles.exact_trace_laplacian(f, config.n1, config.n2)
    if isinstance(op, PreconditionedMatern):
        op = op.base
    if op.dim > oracles.DENSE_ORACLE_MAX_DIM:
        return None
    if config.kind == "log":
        return oracles.dense_logdet(op.dense_matrix())
    return oracles.dense_f_oracle(op.dense_matrix(), f).trace()


def cmd_trace(config: ExperimentConfig) -> int:
    """Trace estimate with confidence interval; JSON or aligned-text report.

    ``timings.wall_seconds`` spans the whole command.  Within it,
    ``operator_seconds`` spans ``make_operator`` (the preconditioner and the
    spectrum interval), ``truth_seconds`` the truth oracle, and three parts
    split the span of ``trace_estimator.estimate_trace``:
    ``calibration_seconds`` the pilot, ``error_estimate_seconds`` the
    estimate's time in its monitors and ``approximation_seconds`` the rest.
    The five do not overlap.
    Without a delta in the config, the pilot that sets it runs on the
    estimate's first probes (``trace_estimator.estimate_trace``), and the
    report's ``calibration`` describes it.  A config that sets K is a usage
    error: the certificate needs the K that ``rational.choose_K`` picks at
    ``trace_estimator.rational_target(delta, n)``.
    """
    if config.K is not None:
        raise ContractViolationError(
            f"config key 'K' is a bilinear-curve key; trace picks K from delta, got {config.K}")
    tic = time.perf_counter()
    op, interval, descriptor = make_operator(config)
    operator_seconds = time.perf_counter() - tic
    f = kind_function(config.kind)
    estimate = trace_estimator.estimate_trace(
        op, config.kind, config.n_samples, config.delta, interval, alpha=config.alpha,
        seed=config.seed, m_max=config.m_max, n_pilot=config.pilot_n, beta=config.beta)
    report = estimate.to_json_dict()
    if isinstance(op, PreconditionedMatern):
        # log det A = log det P + tr log B, so each sample of tr log B shifts
        report["mean"] += op.logdet
        for sample in report["per_sample"]:
            sample["value"] += op.logdet
    report["operator"] = descriptor
    report["config"] = config.to_dict()
    timings = report["timings"]
    timings["operator_seconds"] = operator_seconds
    truth_tic = time.perf_counter()
    truth = _truth_for(config, op, f)
    timings["truth_seconds"] = time.perf_counter() - truth_tic
    if truth is not None:
        report["truth"] = truth
        report["abs_error"] = abs(truth - report["mean"])
        report["within_half_width"] = bool(report["abs_error"] <= estimate.half_width)
    timings["wall_seconds"] = time.perf_counter() - tic
    if config.format == "table":
        _emit(_format_table(report), config.output)
    else:
        _emit(json.dumps(report, indent=2) + "\n", config.output)
    return 0 if estimate.certified else 2


def _format_table(report) -> str:
    rows = [
        ("function", report["function"]),
        ("operator", report["operator"]["testbed"]),
        ("grid", f'{report["operator"]["n1"]}x{report["operator"]["n2"]}'),
        ("dim", report["operator"]["dim"]),
        ("quadrature points K", report["K"]),
        ("rational approx error", f'{report["rational_eps"]:.2e}'),
        ("tolerance delta", f'{report["delta"]:.4g}'),
        ("average Lanczos steps", f'{report["average_steps"]:.2f}'),
        ("average retired step", f'{report["average_retired_step"]:.2f}'),
        ("estimate", f'{report["mean"]:.6g}'),
        ("half-width", f'{report["half_width"]:.4g}'),
        ("p_alpha", f'{report["p_alpha"]:.4%}'),
        ("certified", report["certified"]),
        ("probe block size", report["block_size"]),
        ("time approximation (s)",
         f'{report["timings"]["approximation_seconds"]:.2f}'),
        ("time error estimate (s)",
         f'{report["timings"]["error_estimate_seconds"]:.2f}'),
        ("time calibration (s)",
         f'{report["timings"]["calibration_seconds"]:.2f}'),
    ]
    if "truth" in report:
        rows.insert(9, ("truth", f'{report["truth"]:.6g}'))
    if "preconditioner" in report["operator"]:
        rows.insert(4, ("preconditioner rank", report["operator"]["preconditioner"]["rank"]))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def cmd_calibrate_delta(config: ExperimentConfig) -> int:
    op, interval, descriptor = make_operator(config)
    delta = trace_estimator.calibrate_delta(
        op, config.kind, interval, n_pilot=config.pilot_n, beta=config.beta,
        alpha=config.alpha, production_n=config.n_samples, seed=config.seed,
        m_max=config.m_max)
    out = {"delta": delta, "beta": config.beta, "pilot_n": config.pilot_n,
           "production_n": config.n_samples, "operator": descriptor,
           "config": config.to_dict()}
    _emit(json.dumps(out, indent=2) + "\n", config.output)
    return 0


_COMMANDS = {
    "rational-check": cmd_rational_check,
    "bilinear-curve": cmd_bilinear_curve,
    "trace": cmd_trace,
    "calibrate-delta": cmd_calibrate_delta,
}


def _add_flag(parser, key, hint):
    """--key-with-dashes for a config key: its choices from CHOICES, else the
    type of the key's annotation with None left out."""
    flags = ["--" + key.replace("_", "-")] + (["-o"] if key == "output" else [])
    if key in CHOICES:
        parser.add_argument(*flags, choices=CHOICES[key])
    else:
        types = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
        parser.add_argument(*flags, type=types[0])


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as a bad config does:
    one ``error:`` line and exit code 1, since 2 means an uncertified run."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slqcert",
        description="Matrix-free trace estimation with error certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(ExperimentConfig)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, hint in hints.items():
            if key != "command":
                _add_flag(p, key, hint)
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The config file's keys overridden by the flags given, checked as one."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ContractViolationError("a config file must hold a JSON object")
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return ExperimentConfig.from_dict(values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return _COMMANDS[args.command](config)
    except (ContractViolationError, OSError, ValueError, UnreachableAccuracyError,
            NumericalFailureError, CalibrationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
