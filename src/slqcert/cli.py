"""Experiment runner: rational-approximation curves, bilinear error curves,
trace estimates with confidence intervals, and tolerance calibration.

Every run is driven by an ExperimentConfig that round-trips losslessly
through JSON, so experiments replay exactly (timing fields aside).
Exit codes: 0 on certified success, 2 when any sample failed to converge,
1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from .error_estimator import ErrorMonitor, cumulative_error
from .lanczos import DEFAULT_REORTH, REORTH_MODES, lanczos_steps, quadrature_value
from .operators import Laplacian2D, build_matern_operator, sample_sites
from .rational import kind_function

# the values the parser and ExperimentConfig.from_dict accept for these keys
CHOICES = {
    "testbed": ("laplacian", "matern"),
    "kind": rational.KINDS,
    "reorth": REORTH_MODES,
    "format": ("json", "table"),
}


@dataclass
class ExperimentConfig:
    """Flat key-value description of one experiment (paper defaults)."""

    command: str = "trace"
    testbed: str = "laplacian"
    n1: int = 90
    n2: int = 120
    kind: str = "exp_neg"
    n_samples: int = 100
    alpha: float = 3.0
    beta: float | None = None
    delta: float | None = None
    t: float = 0.1
    reorth: str = DEFAULT_REORTH
    m_max: int = 2000
    K: int | None = None
    k_min: int = 1
    k_max: int = 14
    seed: int = 0
    sample_fraction: float = 0.1
    ell_rule: float = 0.4
    nu: float = 1.5
    tau: float = 1e-5
    site_seed: int = 0
    pilot_n: int = 30
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
    a float field) and the key's CHOICES, else a ContractViolationError."""
    types = typing.get_args(hint) or (hint,)
    if float in types and type(value) is int:
        value = float(value)
    if type(value) not in types:
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ContractViolationError(f"config key {key!r} must be {expected}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ContractViolationError(
            f"config key {key!r} must be one of {list(CHOICES[key])}, got {value!r}")
    return value


def make_operator(config: ExperimentConfig):
    """Build the testbed operator plus its spectrum interval and descriptor."""
    if config.testbed == "laplacian":
        op = Laplacian2D(config.n1, config.n2)
        interval = oracles.laplacian_extreme_eigenvalues(config.n1, config.n2)
        descriptor = {"testbed": "laplacian", "n1": config.n1, "n2": config.n2,
                      "dim": op.dim}
        return op, interval, descriptor
    if config.testbed == "matern":
        sites = sample_sites(config.n1, config.n2, config.sample_fraction,
                             config.site_seed)
        ell1 = config.ell_rule * config.n2
        ell2 = config.ell_rule * config.n1
        op = build_matern_operator((config.n1, config.n2), sites, ell1, ell2,
                                   nu=config.nu, tau=config.tau)
        interval = trace_estimator.estimate_spectrum_interval(
            op, lower_hint=config.tau, seed=config.seed, reorth_mode=config.reorth)
        descriptor = {"testbed": "matern", "n1": config.n1, "n2": config.n2,
                      "dim": op.dim, "sample_fraction": config.sample_fraction,
                      "ell1": ell1, "ell2": ell2, "nu": config.nu,
                      "tau": config.tau, "site_seed": config.site_seed,
                      "condition_estimate": interval[1] / interval[0]}
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
    if config.k_min > config.k_max or config.k_min < 1:
        raise ContractViolationError(
            f"empty or invalid K schedule [{config.k_min}, {config.k_max}]"
        )
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
    """Per-step CSV: true bilinear error, |d_m|, and the lookback window."""
    if config.testbed != "laplacian":
        raise ContractViolationError("bilinear-curve requires the laplacian testbed")
    op, interval, _ = make_operator(config)
    f = kind_function(config.kind)
    if config.K is not None:
        r = rational.build(config.kind, config.K, interval)
    else:
        target = (config.delta / (2.0 * op.dim)) if config.delta else 1e-10
        try:
            r = rational.choose_K(config.kind, interval, target)
        except UnreachableAccuracyError as exc:
            r = rational.build(config.kind, exc.best_k, interval)
    u = trace_estimator.rademacher_vector(op.dim, config.seed, index=0)
    truth = oracles.exact_bilinear_laplacian(f, config.n1, config.n2,
                                             u / np.linalg.norm(u))
    monitor = ErrorMonitor(r, tol=0.0, t=config.t)
    quad_values = []
    for state, alpha, beta in lanczos_steps(op, u, config.reorth, config.m_max):
        monitor.advance(alpha, beta)
        quad_values.append(quadrature_value(state.tridiagonal(), f))
    d = monitor.history
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["m", "true_error", "incremental_error", "cumulative_window"])
    for m in range(1, len(quad_values) + 1):
        row = [m, f"{abs(truth - quad_values[m - 1]):.6e}"]
        has_d = m - 1 < len(d)
        row.append(f"{abs(d[m - 1]):.6e}" if has_d else "")
        window = ""
        if has_d:
            for mp in range(m + 1, len(d) + 1):
                if abs(d[mp - 1]) <= config.t * abs(d[m - 1]):
                    window = f"{abs(cumulative_error(monitor, m, mp)):.6e}"
                    break
        row.append(window)
        writer.writerow(row)
    _emit(buf.getvalue(), config.output)
    return 0


def _truth_for(config: ExperimentConfig, op, f):
    if config.testbed == "laplacian":
        return oracles.exact_trace_laplacian(f, config.n1, config.n2)
    if op.dim <= oracles.DENSE_ORACLE_MAX_DIM:
        return oracles.dense_f_oracle(op.dense_matrix(), f).trace()
    return None


def cmd_trace(config: ExperimentConfig) -> int:
    """Trace estimate with confidence interval; JSON or aligned-text report.

    ``timings.wall_seconds`` spans the whole command: the operator and its
    spectrum interval, calibration, the estimate and the truth oracle.
    """
    tic = time.perf_counter()
    op, interval, descriptor = make_operator(config)
    f = kind_function(config.kind)
    delta = config.delta
    if delta is None:
        beta = config.beta if config.beta is not None else 0.1
        delta = trace_estimator.calibrate_delta(
            op, config.kind, n_pilot=config.pilot_n, beta=beta,
            alpha=config.alpha, production_n=config.n_samples,
            seed=config.seed, interval=interval, m_max=config.m_max,
            reorth_mode=config.reorth)
    estimate = trace_estimator.estimate_trace(
        op, config.kind, config.n_samples, delta, alpha=config.alpha,
        t=config.t, seed=config.seed, interval=interval, K=config.K,
        m_max=config.m_max, reorth_mode=config.reorth)
    report = estimate.to_json_dict()
    report["operator"] = descriptor
    report["config"] = config.to_dict()
    truth = _truth_for(config, op, f)
    if truth is not None:
        report["truth"] = truth
        report["abs_error"] = abs(truth - estimate.mean)
        report["within_half_width"] = bool(abs(truth - estimate.mean)
                                           <= estimate.half_width)
    report["timings"]["wall_seconds"] = time.perf_counter() - tic
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
        ("time approximation (s)",
         f'{report["timings"]["approximation_seconds"]:.2f}'),
        ("time error estimate (s)",
         f'{report["timings"]["error_estimate_seconds"]:.2f}'),
    ]
    if "truth" in report:
        rows.insert(9, ("truth", f'{report["truth"]:.6g}'))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def cmd_calibrate_delta(config: ExperimentConfig) -> int:
    op, interval, descriptor = make_operator(config)
    beta = config.beta if config.beta is not None else 0.1
    delta = trace_estimator.calibrate_delta(
        op, config.kind, n_pilot=config.pilot_n, beta=beta, alpha=config.alpha,
        production_n=config.n_samples, seed=config.seed, interval=interval,
        m_max=config.m_max, reorth_mode=config.reorth)
    out = {"delta": delta, "beta": beta, "pilot_n": config.pilot_n,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slqcert",
        description="Matrix-free trace estimation with error certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--testbed", choices=CHOICES["testbed"])
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--kind", choices=CHOICES["kind"])
        p.add_argument("--n-samples", type=int, dest="n_samples")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--reorth", choices=CHOICES["reorth"])
        p.add_argument("--m-max", type=int, dest="m_max")
        p.add_argument("--K", type=int)
        p.add_argument("--k-min", type=int, dest="k_min")
        p.add_argument("--k-max", type=int, dest="k_max")
        p.add_argument("--seed", type=int)
        p.add_argument("--sample-fraction", type=float, dest="sample_fraction")
        p.add_argument("--ell-rule", type=float, dest="ell_rule")
        p.add_argument("--nu", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--site-seed", type=int, dest="site_seed")
        p.add_argument("--pilot-n", type=int, dest="pilot_n")
        p.add_argument("--output", "-o")
        p.add_argument("--format", choices=CHOICES["format"])
    return parser


def config_from_args(args) -> ExperimentConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    config = ExperimentConfig.from_dict(base) if base else ExperimentConfig()
    config.command = args.command
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name != "command":
            setattr(config, f.name, value)
    return config


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
