"""Benchmark of the `slqcert trace` command line on three fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs `slqcert trace` in a fresh interpreter (the CF cache
lives only inside one process, so every repetition pays the rational
construction, as a user's invocation does), one process at a time, with the
BLAS thread count pinned to 1.  Repetitions continue while the next one
still fits in S seconds.  Every report is checked against a truth computed
by checks.py, apart from the program.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics (medians over the repetitions); with --trace 1 the
repetitions alternate untraced and traced runs and the object holds the
per-layer metrics of the traced runs and the tracing overhead.  Earlier
lines give the machine stamp and one line per repetition.
"""

import os

# Pinned before numpy loads here, and passed to every child: with two BLAS
# threads both the timings and the last bits of the results vary from run to
# run.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# name -> (slqcert trace arguments, truth as a function of the seed)
WORKLOADS = {
    "lap-exp-90x120": (
        "--testbed laplacian --n1 90 --n2 120 --kind exp_neg --delta 8.31 --n-samples 100",
        lambda seed: checks.laplacian_trace("exp_neg", 90, 120)),
    "lap-log-300x400": (
        "--testbed laplacian --n1 300 --n2 400 --kind log --delta 100 --n-samples 30",
        lambda seed: checks.laplacian_trace("log", 300, 400)),
    "matern-logdet-90x120": (
        "--testbed matern --n1 90 --n2 120 --kind log --n-samples 30 --pilot-n 30",
        lambda seed: checks.matern_logdet(90, 120, site_seed=seed)),
}

# Extra interpreter starts per run, so that setup_s is a median of several;
# the median also discards the first start in a fresh checkout, which
# compiles the bytecode.
SETUP_SPAWNS = 1
# Every run, its builds included, must end within this many seconds.
RUN_LIMIT_S = 170.0

# The layer self times sum to the root span; the traced solve_s adds only the
# root wrapper's own cost, a few microseconds.
ACCOUNTING_RTOL = 1e-3

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "solve_cpu_s": "s",
                    "steps_per_probe": "count", "peak_rss_mb": "MB"}

# per-layer metric -> (layer, field of the layer summary); "_s" is self time
# except for the two phases, which report their whole span.
LAYER_METRICS = {
    "rational.build_s": ("rational.build", "self_s"),
    "rational.build_calls": ("rational.build", "calls"),
    "lanczos.lanczos_step_self_s": ("lanczos.lanczos_step", "self_s"),
    "lanczos.lanczos_step_calls": ("lanczos.lanczos_step", "calls"),
    "operators.apply_s": ("operators.apply", "self_s"),
    "operators.apply_calls": ("operators.apply", "units"),
    "lanczos.tridiag_eigen_s": ("lanczos.tridiag_eigen", "self_s"),
    "lanczos.tridiag_eigen_calls": ("lanczos.tridiag_eigen", "calls"),
    "error_estimator.advance_s": ("error_estimator.advance", "self_s"),
    "error_estimator.lookback_check_s": ("error_estimator.lookback_check", "self_s"),
    "trace_estimator.estimate_spectrum_interval_s":
        ("trace_estimator.estimate_spectrum_interval", "total_s"),
    "trace_estimator.calibrate_delta_s": ("trace_estimator.calibrate_delta", "total_s"),
    "trace_estimator.sample_bilinear_calls": ("trace_estimator.sample_bilinear", "calls"),
    "oracles.truth_s": ("oracles.truth", "self_s"),
    "cli.self_s": (tracer.ROOT_LAYER, "self_s"),
}
# the Python overhead of the per-probe loop: estimate_trace_with and the probe body
PROBE_LOOP_LAYERS = ("trace_estimator.probe_loop", "trace_estimator.sample_bilinear")


class BenchError(RuntimeError):
    pass


def slqcert_argv(workload, seed, report_path):
    argv = ["trace", *WORKLOADS[workload][0].split(), "--seed", str(seed)]
    if workload.startswith("matern"):
        argv += ["--site-seed", str(seed)]
    return argv + ["--output", str(report_path)]


def machine_stamp():
    sha = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": PINNED_ENV}


def spawn(tag, trace, argv, deadline):
    """Run bench/child.py in a fresh interpreter; its result plus setup_s,
    the time from the spawn to the end of `import slqcert.cli`."""
    result_path = OUT / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), str(result_path),
           "1" if trace else "0", *argv]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - start))
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["slqcert_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"slqcert imported from {result['slqcert_file']}, not from src/")
    result["setup_s"] = result["ready"] - start
    result["rep_s"] = time.monotonic() - start
    return result


def solve(workload, seed, rep, trace, deadline):
    tag = f"{workload}-{seed}-{rep}"
    report_path = OUT / f"{tag}.report.json"
    report_path.unlink(missing_ok=True)
    result = spawn(tag, trace, slqcert_argv(workload, seed, report_path), deadline)
    if result["exit_code"] not in (0, 2):
        raise BenchError(f"slqcert trace exited with {result['exit_code']}")
    result["traced"] = trace
    result["report"] = json.loads(report_path.read_text())
    return result


def layer_metrics(result):
    layers = result["layers"]
    out = {name: layers.get(layer, {}).get(field, 0) for name, (layer, field)
           in LAYER_METRICS.items()}
    out["rational.K"] = result["report"]["K"]
    out["trace_estimator.probe_loop_self_s"] = sum(
        layers.get(layer, {}).get("self_s", 0.0) for layer in PROBE_LOOP_LAYERS)
    out["traced_solve_s"] = result["solve_s"]
    return out


def run(workload, seed, seconds, trace):
    """Repeat fresh-process solves while the next one fits in the budget;
    returns the result object printed on the last line."""
    OUT.mkdir(parents=True, exist_ok=True)
    print("stamp " + json.dumps(machine_stamp()), flush=True)
    truth = WORKLOADS[workload][1](seed)
    limit = time.monotonic() + RUN_LIMIT_S
    begin = time.monotonic()
    setups = [spawn(f"setup-{i}", False, [], limit)["setup_s"] for i in range(SETUP_SPAWNS)]
    reps = []
    while True:
        rep = solve(workload, seed, len(reps), trace and len(reps) % 2 == 1, limit)
        reps.append(rep)
        setups.append(rep["setup_s"])
        report = rep["report"]
        print(f"rep {len(reps)} {'traced' if rep['traced'] else 'untraced'}: "
              f"setup {rep['setup_s']:.3f} s, solve {rep['solve_s']:.3f} s, "
              f"cpu {rep['solve_cpu_s']:.3f} s, rss {rep['peak_rss_mb']:.1f} MB, "
              f"steps {report['average_steps']:.2f}, mean {report['mean']!r}, "
              f"half-width {report['half_width']!r}, truth {truth!r}", flush=True)
        longest = max(r["rep_s"] for r in reps)
        now = time.monotonic()
        enough = len(reps) >= (2 if trace else 1)
        if (enough and now - begin + longest > seconds) or now + longest > limit:
            break

    problems = []
    for i, rep in enumerate(reps, 1):
        problems += [f"rep {i}: {p}" for p in checks.check_report(rep["report"], truth)]
    if len({rep["report"]["mean"] for rep in reps}) != 1:
        problems.append("repetitions with the same seed gave different means")
    attempted = sum(rep["report"]["N"] for rep in reps)
    failed = sum(not s["converged"] for rep in reps for s in rep["report"]["per_sample"])

    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        for rep in traced:
            layers = rep["layers"]
            accounted = sum(layer["self_s"] for layer in layers.values())
            if abs(accounted - rep["solve_s"]) > ACCOUNTING_RTOL * rep["solve_s"]:
                problems.append(f"layer self times sum to {accounted} s, "
                                f"not to the traced solve {rep['solve_s']} s")
            print("layers " + json.dumps({"absent": rep["absent"], "layers": layers}))
        rows = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        values["trace_overhead_s"] = (values["traced_solve_s"]
                                      - statistics.median(r["solve_s"] for r in plain))
        metrics = {name: {"value": value,
                          "unit": "count" if name.endswith(("_calls", ".K")) else "s"}
                   for name, value in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in plain),
            "solve_cpu_s": statistics.median(r["solve_cpu_s"] for r in plain),
            "steps_per_probe": statistics.median(
                statistics.fmean(s["steps_run"] for s in r["report"]["per_sample"])
                for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
