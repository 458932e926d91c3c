"""The benchmark tracer (bench/tracer.py) finds every layer it wraps, and an
estimate calls the monitor layers through the names it wraps.

A renamed, removed or bypassed function would leave its traced metrics at
zero; these tests make that fail instead.  The tracer is loaded from its file,
unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import slqcert
import slqcert.cli  # noqa: F401  (its references are rebound too)
from slqcert import oracles, rational, trace_estimator
from slqcert.operators import Laplacian2D

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("slqcert_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """(owner name, attribute) -> value over the slqcert modules and their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "slqcert" and not name.startswith("slqcert."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[f"{name}.{attr}", member] = inner
    return out


def test_tracer_finds_every_layer_and_restores_it():
    tracer = load_tracer()
    before = namespaces()
    installed = tracer.Tracer().install()
    try:
        assert installed.absent == []
        during = namespaces()
        replaced = {key for key in before if during[key] is not before[key]}
        assert ("slqcert.lanczos", "lanczos_step") in replaced
        assert ("slqcert.trace_estimator", "sample_bilinear") in replaced
        assert ("slqcert.operators.Laplacian2D", "matvec") in replaced
    finally:
        installed.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_traced_estimate_spans_the_monitor_layers():
    # the benchmark's per-layer monitor times read these spans: an estimate
    # that went round advance or lookback_check would zero them
    tracer = load_tracer()
    op = Laplacian2D(20, 30)
    r = rational.build("log", 8, oracles.laplacian_extreme_eigenvalues(20, 30))
    installed = tracer.Tracer().install()
    try:
        trace_estimator.estimate_trace_with(op, r, N=4, delta=1.0)
    finally:
        installed.uninstall()
    summary = installed.summary()
    assert summary["error_estimator.advance"]["calls"] > 0
    assert summary["error_estimator.lookback_check"]["calls"] > 0
