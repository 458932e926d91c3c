"""Spans around the public functions of each slqcert layer, installed from
outside the package.

A wrapped function is replaced wherever an slqcert module holds a reference
to it, so calls through names imported with `from ... import` are traced
too.  Spans stay in memory as [name, start, end, parent, units] until the
run ends.  A layer whose function was renamed or removed is reported as
absent instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, attribute).  "Class.method" wraps a method on its class;
# "*.matvec" wraps matvec on every class of the module that defines one.
LAYERS = (
    ("rational.build", "slqcert.rational", "build"),
    ("operators.apply", "slqcert.operators", "*.matvec"),
    ("lanczos.lanczos_step", "slqcert.lanczos", "lanczos_step"),
    ("lanczos.tridiag_eigen", "slqcert.lanczos", "tridiag_eigen"),
    ("error_estimator.advance", "slqcert.error_estimator", "ErrorMonitor.advance"),
    ("error_estimator.lookback_check", "slqcert.error_estimator", "lookback_check"),
    ("trace_estimator.estimate_spectrum_interval", "slqcert.trace_estimator",
     "estimate_spectrum_interval"),
    ("trace_estimator.calibrate_delta", "slqcert.trace_estimator", "calibrate_delta"),
    ("trace_estimator.probe_loop", "slqcert.trace_estimator", "estimate_trace_with"),
    ("trace_estimator.sample_bilinear", "slqcert.trace_estimator", "sample_bilinear"),
    ("oracles.truth", "slqcert.oracles", "exact_trace_laplacian"),
    ("oracles.truth", "slqcert.oracles", "dense_f_oracle"),
    ("oracles.truth", "slqcert.oracles", "dense_logdet"),
)

ROOT_LAYER = "cli"


def _vectors_applied(args):
    """Operator applies count vectors: an (n, b) block counts b."""
    op, x = args[0], args[1]
    return max(1, x.size // op.dim)


class Tracer:
    """Installs the wrappers, records the spans and undoes both."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, fn, name, units=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          units(args) if units else 1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self):
        installed = set()
        for layer, module_name, attr in self.layers:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if attr == "*.matvec":
                owners = [cls for cls in vars(module).values()
                          if isinstance(cls, type) and "matvec" in vars(cls)]
                for cls in owners:
                    self._set(cls, "matvec",
                              self.wrap(vars(cls)["matvec"], layer, _vectors_applied))
                if owners:
                    installed.add(layer)
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and method in vars(cls):
                    self._set(cls, method, self.wrap(vars(cls)[method], layer))
                    installed.add(layer)
            elif callable(getattr(module, attr, None)):
                self._rebind(getattr(module, attr), self.wrap(getattr(module, attr), layer))
                installed.add(layer)
        self.absent = sorted({layer for layer, _, _ in self.layers} - installed)
        return self

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapped):
        for module_name, module in list(sys.modules.items()):
            if module_name != "slqcert" and not module_name.startswith("slqcert."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per layer: calls, units, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans sum to the root's duration.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, units) in enumerate(self.spans):
            layer = out.setdefault(name, {"calls": 0, "units": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            layer["calls"] += 1
            layer["units"] += units
            layer["total_s"] += end - start
            layer["self_s"] += end - start - covered[i]
        return out
