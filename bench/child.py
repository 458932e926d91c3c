"""One `slqcert trace` invocation in a fresh interpreter, timed from inside.

    python3 bench/child.py RESULT.json TRACE [SLQCERT ARGUMENTS...]

Writes RESULT.json with the monotonic time at which `import slqcert.cli`
finished, then, when arguments are given, the exit code, wall and CPU time
of the trace command and the peak resident memory of this process.  With
TRACE=1 the command runs under the layer tracer, the spans go to
RESULT.json's sibling "*.spans.json", and the per-layer summary goes into
RESULT.json.
"""

import json
import resource
import sys
import time

import slqcert.cli

READY = time.monotonic()


def run(argv, trace, spans_path=None):
    """Run `slqcert <argv>` and return its timings (and layer summary)."""
    main = slqcert.cli.main
    tracer = None
    if trace:
        from tracer import ROOT_LAYER, Tracer

        tracer = Tracer().install()
        main = tracer.wrap(main, ROOT_LAYER)
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = main(argv)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"exit_code": code, "solve_s": wall1 - wall0, "solve_cpu_s": cpu1 - cpu0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"absent": tracer.absent, "spans": tracer.spans}, fh)
    return result


if __name__ == "__main__":
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"ready": READY, "slqcert_file": slqcert.__file__}
    if argv:
        result.update(run(argv, trace, result_path.replace(".json", ".spans.json")))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
