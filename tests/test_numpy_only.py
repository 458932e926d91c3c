"""The package runs on numpy and the standard library alone.

Each command runs in a fresh interpreter whose ``sys.modules["scipy"]`` is
None, so that any import of scipy or of a scipy submodule raises
ImportError.  scipy stays a test dependency: the reference values in the
other test modules come from it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slqcert

SRC = str(Path(slqcert.__file__).resolve().parent.parent)

BLOCKED_MAIN = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "import slqcert.cli\n"
    "sys.exit(slqcert.cli.main(sys.argv[1:]))\n"
)


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_scipy_module():
    proc = _python("import sys, slqcert.cli\n"
                   "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    # the Matern log-determinant run of the CI's console-script step
    "trace --testbed matern --n1 16 --n2 12 --sample-fraction 0.2 --kind log "
    "--n-samples 4 --delta 2.0 --tau 1e-4 --format table",
    "trace --n1 10 --n2 12 --kind exp_neg --delta 0.5 --n-samples 4",
    # no --delta: the calibration pilot runs first
    "trace --n1 10 --n2 12 --kind log --n-samples 6 --pilot-n 4",
    "trace --n1 10 --n2 12 --kind sqrt --delta 0.5 --n-samples 4",
    "trace --n1 10 --n2 12 --kind tanh_sqrt --delta 0.5 --n-samples 4",
    "bilinear-curve --n1 12 --n2 10 --kind log --delta 1 --seed 3",
    "rational-check --kind sqrt --n1 10 --n2 10",
    "rational-check --kind tanh_sqrt --n1 10 --n2 10",
    "calibrate-delta --n1 8 --n2 8 --kind log",
], ids=["trace-matern-log", "trace-exp_neg", "trace-log-calibrated", "trace-sqrt",
        "trace-tanh_sqrt", "bilinear-curve", "rational-check-sqrt",
        "rational-check-tanh_sqrt", "calibrate-delta"])
def test_every_command_runs_with_scipy_blocked(args):
    proc = _python(BLOCKED_MAIN, *args.split())
    assert proc.returncode in (0, 2), proc.stderr
    assert proc.stdout
