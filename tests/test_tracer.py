"""The benchmark tracer wraps drycss functions by module attribute name
(bench/spans.py); a renamed or removed name must fail here, not first
in `bench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_instrument_finds_every_wrapped_name():
    code = "import spans; spans.instrument(spans.Tracer())"
    path = os.pathsep.join(str(ROOT / d) for d in ("bench", "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
