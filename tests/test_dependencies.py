"""The library imports with numpy alone; scipy and mpmath serve only the tests."""

import os
import subprocess
import sys
from pathlib import Path

import eigengeo


def test_import_loads_neither_scipy_nor_mpmath():
    src = str(Path(eigengeo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, eigengeo; print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
