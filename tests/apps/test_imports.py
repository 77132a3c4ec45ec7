"""What a quota process imports: the limiter and the fabric, not the apps.

``repro.apps`` imports no submodule of its own, so a process that runs
only the rate limiter (or a ``CounterService``) never loads numpy, the
simulator or the §4–5 apps.  Each check runs in a fresh interpreter:
this one has long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_quota_path_loads_no_numpy_and_no_apps():
    loaded = set(_fresh(
        "import repro.apps.ratelimit, repro.dist, sys\n"
        "print('\\n'.join(sorted(sys.modules)))\n").split())
    assert "repro.apps.ratelimit" in loaded and "repro.dist" in loaded
    unwanted = {"numpy", "repro.simthread", "repro.patterns",
                "repro.apps.sim_models", "repro.apps.floyd_warshall"}
    assert not unwanted & loaded


def test_apps_import_on_use():
    out = _fresh(
        "from repro.apps import heat\n"
        "import repro.apps.floyd_warshall as fw\n"
        "print(heat.__name__, fw.__name__)\n")
    assert out.split() == ["repro.apps.heat", "repro.apps.floyd_warshall"]


def test_star_import_still_brings_every_app():
    out = _fresh(
        "from repro.apps import *\n"
        "import repro.apps\n"
        "print(all(name in globals() for name in repro.apps.__all__))\n")
    assert out.strip() == "True"
