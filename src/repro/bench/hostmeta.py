"""Host metadata stamped into every benchmark result document.

A benchmark number is only interpretable next to the host that produced
it: the interpreter and its build (``gil_enabled`` decides whether
threads can run Python code in parallel at all), the platform, and the
CPU count.  History comparisons (``append_history`` / ``compare``) are
only meaningful between runs whose host blocks agree — the CI gate runs
baseline and candidate on the same runner for exactly this reason.
"""

from __future__ import annotations

import os
import platform
import sys

__all__ = ["host_metadata"]


def _gil_enabled() -> bool:
    # Python 3.13+ free-threaded builds expose sys._is_gil_enabled();
    # its absence means a GIL build.
    return bool(getattr(sys, "_is_gil_enabled", lambda: True)())


def host_metadata() -> dict:
    """Interpreter and host facts for a result doc."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gil_enabled": _gil_enabled(),
    }
