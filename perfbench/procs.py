"""Child processes: spawn from the checkout, watch for crashes, always reap.

A child that dies while the run measures raises :class:`ChildDied` in
the main thread (from the SIGCHLD handler), so a crash becomes failed
operations instead of a parked generator that never wakes.  The run's
wall timeout is a SIGALRM that raises :class:`WallTimeout` the same way.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


class ChildDied(Exception):
    pass


class WallTimeout(Exception):
    pass


def child_env() -> dict:
    """The environment children run in: the checkout's ``src``, its temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


class Child:
    """One helper process speaking line-based commands on stdin/stdout."""

    #: The child the SIGCHLD handler watches.  A signal handler has no
    #: caller to hand it state, and a run has at most one child at a time.
    _live: "Child | None" = None

    def __init__(self, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "peer.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            text=True, bufsize=1,
        )
        self.stopping = False
        Child._live = self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def readline(self, timeout: float = 30.0) -> str:
        """The child's next stdout line; raises ChildDied on EOF or timeout."""
        deadline = time.monotonic() + timeout
        stream = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildDied(f"child {self.pid} sent nothing for {timeout}s")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                line = stream.readline()
                if not line:
                    raise ChildDied(f"child {self.pid} closed its stdout")
                return line.rstrip("\n")

    def stop(self, timeout: float = 10.0) -> int:
        """Close stdin (the child's cue to exit), then reap; kill if stuck."""
        self.stopping = True
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        if Child._live is self:
            Child._live = None
        return code


def _on_sigchld(signum, frame) -> None:
    child = Child._live
    if child is not None and not child.stopping and child.proc.poll() is not None:
        child.stopping = True  # raise once
        raise ChildDied(f"child {child.pid} exited with {child.proc.returncode}")


def _on_alarm(signum, frame) -> None:
    raise WallTimeout("run exceeded its wall timeout")


def arm(wall_s: float) -> None:
    signal.signal(signal.SIGCHLD, _on_sigchld)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, wall_s)


def disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
