"""The abstract counter interface.

A monotonic counter, per §2 of the paper, is anything with a nonnegative
integer ``value`` (initially 0), an atomic ``increment(amount)``, and a
blocking ``check(level)`` that suspends until ``value >= level``.  This
module pins that contract down as a :class:`typing.Protocol` plus an ABC so
that the real-thread implementations (:mod:`repro.core.counter`), the
simulator implementation (:mod:`repro.simthread`), and the instrumented
implementation (:mod:`repro.determinism`) are interchangeable in patterns
and applications.
"""

from __future__ import annotations

import abc
from typing import Protocol, runtime_checkable

__all__ = ["CounterProtocol", "AbstractCounter"]


@runtime_checkable
class CounterProtocol(Protocol):
    """Structural type for counter-like objects.

    Anything offering ``value``, ``increment`` and ``check`` with these
    signatures can drive the pattern library in :mod:`repro.patterns`.
    """

    @property
    def value(self) -> int: ...

    def increment(self, amount: int = 1) -> int: ...

    def check(self, level: int, timeout: float | None = None) -> None: ...


class AbstractCounter(abc.ABC):
    """ABC with the shared contract documentation for concrete counters.

    Concrete subclasses must make ``increment`` atomic and ``check``
    race-free: a ``check(level)`` that starts after the counter has ever
    reached ``level`` must return without suspending, and one that suspends
    must be woken by the increment that first makes ``value >= level``.
    Monotonicity (no decrement anywhere) is what makes this achievable
    without a race window.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def value(self) -> int:
        """Current counter value.  Diagnostic only — never branch on it."""

    @abc.abstractmethod
    def increment(self, amount: int = 1) -> int:
        """Atomically add ``amount`` (>= 0) and return the new value.

        Wakes every thread suspended on a level that the new value reaches.
        """

    @abc.abstractmethod
    def check(self, level: int, timeout: float | None = None) -> None:
        """Block until ``value >= level``.

        ``timeout`` (seconds) is a practical extension over the paper's
        interface; expiry raises :class:`repro.core.errors.CheckTimeout`
        and leaves the counter unperturbed.
        """

    def __enter__(self) -> "AbstractCounter":  # convenience for `with` reuse
        return self

    def __exit__(self, *exc: object) -> None:
        return None
