"""Operand validation shared by every counter implementation.

The paper types ``Increment`` amounts and ``Check`` levels as C++
``unsigned int``.  Python has no unsigned type, so we validate explicitly:
operands must be integers (``bool`` excluded) and nonnegative.
"""

from __future__ import annotations

from repro.core.errors import CounterValueError

__all__ = ["validate_amount", "validate_level", "validate_timeout", "validate_max_value"]


def _as_nonnegative_int(value: object, what: str) -> int:
    # bool is an int subclass; accepting it silently invites bugs like
    # increment(ok) where ok was meant to be a count.
    if isinstance(value, bool) or not isinstance(value, int):
        raise CounterValueError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise CounterValueError(f"{what} must be >= 0, got {value}")
    return value


def validate_amount(amount: object) -> int:
    """Validate an ``increment`` amount; returns it typed as ``int``."""
    return _as_nonnegative_int(amount, "increment amount")


def validate_level(level: object) -> int:
    """Validate a ``check`` level; returns it typed as ``int``."""
    return _as_nonnegative_int(level, "check level")


def validate_timeout(timeout: object) -> float | None:
    """Validate an optional timeout in seconds."""
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise CounterValueError(f"timeout must be a number or None, got {type(timeout).__name__}")
    if timeout < 0:
        raise CounterValueError(f"timeout must be >= 0, got {timeout}")
    return float(timeout)


def validate_max_value(max_value: object) -> int | None:
    """Validate a counter's optional ``max_value`` bound (constructor-time)."""
    if max_value is not None and (not isinstance(max_value, int) or max_value < 0):
        raise ValueError(f"max_value must be a nonnegative int or None, got {max_value!r}")
    return max_value
