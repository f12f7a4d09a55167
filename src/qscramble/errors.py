"""Exception types shared across the package, and the integer- and array-argument checks."""

from numbers import Integral

import numpy as np


class QScrambleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QScrambleError, ValueError):
    """An argument lies outside the mathematically valid domain."""


class NotHermitian(QScrambleError, ValueError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class InvalidState(QScrambleError, ValueError):
    """A density matrix violates one of its invariants."""


class DuplicateSetting(QScrambleError, ValueError):
    """Two outcome distributions were supplied for the same setting."""


class SettingMismatch(QScrambleError, ValueError):
    """Two scrambled-data objects do not cover the same settings."""


class MissingSetting(QScrambleError, KeyError):
    """An operation needs a measurement setting that is not present."""


class ConvergenceFailure(QScrambleError, RuntimeError):
    """An iterative solve did not converge: the beta != 0 tangency scaling,
    the robustness root, or a multi-start search that did not reproduce its
    minimum."""


def check_integer(name: str, value) -> int:
    """``value`` as an int; :class:`DomainError` naming ``name`` unless it is an
    integer (a numpy integer is, a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; :class:`DomainError` naming ``name`` unless it is an
    integer (a bool is not) of at least ``minimum``."""
    value = check_integer(name, value)
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return value


def check_numbers(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as a numpy array of ``dtype``; :class:`DomainError` naming
    ``name`` where numpy cannot make one of it (non-numeric or ragged input)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a rectangular array of numbers ({exc})") from None
