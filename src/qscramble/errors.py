"""Exception types shared across the package, and the integer-argument check."""

from numbers import Integral


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


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; :class:`DomainError` naming ``name`` unless it is an
    integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return int(value)
