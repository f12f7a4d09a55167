"""Exception types shared across the package."""


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
