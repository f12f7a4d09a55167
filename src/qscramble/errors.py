"""Exception types shared across the package, and its input rules: integers,
numeric arrays, probability rows, real numbers and argument types are each
checked by one helper here, which raises :class:`DomainError` on bad input."""

import math
from numbers import Integral, Real

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


def check_real(name: str, value) -> float:
    """``value`` as one finite float; :class:`DomainError` naming ``name`` for strings,
    None, bools, arrays, NaN and +-inf (callers that accept inf test for it first)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, not arrays, strings or None: {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} is non-finite: {value!r}")
    return value


def check_instance(name: str, value, kind):
    """``value`` itself; :class:`DomainError` naming ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise DomainError(f"{name} expects a {kinds}, got {type(value)!r}")
    return value


# a probability may lie this far outside [0, 1], and a row's sum this far from 1
_PROB_ATOL = 1e-9


def check_probabilities(name: str, value, ndim: int) -> np.ndarray:
    """Probability rows, shape (4,) for ``ndim`` 1 or (n, 4) for 2, as a new read-only
    float array clipped to [0, 1]; :class:`DomainError` naming ``name`` unless every
    entry is finite and in [-1e-9, 1 + 1e-9] and each clipped row sums to 1 within
    1e-9.  Entries in [0, 1], -0.0 included, keep their bits.  Valid rows cost one
    clip, one sum and three reductions."""
    p = check_numbers(name, value)
    if p.ndim != ndim or p.shape[-1] != 4:
        raise DomainError(f"{name} must have shape {('(4,)', '(n, 4)')[ndim - 1]}, got {p.shape}")
    q = p.clip(0.0, 1.0)
    off = np.abs(q.sum(axis=-1) - 1.0)
    # NaN fails each test; initial= lets an empty (0, 4) stack pass
    lo, hi, worst = p.min(initial=0.0), p.max(initial=0.0), off.max(initial=0.0)
    if lo >= -_PROB_ATOL and hi <= 1.0 + _PROB_ATOL and worst <= _PROB_ATOL:
        q.setflags(write=False)
        return q
    rows = p.reshape(-1, 4)
    in_range = (rows >= -_PROB_ATOL) & (rows <= 1.0 + _PROB_ATOL)
    i = int(np.argmin(in_range.all(axis=1) & (off.reshape(-1) <= _PROB_ATOL)))  # first bad row
    row, at = rows[i], name if ndim == 1 else f"{name} row {i}"
    if not np.isfinite(row).all():
        raise DomainError(f"{at} has non-finite entries: {row}")
    if not in_range[i].all():
        raise DomainError(f"{at} has entries outside [-1e-9, 1+1e-9]: {row}")
    raise DomainError(f"{at} sums to {float(q.reshape(-1, 4)[i].sum())!r} once clipped to "
                      "[0, 1], violating |sum-1| <= 1e-9")
