"""Batched numerics: a derivative-free minimizer and an elementwise bisection.

``nelder_mead`` advances a flat batch of simplices with the textbook rules
and stable ordering, on an active set: each iteration sorts, tests and steps
only the simplices still moving, and a simplex that meets its own stop test
is written back once and never evaluated again.  The objective maps points
(m, k, d) to values (m, k) and must be elementwise, so a simplex follows the
same path alone as inside any batch.  Constants of a start (an objective's
parameters) travel with its points as trailing columns, points
(m, k, d + c), because a call holds only the active points.
Each call after the first holds one point per active simplex, or per
simplex that needs it: the reflection, then the expansion after a new best
or the contraction after a rejected reflection, then the d shrink points of
every simplex that shrinks, in one call.  ``multistart_minimize`` raises
ConvergenceFailure unless several starts of each group reproduce its best
value, since a scattered field of minima signals an unreliable landscape.
Neither has a caller in the package's numerics: ``multistart_minimize`` is
kept while the benchmark traces it, and ``nelder_mead`` serves only it and
one entropy test.

``bisect`` halves a batch of brackets at most a fixed number of times.  It
serves every 1-D search of the package: the psi_t and product-state
inverses of S_xx, the robustness root, the s* search of the feasibility
test (``feasibility._lmi``) and the ray searches of the possibly-separable
set, each with its own step count.  It stops early at
the first step that moves no bracket end: every later step would repeat
the same midpoints and decisions, so the result is the full count's, bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure


def nelder_mead(f: Callable[[np.ndarray], np.ndarray], x0, *, consts=None,
                step: float = 0.25, xtol: float = 1e-10, ftol: float = 1e-14,
                max_iter: int = 600):
    """Minimize ``f`` from every start in ``x0`` of shape (..., d).

    ``f`` receives points (m, k, d), or (m, k, d + c) with each start's row
    of ``consts`` (broadcastable to (..., c)) appended.  Returns (x_best
    (..., d), f_best (...), capped (...)); ``capped`` marks the simplices
    still moving after ``max_iter`` iterations.  A simplex stops when its
    diameter drops below ``xtol`` or its value spread below ``ftol``.
    """
    x0 = np.asarray(x0, dtype=float)
    batch, d = x0.shape[:-1], x0.shape[-1]
    n = math.prod(batch)
    consts = np.zeros(batch + (0,)) if consts is None else np.asarray(consts, dtype=float)
    consts = np.broadcast_to(consts, batch + consts.shape[-1:]).reshape(n, -1)

    def evaluate(points, rows):
        tail = np.broadcast_to(consts[rows, None, :], points.shape[:2] + consts.shape[-1:])
        return f(np.concatenate([points, tail], axis=-1))

    simplex = np.repeat(x0.reshape(n, 1, d), d + 1, axis=1)
    simplex[:, np.arange(1, d + 1), np.arange(d)] += step
    vals = evaluate(simplex, slice(None))
    # the active set: original rows, and their simplices and values
    rows, s, v = np.arange(n), simplex, vals
    for _ in range(max_iter):
        order = np.argsort(v, axis=1, kind="stable")
        at = np.arange(rows.size)[:, None]
        s, v = s[at, order], v[at, order]
        diam = np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2))
        move = ~((diam < xtol) | (v[:, -1] - v[:, 0] < ftol))
        if not np.all(move):
            simplex[rows[~move]], vals[rows[~move]] = s[~move], v[~move]
            rows, s, v = rows[move], s[move], v[move]
            if rows.size == 0:
                break
        worst = s[:, -1]
        centroid = np.mean(s[:, :-1], axis=1)
        xr = centroid + (centroid - worst)
        fr = evaluate(xr[:, None], rows)[:, 0]
        reflect = fr < v[:, -2]
        # fr < v[0] <= v[-2]: `reflect` also holds where the rules expand
        expand = fr < v[:, 0]
        # the second candidate: the expansion after a new best, the contraction
        # after a rejected reflection, and none for an accepted one
        j = np.flatnonzero(expand | ~reflect)
        cj, wj, ej = centroid[j], worst[j], expand[j]
        s[reflect, -1], v[reflect, -1] = xr[reflect], fr[reflect]
        if j.size:
            x2 = np.where(ej[:, None], cj + 2.0 * (cj - wj), cj + 0.5 * (wj - cj))
            f2 = evaluate(x2[:, None], rows[j])[:, 0]
            # taken if below the last vertex, which after a new best is the reflection
            take2 = f2 < v[j, -1]
            s[j[take2], -1], v[j[take2], -1] = x2[take2], f2[take2]
            shrink = j[~(ej | take2)]
            if shrink.size:
                b = s[shrink, :1]
                s[shrink, 1:] = b + 0.5 * (s[shrink, 1:] - b)
                v[shrink, 1:] = evaluate(s[shrink, 1:], rows[shrink])
    simplex[rows], vals[rows] = s, v
    capped = np.zeros(n, dtype=bool)
    capped[rows] = True
    best = np.argmin(vals, axis=1)
    return (simplex[np.arange(n), best].reshape(batch + (d,)),
            vals[np.arange(n), best].reshape(batch), capped.reshape(batch))


def bisect(go_right: Callable[[np.ndarray], np.ndarray], lo, hi, steps: int):
    """Halve every bracket [lo, hi] ``steps`` times, elementwise.

    ``go_right(mid)`` receives the midpoints 0.5 (lo + hi) and returns where
    the sought point lies above them: there the bracket becomes [mid, hi],
    elsewhere [lo, mid].  ``go_right`` must be elementwise, so an entry
    follows the same path alone as inside any batch, and deterministic: the
    loop ends after the first step that leaves every lo and hi unchanged
    (each midpoint has rounded onto a bracket end), since the remaining
    steps would repeat it exactly.  Returns (lo, hi).
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        right = go_right(mid)
        new_lo, new_hi = np.where(right, mid, lo), np.where(right, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


@dataclass(frozen=True)
class MultistartResult:
    """Best point (G, d) and value (G,) of each group, every start's value
    (G, S), and each group's number of starts still moving at the iteration
    cap (G,)."""

    x: np.ndarray
    value: np.ndarray
    start_values: np.ndarray
    capped: np.ndarray


def multistart_minimize(f: Callable[[np.ndarray], np.ndarray], starts, *, consts=None,
                        agree: int = 3, agree_tol: float = 1e-6, label: str = "objective",
                        **nm_kwargs) -> MultistartResult:
    """Run Nelder-Mead from every start of shape (G, S, d); keep each group's best.

    ``consts`` of shape (G, c) are the groups' constants: ``f`` then receives
    points (m, k, d + c) whose trailing c columns are the constants of the
    group each point belongs to, and without them points (m, k, d).  Ties go
    to the lowest start index.  Raises ConvergenceFailure for the first group
    in which fewer than ``min(agree, S)`` starts land within ``agree_tol`` of
    the group's best value.
    """
    starts = np.asarray(starts, dtype=float)
    if consts is not None:
        consts = np.asarray(consts, dtype=float)[:, None, :]
    xs, values, capped = nelder_mead(f, starts, consts=consts, **nm_kwargs)
    best_x = xs[np.arange(len(xs)), np.argmin(values, axis=1)]
    best_v = np.min(values, axis=1)
    close = np.sum(values - best_v[:, None] <= agree_tol, axis=1)
    failed = np.flatnonzero(close < min(agree, starts.shape[1]))
    if failed.size:
        g = int(failed[0])
        raise ConvergenceFailure(
            f"{label} (group {g}): only {close[g]} of {starts.shape[1]} starts reach "
            f"the minimum {best_v[g]:.6g} within {agree_tol:g}")
    return MultistartResult(best_x, best_v, values, np.sum(capped, axis=1))
