"""Batched derivative-free minimizer used by the boundary and witness searches.

``nelder_mead`` advances a stack of simplices with the textbook rules and
stable ordering.  The objective maps points (..., k, d) to values (..., k)
and must be elementwise, so a simplex follows the same path alone as inside
any batch.  Each call after the first holds one point per simplex: the
reflection, then the expansion after a new best or else the contraction, and
the shrink points vertex by vertex when some simplex shrinks.  A simplex that
meets its own stop test stops moving.  ``multistart_minimize`` raises
ConvergenceFailure unless several starts of each group reproduce its best
value, since a scattered field of minima signals an unreliable landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure


def nelder_mead(f: Callable[[np.ndarray], np.ndarray], x0, *, step: float = 0.25,
                xtol: float = 1e-10, ftol: float = 1e-14, max_iter: int = 600):
    """Minimize ``f`` from every start in ``x0`` of shape (..., d).

    Returns (x_best (..., d), f_best (...)).  A simplex stops when its
    diameter drops below ``xtol`` or its value spread below ``ftol``.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[-1]
    simplex = np.repeat(x0[..., None, :], d + 1, axis=-2)
    simplex[..., np.arange(1, d + 1), np.arange(d)] += step
    vals = f(simplex)

    for _ in range(max_iter):
        order = np.argsort(vals, axis=-1, kind="stable")
        simplex = np.take_along_axis(simplex, order[..., None], axis=-2)
        vals = np.take_along_axis(vals, order, axis=-1)
        best, worst = simplex[..., :1, :], simplex[..., -1, :]
        diam = np.max(np.abs(simplex[..., 1:, :] - best), axis=(-2, -1))
        move = ~((diam < xtol) | (vals[..., -1] - vals[..., 0] < ftol))
        if not np.any(move):
            break
        centroid = np.mean(simplex[..., :-1, :], axis=-2)
        xr = centroid + (centroid - worst)
        fr = f(xr[..., None, :])[..., 0]
        # fr < vals[0] <= vals[-2]: `reflect` also holds where the rules expand
        reflect = fr < vals[..., -2]
        expand = fr < vals[..., 0]
        # the second candidate: the expansion after a new best, else the contraction
        x2 = np.where(expand[..., None], centroid + 2.0 * (centroid - worst),
                      centroid + 0.5 * (worst - centroid))
        f2 = f(x2[..., None, :])[..., 0]
        take2 = (expand & (f2 < fr)) | (~reflect & (f2 < vals[..., -1]))
        replace = move & (reflect | take2)
        shrink = move & ~replace
        simplex[..., -1, :] = np.where(replace[..., None],
                                       np.where(take2[..., None], x2, xr), worst)
        vals[..., -1] = np.where(replace, np.where(take2, f2, fr), vals[..., -1])
        if np.any(shrink):
            shrunk = best + 0.5 * (simplex[..., 1:, :] - best)
            simplex[..., 1:, :] = np.where(shrink[..., None, None], shrunk, simplex[..., 1:, :])
            # one call per vertex keeps the peak memory at one point per simplex
            fs = np.concatenate([f(shrunk[..., i:i + 1, :]) for i in range(d)], axis=-1)
            vals[..., 1:] = np.where(shrink[..., None], fs, vals[..., 1:])
    best = np.argmin(vals, axis=-1)
    return (np.take_along_axis(simplex, best[..., None, None], axis=-2)[..., 0, :],
            np.min(vals, axis=-1))


@dataclass(frozen=True)
class MultistartResult:
    """Best point (G, d) and value (G,) of each group, and every start's value (G, S)."""

    x: np.ndarray
    value: np.ndarray
    start_values: np.ndarray


def multistart_minimize(f: Callable[[np.ndarray], np.ndarray], starts, *,
                        agree: int = 3, agree_tol: float = 1e-6, label: str = "objective",
                        **nm_kwargs) -> MultistartResult:
    """Run Nelder-Mead from every start of shape (G, S, d); keep each group's best.

    Ties go to the lowest start index.  Raises ConvergenceFailure for the
    first group in which fewer than ``min(agree, S)`` starts land within
    ``agree_tol`` of the group's best value.
    """
    starts = np.asarray(starts, dtype=float)
    xs, values = nelder_mead(f, starts, **nm_kwargs)
    best_x = xs[np.arange(len(xs)), np.argmin(values, axis=1)]
    best_v = np.min(values, axis=1)
    close = np.sum(values - best_v[:, None] <= agree_tol, axis=1)
    failed = np.flatnonzero(close < min(agree, starts.shape[1]))
    if failed.size:
        g = int(failed[0])
        raise ConvergenceFailure(
            f"{label} (group {g}): only {close[g]} of {starts.shape[1]} starts reach "
            f"the minimum {best_v[g]:.6g} within {agree_tol:g}")
    return MultistartResult(best_x, best_v, values)
