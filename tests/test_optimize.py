import importlib
import math

import numpy as np
import pytest

from qscramble.entropy import (RENYI, SHANNON, TSALLIS, EntropySpec, get_separable_boundary,
                               max_entropy, separable_bound, separable_bound_closed_form,
                               t_from_sxx_vec)
from qscramble.errors import ConvergenceFailure
from qscramble.optimize import bisect, multistart_minimize, nelder_mead


def _rosenbrock(x):
    """Elementwise Rosenbrock objective with its minimum at (shift, shift^2);
    the group's shift is the trailing column of ``x``."""
    return (x[..., 2] - x[..., 0]) ** 2 + 100.0 * (x[..., 1] - x[..., 0] ** 2) ** 2


def _scalar_nelder_mead(f, x0, *, step, xtol, ftol, max_iter):
    """One simplex at a time: the reference the batched search must reproduce."""
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        xi = x0.copy()
        xi[i] += step
        simplex.append(xi)
    vals = [f(x) for x in simplex]
    for _ in range(max_iter):
        order = sorted(range(n + 1), key=lambda i: vals[i])
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(np.max(np.abs(s - simplex[0])) for s in simplex[1:])
        if diam < xtol or vals[-1] - vals[0] < ftol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], vals[-1] = xe, fe
            else:
                simplex[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    vals[i] = f(simplex[i])
    best = int(np.argmin(vals))
    return simplex[best], vals[best]


def test_default_boundary_runs_no_bisection(monkeypatch):
    # the (T2, T2) grid is the closed form, so a cold detect bisects nothing
    def refuse(*args, **kwargs):
        raise AssertionError("the default separable boundary ran a bisection")
    monkeypatch.setattr(importlib.import_module("qscramble.entropy"), "bisect", refuse)
    t2 = EntropySpec(TSALLIS, 2.0)
    bound = get_separable_boundary.__wrapped__(t2, t2)
    assert bound.values[0] == 0.75 and bound.values[-1] == 0.0
    assert separable_bound(0.3, t2, t2) == separable_bound_closed_form(0.3)


@pytest.mark.parametrize("max_iter", [40, 400])
def test_batched_search_reproduces_scalar_reference(max_iter):
    # 40 iterations stop most simplices mid-flight, 400 let them converge
    def f(x):
        return (0.3 - x[..., 0]) ** 2 + 5.0 * (x[..., 1] - x[..., 0] ** 2) ** 2 + x[..., 2] ** 4
    starts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(3, 8, 3))
    kwargs = dict(step=0.25, xtol=1e-10, ftol=1e-14, max_iter=max_iter)
    xs, values, _ = nelder_mead(f, starts, **kwargs)
    for g in range(3):
        for k in range(8):
            x, v = _scalar_nelder_mead(f, starts[g, k], **kwargs)
            assert np.array_equal(xs[g, k], x)
            assert values[g, k] == v


def test_convex_quadratic_over_groups():
    centers = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [-3.0, 0.25, 2.0]])

    def f(x):
        # three coordinates, then the group's center
        return np.sum((x[..., :3] - x[..., 3:]) ** 2, axis=-1)
    starts = np.random.default_rng(0).uniform(-4.0, 4.0, size=(3, 5, 3))
    res = multistart_minimize(f, starts, consts=centers, xtol=1e-12, ftol=1e-20,
                              max_iter=2000)
    assert res.x.shape == (3, 3) and res.value.shape == (3,)
    assert res.start_values.shape == (3, 5)
    assert np.array_equal(res.capped, [0, 0, 0])
    assert np.allclose(res.x, centers, atol=1e-9)
    assert np.all(res.value < 1e-16)
    # a single start needs no batch axes
    x, v, capped = nelder_mead(lambda p: np.sum((p - 1.0) ** 2, axis=-1), np.zeros(2),
                               xtol=1e-12, ftol=1e-20, max_iter=2000)
    assert x.shape == (2,) and np.ndim(v) == 0 and not capped
    assert np.allclose(x, 1.0, atol=1e-9)


def test_separate_basins_raise_convergence_failure():
    # tilted double well: the left minimum near -1 is lower than the right one
    def f(x):
        y = x[..., 0]
        return (y * y - 1.0) ** 2 + 0.1 * y
    together = np.array([[-1.2], [-0.9], [-1.1]])
    split = np.array([[-1.2], [0.9], [1.1]])
    res = multistart_minimize(f, together[None], agree=3)
    assert res.x[0, 0] < 0.0
    with pytest.raises(ConvergenceFailure, match=r"group 1\): only 1 of 3"):
        multistart_minimize(f, np.stack([together, split]), agree=3)
    # two agreeing starts are enough when only two are demanded
    res = multistart_minimize(f, np.array([[[-1.2], [-0.9], [1.1]]]), agree=2)
    assert res.x[0, 0] < 0.0


def test_group_alone_equals_group_in_batch():
    shifts = np.array([0.5, 1.0, -0.7, 2.0])
    starts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 6, 2))
    batch = multistart_minimize(_rosenbrock, starts, consts=shifts[:, None], agree=1,
                                max_iter=300)
    for g in range(4):
        alone = multistart_minimize(_rosenbrock, starts[g:g + 1], consts=shifts[g:g + 1, None],
                                    agree=1, max_iter=300)
        assert np.array_equal(alone.x[0], batch.x[g])
        assert alone.value[0] == batch.value[g]
        assert np.array_equal(alone.start_values[0], batch.start_values[g])


def test_separable_point_alone_equals_grid_point(boundary_22, tsallis2):
    for k in (1, 30, 60, 95):
        s = float(boundary_22.grid[k])
        assert separable_bound(s, tsallis2, tsallis2) == boundary_22.values[k]


def test_searched_point_alone_equals_grid_point():
    # outside the bound regime the boundary is the three-curve envelope
    for spec in (EntropySpec(SHANNON), EntropySpec(TSALLIS, 1.5)):
        bound = get_separable_boundary.__wrapped__(spec, spec, n=9)
        for s, v in zip(bound.grid, bound.values):
            assert separable_bound(float(s), spec, spec) == v


def test_bound_regime_boundary_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a separable boundary ran a search")
    # the package's `entropy` attribute is the function, so fetch the module
    monkeypatch.setattr(importlib.import_module("qscramble.entropy"), "multistart_minimize",
                        refuse)
    renyi_inf, t3 = EntropySpec(RENYI, math.inf), EntropySpec(TSALLIS, 3.0)
    t15, shannon = EntropySpec(TSALLIS, 1.5), EntropySpec(SHANNON)
    # the uncached builder, so the grid is computed here
    get_separable_boundary.__wrapped__(t3, EntropySpec(TSALLIS, 2.0))
    get_separable_boundary.__wrapped__(renyi_inf, EntropySpec(RENYI, 2.0), n=9)
    get_separable_boundary.__wrapped__(shannon, shannon, n=64)
    get_separable_boundary.__wrapped__(t15, t15, n=9)
    separable_bound(0.3, EntropySpec(TSALLIS, 2.0), t3)
    separable_bound(0.3, t15, t3)
    separable_bound(1.3, shannon, t15)


def test_default_boundary_runs_no_bisection(monkeypatch):
    # the (T2, T2) grid is the closed form, so a cold detect bisects nothing
    def refuse(*args, **kwargs):
        raise AssertionError("the default separable boundary ran a bisection")
    monkeypatch.setattr(importlib.import_module("qscramble.entropy"), "bisect", refuse)
    t2 = EntropySpec(TSALLIS, 2.0)
    bound = get_separable_boundary.__wrapped__(t2, t2)
    assert bound.values[0] == 0.75 and bound.values[-1] == 0.0
    assert separable_bound(0.3, t2, t2) == separable_bound_closed_form(0.3)


@pytest.mark.parametrize("max_iter", [40, 400])
def test_only_moving_simplices_are_evaluated(max_iter):
    # f receives exactly the points the scalar reference evaluates, its d + 1
    # first vertices included: none of a stopped simplex, no second point
    # after an accepted reflection, and shrink points only where a simplex shrinks
    shifts = np.array([0.5, 1.0, -0.7])
    starts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 6, 2))
    kwargs = dict(step=0.25, xtol=1e-10, ftol=1e-14, max_iter=max_iter)
    shapes = []

    def counted(x):
        shapes.append(x.shape)
        return _rosenbrock(x)
    res = multistart_minimize(counted, starts, consts=shifts[:, None], agree=1, **kwargs)
    expected = 0
    for g in range(3):
        for k in range(6):
            calls = []

            def scalar(x):
                # one (1, 1, 3) point: numpy scalars may square differently from arrays
                calls.append(x)
                return _rosenbrock(np.append(x, shifts[g])[None, None])[0, 0]
            _, v = _scalar_nelder_mead(scalar, starts[g, k], **kwargs)
            assert res.start_values[g, k] == v
            expected += len(calls)
    assert sum(m * k for m, k, _ in shapes) == expected
    assert any(k == 2 for _, k, _ in shapes)  # some simplex shrank


def test_capped_counts_the_starts_still_moving():
    shifts = np.array([0.5, 1.0, -0.7, 2.0])
    starts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 6, 2))
    # 40 iterations stop no Rosenbrock simplex; 2 000 let every one converge
    for max_iter, capped in ((40, 6), (2000, 0)):
        res = multistart_minimize(_rosenbrock, starts, consts=shifts[:, None], agree=1,
                                  max_iter=max_iter)
        assert np.array_equal(res.capped, [capped] * 4)


def test_bisect_entry_alone_equals_entry_in_batch():
    # the cube root of each target, bracketed in [0, 4]
    targets = np.array([0.1, 2.0, 0.5, 7.3, 0.0])
    calls = []

    def go_right(x):
        calls.append(x.size)
        return x ** 3 < targets

    lo, hi = bisect(go_right, np.zeros(targets.size), 4.0, 40)
    assert len(calls) == 40  # no bracket reaches adjacent floats
    assert np.all(hi - lo == 4.0 * 2.0 ** -40)
    assert np.all((lo <= np.cbrt(targets)) & (np.cbrt(targets) <= hi))
    for i, c in enumerate(targets):
        lo_i, hi_i = bisect(lambda x: x ** 3 < c, 0.0, 4.0, 40)
        assert (lo_i, hi_i) == (lo[i], hi[i])


def _fixed_step_bisect(go_right, lo, hi, steps):
    """Every one of the ``steps`` halvings, with no early exit."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        right = go_right(mid)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return lo, hi


def test_bisect_fixed_point_exit_matches_every_step(monkeypatch):
    # the T3/T2 boundary's 95 brackets and the psi_t inverse of S_xx return
    # the bits of all 80 halvings; the boundary's stop moving after 56
    runs = []

    def spy(go_right, lo, hi, steps):
        calls = []

        def counted(mid):
            calls.append(mid.size)
            return go_right(mid)
        got = bisect(counted, lo, hi, steps)
        runs.append((got, _fixed_step_bisect(go_right, lo, hi, steps), len(calls), steps))
        return got

    monkeypatch.setattr(importlib.import_module("qscramble.entropy"), "bisect", spy)
    t2 = EntropySpec(TSALLIS, 2.0)
    get_separable_boundary.__wrapped__(EntropySpec(TSALLIS, 3.0), t2)
    t_from_sxx_vec(np.linspace(0.0, max_entropy(t2), 97), t2)
    assert len(runs) == 2
    for (lo, hi), (ref_lo, ref_hi), calls, steps in runs:
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert steps == 80
    assert runs[0][2] == 57  # the 57th halving is the first to move no bracket end
    # [1, 1e8] needs about 78 halvings to reach the float spacing at t = 1
    assert runs[1][2] == 80
