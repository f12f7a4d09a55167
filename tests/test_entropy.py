import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qscramble.quantum as qm
from qscramble.entropy import (RENYI, SHANNON, TSALLIS, EntropySpec, T_CAP,
                               all_states_bound, all_states_bound_closed_form,
                               all_states_bound_vec, entropy, entropy_detect,
                               get_separable_boundary, max_entropy,
                               psi_t_entropies, psi_t_xx_probs, psi_t_zz_probs, robustness,
                               separable_bound, separable_bound_closed_form,
                               t_from_sxx)
from qscramble.entropy import (_CURVES, _entropy_nd, _logsumexp, _pair_probs,
                               _product_envelope, _separable_values)
from qscramble.errors import DomainError
from qscramble.measurement import (XX, ZZ, probabilities, probabilities_stack, scramble,
                                   scramble_state)
from qscramble.optimize import nelder_mead

# the package's entropy() function shadows the module's name as an attribute
entropy_module = importlib.import_module("qscramble.entropy")

T2 = EntropySpec(TSALLIS, 2.0)
# every Tsallis and Renyi entropy with parameter in {2, 2.5, 3, 5, 20}
BOUND_SPECS = [EntropySpec(kind, q) for kind in (TSALLIS, RENYI)
               for q in (2.0, 2.5, 3.0, 5.0, 20.0)]
T15 = EntropySpec(TSALLIS, 1.5)
SH = EntropySpec(SHANNON)

# Tsallis and Renyi pairs with parameters >= 2, where the symmetric curve is the boundary
IN_REGIME = [(T2, T2), (EntropySpec(TSALLIS, 3.0), T2),
             (EntropySpec(RENYI, math.inf), EntropySpec(RENYI, 2.0)),
             (EntropySpec(TSALLIS, 5.0), EntropySpec(TSALLIS, 5.0)),
             (EntropySpec(TSALLIS, 10.0), T2)]


def test_entropy_spec_normalization():
    assert EntropySpec(TSALLIS, 1.0).kind == SHANNON
    assert EntropySpec(RENYI, 1.0).kind == SHANNON
    with pytest.raises(DomainError):
        EntropySpec(TSALLIS, 0.0)
    with pytest.raises(DomainError):
        EntropySpec(TSALLIS, math.inf)
    with pytest.raises(DomainError):
        EntropySpec("boltzmann", 2.0)
    for kind in (2.0, None, (TSALLIS,)):
        with pytest.raises(DomainError, match="string"):
            EntropySpec(kind)
    assert EntropySpec(RENYI, math.inf).parameter == math.inf


def test_entropy_values():
    assert entropy([0.25] * 4, EntropySpec(SHANNON)) == 2.0
    assert entropy([1.0, 0, 0, 0], T2) == 0.0
    assert abs(entropy([0.75, 1 / 12, 1 / 12, 1 / 12], T2) - 5 / 12) < 1e-15
    # min-entropy: Renyi with infinite order
    assert abs(entropy([0.5, 0.25, 0.25, 0], EntropySpec(RENYI, math.inf)) - 1.0) < 1e-15


def test_entropy_permutation_invariance_exact():
    rng = np.random.default_rng(7)
    specs = [EntropySpec(SHANNON), T2, EntropySpec(TSALLIS, 3.7),
             EntropySpec(RENYI, 2.0), EntropySpec(RENYI, math.inf)]
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        for spec in specs:
            base = entropy(p, spec)
            for perm in itertools.permutations(range(4)):
                assert entropy(p[list(perm)], spec) == base


def test_deterministic_rows_have_positive_zero_entropy():
    specs = [SH, T2, EntropySpec(TSALLIS, 0.5), EntropySpec(TSALLIS, 60.0),
             EntropySpec(RENYI, 0.5), EntropySpec(RENYI, 3.0), EntropySpec(RENYI, 60.0),
             EntropySpec(RENYI, math.inf)]
    rows = np.eye(4)
    for spec in specs:
        for row in rows:
            s = entropy(row, spec)
            assert s == 0.0 and not np.signbit(s), (spec, row)
        stack = _entropy_nd(rows, spec)
        assert np.all(stack == 0.0) and not np.any(np.signbit(stack)), spec
    r3 = EntropySpec(RENYI, 3.0)
    pt = psi_t_entropies(1.0, r3, r3)
    assert pt.s_xx == 0.0 and not np.signbit(pt.s_xx)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4),
       st.floats(1.1, 40.0))
def test_renyi_tsallis_relation(raw, q):
    p = np.array(raw)
    p /= p.sum()
    power_sum = float(np.sum(np.sort(p) ** q))
    s_tsallis = entropy(p, EntropySpec(TSALLIS, q))
    s_renyi = entropy(p, EntropySpec(RENYI, q))
    assert abs(power_sum - (1.0 - (q - 1.0) * s_tsallis)) < 1e-12
    assert abs(s_renyi - math.log2(power_sum) / (1.0 - q)) < 1e-12


def test_psi_t_entropies_examples():
    pt = psi_t_entropies(1.0, T2, T2)
    assert pt.s_xx == 0.0 and abs(pt.s_zz - 0.75) < 1e-15
    pt = psi_t_entropies(3.0, T2, T2)
    assert abs(pt.s_xx - 5 / 12) < 1e-12 and abs(pt.s_zz - 5 / 12) < 1e-12
    pt = psi_t_entropies(1e7, T2, T2)
    assert abs(pt.s_xx - 0.75) < 1e-5 and pt.s_zz < 1e-12
    with pytest.raises(DomainError):
        psi_t_entropies(0.5, T2, T2)


def test_psi_t_probs_match_measurement():
    for t in (1.0, 2.0, 3.0, 7.5):
        rho = qm.psi_t(t).density()
        assert np.max(np.abs(psi_t_xx_probs(t) - probabilities(rho, XX).p)) < 1e-12
        assert np.max(np.abs(psi_t_zz_probs(t) - probabilities(rho, ZZ).p)) < 1e-12


def test_t_from_sxx():
    assert t_from_sxx(0.0, T2) == 1.0
    t = t_from_sxx(5 / 12, T2)
    assert abs(float(_entropy_nd(psi_t_xx_probs(t), T2)) - 5 / 12) <= 1e-12
    assert abs(t - 3.0) < 1e-6
    assert t_from_sxx(0.75, T2) == T_CAP
    with pytest.raises(DomainError):
        t_from_sxx(0.76, T2)
    with pytest.raises(DomainError):
        t_from_sxx(0.1, EntropySpec(TSALLIS, 1.5))
    with pytest.raises(DomainError):
        t_from_sxx(0.1, EntropySpec(SHANNON))
    # NaN fails the range check rather than passing it
    for call in (lambda: t_from_sxx(math.nan, T2), lambda: all_states_bound(math.nan, T2, T2),
                 lambda: entropy_module.t_from_sxx_vec(np.array([0.1, math.nan]), T2),
                 lambda: all_states_bound_vec(np.array([math.nan, 0.1]), T2, T2),
                 lambda: entropy([math.nan, 0.5, 0.5, 0.0], T2)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("spec_x", [T2, EntropySpec(TSALLIS, 3.0)])
def test_all_states_bound_vec_matches_scalar(spec_x):
    # every bisection entry takes the same 80 halvings on its own bracket, so
    # a point's value does not depend on the batch it is solved in
    grid = np.linspace(0.0, max_entropy(spec_x), 100)
    vec = all_states_bound_vec(grid, spec_x, T2)
    assert all(vec[i] == all_states_bound(float(s), spec_x, T2) for i, s in enumerate(grid))


def test_all_states_bound_examples():
    assert abs(all_states_bound(5 / 12, T2, T2) - 5 / 12) < 1e-9
    assert abs(all_states_bound(0.0, T2, T2) - 0.75) < 1e-12
    assert all_states_bound(0.75, T2, T2) < 1e-9
    # closed-form spot values
    assert abs(all_states_bound_closed_form(5 / 12) - 5 / 12) < 1e-15
    assert abs(all_states_bound_closed_form(0.0) - 0.75) < 1e-15
    assert all_states_bound_closed_form(0.75) == 0.0


def test_all_states_bound_22_is_the_closed_form():
    grid = np.linspace(0.0, 0.75, 64)
    closed = np.array([all_states_bound_closed_form(float(s)) for s in grid])
    assert np.max(np.abs(all_states_bound_vec(grid, T2, T2) - closed)) <= 1e-14


def test_saturation_on_psi_t_grid():
    for t in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0):
        pt = psi_t_entropies(t, T2, T2)
        assert pt.s_zz - all_states_bound(pt.s_xx, T2, T2) <= 1e-9


def test_eur_validity_sample(random_states_2k):
    pxx = np.clip(probabilities_stack(random_states_2k, XX), 0, 1)
    pzz = np.clip(probabilities_stack(random_states_2k, ZZ), 0, 1)
    for qx, qz in ((2.0, 2.0), (3.0, 2.0)):
        sx = _entropy_nd(pxx, EntropySpec(TSALLIS, qx))
        sz = _entropy_nd(pzz, EntropySpec(TSALLIS, qz))
        bound = all_states_bound_vec(sx, EntropySpec(TSALLIS, qx), EntropySpec(TSALLIS, qz))
        assert float(np.min(sz - bound)) >= -1e-9


def test_separable_bound_formula_points():
    assert abs(separable_bound_closed_form(0.0) - 0.75) < 1e-15
    expected = -2.25 + 3.0 * math.sqrt(7 / 12) + 5 / 12
    assert abs(separable_bound_closed_form(5 / 12) - expected) < 1e-15
    assert abs(separable_bound_closed_form(0.75)) < 1e-15
    points = np.array([0.0, 0.3, 5 / 12, 0.6, 0.75])
    closed = np.array([separable_bound_closed_form(float(s)) for s in points])
    for curves in ((None,), _CURVES):  # the bisected envelope, not the closed-form grid
        assert np.max(np.abs(_product_envelope(points, T2, T2, curves) - closed)) < 1e-4
    assert [separable_bound(float(s), T2, T2) for s in points] == closed.tolist()


def test_boundary_22_is_the_closed_form(boundary_22):
    # the (T2, T2) grid reads the closed form; the bisected envelope, symmetric
    # curve alone and all three curves, must agree with it on that grid
    closed = np.array([separable_bound_closed_form(float(s)) for s in boundary_22.grid])
    assert boundary_22.grid.size == 97
    assert np.max(np.abs(boundary_22.values - closed)) <= 1e-14
    for curves in ((None,), _CURVES):
        envelope = _product_envelope(boundary_22.grid, T2, T2, curves)
        assert np.max(np.abs(envelope - closed)) <= 1e-14


def _mixture_dists(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """XX and ZZ distributions (..., 4) of (1-p)|ab><ab| + p|cd><cd| with real
    factors, for parameters (p, theta_a, theta_b, theta_c, theta_d) along the
    last axis of ``x``."""
    p = np.clip(x[..., 0], 0.0, 1.0)
    za0, za1, xa0, xa1 = _pair_probs(x[..., 1])
    zb0, zb1, xb0, xb1 = _pair_probs(x[..., 2])
    zc0, zc1, xc0, xc1 = _pair_probs(x[..., 3])
    zd0, zd1, xd0, xd1 = _pair_probs(x[..., 4])
    w = 1.0 - p
    dxx = [w * xa0 * xb0 + p * xc0 * xd0, w * xa0 * xb1 + p * xc0 * xd1,
           w * xa1 * xb0 + p * xc1 * xd0, w * xa1 * xb1 + p * xc1 * xd1]
    dzz = [w * za0 * zb0 + p * zc0 * zd0, w * za0 * zb1 + p * zc0 * zd1,
           w * za1 * zb0 + p * zc1 * zd0, w * za1 * zb1 + p * zc1 * zd1]
    return np.stack(dxx, axis=-1), np.stack(dzz, axis=-1)


@pytest.mark.parametrize("spec_x, spec_z", [
    (EntropySpec(TSALLIS, 3.0), T2),
    (EntropySpec(RENYI, math.inf), EntropySpec(RENYI, 2.0)),
    (EntropySpec(TSALLIS, 5.0), EntropySpec(TSALLIS, 5.0)),
    (SH, SH),
    (T15, T15),
    (EntropySpec(RENYI, 0.5), EntropySpec(RENYI, 0.5)),
    (T15, T2),
])
def test_no_mixture_below_the_separable_boundary(spec_x, spec_z):
    # the gap S_zz(mixture) - boundary(S_xx(mixture)) over mixtures of two real
    # product states needs no constraint: 10^4 random mixtures, then Nelder-Mead
    # from the 32 lowest, and a 121 x 121 grid of pure product states
    smax = max_entropy(spec_x)

    def gap(x):
        dxx, dzz = _mixture_dists(x)
        s_xx = np.clip(_entropy_nd(dxx, spec_x), 0.0, smax)
        return _entropy_nd(dzz, spec_z) - _separable_values(s_xx, spec_x, spec_z)

    x = np.random.default_rng(2718).uniform(0.0, 1.0, (10_000, 5)) \
        * np.array([1.0, math.pi, math.pi, math.pi, math.pi])
    sampled = gap(x)
    _, refined, _ = nelder_mead(gap, x[np.argsort(sampled)[:32]], step=0.1, xtol=1e-10,
                                ftol=1e-15, max_iter=300)
    assert min(float(np.min(sampled)), float(np.min(refined))) >= -1e-12
    # p = 0 leaves the product state of angles (theta_a, theta_b) alone
    theta = np.linspace(0.0, math.pi, 121)
    ta, tb = np.meshgrid(theta, theta)
    products = np.stack([np.zeros(ta.size), ta.ravel(), tb.ravel(),
                         ta.ravel(), tb.ravel()], axis=-1)
    assert float(np.min(gap(products))) >= -1e-12


def test_shannon_pair_detects_no_pure_state():
    # the paper's no-go: no state, entangled or not, lies below the exact
    # Shannon envelope (no chords); the same states do go below the Tsallis-2
    # one, so the test can fail
    t = np.geomspace(1.0, 1e4, 4000)
    g = np.random.default_rng(577215).normal(size=(2, 20_000, 4))
    v = g[0] + 1j * g[1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rho = v[:, :, None] * v[:, None, :].conj()  # 2 x 10^4 Haar-random pure states
    dists = [(psi_t_xx_probs(t), psi_t_zz_probs(t)),
             (np.clip(probabilities_stack(rho, XX), 0.0, 1.0),
              np.clip(probabilities_stack(rho, ZZ), 0.0, 1.0))]

    def least_gaps(spec):
        return [float(np.min(_entropy_nd(dzz, spec) - _separable_values(
            np.clip(_entropy_nd(dxx, spec), 0.0, max_entropy(spec)), spec, spec)))
            for dxx, dzz in dists]

    assert min(least_gaps(SH)) >= -1e-12
    assert max(least_gaps(T2)) < -0.02


@pytest.mark.parametrize("spec_x, spec_z", IN_REGIME)
def test_envelope_is_the_symmetric_curve_in_the_bound_regime(spec_x, spec_z):
    # the condition under which the bound regime evaluates the symmetric curve alone
    s = np.linspace(0.0, max_entropy(spec_x), 97)[1:-1]
    assert np.array_equal(_product_envelope(s, spec_x, spec_z),
                          _product_envelope(s, spec_x, spec_z, (None,)))


def test_boundary_resolution_must_be_at_least_two():
    get_separable_boundary(T2, T2, n=9)  # n=9.0 must not be served from this entry
    for n in (1, 0, -3, 9.0, True):
        with pytest.raises(DomainError, match="resolution"):
            get_separable_boundary(T2, T2, n=n)
    assert get_separable_boundary(SH, SH, n=2).values.tolist() == [2.0, 0.0]


def test_bound_ordering(boundary_22):
    grid = boundary_22.grid
    alls = all_states_bound_vec(grid, T2, T2)
    assert np.all(boundary_22.values - alls >= -1e-9)
    interior = (grid > 0.02) & (grid < 0.73)
    assert np.all((boundary_22.values - alls)[interior] > 1e-4)


def test_entropy_detect_verdicts(boundary_22):
    assert entropy_detect(scramble_state(qm.psi_t(3.0).density()), T2, T2)
    plusplus = qm.product_state(qm.ProductStateParams(math.pi / 2, math.pi / 2))
    assert not entropy_detect(scramble_state(plusplus.density()), T2, T2)
    noisy = qm.mix(qm.psi_t(3.0).density(), qm.maximally_mixed(), 0.1)
    assert not entropy_detect(scramble_state(noisy), T2, T2)
    with pytest.raises(DomainError):
        entropy_detect(scramble_state(noisy), EntropySpec(SHANNON), EntropySpec(SHANNON))


def test_separable_states_not_detected(boundary_22, random_states_2k):
    from qscramble.quantum import min_eigval_stack, partial_transpose_stack
    ppt = min_eigval_stack(partial_transpose_stack(random_states_2k)) >= -1e-9
    sep = random_states_2k[ppt]
    sx = _entropy_nd(np.clip(probabilities_stack(sep, XX), 0, 1), T2)
    sz = _entropy_nd(np.clip(probabilities_stack(sep, ZZ), 0, 1), T2)
    assert not np.any(sz < boundary_22.value(sx) - 1e-9)
    assert not np.any(sx < boundary_22.value(sz) - 1e-9)


def test_robustness():
    lam_inf = (10.0 - math.sqrt(2.0) - math.sqrt(12.0) - math.sqrt(24.0)) / 11.0
    assert robustness(math.inf) == lam_inf
    lam2 = robustness(2.0)
    assert 0.0 < lam2 < lam_inf
    values = [robustness(q) for q in (2, 3, 5, 10, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert abs(robustness(1000.0) - lam_inf) < 1e-3
    with pytest.raises(DomainError):
        robustness(1.5)


def test_robustness_solves_displayed_equation():
    # plug the root back into the power-sum equation
    q = 3.0
    lam = robustness(q)
    t, s = 3.0, 1.0 + math.sqrt(2.0)
    lhs = ((1 - lam) * t / math.sqrt(3 + t * t) + lam / 4) ** (2 * q) \
        + 3 * ((1 - lam) / math.sqrt(3 + t * t) + lam / 4) ** (2 * q)
    rhs = (s * s / (1 + s * s)) ** (2 * q) + 2 * (s / (1 + s * s)) ** (2 * q) \
        + (1 / (1 + s * s)) ** (2 * q)
    assert abs(lhs - rhs) < 1e-12


def test_max_entropy():
    assert abs(max_entropy(T2) - 0.75) < 1e-15
    assert max_entropy(EntropySpec(SHANNON)) == 2.0


# ---------------------------------------------------------------------------
# The local log-sum-exp reproduces scipy 1.17's bits.
# ---------------------------------------------------------------------------


def _assert_same_as_scipy(a, **kwargs):
    from scipy.special import logsumexp
    ours, theirs = _logsumexp(a, **kwargs), logsumexp(a, **kwargs)
    assert type(ours) is type(theirs)
    assert np.array_equal(ours, theirs, equal_nan=True)


def _log_rows():
    """Log-probability rows: random, tied maxima (the uniform row among
    them) and zero entries (-inf), plus the all-zero and NaN rows that take
    the direct fallback."""
    rng = np.random.default_rng(1729)
    p = rng.dirichlet(np.ones(4), 200)
    p[:20, :2] = 0.0
    p[:20] /= p[:20].sum(axis=-1, keepdims=True)
    tied = np.array([[0.25] * 4, [0.4, 0.4, 0.1, 0.1], [0.3, 0.3, 0.3, 0.1],
                     [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5]])
    # two or three entries tied at a random maximum, the rest below it
    top = rng.uniform(0.26, 1.0 / 3.0, 100)
    k = np.where(np.arange(100) < 50, 2, 3)
    rest = np.minimum((1.0 - k * top)[:, None] * rng.dirichlet(np.ones(2), 100), top[:, None] / 2)
    ties = np.column_stack([top, top, np.where(k == 3, top, rest[:, 0]), rest[:, 1]])
    p = np.concatenate([p, tied, ties, p[:8, ::-1]])
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    return np.concatenate([logp, np.full((1, 4), -np.inf), [[np.nan, -1.0, -2.0, -3.0]]])


@pytest.mark.parametrize("q", [0.5, 3.0, 60.0])
@pytest.mark.parametrize("axis", [-1, None])
def test_logsumexp_matches_scipy_bit_for_bit(q, axis):
    a = q * _log_rows()
    _assert_same_as_scipy(a, axis=axis)
    for row in a:
        _assert_same_as_scipy(row, axis=axis)


def test_logsumexp_weighted_calls_of_robustness_match_scipy():
    s = 1.0 + math.sqrt(2.0)
    rhs_bases = np.array([s * s / (1.0 + s * s), s / (1.0 + s * s), 1.0 / (1.0 + s * s)])
    amp_big, amp_small = 3.0 / math.sqrt(12.0), 1.0 / math.sqrt(12.0)
    for q in (2.0, 3.0, 5.0, 50.0, 1000.0):
        _assert_same_as_scipy(2.0 * q * np.log(rhs_bases), b=np.array([1.0, 2.0, 1.0]))
        for lam in np.linspace(0.0, 1.0, 17):
            bases = np.array([(1.0 - lam) * amp_big + 0.25 * lam,
                              (1.0 - lam) * amp_small + 0.25 * lam])
            _assert_same_as_scipy(2.0 * q * np.log(bases), b=np.array([1.0, 3.0]))


@pytest.mark.parametrize("spec_x, spec_z", [
    (EntropySpec(RENYI, math.inf), EntropySpec(RENYI, 2.0)),
    (EntropySpec(RENYI, 3.0), EntropySpec(RENYI, 2.0)),
    (EntropySpec(RENYI, 0.5), EntropySpec(RENYI, 0.5)),
    (EntropySpec(TSALLIS, 60.0), EntropySpec(TSALLIS, 60.0)),
], ids=["Rinf-R2", "R3-R2", "R0.5-R0.5", "T60-T60"])
def test_boundaries_are_those_of_scipy_logsumexp(spec_x, spec_z, monkeypatch):
    from scipy.special import logsumexp
    ours = get_separable_boundary.__wrapped__(spec_x, spec_z).values
    monkeypatch.setattr(entropy_module, "_logsumexp", logsumexp)
    assert np.array_equal(ours, get_separable_boundary.__wrapped__(spec_x, spec_z).values)


def test_robustness_is_pinned():
    # the values computed through scipy.special.logsumexp
    assert robustness(2.0) == 0.013107913731346343
    assert robustness(3.0) == 0.018931554437131126
    assert robustness(5.0) == 0.020212660196648358


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(BOUND_SPECS), st.sampled_from(BOUND_SPECS), st.floats(0.0, math.pi / 2))
def test_no_symmetric_product_state_is_entropy_detected(spec_x, spec_z, theta):
    # phi_theta (x) phi_theta traces the symmetric product curve, the boundary
    # of every such pair; a grid chord above a convex stretch of it (any pair
    # with a Renyi entropy) must not detect the product state itself
    phi = np.array([math.cos(0.5 * theta), math.sin(0.5 * theta)])
    psi = np.kron(phi, phi)
    assert not entropy_detect(scramble_state(qm.DensityMatrix(np.outer(psi, psi))), spec_x, spec_z)
