"""Entropy functionals and the entropic entanglement-detection machinery.

Both detection bounds live in the plane spanned by the XX-measurement entropy
(horizontal) and the ZZ-measurement entropy (vertical):

* the all-states bound is the curve traced by the one-parameter family
  psi_t, which minimizes the ZZ entropy at fixed XX entropy;
* the separable bound is the lower envelope of three curves of real pure
  product states: phi_theta (x) phi_theta, |0> (x) phi_theta and
  |+> (x) phi_theta, each found by one vectorized bisection.  For Tsallis
  and Renyi parameters >= 2 on both axes the symmetric curve alone is the
  envelope; the default pair q = qtilde = 2 reads its closed form
  -9/4 + 3 sqrt(1 - S) + S and bisects nothing.

Entanglement is detected from scrambled data whenever the measured entropy
pair falls strictly below the separable bound but, necessarily, on or above
the all-states bound.

The Renyi entropies and the large-q power sums go through a local
log-sum-exp, :func:`_logsumexp`, a step-for-step port of scipy 1.17's
``scipy.special.logsumexp`` for real input.  It gives scipy 1.17's bits
whatever scipy version is installed, and it is what keeps the package
numpy-only: scipy is a test dependency, for the L-BFGS oracle and the
bit-for-bit check of this port.  On a 2-core x86-64 machine, importing
``scipy.special`` costs about 0.3 s and 18 MB of peak memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import (ConvergenceFailure, DomainError, check_count, check_instance, check_numbers,
                     check_probabilities, check_real)
from .measurement import XX, ZZ, OutcomeDistribution, ScrambledData
from .optimize import bisect
# multistart_minimize is not called here; bench/spans.py traces entropy.multistart_minimize
from .optimize import multistart_minimize  # noqa: F401

SHANNON = "shannon"
TSALLIS = "tsallis"
RENYI = "renyi"

T_CAP = 1e8
# Tsallis-q entropies are at most about 1/(q - 1): above this cap the maximum
# falls below 1e-6, toward the 1e-12 at which the separable boundary reads an
# entropy as zero, and the power sums overflow
TSALLIS_CAP = 1e6
_LOGSPACE_Q = 50.0
DETECT_MARGIN = 1e-9


@dataclass(frozen=True)
class EntropySpec:
    """Which entropy to evaluate: Shannon, Tsallis-q, or Renyi-alpha.

    ``parameter`` is q (Tsallis) or alpha (Renyi) and is ignored for Shannon;
    parameter 1 is remapped to Shannon, the families' common limit.  Tsallis
    q is at most ``TSALLIS_CAP``; Renyi alpha may be any positive float or inf.
    """

    kind: str
    parameter: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise DomainError(f"entropy kind must be a string, got {self.kind!r}")
        kind = self.kind.lower()
        if kind not in (SHANNON, TSALLIS, RENYI):
            raise DomainError(f"unknown entropy kind {self.kind!r}")
        inf = isinstance(self.parameter, Real) and self.parameter == math.inf  # Renyi's min-entropy
        par = math.inf if inf else check_real("entropy parameter", self.parameter)
        if kind != SHANNON:
            if not par > 0:
                raise DomainError(f"entropy parameter must be positive, got {par}")
            if kind == TSALLIS and par > TSALLIS_CAP:
                raise DomainError(f"Tsallis entropy parameter must be at most "
                                  f"TSALLIS_CAP = {TSALLIS_CAP:g}, got {par}")
            if par == 1.0:
                kind = SHANNON
        if kind == SHANNON:
            par = 1.0
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parameter", par)

    @property
    def bound_capable(self) -> bool:
        """Inside the proven regime of the all-states bound (parameter >= 2)."""
        return self.kind in (TSALLIS, RENYI) and self.parameter >= 2.0


_TSALLIS2 = EntropySpec(TSALLIS, 2.0)  # the default of both entropy axes


def _logsumexp(a: np.ndarray, axis: int | None = None, b: np.ndarray | None = None):
    """log(sum(b * exp(a))) along ``axis``: scipy 1.17.1's real ``logsumexp``.

    The same operations in the same order, so every bit agrees with
    ``scipy.special.logsumexp(a, axis=axis, b=b)``: the entries equal to
    the maximum are summed apart (their weight m), the rest are shifted by
    the maximum, and the result is log1p(s / m) + log(m) + max; where that
    is not finite, the direct log(sum(b * exp(a))) replaces it.  A 0-d
    result is a numpy scalar.  scipy's handling of zero weights, negative
    weights and negative sums, and its guard of s / m at s = 0, are dropped:
    every weight here is 1, 2 or 3, so m >= 1 and s >= 0, and they cannot
    change a bit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = top.astype(a.dtype)
        m = np.sum(m if b is None else b * m, axis=axis, keepdims=True)
        s = np.exp(np.where(top, -np.inf, a) - a_max)
        s = np.sum(s if b is None else b * s, axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not np.all(finite):
            direct = np.exp(a) if b is None else b * np.exp(a)
            out = np.where(finite, out, np.log(np.sum(direct, axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _power_sum(p: np.ndarray, q: float) -> np.ndarray:
    """sum_j p_j^q along the last axis, evaluated in log space for large q."""
    if q > _LOGSPACE_Q:
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
        return np.exp(_logsumexp(q * logp, axis=-1))
    return np.sum(np.where(p > 0.0, p, 0.0) ** q, axis=-1)


def _entropy_nd(p: np.ndarray, spec: EntropySpec) -> np.ndarray:
    """Entropy of probability vectors along the last axis (vectorized).

    Entries are summed in sorted order, so the result is bit-exact under
    permutations of the input; a deterministic row gives +0.0, not -0.0.
    Rows are not checked: callers pass checked multisets or rows they built,
    and :func:`entropy` is the checked entry for any other row.
    """
    check_instance("an entropy function", spec, EntropySpec)
    p = np.sort(np.asarray(p, dtype=float), axis=-1)
    q = spec.parameter
    if spec.kind == SHANNON:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        out = -np.sum(terms, axis=-1)
    elif spec.kind == TSALLIS:
        out = (1.0 - _power_sum(p, q)) / (q - 1.0)
    elif math.isinf(q):
        out = -np.log2(np.max(p, axis=-1))
    else:
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
        out = _logsumexp(q * logp, axis=-1) / math.log(2.0) / (1.0 - q)
    return out + 0.0  # -0.0 + 0.0 is +0.0, and x + 0.0 is x for every other x


def entropy(p, spec: EntropySpec) -> float:
    """Entropy of an :class:`OutcomeDistribution`, or of a row that passes
    :func:`~qscramble.errors.check_probabilities`; invariant under permutations."""
    arr = p.p if isinstance(p, OutcomeDistribution) else check_probabilities("entropy's p", p, 1)
    return float(_entropy_nd(arr, spec))


def max_entropy(spec: EntropySpec) -> float:
    """Entropy of the uniform distribution over four outcomes."""
    return float(_entropy_nd(np.full(4, 0.25), spec))


@dataclass(frozen=True)
class EntropyPoint:
    s_xx: float
    s_zz: float

    def __post_init__(self):
        for name in ("s_xx", "s_zz"):
            object.__setattr__(self, name, check_real(f"entropy point {name}", getattr(self, name)))
        if self.s_xx < -1e-12 or self.s_zz < -1e-12:
            raise DomainError("entropies cannot be negative")


# ---------------------------------------------------------------------------
# The psi_t family and the all-states bound.
# ---------------------------------------------------------------------------


def psi_t_zz_probs(t) -> np.ndarray:
    """ZZ outcome probabilities of psi_t: (t^2, 1, 1, 1) / (3 + t^2)."""
    t = np.asarray(t, dtype=float)
    denom = 3.0 + t * t
    return np.stack([t * t / denom, 1.0 / denom, 1.0 / denom, 1.0 / denom], axis=-1)


def psi_t_xx_probs(t) -> np.ndarray:
    """XX outcome probabilities of psi_t: ((t+3)^2, (t-1)^2 x3) / (4(3+t^2))."""
    t = np.asarray(t, dtype=float)
    denom = 4.0 * (3.0 + t * t)
    big = (t + 3.0) ** 2 / denom
    small = (t - 1.0) ** 2 / denom
    return np.stack([big, small, small, small], axis=-1)


def psi_t_entropies(t: float, spec_x: EntropySpec, spec_z: EntropySpec) -> EntropyPoint:
    """Exact (S_xx, S_zz) entropies of psi_t for 1 <= t <= T_CAP."""
    if not 1.0 <= check_real("t", t) <= T_CAP:
        raise DomainError(f"psi_t family requires 1 <= t <= T_CAP = {T_CAP:g}, got {t}")
    s_xx = float(_entropy_nd(psi_t_xx_probs(t), spec_x))
    s_zz = float(_entropy_nd(psi_t_zz_probs(t), spec_z))
    return EntropyPoint(max(s_xx, 0.0), max(s_zz, 0.0))


def _require_bound_regime(spec: EntropySpec, role: str) -> None:
    if not check_instance("an entropy function", spec, EntropySpec).bound_capable:
        raise DomainError(
            f"{role} entropy must be Tsallis or Renyi with parameter >= 2 "
            f"for the bound operations, got {spec.kind}-{spec.parameter}")


def _sxx_in_range(s, smax: float) -> np.ndarray:
    """Floats ``s`` clipped to [0, smax]; :class:`DomainError` if one lies over 1e-12 outside."""
    s = check_numbers("S_xx", s)
    bad = ~((s >= -1e-12) & (s <= smax + 1e-12))  # NaN is bad too
    if np.any(bad):
        raise DomainError(f"S_xx = {float(s[bad][0])!r} outside the attainable range [0, {smax!r}]")
    return np.clip(s, 0.0, smax)


def t_from_sxx_vec(s: np.ndarray, spec_x: EntropySpec) -> np.ndarray:
    """Vectorized inverse of t -> S_xx(psi_t); capped at T_CAP near the asymptote.

    S_xx increases with t, so t is the midpoint of [1, T_CAP] after 80
    halvings, a bracket of 1e8 * 2^-80 (about 8e-17), below the spacing of
    the floats at t >= 1.  Targets at or below 1e-12 give t = 1, and
    targets at or above S_xx(psi_T_CAP) give T_CAP.
    """
    _require_bound_regime(spec_x, "horizontal")
    s = _sxx_in_range(s, max_entropy(spec_x))
    s_at_cap = float(_entropy_nd(psi_t_xx_probs(T_CAP), spec_x))
    out = np.where(s <= 1e-12, 1.0, np.nan)
    out = np.where(s >= s_at_cap, T_CAP, out)
    todo = np.isnan(out)
    if np.any(todo):
        target = s[todo]
        lo, hi = bisect(lambda t: _entropy_nd(psi_t_xx_probs(t), spec_x) <= target,
                        np.ones(target.size), T_CAP, 80)
        out[todo] = 0.5 * (lo + hi)
    return out


def t_from_sxx(s: float, spec_x: EntropySpec) -> float:
    """The unique t >= 1 with S_xx(psi_t) = s, by bisection on the monotone map."""
    return float(t_from_sxx_vec(np.asarray(check_real("S_xx", s)), spec_x))


def all_states_bound_vec(s_xx: np.ndarray, spec_x: EntropySpec,
                         spec_z: EntropySpec) -> np.ndarray:
    _require_bound_regime(spec_z, "vertical")  # t_from_sxx_vec checks spec_x
    t = t_from_sxx_vec(s_xx, spec_x)
    return _entropy_nd(psi_t_zz_probs(t), spec_z)


def all_states_bound(s_xx: float, spec_x: EntropySpec, spec_z: EntropySpec) -> float:
    """Minimal S_zz over all states at the given S_xx: the psi_t curve."""
    return float(all_states_bound_vec(np.asarray(check_real("S_xx", s_xx)), spec_x, spec_z))


def all_states_bound_closed_form(s_xx: float) -> float:
    """Closed form of the all-states bound for q = qtilde = 2."""
    s_xx = float(_sxx_in_range(check_real("S_xx", s_xx), 0.75))
    big_t = math.sqrt(9.0 - 12.0 * s_xx)
    big_q = 3.0 + big_t + math.sqrt(3.0) * math.sqrt((1.0 + big_t) * (3.0 - big_t))
    return (3.0 * big_q * big_t ** 2 - big_t ** 4) / (3.0 * big_q ** 2)


# ---------------------------------------------------------------------------
# Separable bound: minimize S_zz at fixed S_xx over separable states.  The
# minimum lies on one of three curves of pure real product states.
# ---------------------------------------------------------------------------

# qubit A's Bloch angle on each product curve A (x) phi_theta: theta itself
# (the symmetric curve), |0> and |+>
_CURVES = (None, 0.0, 0.5 * math.pi)


def _pair_probs(theta):
    """(p_z0, p_z1, p_x+, p_x-) of the real qubit states with Bloch angles theta."""
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    sx = 2.0 * s * c
    return c * c, s * s, 0.5 * (1.0 + sx), 0.5 * (1.0 - sx)


def _product_dist(a0, a1, b0, b1) -> np.ndarray:
    """Distribution (..., 4) of two-outcome measurements (a0, a1) on qubit A
    and (b0, b1) on qubit B of a product state."""
    return np.stack([a0 * b0, a0 * b1, a1 * b0, a1 * b1], axis=-1)


def _product_envelope(s: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec,
                      curves=_CURVES) -> np.ndarray:
    """Least S_zz at S_xx = s, elementwise, over the product states
    A (x) phi_theta of the ``curves`` (qubit A's angle, None for theta).

    S_xx decreases as theta runs over [0, pi/2] on every curve, so one
    vectorized bisection finds theta on all of them; an entry keeps its own
    path, so its value does not depend on its batch.  The symmetric curve
    spans the whole S_xx range, a fixed A only part of it: outside, its
    value is inf.
    """
    target = np.tile(s, len(curves))
    angle_a = np.repeat([math.nan if a is None else a for a in curves], s.size)
    own = np.isnan(angle_a)  # the rows whose qubit A is phi_theta
    fixed_a = _pair_probs(np.where(own, 0.0, angle_a))  # the other rows' qubit A

    def probs(theta):
        b = _pair_probs(theta)
        return tuple(np.where(own, pb, pa) for pb, pa in zip(b, fixed_a)), b

    def s_xx(theta):
        (_, _, xa0, xa1), (_, _, xb0, xb1) = probs(theta)
        return _entropy_nd(_product_dist(xa0, xa1, xb0, xb1), spec_x)

    lo, hi = bisect(lambda theta: s_xx(theta) > target, np.zeros_like(target),
                    0.5 * math.pi, 80)
    (za0, za1, _, _), (zb0, zb1, _, _) = probs(0.5 * (lo + hi))
    s_zz = _entropy_nd(_product_dist(za0, za1, zb0, zb1), spec_z)
    top, bottom = s_xx(np.zeros_like(target)), s_xx(np.full_like(target, 0.5 * math.pi))
    s_zz = np.where((target <= top) & (target >= bottom), s_zz, np.inf)
    return np.min(s_zz.reshape(len(curves), s.size), axis=0)


def _separable_22(s):
    """The q = qtilde = 2 separable boundary -9/4 + 3 sqrt(1 - S) + S at S_xx = s in [0, 3/4]."""
    return -2.25 + 3.0 * np.sqrt(1.0 - s) + s


def _separable_values(s: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec) -> np.ndarray:
    """Separable boundary at every S_xx in ``s`` (inside [0, max]).

    The endpoints are exact: an XX eigenstate forces uniform ZZ and vice
    versa.  An interior point is the lower envelope of three curves of pure
    real product states A (x) phi_theta: A = phi_theta (the symmetric
    curve), A = |0> and A = |+>.  No minimizer runs.  For q = qtilde = 2
    (the default pair) the envelope is :func:`separable_bound_closed_form`,
    evaluated with no bisection.  Otherwise, when both entropies are
    Tsallis or Renyi with parameter >= 2 the envelope equals the symmetric
    curve bit for bit, so only that curve is bisected.
    tests/test_entropy.py finds no mixture of two real product states, and
    no product state on a grid, below the envelope, inside the regime and
    outside it (Shannon, Tsallis 1.5, Renyi 0.5), and the bisected envelope
    within 1e-14 of the closed form.
    """
    smax = max_entropy(spec_x)
    out = np.where(s <= 1e-12, max_entropy(spec_z), 0.0)
    inner = (s > 1e-12) & (s < smax - 1e-12)
    if not np.any(inner):
        return out
    if spec_x == spec_z == _TSALLIS2:
        out[inner] = _separable_22(s[inner])
    else:
        in_regime = spec_x.bound_capable and spec_z.bound_capable
        out[inner] = _product_envelope(s[inner], spec_x, spec_z,
                                       (None,) if in_regime else _CURVES)
    return out


def separable_bound(s_xx: float, spec_x: EntropySpec, spec_z: EntropySpec) -> float:
    """Minimal S_zz over separable states at the given S_xx.

    This is the least S_zz, at this S_xx, of the product states
    phi_theta (x) phi_theta, |0> (x) phi_theta and |+> (x) phi_theta, each
    theta found by bisection.  For Tsallis or Renyi parameters >= 2 on both
    axes the symmetric state phi_theta (x) phi_theta alone attains it, and
    for q = qtilde = 2 the value is the closed form.
    """
    s = _sxx_in_range(check_real("S_xx", s_xx), max_entropy(spec_x))
    return float(_separable_values(s.reshape(1), spec_x, spec_z)[0])


def separable_bound_closed_form(s_xx: float) -> float:
    """The q = qtilde = 2 separable boundary: -9/4 + 3 sqrt(1 - S_xx) + S_xx."""
    return float(_separable_22(_sxx_in_range(check_real("S_xx", s_xx), 0.75)))


@dataclass(frozen=True)
class SeparableBoundary:
    """Grid-sampled separable boundary with linear interpolation.

    The chords underestimate the curve only where it is concave, as it is
    for two Tsallis entropies; with a Renyi entropy they can lie above it.
    So the grid is a screen, and :func:`_decide_pairs` decides each row it
    detects on the exact boundary.
    """

    spec_x: EntropySpec
    spec_z: EntropySpec
    grid: np.ndarray
    values: np.ndarray

    def value(self, s: float | np.ndarray) -> np.ndarray:
        s = np.clip(np.asarray(s, dtype=float), self.grid[0], self.grid[-1])
        return np.interp(s, self.grid, self.values)


# typed: n=9.0 must reach the count check, not hit n=9's entry
@lru_cache(maxsize=8, typed=True)
def get_separable_boundary(spec_x: EntropySpec, spec_z: EntropySpec,
                           n: int = 97) -> SeparableBoundary:
    """The separable boundary on ``n`` evenly spaced S_xx from 0 to the maximum.

    The default (Tsallis 2, Tsallis 2) grid is the closed form, about 0.5 ms
    for n = 97 on a 2-core x86-64 machine; any other pair bisects each
    interior point, 3.5-6 ms for (Tsallis 3, Tsallis 2).
    """
    n = check_count("the boundary resolution n", n, 2)
    grid = np.linspace(0.0, max_entropy(spec_x), n)
    return SeparableBoundary(spec_x, spec_z, grid, _separable_values(grid, spec_x, spec_z))


# ---------------------------------------------------------------------------
# Detection and robustness.
# ---------------------------------------------------------------------------


def _below(s: np.ndarray, t: np.ndarray, spec_s: EntropySpec, spec_t: EntropySpec):
    """(detected, bound): where t lies more than ``DETECT_MARGIN`` below the
    separable boundary at s, and that boundary.  The grid's values are only a
    screen: where the curve is convex, as it can be with a Renyi entropy, the
    chords lie above it.  So each row they pass is decided again on the exact
    boundary at its own s, and ``bound`` holds that exact value there and the
    grid's value elsewhere."""
    bound = get_separable_boundary(spec_s, spec_t).value(s)
    hit = np.flatnonzero(t < bound - DETECT_MARGIN)
    if hit.size:
        bound[hit] = _separable_values(s[hit], spec_s, spec_t)
    return t < bound - DETECT_MARGIN, bound


def _decide_pairs(mx: np.ndarray, mz: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec):
    """(s_xx, s_zz, bound, detected) for sorted multisets ``mx``, ``mz`` (n, 4):
    the entropy pairs, the forward separable boundary at s_xx as
    :func:`_below` returns it, and the verdicts.

    A row is detected when its pair lies more than ``DETECT_MARGIN`` below
    the separable boundary in either orientation (the XX/ZZ roles can be
    swapped by a local Hadamard, which preserves separability), each
    decided by :func:`_below`.  ``bound`` is the forward orientation's even
    for a row detected only in the swapped one, where s_zz does not lie
    below it.
    """
    _require_bound_regime(spec_x, "horizontal")
    _require_bound_regime(spec_z, "vertical")
    s_x, s_z = _entropy_nd(mx, spec_x), _entropy_nd(mz, spec_z)
    detected, bound = _below(s_x, s_z, spec_x, spec_z)
    rest = np.flatnonzero(~detected)
    if rest.size:
        detected[rest] = _below(s_z[rest], s_x[rest], spec_z, spec_x)[0]
    return s_x, s_z, bound, detected


def entropy_detect(d: ScrambledData, spec_x: EntropySpec, spec_z: EntropySpec) -> bool:
    """True when the entropy pair certifies entanglement of the scrambled data."""
    check_instance("entropy_detect", d, ScrambledData)
    return bool(_decide_pairs(d.multiset(XX)[None], d.multiset(ZZ)[None], spec_x, spec_z)[3][0])


_ROBUST_T = 3.0
_ROBUST_S = 1.0 + math.sqrt(2.0)


def robustness(q: float) -> float:
    """Maximal white-noise weight at which psi_3 remains entropy-detectable.

    Solves the power-sum equation matching the noisy psi_3 outcome terms to
    those of the symmetric product state with amplitude ratio 1 + sqrt(2);
    ``q = inf`` returns the closed form (10 - sqrt(2) - sqrt(12) - sqrt(24))/11.
    """
    if isinstance(q, Real) and q == math.inf:
        return (10.0 - math.sqrt(2.0) - math.sqrt(12.0) - math.sqrt(24.0)) / 11.0
    if not check_real("q", q) >= 2.0:
        raise DomainError(f"robustness requires q >= 2 or q = inf, got {q}")
    t = _ROBUST_T
    s = _ROBUST_S
    amp_big = t / math.sqrt(3.0 + t * t)
    amp_small = 1.0 / math.sqrt(3.0 + t * t)
    rhs_bases = np.array([s * s / (1.0 + s * s), s / (1.0 + s * s), 1.0 / (1.0 + s * s)])
    rhs_weights = np.array([1.0, 2.0, 1.0])
    rhs = _logsumexp(2.0 * q * np.log(rhs_bases), b=rhs_weights)

    def excess(lam):
        b1 = (1.0 - lam) * amp_big + 0.25 * lam
        b2 = (1.0 - lam) * amp_small + 0.25 * lam
        lhs = _logsumexp(2.0 * q * np.log(np.array([b1, b2])), b=np.array([1.0, 3.0]))
        return lhs - rhs

    if excess(0.0) <= 0.0:
        raise ConvergenceFailure("robustness equation has no root in [0, 1]")
    # 40 halvings leave a bracket of 2^-40, about 9.1e-13
    lo, hi = bisect(lambda lam: excess(lam) > 0.0, 0.0, 1.0, 40)
    return float(0.5 * (lo + hi))
