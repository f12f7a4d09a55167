"""Entropy functionals and the entropic entanglement-detection machinery.

Both detection bounds live in the plane spanned by the XX-measurement entropy
(horizontal) and the ZZ-measurement entropy (vertical):

* the all-states bound is the curve traced by the one-parameter family
  psi_t, which minimizes the ZZ entropy at fixed XX entropy;
* the separable bound is the lower envelope of three curves of real pure
  product states: phi_theta (x) phi_theta, |0> (x) phi_theta and
  |+> (x) phi_theta, each found by one vectorized bisection.  For Tsallis
  and Renyi parameters >= 2 on both axes the symmetric curve alone is the
  envelope, and one Newton iteration on a qubit's q-norm finds its point
  at each S_xx (see :func:`_symmetric_w`); the default pair
  q = qtilde = 2 reads its closed form -9/4 + 3 sqrt(1 - S) + S.

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
# falls below 1e-6 and the power sums overflow
TSALLIS_CAP = 1e6
# A finite Renyi order is at most this: above about 9e307, q log p and the
# division by 1 - q overflow, and the maximum entropy reads inf.  The order
# inf is Renyi's min-entropy, computed apart.
RENYI_CAP = 1e300
_LOGSPACE_Q = 50.0
DETECT_MARGIN = 1e-9
# The separable boundary reads its value at S_xx = 0 up to this S_xx, which
# is within 4.1 sqrt(S_xx) <= 5e-15 of it for every spec pair in the regime.
_S_FLOOR = 1e-30
# It reads 0, its value at the maximum, over this top fraction of the S_xx
# axis: a row at the maximum computes a few ulps below it, and where S_zz is
# a Renyi or Tsallis entropy of parameter below 1 the boundary rises like a
# root of the distance to the maximum (3.8e-8 one ulp below it for Renyi 0.5)
_TOP_MARGIN = 1e-12
# and, for Tsallis S_xx, where q times the power sum 1 - (q - 1) S_xx falls
# below this: the sum carries an absolute rounding error of about 1e-16,
# which there moves the boundary by up to about 1e-8 (Renyi-inf S_zz), 3e-10
# (Renyi 2) or 5e-11 (Tsallis 2)
_POWER_SUM_FLOOR = 1e-6


@dataclass(frozen=True)
class EntropySpec:
    """Which entropy to evaluate: Shannon, Tsallis-q, or Renyi-alpha.

    ``parameter`` is q (Tsallis) or alpha (Renyi) and is ignored for Shannon;
    parameter 1 is remapped to Shannon, the families' common limit.  Tsallis
    q is at most ``TSALLIS_CAP``; Renyi alpha is at most ``RENYI_CAP`` or is inf.
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
            if kind == RENYI and RENYI_CAP < par < math.inf:
                raise DomainError(f"a finite Renyi entropy order must be at most "
                                  f"RENYI_CAP = {RENYI_CAP:g}, got {par}")
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
    """Entropy of the uniform distribution over four outcomes.

    ``spec`` is checked before the per-spec cache is read, so a list or a
    non-spec raises :class:`DomainError`."""
    return _max_entropy(check_instance("an entropy function", spec, EntropySpec))


@lru_cache(maxsize=16)
def _max_entropy(spec: EntropySpec) -> float:
    return float(_entropy_nd(np.full(4, 0.25), spec))


def _resolved_top(spec: EntropySpec) -> float:
    """The least S_xx at which the separable boundary reads 0: 1e-12 below the
    maximum relative to it, or for Tsallis q > 1 the S_xx where
    q (1 - (q - 1) S_xx) reaches ``_POWER_SUM_FLOOR`` if that comes first
    (q above about 13), the top 1e-6/q or so of the axis."""
    smax, q = max_entropy(spec), spec.parameter
    top = smax * (1.0 - _TOP_MARGIN)
    if spec.kind == TSALLIS and q > 1.0:
        top = min(top, (1.0 - _POWER_SUM_FLOOR / q) / (q - 1.0))
    return top


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


def _symmetric_w(s: np.ndarray, spec: EntropySpec) -> np.ndarray:
    """w = 1 - u on the symmetric curve at S_xx = s in (0, max), for Tsallis or Renyi q >= 2.

    Each qubit's X distribution is ((1 + u)/2, (1 - u)/2) there, so S_xx fixes
    its q-norm f(u) at c = (1 - (q - 1) s)^(1/(2q)) (Tsallis) or
    2^((1 - q) s/(2q)) (Renyi); Renyi inf has u = 2 2^(-s/2) - 1 outright.  f
    is convex and increasing on [0, 1], and f(u) >= (1 + u)/2, the inf-norm,
    so Newton from u0 = 2c - 1 starts right of the root and falls onto it
    monotonically: no tangent of f crosses zero left of the root.  An entry
    stops at its first iterate that does not decrease (28 steps at most for
    s from 1e-30 to the last float below the maximum), so its bits ignore its
    batch.  Carrying w from the accurate 1 - c keeps the digits of u near 1
    (s near 0).
    """
    q = spec.parameter
    if math.isinf(q):
        return -2.0 * np.expm1(-0.5 * math.log(2.0) * s)
    if spec.kind == TSALLIS:
        one_minus_c = -np.expm1(np.log1p(-(q - 1.0) * s) / (2.0 * q))
    else:
        one_minus_c = -np.expm1((1.0 - q) * math.log(2.0) / (2.0 * q) * s)
    w = 2.0 * one_minus_c
    for _ in range(64):
        log_r = np.log(w / (2.0 - w))  # r = (1 - u)/(1 + u)
        lp = np.log1p(np.exp(q * log_r))  # f(u) = (1 + u)/2 (1 + r^q)^(1/q)
        excess = one_minus_c - 0.5 * w + (1.0 - 0.5 * w) * np.expm1(lp / q)  # f(u) - c
        slope = -0.5 * np.exp(lp / q - lp) * np.expm1((q - 1.0) * log_r)  # f'(u)
        step = w + excess / slope
        moved = step > w
        if not moved.any():
            return w
        w = np.where(moved, step, w)
    raise ConvergenceFailure(f"separable boundary: Newton did not settle for {spec}")


def _separable_values(s: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec) -> np.ndarray:
    """Separable boundary at every S_xx in ``s`` (inside [0, max]).

    The default pair q = qtilde = 2 reads the closed form
    :func:`separable_bound_closed_form`.  Otherwise the endpoints are exact
    (an XX eigenstate forces uniform ZZ and vice versa): S_xx up to
    ``_S_FLOOR`` (1e-30) reads the maximal S_zz, and S_xx from
    :func:`_resolved_top` on (the top 1e-12 of the axis, or more for Tsallis
    q above about 13), the maximum itself included, reads 0.  An interior
    point is the lower envelope of three curves of pure real product states
    A (x) phi_theta: A = phi_theta (the symmetric curve), |0> and |+>, all
    bisected.  With Tsallis or Renyi parameters >= 2 on both axes the
    envelope is the symmetric curve: :func:`_symmetric_w` finds its point,
    whose ZZ entropy is read at v = sqrt((1 - u)(1 + u)).  tests/test_entropy.py
    finds no mixture of two real product states, and no product state on a
    grid, below the boundary, inside the regime and outside it (Shannon,
    Tsallis 1.5, Renyi 0.5), and checks the Newton points against the
    bisected symmetric curve and the bisected envelope against the closed form.
    """
    if spec_x == spec_z == _TSALLIS2:
        return _separable_22(np.clip(s, 0.0, 0.75))
    out = np.where(s <= _S_FLOOR, max_entropy(spec_z), 0.0)
    inner = (s > _S_FLOOR) & (s < _resolved_top(spec_x))
    if not np.any(inner):
        return out
    if spec_x.bound_capable and spec_z.bound_capable:
        w = _symmetric_w(s[inner], spec_x)
        v = np.sqrt(w * (2.0 - w))
        z0, z1 = 0.5 * (1.0 + v), 0.5 * (1.0 - v)
        out[inner] = _entropy_nd(_product_dist(z0, z1, z0, z1), spec_z)
    else:
        out[inner] = _product_envelope(s[inner], spec_x, spec_z)
    return out


def separable_bound(s_xx: float, spec_x: EntropySpec, spec_z: EntropySpec) -> float:
    """Minimal S_zz over separable states at the given S_xx.

    This is the least S_zz, at this S_xx, of the product states
    phi_theta (x) phi_theta, |0> (x) phi_theta and |+> (x) phi_theta (see
    :func:`_separable_values`).
    """
    s = _sxx_in_range(check_real("S_xx", s_xx), max_entropy(spec_x))
    return float(_separable_values(s.reshape(1), spec_x, spec_z)[0])


def separable_bound_closed_form(s_xx: float) -> float:
    """The q = qtilde = 2 separable boundary: -9/4 + 3 sqrt(1 - S_xx) + S_xx."""
    return float(_separable_22(_sxx_in_range(check_real("S_xx", s_xx), 0.75)))


def get_separable_boundary(spec_x: EntropySpec, spec_z: EntropySpec,
                           n: int = 97) -> tuple[np.ndarray, np.ndarray]:
    """(grid, values): the separable boundary on ``n`` evenly spaced S_xx
    from 0 to the maximum, the points that ``entropy-curve`` prints.
    Verdicts never read it: each row is decided at its own S_xx.
    """
    n = check_count("the boundary resolution n", n, 2)
    grid = np.linspace(0.0, max_entropy(spec_x), n)
    return grid, _separable_values(grid, spec_x, spec_z)


# ---------------------------------------------------------------------------
# Detection and robustness.
# ---------------------------------------------------------------------------


def _decide_pairs(mx: np.ndarray, mz: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec):
    """(s_xx, s_zz, bound, detected) for sorted multisets ``mx``, ``mz`` (n, 4):
    the entropy pairs, the separable boundary at s_xx, and the verdicts.

    A row is detected when its pair lies more than ``DETECT_MARGIN`` below
    the separable boundary in either orientation (the XX/ZZ roles can be
    swapped by a local Hadamard, which preserves separability), each read at
    the row's own entropy.  ``bound`` is the forward orientation's even for
    a row detected only in the swapped one, where s_zz does not lie below it.
    """
    _require_bound_regime(spec_x, "horizontal")
    _require_bound_regime(spec_z, "vertical")
    s_x, s_z = _entropy_nd(mx, spec_x), _entropy_nd(mz, spec_z)
    bound = _separable_values(s_x, spec_x, spec_z)
    detected = s_z < bound - DETECT_MARGIN
    rest = np.flatnonzero(~detected)
    if rest.size:
        detected[rest] = s_x[rest] < _separable_values(s_z[rest], spec_z, spec_x) - DETECT_MARGIN
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
    ``q = inf`` returns the closed form (10 - sqrt(2) - sqrt(12) - sqrt(24))/11;
    a finite q is at most ``RENYI_CAP``, above which 2 q log b overflows.
    """
    if isinstance(q, Real) and q == math.inf:
        return (10.0 - math.sqrt(2.0) - math.sqrt(12.0) - math.sqrt(24.0)) / 11.0
    if not 2.0 <= check_real("q", q) <= RENYI_CAP:
        raise DomainError(f"robustness requires 2 <= q <= RENYI_CAP = {RENYI_CAP:g} "
                          f"or q = inf, got {q}")
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
