"""Entropy functionals and the entropic entanglement-detection machinery.

Both detection bounds live in the plane spanned by the XX-measurement entropy
(horizontal) and the ZZ-measurement entropy (vertical):

* the all-states bound is the curve traced by the one-parameter family
  psi_t, which minimizes the ZZ entropy at fixed XX entropy;
* the separable bound is the (numerically determined) minimum over mixtures
  of at most two real pure product states.

Entanglement is detected from scrambled data whenever the measured entropy
pair falls strictly below the separable bound but, necessarily, on or above
the all-states bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .errors import ConvergenceFailure, DomainError
from .measurement import XX, ZZ, OutcomeDistribution, ScrambledData
from .optimize import multistart_minimize
from .quantum import _derive_keys, _uniforms

SHANNON = "shannon"
TSALLIS = "tsallis"
RENYI = "renyi"

T_CAP = 1e8
_BISECT_STOL = 1e-12
_LOGSPACE_Q = 50.0
DETECT_MARGIN = 1e-9


@dataclass(frozen=True)
class EntropySpec:
    """Which entropy to evaluate: Shannon, Tsallis-q, or Renyi-alpha.

    ``parameter`` is q (Tsallis) or alpha (Renyi) and is ignored for Shannon;
    parameter 1 is remapped to Shannon, the families' common limit.
    """

    kind: str
    parameter: float = 1.0

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in (SHANNON, TSALLIS, RENYI):
            raise DomainError(f"unknown entropy kind {self.kind!r}")
        par = float(self.parameter)
        if kind != SHANNON:
            if not par > 0:
                raise DomainError(f"entropy parameter must be positive, got {par}")
            if math.isinf(par) and kind == TSALLIS:
                raise DomainError("Tsallis entropy does not support an infinite parameter")
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


def _power_sum(p: np.ndarray, q: float, axis: int = -1) -> np.ndarray:
    """sum_j p_j^q, evaluated in log space for large q."""
    if q > _LOGSPACE_Q:
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
        return np.exp(logsumexp(q * logp, axis=axis))
    return np.sum(np.where(p > 0.0, p, 0.0) ** q, axis=axis)


def entropy_nd(p: np.ndarray, spec: EntropySpec, axis: int = -1) -> np.ndarray:
    """Entropy of probability vectors along ``axis`` (vectorized).

    Entries are summed in sorted order, which makes the result bit-exact
    under permutations of the input.
    """
    p = np.sort(np.asarray(p, dtype=float), axis=axis)
    if spec.kind == SHANNON:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        return -np.sum(terms, axis=axis)
    q = spec.parameter
    if spec.kind == TSALLIS:
        return (1.0 - _power_sum(p, q, axis=axis)) / (q - 1.0)
    if math.isinf(q):
        return -np.log2(np.max(p, axis=axis))
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    return logsumexp(q * logp, axis=axis) / math.log(2.0) / (1.0 - q)


def entropy(p, spec: EntropySpec) -> float:
    """Entropy of one outcome distribution; invariant under permutations."""
    arr = p.p if isinstance(p, OutcomeDistribution) else np.asarray(p, dtype=float)
    return float(entropy_nd(arr, spec))


def max_entropy(spec: EntropySpec) -> float:
    """Entropy of the uniform distribution over four outcomes."""
    return entropy(np.full(4, 0.25), spec)


@dataclass(frozen=True)
class EntropyPoint:
    s_xx: float
    s_zz: float

    def __post_init__(self):
        if not (np.isfinite(self.s_xx) and np.isfinite(self.s_zz)):
            raise DomainError("entropy point must be finite")
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
    """Exact (S_xx, S_zz) entropies of psi_t for t >= 1."""
    if not (np.isfinite(t) and t >= 1.0):
        raise DomainError(f"psi_t family requires t >= 1, got {t}")
    s_xx = float(entropy_nd(psi_t_xx_probs(t), spec_x))
    s_zz = float(entropy_nd(psi_t_zz_probs(t), spec_z))
    return EntropyPoint(max(s_xx, 0.0), max(s_zz, 0.0))


def _require_bound_regime(spec: EntropySpec, role: str) -> None:
    if not spec.bound_capable:
        raise DomainError(
            f"{role} entropy must be Tsallis or Renyi with parameter >= 2 "
            f"for the bound operations, got {spec.kind}-{spec.parameter}")


def t_from_sxx_vec(s: np.ndarray, spec_x: EntropySpec) -> np.ndarray:
    """Vectorized inverse of t -> S_xx(psi_t); capped at T_CAP near the asymptote."""
    _require_bound_regime(spec_x, "horizontal")
    s = np.asarray(s, dtype=float)
    shape = s.shape
    s = np.atleast_1d(s).astype(float)
    smax = max_entropy(spec_x)
    if np.any(s < -1e-12) or np.any(s > smax + 1e-12):
        raise DomainError(f"target entropy outside the attainable range [0, {smax!r}]")
    s = np.clip(s, 0.0, smax)
    s_at_cap = float(entropy_nd(psi_t_xx_probs(T_CAP), spec_x))
    out = np.where(s <= _BISECT_STOL, 1.0, np.nan)
    out = np.where(s >= s_at_cap, T_CAP, out)
    todo = np.isnan(out)
    if np.any(todo):
        lo = np.ones(int(todo.sum()))
        hi = np.full(int(todo.sum()), T_CAP)
        target = s[todo]
        mid = 0.5 * (lo + hi)
        done = np.zeros(mid.shape, dtype=bool)
        for _ in range(200):
            # an entry keeps its first converged midpoint, whatever its batch
            mid = np.where(done, mid, 0.5 * (lo + hi))
            val = entropy_nd(psi_t_xx_probs(mid), spec_x)
            done |= np.abs(val - target) <= _BISECT_STOL
            if np.all(done):
                break
            high = val > target
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        out[todo] = mid
    return out.reshape(shape)


def t_from_sxx(s: float, spec_x: EntropySpec) -> float:
    """The unique t >= 1 with S_xx(psi_t) = s, by bisection on the monotone map."""
    return float(t_from_sxx_vec(np.asarray(float(s)), spec_x))


def all_states_bound_vec(s_xx: np.ndarray, spec_x: EntropySpec,
                         spec_z: EntropySpec) -> np.ndarray:
    _require_bound_regime(spec_x, "horizontal")
    _require_bound_regime(spec_z, "vertical")
    t = t_from_sxx_vec(s_xx, spec_x)
    return entropy_nd(psi_t_zz_probs(t), spec_z)


def all_states_bound(s_xx: float, spec_x: EntropySpec, spec_z: EntropySpec) -> float:
    """Minimal S_zz over all states at the given S_xx: the psi_t curve."""
    return float(all_states_bound_vec(np.asarray(float(s_xx)), spec_x, spec_z))


def all_states_bound_closed_form(s_xx: float) -> float:
    """Closed form of the all-states bound for q = qtilde = 2."""
    if not (-1e-12 <= s_xx <= 0.75 + 1e-12):
        raise DomainError(f"S_xx^(2) = {s_xx} outside [0, 3/4]")
    s_xx = min(max(s_xx, 0.0), 0.75)
    big_t = math.sqrt(9.0 - 12.0 * s_xx)
    big_q = 3.0 + big_t + math.sqrt(3.0) * math.sqrt((1.0 + big_t) * (3.0 - big_t))
    return (3.0 * big_q * big_t ** 2 - big_t ** 4) / (3.0 * big_q ** 2)


# ---------------------------------------------------------------------------
# Separable bound: minimize S_zz at fixed S_xx over mixtures of two real
# pure product states, the form every extremal separable point can take.
# ---------------------------------------------------------------------------


def _pair_probs(theta):
    """(p_z0, p_z1, p_x+, p_x-) of the real qubit states with Bloch angles theta."""
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    sx = 2.0 * s * c
    return c * c, s * s, 0.5 * (1.0 + sx), 0.5 * (1.0 - sx)


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


def _symmetric_theta_for_sxx(s: np.ndarray, spec_x: EntropySpec) -> np.ndarray:
    """Angles with S_xx(phi_theta (x) phi_theta) = s; decreasing on [0, pi/2]."""
    lo = np.zeros_like(s)  # S_xx runs from max down to 0
    hi = np.full_like(s, 0.5 * math.pi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        _, _, px0, px1 = _pair_probs(mid)
        val = entropy_nd(np.stack([px0 * px0, px0 * px1, px1 * px0, px1 * px1], axis=-1),
                         spec_x)
        lo = np.where(val > s, mid, lo)
        hi = np.where(val > s, hi, mid)
    return 0.5 * (lo + hi)


_PENALTY = 1e6
_AGREE = 3  # starts that must reproduce a boundary minimum
_SEED_KEY = 0x5E9A  # fixed stream for the random starts
_RANDOM_HIGH = np.array([1.0, math.pi, math.pi, math.pi, math.pi])  # p, then four angles


def _separable_starts(s: np.ndarray, spec_x: EntropySpec, starts: int) -> np.ndarray:
    """``starts`` starts per S_xx, at least 4 of them random, with a random
    stream of its own for each S_xx; shape (len(s), n, 5)."""
    th = _symmetric_theta_for_sxx(s, spec_x)
    h = 0.5 * math.pi
    rows = [
        (0.5, th, th, th, th),
        (0.5, th + 0.03, th + 0.03, th - 0.03, th - 0.03),
        (0.0, th, th, th + 0.2, th + 0.2),
        (1.0, th + 0.2, th + 0.2, th, th),
        # Shannon-boundary candidate families: |0> (x) (theta) and (theta) (x) |+>
        (0.5, 0.0, th, 0.0, th + 0.3),
        (0.0, 0.0, 2.0 * th, 0.0, 2.0 * th),
        (0.5, th, h, th + 0.3, h),
        (0.0, 2.0 * th, h, 2.0 * th, h),
        # mixtures of the two eigenstate directions |00> and |++>
        (0.2, 0.0, 0.0, h, h),
        (0.5, 0.0, 0.0, h, h),
        (0.8, 0.0, 0.0, h, h),
    ]
    structured = np.stack([np.stack([np.broadcast_to(v, th.shape) for v in row], axis=-1)
                           for row in rows], axis=1)
    m = max(starts - len(rows), 4)
    index = (s * 1e9).astype(np.int64).astype(np.uint64) & np.uint64(0xFFFF)
    u = _uniforms(_derive_keys(_SEED_KEY, index), 5 * m).reshape(len(s), m, 5)
    # what Generator.uniform(0.0, high) draws: low + (high - low) * u
    return np.concatenate([structured, 0.0 + _RANDOM_HIGH * u], axis=1)


def _separable_values(s: np.ndarray, spec_x: EntropySpec, spec_z: EntropySpec,
                      starts: int) -> np.ndarray:
    """Separable boundary at every S_xx in ``s`` (inside [0, max]).

    The endpoints are exact: an XX eigenstate forces uniform ZZ and vice
    versa.  All interior points are solved in one multi-start search.
    """
    smax = max_entropy(spec_x)
    out = np.where(s <= 1e-12, max_entropy(spec_z), 0.0)
    inner = (s > 1e-12) & (s < smax - 1e-12)
    if not np.any(inner):
        return out
    target = s[inner]

    def objective(x: np.ndarray) -> np.ndarray:
        # x: the five mixture parameters, then the group's target S_xx
        dxx, dzz = _mixture_dists(x)
        cx = entropy_nd(dxx, spec_x) - x[..., 5]
        return entropy_nd(dzz, spec_z) + _PENALTY * cx * cx

    result = multistart_minimize(
        objective, _separable_starts(target, spec_x, starts), consts=target[:, None],
        agree=_AGREE, agree_tol=1e-6, label="separable boundary",
        step=0.15, xtol=1e-10, max_iter=350)
    # report the entropy itself, not the penalized objective
    out[inner] = entropy_nd(_mixture_dists(result.x)[1], spec_z)
    return out


def separable_bound(s_xx: float, spec_x: EntropySpec, spec_z: EntropySpec, *,
                    starts: int = 64) -> float:
    """Minimal S_zz over separable states at the given S_xx.

    Multi-start simplex search over (p, theta_a, theta_b, theta_c, theta_d)
    parametrizing rank-<=2 mixtures of real product states, with the XX
    constraint enforced by a quadratic penalty.  Raises ConvergenceFailure
    when the restarts do not reproduce the minimum.
    """
    smax = max_entropy(spec_x)
    if not (-1e-12 <= s_xx <= smax + 1e-12):
        raise DomainError(f"S_xx = {s_xx} outside the attainable range [0, {smax!r}]")
    s = min(max(float(s_xx), 0.0), smax)
    return float(_separable_values(np.array([s]), spec_x, spec_z, starts)[0])


def separable_bound_closed_form(s_xx: float) -> float:
    """The q = qtilde = 2 separable boundary: -9/4 + 3 sqrt(1 - S_xx) + S_xx."""
    if not (-1e-12 <= s_xx <= 0.75 + 1e-12):
        raise DomainError(f"S_xx^(2) = {s_xx} outside [0, 3/4]")
    s_xx = min(max(s_xx, 0.0), 0.75)
    return -2.25 + 3.0 * math.sqrt(1.0 - s_xx) + s_xx


@dataclass(frozen=True)
class SeparableBoundary:
    """Grid-sampled separable boundary with linear interpolation.

    Linear chords of a concave curve underestimate it, so interpolation errs
    on the side of fewer detections.
    """

    spec_x: EntropySpec
    spec_z: EntropySpec
    grid: np.ndarray
    values: np.ndarray

    def value(self, s: float | np.ndarray) -> np.ndarray:
        s = np.clip(np.asarray(s, dtype=float), self.grid[0], self.grid[-1])
        return np.interp(s, self.grid, self.values)


@lru_cache(maxsize=8)
def get_separable_boundary(spec_x: EntropySpec, spec_z: EntropySpec,
                           n: int = 97, starts: int = 24) -> SeparableBoundary:
    smax = max_entropy(spec_x)
    grid = np.linspace(0.0, smax, n)
    return SeparableBoundary(spec_x, spec_z, grid,
                             _separable_values(grid, spec_x, spec_z, starts))


# ---------------------------------------------------------------------------
# Detection and robustness.
# ---------------------------------------------------------------------------


def entropy_detected_stack(pxx: np.ndarray, pzz: np.ndarray,
                           spec_x: EntropySpec, spec_z: EntropySpec) -> np.ndarray:
    """Entropy-method verdicts for stacks of XX and ZZ probability rows.

    A row is detected when its entropy pair lies below the separable boundary
    in either orientation (the XX/ZZ roles can be swapped by a local
    Hadamard, which preserves separability).
    """
    _require_bound_regime(spec_x, "horizontal")
    _require_bound_regime(spec_z, "vertical")
    s_x = entropy_nd(np.asarray(pxx, dtype=float), spec_x)
    s_z = entropy_nd(np.asarray(pzz, dtype=float), spec_z)
    detected = s_z < get_separable_boundary(spec_x, spec_z).value(s_x) - DETECT_MARGIN
    if np.all(detected):
        return detected
    return detected | (s_x < get_separable_boundary(spec_z, spec_x).value(s_z) - DETECT_MARGIN)


def entropy_detect(d: ScrambledData, spec_x: EntropySpec, spec_z: EntropySpec) -> bool:
    """True when the entropy pair certifies entanglement of the scrambled data."""
    return bool(entropy_detected_stack(d.multiset(XX)[None], d.multiset(ZZ)[None],
                                       spec_x, spec_z)[0])


_ROBUST_T = 3.0
_ROBUST_S = 1.0 + math.sqrt(2.0)


def robustness(q: float) -> float:
    """Maximal white-noise weight at which psi_3 remains entropy-detectable.

    Solves the power-sum equation matching the noisy psi_3 outcome terms to
    those of the symmetric product state with amplitude ratio 1 + sqrt(2);
    ``q = inf`` returns the closed form (10 - sqrt(2) - sqrt(12) - sqrt(24))/11.
    """
    if math.isinf(q):
        return (10.0 - math.sqrt(2.0) - math.sqrt(12.0) - math.sqrt(24.0)) / 11.0
    if not q >= 2.0:
        raise DomainError(f"robustness requires q >= 2 or q = inf, got {q}")
    t = _ROBUST_T
    s = _ROBUST_S
    amp_big = t / math.sqrt(3.0 + t * t)
    amp_small = 1.0 / math.sqrt(3.0 + t * t)
    rhs_bases = np.array([s * s / (1.0 + s * s), s / (1.0 + s * s), 1.0 / (1.0 + s * s)])
    rhs_weights = np.array([1.0, 2.0, 1.0])
    rhs = logsumexp(2.0 * q * np.log(rhs_bases), b=rhs_weights)

    def excess(lam: float) -> float:
        b1 = (1.0 - lam) * amp_big + 0.25 * lam
        b2 = (1.0 - lam) * amp_small + 0.25 * lam
        lhs = logsumexp(2.0 * q * np.log(np.array([b1, b2])), b=np.array([1.0, 3.0]))
        return lhs - rhs

    lo, hi = 0.0, 1.0
    if excess(0.0) <= 0.0:
        raise ConvergenceFailure("robustness equation has no root in [0, 1]")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)
