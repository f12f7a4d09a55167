"""Scrambling-invariant entanglement witness families.

The family consists of operators

    W = 1 + alpha |x1 x2><x1 x2| + beta |y1 y2><y1 y2| + gamma |z1 z2><z1 z2|

over all choices of local eigenvectors.  Local unitaries plus the partial
transpose map family members onto each other, so if one member is a witness
all are, and reassigning probabilities to outcomes only moves between
members.  Evaluating the family on scrambled data therefore amounts to an
extremal choice from each multiset, and a negative value certifies
entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import ConvergenceFailure, DomainError, MissingSetting
from .measurement import XX, YY, ZZ, OutcomeDistribution, ScrambledData, setting
from .optimize import multistart_minimize
from .quantum import PureState, _uniforms

TANGENT_TOL = 1e-8
REGIME_RATIO = -3.0 - 2.0 * math.sqrt(2.0)  # gamma/alpha at the optimal-state crossover


@dataclass(frozen=True)
class WitnessParams:
    """Coefficients and projector choices selecting one family member.

    ``choice_*`` indexes the outcome basis state of the respective setting
    (order ++, +-, -+, -- for XX/YY and 00, 01, 10, 11 for ZZ).  A detecting
    member needs at least one negative coefficient.
    """

    alpha: float
    beta: float
    gamma: float
    choice_x: int = 0
    choice_y: int = 0
    choice_z: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"witness coefficient {name} must be finite")
        for name in ("choice_x", "choice_y", "choice_z"):
            c = getattr(self, name)
            if c not in (0, 1, 2, 3):
                raise DomainError(f"{name} must be an outcome index 0..3, got {c}")


def witness_matrix(w: WitnessParams) -> np.ndarray:
    """1 + alpha Pi_x + beta Pi_y + gamma Pi_z with the chosen projectors."""
    m = np.eye(4, dtype=complex)
    m = m + w.alpha * setting(XX).projectors[w.choice_x]
    m = m + w.beta * setting(YY).projectors[w.choice_y]
    m = m + w.gamma * setting(ZZ).projectors[w.choice_z]
    return m


def _dist_map(dists) -> Mapping[str, OutcomeDistribution]:
    if isinstance(dists, Mapping):
        return dists
    return {d.setting: d for d in dists}


def witness_value(dists: Iterable[OutcomeDistribution] | Mapping[str, OutcomeDistribution],
                  w: WitnessParams) -> float:
    """<W> = 1 + alpha p_x + beta p_y + gamma p_z for labeled distributions."""
    dmap = _dist_map(dists)
    value = 1.0
    for coeff, label, choice in ((w.alpha, XX, w.choice_x), (w.beta, YY, w.choice_y),
                                 (w.gamma, ZZ, w.choice_z)):
        if coeff == 0.0:
            continue
        if label not in dmap:
            raise MissingSetting(f"witness needs the {label} distribution")
        value += coeff * float(dmap[label].p[choice])
    return value


def scrambled_witness_min(d: ScrambledData, alpha: float, beta: float,
                          gamma: float) -> float:
    """Minimum of <W> over all probability-to-outcome assignments.

    Each assignment corresponds to a valid family member, so a negative
    result certifies entanglement from the scrambled data alone.
    """
    value = 1.0
    for coeff, label in ((alpha, XX), (beta, YY), (gamma, ZZ)):
        if coeff == 0.0:
            continue
        m = d.multiset(label)  # sorted descending
        value += coeff * float(m[0] if coeff < 0.0 else m[-1])
    return value


def min_entropy_form(alpha: float, beta: float, gamma: float,
                     d: ScrambledData) -> float:
    """<W> rewritten through min-entropies, valid for nonpositive coefficients.

    Returns 1 + alpha 2^{-S_inf(xx)} + beta 2^{-S_inf(yy)} + gamma 2^{-S_inf(zz)},
    which coincides with :func:`scrambled_witness_min` there.  Zero
    coefficients skip their setting.
    """
    if alpha > 0.0 or beta > 0.0 or gamma > 0.0:
        raise DomainError("the min-entropy form needs nonpositive coefficients")
    value = 1.0
    for coeff, label in ((alpha, XX), (beta, YY), (gamma, ZZ)):
        if coeff == 0.0:
            continue
        s_inf = -math.log2(float(d.multiset(label)[0]))
        value += coeff * 2.0 ** (-s_inf)
    return value


def correlation_witness_values(
        dists: Iterable[OutcomeDistribution] | Mapping[str, OutcomeDistribution]) -> np.ndarray:
    """The four values 1 + s1 E_xx + s2 E_zz for s1, s2 in {+1, -1}.

    E = p0 - p1 - p2 + p3 in outcome-label order; sign order (++, +-, -+, --).
    """
    dmap = _dist_map(dists)
    for label in (XX, ZZ):
        if label not in dmap:
            raise MissingSetting(f"correlation witnesses need the {label} distribution")
    sign = np.array([1.0, -1.0, -1.0, 1.0])
    e_xx = float(sign @ dmap[XX].p)
    e_zz = float(sign @ dmap[ZZ].p)
    return np.array([1.0 + s1 * e_xx + s2 * e_zz
                     for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)])


# ---------------------------------------------------------------------------
# Minimization over product states and the tangency construction.
# ---------------------------------------------------------------------------


def _product_probs(x: np.ndarray):
    """Per-qubit probabilities (p_x,a, p_x,b, p_y,a, p_y,b, p_z,a, p_z,b) of the
    +, + and 0 outcomes on the product states with Bloch angles
    (theta_a, phi_a, theta_b, phi_b) along the last axis of ``x``."""
    ta, pa, tb, pb = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    sa, sb = np.sin(ta), np.sin(tb)
    pxa = 0.5 * (1.0 + sa * np.cos(pa))
    pxb = 0.5 * (1.0 + sb * np.cos(pb))
    pya = 0.5 * (1.0 + sa * np.sin(pa))
    pyb = 0.5 * (1.0 + sb * np.sin(pb))
    return pxa, pxb, pya, pyb, np.cos(0.5 * ta) ** 2, np.cos(0.5 * tb) ** 2


def _product_expectation(x: np.ndarray, alpha, beta, gamma) -> np.ndarray:
    """<W> on the product states with Bloch angles along the last axis of ``x``."""
    pxa, pxb, pya, pyb, pza, pzb = _product_probs(x)
    return 1.0 + alpha * pxa * pxb + beta * pya * pyb + gamma * pza * pzb


_WITNESS_SEED = 0x3A11CE
_WITNESS_HIGH = np.array([math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi])
_SEARCH_STARTS = 64  # starts per product-state search


def _witness_starts(beta: float, n: int) -> np.ndarray:
    """``n`` starts (theta_a, phi_a, theta_b, phi_b), at least 4 of them random."""
    starts = []
    # symmetric family theta_a = theta_b, phi = 0 (optimal for gamma/alpha above the crossover)
    for th in np.linspace(0.0, math.pi, 7):
        starts.append(np.array([th, 0.0, th, 0.0]))
    # mirrored family theta_a - 3pi/4 = 3pi/4 - theta_b (the other regime)
    for delta in np.linspace(-0.6 * math.pi, 0.6 * math.pi, 7):
        starts.append(np.array([0.75 * math.pi + delta, 0.0, 0.75 * math.pi - delta, 0.0]))
    if beta != 0.0:
        for th in np.linspace(0.1, math.pi - 0.1, 5):
            starts.append(np.array([th, 0.5 * math.pi, th, 0.5 * math.pi]))
    m = max(n - len(starts), 4)
    u = _uniforms(_WITNESS_SEED, 4 * m).reshape(m, 4)
    # what Generator.uniform(0.0, high) draws: low + (high - low) * u
    return np.concatenate([np.array(starts), 0.0 + _WITNESS_HIGH * u])


def _min_over_separable_full(alpha, beta: float, gamma):
    """Multi-start minimum of <W> over product states, one group per entry of
    ``alpha`` and ``gamma`` (scalars or equal-length arrays); every group
    gets the same starts."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    for name, c in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not np.all(np.isfinite(c)):
            raise DomainError(f"witness coefficient {name} must be finite")

    def objective(x: np.ndarray) -> np.ndarray:
        # x: the four Bloch angles, then the group's alpha and gamma
        return _product_expectation(x, x[..., 4], beta, x[..., 5])

    base = _witness_starts(beta, _SEARCH_STARTS)
    return multistart_minimize(
        objective, np.broadcast_to(base, (alpha.size,) + base.shape),
        consts=np.stack([alpha, gamma], axis=1),
        agree=3, agree_tol=1e-6, label="separable witness minimum",
        step=0.3, xtol=1e-10, max_iter=500)


def min_over_separable(alpha: float, beta: float, gamma: float) -> float:
    """min over pure product states of <W>; >= 0 iff W is a witness.

    Full (theta_a, phi_a, theta_b, phi_b) multi-start search.  The known
    optimal-state structures for beta = 0 only seed starting points; the
    search itself explores the whole product manifold.
    """
    return float(_min_over_separable_full(alpha, beta, gamma).value[0])


def witness_min_eigvec(alpha: float, gamma: float) -> tuple[float, PureState]:
    """Parameter t and state psi_t spanning the minimal eigenvector of W.

    Valid for W = 1 + alpha |++><++| + gamma |00><00| with alpha nonzero and
    at least one negative coefficient; uses the closed form
    t = -(alpha - 2 gamma + 2 sqrt(alpha^2 - alpha gamma + gamma^2)) / alpha.
    """
    if alpha == 0.0:
        raise DomainError("the t-formula requires alpha != 0")
    if alpha >= 0.0 and gamma >= 0.0:
        raise DomainError("a detecting witness needs a negative coefficient")
    t = -(alpha - 2.0 * gamma + 2.0 * math.sqrt(alpha * alpha - alpha * gamma
                                                + gamma * gamma)) / alpha
    vec = np.array([t, 1.0, 1.0, 1.0], dtype=complex)
    return t, PureState(vec / np.linalg.norm(vec))


# -- tangency: scale coefficients so the separable minimum is exactly zero --


def _tangency_scale(alpha0: float, gamma0: float, beta: float) -> tuple[float, float] | None:
    """Scale c with min_sep(c alpha0, beta, c gamma0) = 0 for beta != 0, or
    None if impossible."""
    if beta <= -1.0:
        return None  # 1 + beta p_y is already nonpositive on a product state
    # Newton iteration on f(c) = min_prod <W_c>: f is concave and decreasing,
    # and its one-sided derivative at the minimizer x* is the linear term
    # alpha0 p_x(x*) + gamma0 p_z(x*), so the tangent-line update converges
    # monotonically once it crosses the root.
    c = 1.0
    for _ in range(40):
        res = _min_over_separable_full(c * alpha0, beta, c * gamma0)
        val = float(res.value[0])
        if abs(val) <= TANGENT_TOL:
            return c * alpha0, c * gamma0
        pxa, pxb, _, _, pza, pzb = _product_probs(res.x[0])
        slope = float(alpha0 * pxa * pxb + gamma0 * pza * pzb)
        if slope >= -1e-15:
            return None  # scaling alpha0, gamma0 cannot push the minimum down
        c = max(c - val / slope, 1e-12)
    raise ConvergenceFailure("tangency scaling did not converge for beta != 0")


def optimize_params(beta: float, *, num: int = 33) -> list[tuple[float, float]]:
    """Tangent-witness curve: (alpha, gamma) pairs with separable minimum zero.

    Directions (-cos w, -sin w) sweep from the pure-alpha to the pure-gamma
    witness.  For beta = 0, min <W> - 1 is linear in a common rescaling of
    alpha and gamma, so one multi-start minimization over all directions
    fixes every scale exactly; other beta scale each direction by Newton's
    method.
    """
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    omega = np.linspace(0.0, 0.5 * math.pi, num)
    a0, g0 = -np.cos(omega), -np.sin(omega)
    a0[np.abs(a0) < 1e-15] = 0.0
    g0[np.abs(g0) < 1e-15] = 0.0
    if beta != 0.0:
        scaled = (_tangency_scale(float(a), float(g), beta) for a, g in zip(a0, g0))
        return [pair for pair in scaled if pair is not None]
    live = a0 != 0.0  # a0 = 0 is the degenerate endpoint, tangent at |00>
    # its linear minimum -1 (the |00> value of -|00><00|) gives scale 1 and (0, -1)
    linear_min = np.full(num, -1.0)
    linear_min[live] = _min_over_separable_full(a0[live], 0.0, g0[live]).value - 1.0
    keep = linear_min < -1e-12
    scale = -1.0 / linear_min[keep]
    return [(float(a), float(g)) for a, g in zip(scale * a0[keep], scale * g0[keep])]


@lru_cache(maxsize=4)
def tangent_curve(beta: float = 0.0, num: int = 17) -> tuple[tuple[float, float], ...]:
    """Cached tangent curve used by the detector's witness method."""
    return tuple(optimize_params(beta, num=num))


def _least_pairing_delta(m: np.ndarray) -> np.ndarray:
    """Smallest |sum of a pair - sum of the complement| over the 3 pairings,
    for multisets along the last axis of ``m``.

    At every outcome assignment the correlation E = q0 - q1 - q2 + q3 equals
    one of these pairing differences up to sign, and the sign is absorbed by
    the witness family 1 +/- XX +/- ZZ.
    """
    m0, m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2], m[..., 3]
    return np.minimum(np.abs(m0 + m1 - m2 - m3),
                      np.minimum(np.abs(m0 + m2 - m1 - m3), np.abs(m0 + m3 - m1 - m2)))


def scrambled_correlation_min(d: ScrambledData) -> float:
    """Guaranteed correlation-witness value on scrambled data.

    Equals max over assignments of the best (most favorable to separability)
    of the four sign witnesses; negative means every assignment is refuted,
    which certifies entanglement.
    """
    return float(1.0 - _least_pairing_delta(d.multiset(XX))
                 - _least_pairing_delta(d.multiset(ZZ)))


def _family_values(mx: np.ndarray, mz: np.ndarray, curve) -> np.ndarray:
    """Certified witness values of sorted (descending) multisets of shape (n, 4).

    Column j < len(curve) is :func:`scrambled_witness_min` at curve point j
    (beta = 0); the last column is :func:`scrambled_correlation_min`.
    """
    ag = np.array(curve, dtype=float).reshape(-1, 2)
    a, g = ag[:, 0], ag[:, 1]
    px = np.where(a < 0.0, mx[:, :1], mx[:, -1:])
    pz = np.where(g < 0.0, mz[:, :1], mz[:, -1:])
    corr = 1.0 - _least_pairing_delta(mx) - _least_pairing_delta(mz)
    return np.concatenate([1.0 + a * px + g * pz, corr[:, None]], axis=1)


def witness_min_stack(pxx: np.ndarray, pzz: np.ndarray) -> np.ndarray:
    """Best certified scrambled witness value per sample over the tangent
    curve plus the correlation family, for stacks of probability rows."""
    mx = np.sort(np.asarray(pxx, float), axis=1)[:, ::-1]
    mz = np.sort(np.asarray(pzz, float), axis=1)[:, ::-1]
    return np.min(_family_values(mx, mz, tangent_curve()), axis=1)


def scrambled_family_min(d: ScrambledData, *, curve=None) -> tuple[float, tuple[float, float]]:
    """Best certified witness value over the tangent curve plus correlation family.

    Returns (value, (alpha, gamma)); for the correlation witnesses the pair
    is reported as the (-1, -1) sentinel.  Negative value means detected.
    Ties go to the first curve point, and to the curve over the correlation
    family.
    """
    curve = tuple(curve if curve is not None else tangent_curve())
    values = _family_values(d.multiset(XX)[None], d.multiset(ZZ)[None], curve)[0]
    j = int(np.argmin(values))
    if j == len(curve):
        return float(values[j]), (-1.0, -1.0)
    a, g = curve[j]
    return float(values[j]), (a, g)
