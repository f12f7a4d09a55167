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
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ConvergenceFailure, DomainError, MissingSetting, check_count, check_instance,
                     check_real)
from .measurement import XX, YY, ZZ, OutcomeDistribution, ScrambledData, setting
# multistart_minimize is not called here; bench/spans.py traces witness.multistart_minimize
from .optimize import multistart_minimize  # noqa: F401
from .quantum import PureState

TANGENT_TOL = 1e-8
WITNESS_DETECT_TOL = 1e-8


def _coefficients(**coefficients) -> list[float]:
    """Each named witness coefficient through :func:`~qscramble.errors.check_real`."""
    return [check_real(f"witness coefficient {name}", v) for name, v in coefficients.items()]


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
        _coefficients(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        for name in ("choice_x", "choice_y", "choice_z"):
            c = getattr(self, name)
            if not (isinstance(c, (int, np.integer)) and not isinstance(c, bool) and 0 <= c <= 3):
                raise DomainError(f"{name} must be an outcome index 0..3, got {c!r}")


def witness_matrix(w: WitnessParams) -> np.ndarray:
    """1 + alpha Pi_x + beta Pi_y + gamma Pi_z with the chosen projectors."""
    check_instance("witness_matrix", w, WitnessParams)
    m = np.eye(4, dtype=complex)
    m = m + w.alpha * setting(XX).projectors[w.choice_x]
    m = m + w.beta * setting(YY).projectors[w.choice_y]
    m = m + w.gamma * setting(ZZ).projectors[w.choice_z]
    return m


def _dist_map(dists, caller: str) -> Mapping[str, OutcomeDistribution]:
    items = dists.values() if isinstance(dists, Mapping) else dists
    return {check_instance(caller, d, OutcomeDistribution).setting: d
            for d in check_instance(caller, items, Iterable)}


def witness_value(dists: Iterable[OutcomeDistribution] | Mapping[str, OutcomeDistribution],
                  w: WitnessParams) -> float:
    """<W> = 1 + alpha p_x + beta p_y + gamma p_z for labeled distributions."""
    check_instance("witness_value", w, WitnessParams)
    dmap = _dist_map(dists, "witness_value")
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
    check_instance("scrambled_witness_min", d, ScrambledData)
    alpha, beta, gamma = _coefficients(alpha=alpha, beta=beta, gamma=gamma)
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
    alpha, beta, gamma = _coefficients(alpha=alpha, beta=beta, gamma=gamma)
    check_instance("min_entropy_form", d, ScrambledData)
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
    dmap = _dist_map(dists, "correlation_witness_values")
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


def _min_over_b(pa: np.ndarray, k: np.ndarray) -> np.ndarray:
    """<W> minimized over qubit B, for qubit A's outcome probabilities ``pa``
    and coefficients ``k`` = (alpha, beta, gamma) along the last axis: with
    u = k pa, <W> = 1 + sum(u)/2 + u.b/2 is affine in B's Bloch vector b, so
    its minimum is 1 + sum(u)/2 - |u|/2, at b = -u/|u|.  The three columns
    are added in the order np.sum and np.linalg.norm add them, for the same
    bits at a third of the cost."""
    u = k * pa
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    return 1.0 + 0.5 * (u0 + u1 + u2) - 0.5 * np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)


def _candidates(k: np.ndarray) -> np.ndarray:
    """A's outcome probabilities (1 + a)/2, (G, 24, 3), at every KKT point of
    <W> = 1 + sum_i k_i (1 + a_i)(1 + b_i)/4 over Bloch vectors |a| = |b| = 1,
    plus the six signed axes, for rows ``k`` (G, 3) with max |k_i| = 1.

    Stationarity reads k_i (1 + b_i) = mu a_i and k_i (1 + a_i) = nu b_i.  So
    (a_i - b_i)(mu + k_i) = 0 if mu = nu, and a_i = v_i (nu + k_i) with
    v_i = k_i/(mu nu - k_i^2) if not.  Three branches cover every case:

    - a = b: a = -k/(k - lam) at each root lam of |a| = 1, an eigenvalue of
      [[K, -I], [-k k^T, K]], K = diag(k) (Gander, Golub & von Matt, Linear
      Algebra Appl. 114/115, 1989);
    - mu != nu: |a| = |b| = 1 reduce to sum_i k_i^2/(k_i^2 - mu nu) = 1, so v
      is an eigenvector of diag(k^2) - k k^T.  Taken of unit length, with
      w = v^2, it gives nu + k_i = s_i + r, s_i = k_i - w.k and
      r = sqrt((k.v)^2 - w.s^2), with no division by the mu nu - k_i^2 that
      vanish near the hard case; a keeps both signs, as v's is arbitrary;
    - the hard case mu = nu = -k_i = -k_j: a_o = -k_o/(k_i + k_o) for the
      third index o, and a_i, a_j = -1/2 +- sqrt((1/2 - a_o^2)/2), built for
      every pair from its mean.

    Each candidate is normalized, so whatever rounding or an unequal pair
    does to it, it is a product state and cannot lower the minimum; one that
    divides by zero comes out NaN.
    """
    eye = np.eye(3)
    kd, kk = k[:, :, None] * eye, -k[:, :, None] * k[:, None, :]
    lam = np.linalg.eigvals(np.block([[kd, np.broadcast_to(-eye, kd.shape)], [kk, kd]])).real
    v = np.swapaxes(np.linalg.eigh(k[:, :, None] * kd + kk)[1], 1, 2)
    w = v * v
    s = k[:, None] - w @ k[:, :, None]
    r = np.sqrt(np.maximum(np.sum(v * k[:, None], axis=-1) ** 2 - np.sum(w * s * s, axis=-1), 0.0))
    i, j, o = [0, 0, 1], [1, 2, 2], [2, 1, 0]
    ao = (-k[:, o] / (0.5 * (k[:, i] + k[:, j]) + k[:, o]))[..., None]
    t = np.sqrt(np.maximum(0.5 - ao * ao, 0.0) / 2.0)
    hard = [ao * eye[o] + (t - 0.5) * eye[p] - (t + 0.5) * eye[q] for p, q in ((i, j), (j, i))]
    a = np.concatenate([-k[:, None] / (k[:, None] - lam[:, :, None]), v * (s + r[..., None]),
                        -v * (s + r[..., None]), *hard,
                        np.broadcast_to(np.concatenate([eye, -eye]), (len(k), 6, 3))], axis=1)
    return 0.5 * (1.0 + a / np.linalg.norm(a, axis=-1, keepdims=True))


def _separable_min(alpha, beta, gamma):
    """Minimum of <W> over product states per entry of ``alpha``, ``beta`` and
    ``gamma`` (broadcast together): the values (G,), and the outcome
    probabilities (p_x, p_y, p_z) of qubits A and B at the minimum, (G, 3) each.

    B is minimized in closed form (:func:`_min_over_b`) and A is the best of
    :func:`_candidates`, ranked on the row scaled to max |k_i| = 1, which moves
    no candidate and avoids underflow.
    """
    k = np.atleast_2d(np.stack(np.broadcast_arrays(alpha, beta, gamma), axis=-1).astype(float))
    top = np.max(np.abs(k), axis=1, keepdims=True)
    unit = k / np.where(top > 0.0, top, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = _candidates(unit)
        pa = cand[np.arange(len(k)), np.nanargmin(_min_over_b(cand, unit[:, None]), axis=1)]
    u = k * pa
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    # B's Bloch vector is -u/|u|; where u = 0 every b is minimal, so take b = 0
    b = np.divide(-u, norm, out=np.zeros_like(u), where=norm > 0.0)
    return _min_over_b(pa, k), pa, 0.5 * (1.0 + b)


def min_over_separable(alpha: float, beta: float, gamma: float) -> float:
    """min over pure product states of <W>; >= 0 iff W is a witness.  Exact for
    every sign pattern: the least <W> over the KKT points, with no search."""
    return float(_separable_min(*_coefficients(alpha=alpha, beta=beta, gamma=gamma))[0][0])


def witness_min_eigvec(alpha: float, gamma: float) -> tuple[float, PureState]:
    """Parameter t and state psi_t spanning the minimal eigenvector of W.

    Valid for W = 1 + alpha |++><++| + gamma |00><00| with alpha nonzero and
    at least one negative coefficient; uses the closed form
    t = -(alpha - 2 gamma + 2 sqrt(alpha^2 - alpha gamma + gamma^2)) / alpha.
    """
    alpha, gamma = _coefficients(alpha=alpha, gamma=gamma)
    if alpha == 0.0:
        raise DomainError("the t-formula requires alpha != 0")
    if alpha >= 0.0 and gamma >= 0.0:
        raise DomainError("a detecting witness needs a negative coefficient")
    t = -(alpha - 2.0 * gamma + 2.0 * math.sqrt(alpha * alpha - alpha * gamma
                                                + gamma * gamma)) / alpha
    vec = np.array([t, 1.0, 1.0, 1.0], dtype=complex)
    return t, PureState(vec / np.linalg.norm(vec))


# -- tangency: scale coefficients so the separable minimum is exactly zero --


def _tangency_scales(alpha0: np.ndarray, gamma0: np.ndarray, beta: float) -> np.ndarray:
    """Scales c (G,) with min_sep(c alpha0, beta, c gamma0) = 0, NaN where
    none exists; one Newton loop for all directions."""
    scale = np.full(alpha0.shape, np.nan)
    if beta <= -1.0:
        return scale  # 1 + beta p_y is already nonpositive on a product state
    # Newton iteration on f(c) = min_prod <W_c>: f is concave and decreasing,
    # and its one-sided derivative at the minimizer x* is the linear term
    # alpha0 p_x(x*) + gamma0 p_z(x*), so the tangent-line update converges
    # monotonically once it crosses the root.  At beta = 0, f is affine, so
    # the first step lands on the root and the second confirms it.  A
    # direction leaves the loop at its own first converged or hopeless step;
    # _separable_min is elementwise per direction, so each follows the same
    # path as alone.
    live = np.arange(alpha0.size)
    c = np.ones(alpha0.shape)
    for _ in range(40):
        a, g, cl = alpha0[live], gamma0[live], c[live]
        val, pa, pb = _separable_min(cl * a, beta, cl * g)
        slope = a * pa[:, 0] * pb[:, 0] + g * pa[:, 2] * pb[:, 2]
        done = np.abs(val) <= TANGENT_TOL
        scale[live[done]] = cl[done]
        # where the slope is >= -1e-15, scaling cannot push the minimum down
        moving = ~done & (slope < -1e-15)
        live = live[moving]
        if live.size == 0:
            return scale
        c[live] = np.maximum(cl[moving] - val[moving] / slope[moving], 1e-12)
    raise ConvergenceFailure("tangency scaling did not converge")


def optimize_params(beta: float, *, num: int = 33) -> list[tuple[float, float]]:
    """Tangent-witness curve: (alpha, gamma) pairs with separable minimum zero.

    Directions (-cos w, -sin w) sweep from the pure-alpha to the pure-gamma
    witness; ``num`` of them, at least 1.  Newton's method scales every
    direction at once (:func:`_tangency_scales`); directions with no
    tangent scale are left out.
    """
    beta = check_real("witness coefficient beta", beta)
    num = check_count("the curve resolution num", num, 1)
    omega = np.linspace(0.0, 0.5 * math.pi, num)
    a0, g0 = -np.cos(omega), -np.sin(omega)
    a0[np.abs(a0) < 1e-15] = 0.0
    g0[np.abs(g0) < 1e-15] = 0.0
    scale = _tangency_scales(a0, g0, beta)
    keep = ~np.isnan(scale)
    return [(float(a), float(g)) for a, g in zip(scale[keep] * a0[keep], scale[keep] * g0[keep])]


# typed: num=3.0 must reach the count check, not hit num=3's entry
@lru_cache(maxsize=4, typed=True)
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
    check_instance("scrambled_correlation_min", d, ScrambledData)
    return float(1.0 - _least_pairing_delta(d.multiset(XX))
                 - _least_pairing_delta(d.multiset(ZZ)))


def _family_values(mx: np.ndarray, mz: np.ndarray, curve) -> np.ndarray:
    """Certified witness values of sorted (descending) multisets of shape (n, 4),
    the witness route's decision: a row whose least value is below
    -WITNESS_DETECT_TOL is detected.

    Column j < len(curve) is :func:`scrambled_witness_min` at curve point j
    (beta = 0); the last column is :func:`scrambled_correlation_min`.
    """
    ag = np.array(curve, dtype=float).reshape(-1, 2)
    a, g = ag[:, 0], ag[:, 1]
    px = np.where(a < 0.0, mx[:, :1], mx[:, -1:])
    pz = np.where(g < 0.0, mz[:, :1], mz[:, -1:])
    corr = 1.0 - _least_pairing_delta(mx) - _least_pairing_delta(mz)
    return np.concatenate([1.0 + a * px + g * pz, corr[:, None]], axis=1)


def scrambled_family_min(d: ScrambledData) -> tuple[float, tuple[float, float]]:
    """Best certified witness value over the tangent curve plus correlation family.

    Returns (value, (alpha, gamma)); for the correlation witnesses the pair
    is reported as the (-1, -1) sentinel.  A value below -WITNESS_DETECT_TOL
    means detected.  Ties go to the first curve point, and to the curve over
    the correlation family.
    """
    check_instance("scrambled_family_min", d, ScrambledData)
    curve = tangent_curve()
    values = _family_values(d.multiset(XX)[None], d.multiset(ZZ)[None], curve)[0]
    j = int(np.argmin(values))
    return float(values[j]), curve[j] if j < len(curve) else (-1.0, -1.0)
