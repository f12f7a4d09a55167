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
# multistart_minimize is not called here; bench/spans.py traces witness.multistart_minimize
from .optimize import multistart_minimize, nelder_mead  # noqa: F401
from .quantum import PureState

TANGENT_TOL = 1e-8


def _require_finite(**coefficients) -> None:
    """Raise DomainError unless every named coefficient (scalar or array) is finite."""
    for name, value in coefficients.items():
        if not np.all(np.isfinite(value)):
            raise DomainError(f"witness coefficient {name} must be finite")


def _require_numbers(**coefficients) -> None:
    """Raise DomainError unless every named coefficient is one finite number."""
    for name, value in coefficients.items():
        if np.ndim(value):
            raise DomainError(f"witness coefficients must be numbers, not arrays ({name})")
    _require_finite(**coefficients)


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
        _require_numbers(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        for name in ("choice_x", "choice_y", "choice_z"):
            c = getattr(self, name)
            if not (isinstance(c, (int, np.integer)) and not isinstance(c, bool) and 0 <= c <= 3):
                raise DomainError(f"{name} must be an outcome index 0..3, got {c!r}")


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
    _require_numbers(alpha=alpha, beta=beta, gamma=gamma)
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
    _require_numbers(alpha=alpha, beta=beta, gamma=gamma)
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


def _qubit_probs(theta, phi=0.0) -> np.ndarray:
    """Probabilities (p_x, p_y, p_z) of the +, +i and 0 outcomes of a qubit
    with Bloch angles (theta, phi), along a new last axis."""
    s = np.sin(theta)
    return 0.5 * (1.0 + np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1))


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


def _symmetric_min(k: np.ndarray) -> np.ndarray:
    """A's outcome probabilities (1 + a)/2 at the product-state minimum of <W>
    for rows ``k`` (G, 3) with every k_i <= 0 and one < 0.

    k_i p_i q_i >= k_i (p_i^2 + q_i^2)/2 puts the minimum on a symmetric state
    a (x) a, where <W> = 1 + sum_i k_i (1 + a_i)^2/4 on the unit sphere: a
    trust-region subproblem (Gander, Golub & von Matt, Linear Algebra Appl.
    114/115, 1989).  Its multiplier lam is the least real eigenvalue of
    [[K, -I], [-k k^T, K]], K = diag(k), and a = -k/(k - lam); lam < min k, as
    k has a component along K's least eigenvector, so no hard case arises.
    Rows are scaled to max |k_i| = 1, which leaves a unchanged and avoids
    underflow.
    """
    k = k / np.max(np.abs(k), axis=1, keepdims=True)
    kd, kk = k[:, :, None] * np.eye(3), -k[:, :, None] * k[:, None, :]
    m = np.block([[kd, np.broadcast_to(-np.eye(3), kd.shape)], [kk, kd]])
    ev = np.linalg.eigvals(m)
    lam = np.min(np.where(ev.imag == 0.0, ev.real, np.inf), axis=1, keepdims=True)
    a = -k / (k - lam)
    return 0.5 * (1.0 + a / np.linalg.norm(a, axis=1, keepdims=True))


def _separable_min(alpha, beta, gamma):
    """Minimum of <W> over product states per entry of ``alpha``, ``beta`` and
    ``gamma`` (broadcast together): the values (G,), and the outcome
    probabilities (p_x, p_y, p_z) of qubits A and B at the minimum, (G, 3) each.

    B is minimized in closed form (:func:`_min_over_b`).  Rows with no positive
    coefficient take A from :func:`_symmetric_min` (A = |0> for W = 1).  With
    a positive one, what remains is concave in A's Bloch vector, and a 101 x 200
    grid in (theta, phi) on A's sphere is refined by Nelder-Mead.
    """
    _require_finite(alpha=alpha, beta=beta, gamma=gamma)
    k = np.atleast_2d(np.stack(np.broadcast_arrays(alpha, beta, gamma), axis=-1).astype(float))
    pa = np.tile([0.5, 0.5, 1.0], (len(k), 1))
    pos = np.any(k > 0.0, axis=1)
    neg = ~pos & np.any(k < 0.0, axis=1)
    if neg.any():
        pa[neg] = _symmetric_min(k[neg])
    if pos.any():
        t, phi = (g.ravel() for g in np.meshgrid(
            np.linspace(0.0, math.pi, 101), np.linspace(-math.pi, math.pi, 200, endpoint=False)))
        grid = _qubit_probs(t, phi)
        # one group at a time: large short-lived temporaries would raise the
        # allocator's threshold for returning freed memory, and the process stays larger
        i = [np.argmin(_min_over_b(grid, row)) for row in k[pos]]
        # points: A's Bloch angles, then the group's coefficients
        x = nelder_mead(lambda y: _min_over_b(_qubit_probs(y[..., 0], y[..., 1]), y[..., 2:]),
                        np.stack([t[i], phi[i]], axis=-1), consts=k[pos], step=math.pi / 100,
                        xtol=1e-10, ftol=0.0, max_iter=500)[0]
        pa[pos] = _qubit_probs(x[:, 0], x[:, 1])
    u = k * pa
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    # B's Bloch vector is -u/|u|; where u = 0 every b is minimal, so take b = 0
    b = np.divide(-u, norm, out=np.zeros_like(u), where=norm > 0.0)
    return _min_over_b(pa, k), pa, 0.5 * (1.0 + b)


def min_over_separable(alpha: float, beta: float, gamma: float) -> float:
    """min over pure product states of <W>; >= 0 iff W is a witness.  Exact
    for nonpositive coefficients; with a positive one, exact over qubit B and
    a refined grid search over qubit A; no random starts."""
    return float(_separable_min(alpha, beta, gamma)[0][0])


def witness_min_eigvec(alpha: float, gamma: float) -> tuple[float, PureState]:
    """Parameter t and state psi_t spanning the minimal eigenvector of W.

    Valid for W = 1 + alpha |++><++| + gamma |00><00| with alpha nonzero and
    at least one negative coefficient; uses the closed form
    t = -(alpha - 2 gamma + 2 sqrt(alpha^2 - alpha gamma + gamma^2)) / alpha.
    """
    _require_numbers(alpha=alpha, gamma=gamma)
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
    _require_numbers(beta=beta)
    if num < 1:
        raise DomainError(f"the curve resolution num must be at least 1, got {num}")
    omega = np.linspace(0.0, 0.5 * math.pi, num)
    a0, g0 = -np.cos(omega), -np.sin(omega)
    a0[np.abs(a0) < 1e-15] = 0.0
    g0[np.abs(g0) < 1e-15] = 0.0
    scale = _tangency_scales(a0, g0, beta)
    keep = ~np.isnan(scale)
    return [(float(a), float(g)) for a, g in zip(scale[keep] * a0[keep], scale[keep] * g0[keep])]


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
