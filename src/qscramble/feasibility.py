"""PPT-compatibility feasibility: can a separable state reproduce the data?

For two qubits the PPT criterion is necessary and sufficient, so asking
whether a separable state realizes given XX and ZZ outcome probabilities is
the convex feasibility problem

    find rho with Tr rho = 1, rho >= 0, rho^{T_B} >= 0,
    Tr(rho Pi_i^xx) = p_i^xx, Tr(rho Pi_i^zz) = p_i^zz.

The constraint operators are real, so a real rho suffices.  Its Pauli
coordinates II, XI, IX, XX, ZI, IZ and ZZ are fixed by the data (the base
state rho_b); XZ, ZX and YY are free.  The partial transpose flips only YY,
so the midpoint of rho and rho^{T_B} is feasible with YY = 0, where
rho^{T_B} = rho.  Hence the data are separable-compatible exactly when the
2-variable LMI A(t) = rho_b + t_1 XZ/4 + t_2 ZX/4 >= 0 has a solution.

:func:`solve_batch` decides the LMI for a stack of rows with a damped
Newton log-barrier method (Boyd & Vandenberghe, ch. 11): it maximizes s
subject to A(t) - sI > 0, minimizing -tau s - log det(A(t) - sI) and
multiplying tau by a fixed factor once a problem is centered.  Steps of
length 1/(1 + lambda), lambda the Newton decrement, keep every iterate
strictly feasible, so there is no line search.  A problem stops as soon as
one of two certificates checks:

* feasible: lambda_min(A(t)) >= -1e-8.  A(t), clipped to PSD and
  renormalized, is its own partial transpose and must reproduce the rows
  within ``tol_feasible``;
* infeasible: W = (A(t) - sI)^{-1}, with its XZ and ZX parts projected out,
  shifted to PSD and trace-normalized, has Tr(W rho_b) <= -``tol_infeasible``.
  Tr(W A(t)) = Tr(W rho_b) for every t, and (W + W^{T_B})/2 is a
  decomposable witness in the span of the measured projectors.

Neither within ``max_cycles`` Newton steps is inconclusive.  A row's
arithmetic never mixes with another row's, so verdicts do not depend on the
batch.  Scrambled data is decided along one path: :func:`assignment_rows`
expands sorted multisets into their 18 canonical outcome assignments, one
:func:`solve_batch` call decides them, and :func:`reduce_assignments` folds
each sample's statuses into one verdict; all infeasible certifies
entanglement.  :func:`solve_batch` rejects non-finite, misshaped,
out-of-range or unnormalized rows and never renormalizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .measurement import (PROB_ENTRY_ATOL, PROB_SUM_ATOL, XX, ZZ, OutcomeDistribution,
                          PermutationPair, ScrambledData, canonical_permutations,
                          probabilities, probabilities_stack, scramble, setting)
from .quantum import DensityMatrix, _ginibre, derive_seed, maximally_mixed, mix

TOL_FEASIBLE = 1e-7
TOL_INFEASIBLE = 1e-6
MAX_CYCLES = 200

_CERT_EIG_TOL = 1e-8
_START_GAP = 0.25          # the first iterate has s = lambda_min(rho_b) - _START_GAP
_TAU_GROWTH = 8.0          # barrier weight factor per centering
_CENTERED = 1e-4           # squared Newton decrement that counts as centered
_FULL_STEP = 0.25          # undamped Newton steps below this squared decrement
_TAU_MAX = 4e12            # gap 4/tau below every tolerance; larger tau makes H singular


class FeasibilityStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


class Verdict(str, Enum):
    DETECTED = "detected"
    POSSIBLY_SEPARABLE = "possibly_separable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Target labeled probabilities for the XX and ZZ settings."""

    p_xx: np.ndarray
    p_zz: np.ndarray
    tol_feasible: float = TOL_FEASIBLE
    tol_infeasible: float = TOL_INFEASIBLE
    max_cycles: int = MAX_CYCLES

    def __post_init__(self):
        object.__setattr__(self, "p_xx", OutcomeDistribution(XX, self.p_xx).p)
        object.__setattr__(self, "p_zz", OutcomeDistribution(ZZ, self.p_zz).p)
        if not (0 < self.tol_feasible <= self.tol_infeasible):
            raise DomainError("need 0 < tol_feasible <= tol_infeasible")


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    witness_state: DensityMatrix | None
    residual: float
    cycles: int


@lru_cache(maxsize=1)
def _lmi_frame() -> tuple[np.ndarray, np.ndarray]:
    """(base, free): rho_b = I/4 + sum_k p_k base[k] over the eight raw
    probabilities (XX then ZZ), and the free directions (XZ/4, ZX/4)."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    i = np.eye(2)
    paulis = np.array([np.kron(a, b) for a, b in
                       ((x, i), (i, x), (x, x), (z, i), (i, z), (z, z))])
    projs = np.concatenate([setting(XX).projectors, setting(ZZ).projectors]).real
    base = np.einsum("kab,pba,pcd->kcd", projs, paulis, paulis) / 4.0
    return base, np.array([np.kron(x, z), np.kron(z, x)]) / 4.0


def _base_state(p_xx: np.ndarray, p_zz: np.ndarray) -> np.ndarray:
    """rho_b of each row pair: trace one, no XZ, ZX or YY coordinate."""
    p = np.concatenate([p_xx, p_zz], axis=1)
    return np.eye(4) / 4.0 + (p[:, :, None, None] * _lmi_frame()[0]).sum(axis=1)


def _lmi(rho_b: np.ndarray, tol_infeasible: float, max_cycles: int):
    """Decide A(t) = rho_b + t_1 XZ/4 + t_2 ZX/4 >= 0 for a stack of rho_b.

    Returns (code, a, witness, margin, steps): code is 1 when the primal
    certificate checked, -1 when the dual one did and 0 when the budget ran
    out; ``a`` holds the last A(t) and ``witness`` the normalized PSD W of
    each infeasible row (zero elsewhere); ``margin`` is lambda_min(A(t)) for
    primal and open rows and Tr(W rho_b) for dual ones; ``steps`` counts
    Newton steps.
    """
    free = _lmi_frame()[1]
    n = rho_b.shape[0]
    z = np.zeros((n, 3))  # (t_1, t_2, s)
    z[:, 2] = np.linalg.eigvalsh(rho_b)[:, 0] - _START_GAP
    tau = np.zeros(n)
    code = np.zeros(n, dtype=np.int8)
    a_out = np.empty_like(rho_b)
    witness = np.zeros_like(rho_b)
    margin = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        za = z[active]
        a = rho_b[active] + (za[:, :2, None, None] * free).sum(axis=1)
        w, v = np.linalg.eigh(a - za[:, 2, None, None] * np.eye(4))
        r = 1.0 / w  # the spectrum of G = (A - sI)^{-1}
        # F_k in the eigenbasis, and Tr(G F_k) for F = (XZ/4, ZX/4)
        u = np.swapaxes(v, 1, 2)[:, None] @ free @ v[:, None]
        d = np.diagonal(u, axis1=2, axis2=3)
        gf = (r[:, None, :] * d).sum(axis=2)
        trace_g = r.sum(axis=1)
        lam_min = za[:, 2] + w[:, 0]
        # Tr(G rho_b) / Tr(G), since V^T (A - sI) V = diag(w); the witness
        # margin is never below it
        dual = (4.0 - (za[:, :2] * gf).sum(axis=1)) / trace_g + za[:, 2]

        feasible = lam_min >= -_CERT_EIG_TOL
        infeasible = np.zeros_like(feasible)
        maybe = np.nonzero(~feasible & (dual <= -tol_infeasible))[0]
        if maybe.size:
            wit = _dual_witness(v[maybe], r[maybe])
            m = (wit * rho_b[active[maybe]]).sum(axis=(1, 2))
            hit = m <= -tol_infeasible
            infeasible[maybe[hit]] = True
            witness[active[maybe[hit]]] = wit[hit]
            margin[active[maybe[hit]]] = m[hit]
        done = feasible | infeasible | (steps[active] >= max_cycles)
        code[active[done]] = np.where(feasible[done], 1, np.where(infeasible[done], -1, 0))
        a_out[active[done]] = a[done]
        margin[active[done & ~infeasible]] = lam_min[done & ~infeasible]
        go = ~done
        active = active[go]
        if not active.size:
            break

        # gradient of -log det(A - sI) and the Hessian Tr(G F_k G F_l), F_3 = -I
        r, u, d, trace_g = r[go], u[go], d[go], trace_g[go]
        g0 = np.concatenate([-gf[go], trace_g[:, None]], axis=1)
        rr = r[:, :, None] * r[:, None, :]
        h = np.empty((active.size, 3, 3))
        h[:, :2, :2] = (rr[:, None, None] * u[:, :, None] * u[:, None, :]).sum(axis=(3, 4))
        h[:, :2, 2] = h[:, 2, :2] = -((r * r)[:, None, :] * d).sum(axis=2)
        h[:, 2, 2] = (r * r).sum(axis=1)
        e_s = np.broadcast_to([0.0, 0.0, 1.0], g0.shape)
        sol = np.linalg.solve(h, np.stack([g0, e_s], axis=2))

        def newton(weight):
            """Step -H^{-1} g for g = g0 - weight e_s, and its squared decrement."""
            step = weight[:, None] * sol[:, :, 1] - sol[:, :, 0]
            return step, -np.einsum("ij,ij->i", g0 - weight[:, None] * e_s, step)

        # the first weight makes the s-component of the gradient vanish
        weight = np.where(tau[active] == 0.0, trace_g, tau[active])
        _, dec2 = newton(weight)
        weight = np.where(dec2 <= _CENTERED, np.minimum(weight * _TAU_GROWTH, _TAU_MAX), weight)
        tau[active] = weight
        step, dec2 = newton(weight)
        alpha = np.where(dec2 > _FULL_STEP, 1.0 / (1.0 + np.sqrt(np.maximum(dec2, 0.0))), 1.0)
        z[active] += alpha[:, None] * step
        steps[active] += 1
    return code, a_out, witness, margin, steps


def _dual_witness(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Normalized PSD W with no XZ or ZX coordinate from G = V diag(r) V^T."""
    g = (v * (r / r.sum(axis=1, keepdims=True))[:, None, :]) @ np.swapaxes(v, 1, 2)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    for f in _lmi_frame()[1]:
        g = g - 4.0 * (g * f).sum(axis=(1, 2))[:, None, None] * f  # Tr(f f) = 1/4
    g = g + np.maximum(0.0, -np.linalg.eigvalsh(g)[:, 0])[:, None, None] * np.eye(4)
    return g / np.trace(g, axis1=1, axis2=2)[:, None, None]


def _checked_rows(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise DomainError(f"{name} must have shape (n, 4), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} has non-finite entries")
    if np.any(p < -PROB_ENTRY_ATOL) or np.any(p > 1.0 + PROB_ENTRY_ATOL):
        raise DomainError(f"{name} has entries outside [-1e-9, 1+1e-9]")
    unnormalized = np.abs(p.sum(axis=1) - 1.0) > PROB_SUM_ATOL
    if np.any(unnormalized):
        i = int(np.argmax(unnormalized))
        raise DomainError(f"{name} row {i} sums to {float(p[i].sum())!r}, "
                          "violating |sum-1| <= 1e-9")
    return p


def solve_batch(p_xx: np.ndarray, p_zz: np.ndarray, *,
                tol_feasible: float = TOL_FEASIBLE,
                tol_infeasible: float = TOL_INFEASIBLE,
                max_cycles: int = MAX_CYCLES):
    """Decide a stack of feasibility problems.

    Parameters are target probability rows ``p_xx``, ``p_zz`` of shape (n, 4);
    rows with non-finite entries, entries outside [-1e-9, 1 + 1e-9] or a sum
    off 1 by more than 1e-9 raise :class:`DomainError`.  Rows are solved as
    given, without renormalization.  ``tol_feasible`` bounds the certificate
    state's row residual, ``tol_infeasible`` is the least witness margin and
    ``max_cycles`` the Newton-step budget per problem.

    Returns (statuses, states, residuals, cycles): statuses a list of
    :class:`FeasibilityStatus`; states real certificate matrices for feasible
    rows and None otherwise; residuals max(0, -lambda_min(A(t))) for feasible
    and inconclusive rows and the witness margin -Tr(W rho_b) for infeasible
    ones; cycles the Newton steps taken.
    """
    p_xx = _checked_rows(p_xx, "p_xx")
    p_zz = _checked_rows(p_zz, "p_zz")
    if p_xx.shape != p_zz.shape:
        raise DomainError(f"p_xx and p_zz shapes differ: {p_xx.shape} vs {p_zz.shape}")
    code, a, _, margin, steps = _lmi(_base_state(p_xx, p_zz), tol_infeasible, max_cycles)

    statuses = [FeasibilityStatus.INCONCLUSIVE] * len(code)
    states: list[np.ndarray | None] = [None] * len(code)
    for i in np.nonzero(code == -1)[0]:
        statuses[i] = FeasibilityStatus.INFEASIBLE
    hit = np.nonzero(code == 1)[0]
    if hit.size:
        certs = _certificate(a[hit])
        res = np.maximum(np.abs(probabilities_stack(certs, XX) - p_xx[hit]).max(axis=1),
                         np.abs(probabilities_stack(certs, ZZ) - p_zz[hit]).max(axis=1))
        for i, cert, ok in zip(hit, certs, res <= tol_feasible):
            if ok:
                statuses[i] = FeasibilityStatus.FEASIBLE
                states[i] = cert
    residuals = np.where(code == -1, -margin, np.maximum(0.0, -margin))
    return statuses, states, residuals, steps


def _certificate(a: np.ndarray) -> np.ndarray:
    """Clip residual negative eigenvalues of a stack and renormalize the trace."""
    w, v = np.linalg.eigh(a)
    clipped = (v * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(v, -1, -2)
    cert = np.where(w[:, :1, None] < 0.0, clipped, a)
    return cert / np.trace(cert, axis1=1, axis2=2)[:, None, None]


def feasible_for_probabilities(problem: FeasibilityProblem) -> FeasibilityResult:
    """Decide one labeled-probability instance; see the module docstring."""
    statuses, states, viol, cycles = solve_batch(
        problem.p_xx[None], problem.p_zz[None],
        tol_feasible=problem.tol_feasible, tol_infeasible=problem.tol_infeasible,
        max_cycles=problem.max_cycles)
    state = DensityMatrix(states[0]) if states[0] is not None else None
    return FeasibilityResult(statuses[0], state, float(viol[0]), int(cycles[0]))


@dataclass(frozen=True)
class SeparabilityEvidence:
    """Per-assignment solver outcomes backing a scrambled-data verdict."""

    statuses: tuple[FeasibilityStatus, ...]
    permutation: PermutationPair | None = None
    state: DensityMatrix | None = None
    residuals: tuple[float, ...] = field(default=())


@lru_cache(maxsize=1)
def _assignment_index() -> tuple[np.ndarray, np.ndarray]:
    """(18, 4) index arrays: row j holds canonical assignment j's pi_x / pi_z."""
    perms = canonical_permutations()
    return np.array([p.pi_x for p in perms]), np.array([p.pi_z for p in perms])


def assignment_rows(mx: np.ndarray, mz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand sorted (descending) multisets of shape (n, 4) into labeled rows.

    Returns (p_xx, p_zz) of shape (18 n, 4), sample-major: row ``18 i + j``
    assigns sample ``i``'s multisets to outcomes by canonical assignment
    ``j``, so that outcome ``k`` receives the ``pi[k]``-th largest entry.
    """
    ix, iz = _assignment_index()
    mx = np.asarray(mx, dtype=float)
    mz = np.asarray(mz, dtype=float)
    return mx[:, ix].reshape(-1, 4), mz[:, iz].reshape(-1, 4)


def reduce_assignments(statuses, k: int) -> np.ndarray:
    """Fold consecutive blocks of ``k`` statuses into one int8 code per sample.

    1 when all ``k`` assignments are infeasible (detected), 0 when any is
    feasible (possibly separable), -1 otherwise (inconclusive).
    """
    values = np.array([s.value for s in statuses]).reshape(-1, k)
    detected = np.all(values == FeasibilityStatus.INFEASIBLE.value, axis=1)
    possible = np.any(values == FeasibilityStatus.FEASIBLE.value, axis=1)
    return np.where(detected, 1, np.where(possible, 0, -1)).astype(np.int8)


_VERDICT_OF_CODE = {1: Verdict.DETECTED, 0: Verdict.POSSIBLY_SEPARABLE,
                    -1: Verdict.INCONCLUSIVE}


def scrambled_possibly_separable(d: ScrambledData, *,
                                 tol_feasible: float = TOL_FEASIBLE,
                                 tol_infeasible: float = TOL_INFEASIBLE,
                                 max_cycles: int = MAX_CYCLES) -> tuple[Verdict, SeparabilityEvidence]:
    """Decide whether any separable state reproduces some assignment of ``d``.

    Solves the 18 canonical permutation assignments; possibly separable on
    the first (lowest canonical index) feasible one, detected when all are
    infeasible, inconclusive otherwise.
    """
    p_xx, p_zz = assignment_rows(d.multiset(XX)[None], d.multiset(ZZ)[None])
    statuses, states, viol, _ = solve_batch(
        p_xx, p_zz, tol_feasible=tol_feasible, tol_infeasible=tol_infeasible,
        max_cycles=max_cycles)
    verdict = _VERDICT_OF_CODE[int(reduce_assignments(statuses, len(statuses))[0])]
    evidence = dict(statuses=tuple(statuses), residuals=tuple(float(v) for v in viol))
    if verdict is Verdict.POSSIBLY_SEPARABLE:
        i = statuses.index(FeasibilityStatus.FEASIBLE)
        evidence.update(permutation=canonical_permutations()[i],
                        state=DensityMatrix(states[i]))
    return verdict, SeparabilityEvidence(**evidence)


def star_convexity_ray(rho: DensityMatrix, resolution: int = 256) -> float:
    """Detectability threshold along the ray from the maximally mixed state.

    Bisects the mixing weight lambda of ``mix(I/4, rho, lambda)``; by
    star-convexity of the possibly-separable set the verdict flips exactly
    once.  Returns 1.0 when ``rho`` itself is not detected.  Inconclusive
    verdicts count as not detected, which can only push the reported
    boundary outward.
    """
    if resolution < 2:
        raise DomainError("resolution must be at least 2")

    def detected(lam: float) -> bool:
        state = mix(maximally_mixed(), rho, lam)
        data = scramble([probabilities(state, XX), probabilities(state, ZZ)])
        verdict, _ = scrambled_possibly_separable(data)
        return verdict is Verdict.DETECTED

    if not detected(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    steps = max(1, math.ceil(math.log2(resolution)))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Independent oracle: direct minimization of the constraint violation over a
# parametrized family of PPT states.  Kept deliberately separate from the
# projection solver so the two routes share no machinery.
# ---------------------------------------------------------------------------

ORACLE_FEASIBLE_TOL = 1e-10
_ORACLE_SEED = 0x0AC1E


@lru_cache(maxsize=1)
def _real_constraint_ops() -> np.ndarray:
    ops = np.concatenate([setting(XX).projectors, setting(ZZ).projectors])
    return np.ascontiguousarray(ops.real)


def oracle_objective(avec: np.ndarray, targets: np.ndarray):
    """Violation value and analytic gradient at rho = A A^T / Tr(A A^T).

    The violation is the squared probability mismatch plus the squared
    negative part of the partially transposed spectrum.
    """
    ops = _real_constraint_ops()
    a = avec.reshape(4, 4)
    s = a @ a.T
    tr = float(np.trace(s))
    if tr < 1e-12:
        return 1e6 + tr, -2.0 * avec
    rho = s / tr
    r = np.einsum("kab,ab->k", ops, rho) - targets
    m = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    neg = np.minimum(w, 0.0)
    value = float(r @ r + neg @ neg)
    d = 2.0 * np.einsum("k,kab->ab", r, ops)
    dpen = 2.0 * (v * neg) @ v.T
    d = d + dpen.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    grad = (2.0 / tr) * (d @ a - float(np.sum(d * rho)) * a)
    return value, grad.ravel()


def oracle_min_violation(p_xx: np.ndarray, p_zz: np.ndarray, *,
                         n_starts: int = 6, seed: int = _ORACLE_SEED) -> float:
    """Smallest achievable squared constraint violation over PPT states.

    Parametrizes rho = A A^T / Tr(A A^T) with real A; real states suffice
    because the constraint operators are real, so the real part of any
    feasible state is feasible.  The PPT condition enters as a squared
    eigenvalue-negativity penalty, minimized by L-BFGS with an analytic
    gradient from several starts.
    """
    from scipy.optimize import minimize

    targets = np.concatenate([np.asarray(p_xx, float), np.asarray(p_zz, float)])
    best = math.inf
    for k in range(n_starts):
        if k == 0:
            a0 = (0.5 * np.eye(4)).ravel()
        else:
            a0 = _ginibre(derive_seed(seed, k))[0].real.ravel() * 0.5
        res = minimize(oracle_objective, a0, args=(targets,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-12})
        best = min(best, float(res.fun))
        if best <= 1e-18:
            break
    return best


def oracle_feasible(p_xx: np.ndarray, p_zz: np.ndarray, **kwargs) -> bool:
    return oracle_min_violation(p_xx, p_zz, **kwargs) < ORACLE_FEASIBLE_TOL
