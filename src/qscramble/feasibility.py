"""PPT-compatibility feasibility: can a separable state reproduce the data?

For two qubits the PPT criterion is necessary and sufficient, so asking
whether a separable state realizes given XX and ZZ outcome probabilities is
the convex feasibility problem

    find rho with Tr rho = 1, rho >= 0, rho^{T_B} >= 0,
    Tr(rho Pi_i^xx) = p_i^xx, Tr(rho Pi_i^zz) = p_i^zz.

The solver runs alternating projections with Dykstra's correction over three
convex sets: the affine set (trace plus probability constraints, projected
through a precomputed orthonormal constraint frame in the Hilbert-Schmidt
inner product), the PSD cone (eigenvalue clipping), and the PPT cone
(partial transpose, clip, transpose back).  The problem lives in 16 real
dimensions, where projection methods are simple and robust.

Verdicts are three-valued.  Feasible instances produce a certificate state
whose constraint residuals are at most 1e-7 with spectra above -1e-8;
infeasible ones must end with violation above 1e-6 after the iteration
budget (a provably equivalent plateau exit shortcuts the budget when the
violation has stopped moving far above the threshold); anything between is
reported honestly as inconclusive and escalated through perturbed restarts.

Scrambled data is decided along one path: :func:`assignment_rows` expands
sorted multisets into their 18 canonical outcome assignments, one
:func:`solve_batch` call decides them, and :func:`reduce_assignments` folds
each sample's statuses into one verdict.  All infeasible means no separable
state explains any relabeling, which certifies entanglement.

:func:`solve_batch` takes its rows as given: it rejects non-finite,
misshaped, out-of-range or unnormalized rows and never renormalizes them.
Eigenvalues come from LAPACK and partial transposes from
:func:`~qscramble.quantum.partial_transpose_stack`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .measurement import (PROB_ENTRY_ATOL, PROB_SUM_ATOL, XX, ZZ, OutcomeDistribution,
                          PermutationPair, ScrambledData, canonical_permutations,
                          probabilities, scramble, setting)
from .quantum import (DensityMatrix, _ginibre, derive_seed, maximally_mixed, mix,
                      partial_transpose_stack)

TOL_FEASIBLE = 1e-7
TOL_INFEASIBLE = 1e-6
MAX_CYCLES = 20000
RESTARTS = 8

_FEAS_TARGET = 1e-9        # early certificate-grade acceptance
_CERT_EIG_TOL = 1e-8
_EVAL_EVERY = 5
_STALL_WINDOW = 200        # cycles without improvement before a plateau exit
_STALL_FLOOR = 1e-5        # plateau exits only far above the infeasibility band
_RESTART_SEED = 0xD14A


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
def _constraint_frame() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Hilbert-Schmidt frame spanning the constraint operators.

    Gram-Schmidt over [identity, XX projectors, ZZ projectors] drops the two
    redundant directions (each setting's probabilities sum to the trace),
    leaving a 7-element frame; returns (frame, coeff) with
    frame_j = sum_k coeff[j, k] * op_k so targets transform the same way.
    """
    ops = [np.eye(4, dtype=complex)]
    ops += list(setting(XX).projectors)
    ops += list(setting(ZZ).projectors)
    frame: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    for k, op in enumerate(ops):
        v = op.astype(complex)
        row = np.zeros(len(ops))
        row[k] = 1.0
        for f, r in zip(frame, rows):
            c = float(np.real(np.sum(f.conj() * v)))
            v = v - c * f
            row = row - c * r
        norm = math.sqrt(float(np.real(np.sum(v.conj() * v))))
        if norm > 1e-10:
            frame.append(v / norm)
            rows.append(row / norm)
    return np.array(frame), np.array(rows)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _psd_project(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(m))
    w = np.maximum(w, 0.0)
    return np.einsum("...ik,...k,...jk->...ij", v, w, v.conj())


def _violation(x: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min(x), -lambda_min(x^{T_B})) for a stack of iterates."""
    w1 = np.linalg.eigvalsh(_hermitize(x))[..., 0]
    w2 = np.linalg.eigvalsh(_hermitize(partial_transpose_stack(x)))[..., 0]
    return np.maximum(0.0, np.maximum(-w1, -w2))


def _affine_project(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    frame, _ = _constraint_frame()
    inner = np.real(np.einsum("jab,nab->nj", frame.conj(), x))
    return x + np.einsum("nj,jab->nab", b - inner, frame)


def _dykstra(b: np.ndarray, x0: np.ndarray, max_cycles: int):
    """Run Dykstra cycles for a stack of problems with shared constraints frame.

    Returns (best_violation, best_iterate, cycles_done, early_status) where
    early_status is +1 for certificate-grade feasible exits, -1 for plateau
    (infeasible) exits, and 0 when the budget ran out.
    """
    n = x0.shape[0]
    x = _affine_project(x0.astype(complex), b)
    corr_psd = np.zeros_like(x)
    corr_ppt = np.zeros_like(x)
    best_viol = np.full(n, 1e30)
    best_x = x.copy()
    last_improve = np.zeros(n, dtype=int)
    status = np.zeros(n, dtype=int)
    done_cycle = np.zeros(n, dtype=int)
    active = np.arange(n)

    cycle = 0
    while cycle < max_cycles and active.size:
        cycle += 1
        y = x[active] + corr_psd[active]
        xn = _psd_project(y)
        corr_psd[active] = y - xn
        y = xn + corr_ppt[active]
        xn = partial_transpose_stack(_psd_project(partial_transpose_stack(y)))
        corr_ppt[active] = y - xn
        x[active] = _affine_project(xn, b[active])

        if cycle % _EVAL_EVERY == 0 or cycle == max_cycles:
            viol = _violation(x[active])
            improved = viol < best_viol[active] - np.maximum(1e-12, 1e-6 * best_viol[active])
            upd = viol < best_viol[active]
            idx_upd = active[upd]
            best_viol[idx_upd] = viol[upd]
            best_x[idx_upd] = x[idx_upd]
            last_improve[active[improved]] = cycle

            feas = viol <= _FEAS_TARGET
            # A plateau far above the infeasibility threshold cannot recover
            # within any remaining budget at the observed improvement rate,
            # so the budget-exhaustion verdict is already determined.
            stall = (cycle - last_improve[active] >= _STALL_WINDOW) \
                & (best_viol[active] > _STALL_FLOOR)
            finished = feas | stall
            if np.any(finished):
                idx = active[finished]
                status[idx] = np.where(feas[finished], 1, -1)
                done_cycle[idx] = cycle
                active = active[~finished]
    done_cycle[active] = cycle
    return best_viol, best_x, done_cycle, status


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
                max_cycles: int = MAX_CYCLES,
                restarts: int = RESTARTS):
    """Decide a stack of feasibility problems.

    Parameters are target probability rows ``p_xx``, ``p_zz`` of shape (n, 4);
    rows with non-finite entries, entries outside [-1e-9, 1 + 1e-9] or a sum
    off 1 by more than 1e-9 raise :class:`DomainError`.  Rows are solved as
    given, without renormalization.  Returns (statuses, states, residuals,
    cycles) with statuses a list of :class:`FeasibilityStatus`, states raw
    certificate matrices (or None).
    """
    _, rows = _constraint_frame()
    p_xx = _checked_rows(p_xx, "p_xx")
    p_zz = _checked_rows(p_zz, "p_zz")
    if p_xx.shape != p_zz.shape:
        raise DomainError(f"p_xx and p_zz shapes differ: {p_xx.shape} vs {p_zz.shape}")
    n = p_xx.shape[0]
    raw_targets = np.concatenate([np.ones((n, 1)), p_xx, p_zz], axis=1)
    b = raw_targets @ rows.T

    x0 = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (n, 4, 4)).copy()
    viol, xbest, cycles, _ = _dykstra(b, x0, max_cycles)

    # escalate inconclusive instances through perturbed restarts; the
    # perturbation stream is keyed by problem content, not batch position
    pending = [i for i in range(n)
               if not (viol[i] <= tol_feasible or viol[i] > tol_infeasible)]
    attempts = 0
    while pending and attempts < restarts:
        attempts += 1
        pert = np.empty((len(pending), 4, 4), dtype=complex)
        for j, i in enumerate(pending):
            key = zlib.crc32(raw_targets[i].tobytes()) ^ _RESTART_SEED
            g = _ginibre(derive_seed(key, attempts))[0]
            pert[j] = np.eye(4) / 4.0 + 0.05 * _hermitize(g)
        v2, x2, c2, _ = _dykstra(b[pending], pert, max_cycles)
        for j, i in enumerate(pending):
            cycles[i] += c2[j]
            if v2[j] < viol[i]:
                viol[i] = v2[j]
                xbest[i] = x2[j]
        pending = [i for i in pending
                   if not (viol[i] <= tol_feasible or viol[i] > tol_infeasible)]

    statuses: list[FeasibilityStatus] = []
    states: list[np.ndarray | None] = []
    candidates = _affine_project(xbest, b)
    for i in range(n):
        if viol[i] <= tol_feasible:
            cert = _certificate(candidates[i])
            res = _certificate_residual(cert, raw_targets[i])
            if res <= tol_feasible and _violation(cert[None])[0] <= _CERT_EIG_TOL:
                statuses.append(FeasibilityStatus.FEASIBLE)
                states.append(cert)
            else:
                statuses.append(FeasibilityStatus.INCONCLUSIVE)
                states.append(None)
        elif viol[i] > tol_infeasible:
            statuses.append(FeasibilityStatus.INFEASIBLE)
            states.append(None)
        else:
            statuses.append(FeasibilityStatus.INCONCLUSIVE)
            states.append(None)
    return statuses, states, viol, cycles


def _certificate(candidate: np.ndarray) -> np.ndarray:
    """Clip residual negative eigenvalues and renormalize the trace."""
    cert = _psd_project(candidate)
    return cert / np.real(np.trace(cert))


def _certificate_residual(cert: np.ndarray, raw_target: np.ndarray) -> float:
    ops = [np.eye(4, dtype=complex)]
    ops += list(setting(XX).projectors)
    ops += list(setting(ZZ).projectors)
    vals = np.real([np.sum(op.conj() * cert) for op in ops])
    return float(np.max(np.abs(vals - raw_target)))


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
