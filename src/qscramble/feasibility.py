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
multiplying tau by 256 once a problem is centered.  Steps of length
1/(1 + lambda), lambda the Newton decrement, keep every iterate strictly
feasible, so there is no line search.  XZ/4 and ZX/4 commute, and
one fixed orthogonal q with entries +-1/2 diagonalizes both exactly, so each
step works in q's frame: q^T (A(t) - sI) q = R + diag(B z), z = (t_1, t_2,
s), R = q^T rho_b q rotated once per call.  With G = (R + diag(B z))^{-1}
from one ``eigh``, the barrier has gradient -B^T diag(G) and Hessian
B^T (G o G) B (o the elementwise product; Vandenberghe & Boyd,
"Semidefinite programming", SIAM Review 38, 1996), and one 3x3 solve gives
the step and its decrement.  A problem stops as soon as one of two
certificates checks:

* feasible: lambda_min(A(t)) >= -1e-8.  A(t), clipped to PSD and
  renormalized, is its own partial transpose and must reproduce the rows
  within ``TOL_FEASIBLE`` (1e-7), checked in one product with the eight
  measured projectors.  At t = 0 this is rho_b itself, and zero Newton
  steps means exactly that rho_b is certified: either an LDL^T of rho_b,
  written out over the stack, has every pivot above 1e-12 times the trace
  (positive definite), or, for the rows it rejects, the eigenvalues that
  place the first iterate are >= -1e-8.  That is 95-98 % of the rows of
  the fixed-seed scans, nearly all of them passing the LDL^T, so only the
  few rejected rows pay for an eigendecomposition before the Newton loop.
  Rejected rows whose rho_b are equal byte for byte are solved once and the
  result copied, which is exact because no row's arithmetic reads another
  row: the 18 assignments of a multiset with a tie, as on the non-convexity
  slice, repeat rows;
* infeasible: W = (A(t) - sI)^{-1}, with its XZ and ZX parts projected out,
  shifted to PSD and trace-normalized, has Tr(W rho_b) <= -``TOL_INFEASIBLE``
  = -1e-6.  Tr(W A(t)) = Tr(W rho_b) for every t, and (W + W^{T_B})/2 is a
  decomposable witness in the span of the measured projectors.

Neither within ``MAX_CYCLES`` (200) Newton steps is inconclusive.  The three
values are fixed, not options: on 27 848 rows (the true labelings of the
first 20 000 states of scan seed 314159265, the 18 assignments of the first
300 states of scrambled-scan seed 1, and the 2 448 rows of the default slice
grid) no row comes near them, with certificate residuals up to 4.2e-9,
witness margins from 7.7e-6 and at most 29 Newton steps.  A row's
arithmetic never mixes with another row's, so verdicts do not depend on the
batch.  Scrambled data is decided along one path: :func:`assignment_rows`
expands sorted multisets into their 18 canonical outcome assignments, one
:func:`solve_batch` call decides them, and :func:`reduce_assignments` folds
each sample's statuses into one verdict; all infeasible certifies
entanglement.  A scan, which knows each sample's true labeling, expands only
the samples whose true labeling is not certified feasible.
:func:`solve_batch` rejects non-finite, misshaped, out-of-range or
unnormalized rows and never renormalizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_count
from .measurement import (PROB_ENTRY_ATOL, PROB_SUM_ATOL, XX, ZZ, PermutationPair,
                          ScrambledData, canonical_permutations, probabilities, scramble,
                          setting)
from .optimize import bisect
from .quantum import DensityMatrix, _ginibre, derive_seed, maximally_mixed, mix

TOL_FEASIBLE = 1e-7
TOL_INFEASIBLE = 1e-6
MAX_CYCLES = 200

_CERT_EIG_TOL = 1e-8
_START_GAP = 0.25          # the first iterate has s = lambda_min(rho_b) - _START_GAP
# barrier weight factor per centering.  -log det of a 4x4 has parameter 4, so a
# centered iterate's s is within 4/tau of the optimum, and each centering cuts
# that gap 256-fold.  On the 27 848 rows of the module docstring and the true and
# scrambled rows of `scan --samples 20000 --seed 1`, 52 114 in all, the Newton
# steps fall from 20 998 at factor 8 to 15 506 at 256 and stay flat up to 4096,
# with the same verdicts at every factor
_TAU_GROWTH = 256.0
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
    """Target labeled probabilities for the XX and ZZ settings, checked by
    the rule of :func:`solve_batch` and stored as given."""

    p_xx: np.ndarray
    p_zz: np.ndarray

    def __post_init__(self):
        for name in ("p_xx", "p_zz"):
            p = _checked_rows(np.array(getattr(self, name), dtype=float)[None], name)[0]
            p.setflags(write=False)
            object.__setattr__(self, name, p)


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    witness_state: DensityMatrix | None
    residual: float
    cycles: int


@lru_cache(maxsize=1)
def _projectors() -> np.ndarray:
    """The eight measured projectors, XX then ZZ outcomes, as real (8, 4, 4)."""
    projs = np.concatenate([setting(XX).projectors, setting(ZZ).projectors]).real
    projs.setflags(write=False)
    return projs


@lru_cache(maxsize=1)
def _lmi_frame() -> tuple[np.ndarray, np.ndarray]:
    """(base, free): rho_b = I/4 + sum_k p_k base[k] over the eight raw
    probabilities (XX then ZZ), and the free directions (XZ/4, ZX/4)."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    i = np.eye(2)
    paulis = np.array([np.kron(a, b) for a, b in
                       ((x, i), (i, x), (x, x), (z, i), (i, z), (z, z))])
    base = np.einsum("kab,pba,pcd->kcd", _projectors(), paulis, paulis) / 4.0
    return base, np.array([np.kron(x, z), np.kron(z, x)]) / 4.0


@lru_cache(maxsize=1)
def _diag_frame() -> tuple[np.ndarray, np.ndarray]:
    """(q, B): the orthogonal q with entries +-1/2 that diagonalizes both free
    directions, q^T F_k q = diag(B[:, k]) for F = (XZ/4, ZX/4), and B's third
    column -1, so that q^T (A(t) - sI) q = q^T rho_b q + diag(B (t_1, t_2, s)).
    Every product of these identities is exact in floating point."""
    q = 0.5 * np.array([[-1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                        [1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
    b = np.array([[-0.25, -0.25, -1.0], [-0.25, 0.25, -1.0],
                  [0.25, -0.25, -1.0], [0.25, 0.25, -1.0]])
    q.setflags(write=False)
    b.setflags(write=False)
    return q, b


def _base_state(p_xx: np.ndarray, p_zz: np.ndarray) -> np.ndarray:
    """rho_b of each row pair: trace one, no XZ, ZX or YY coordinate.

    The eight terms are summed in order, then I/4 is added; no (n, 8, 4, 4)
    temporary is built.
    """
    p = np.concatenate([p_xx, p_zz], axis=1)
    base = _lmi_frame()[0]
    acc = p[:, 0, None, None] * base[0]
    for k in range(1, 8):
        acc = acc + p[:, k, None, None] * base[k]
    return np.eye(4) / 4.0 + acc


def _ldl_positive(rho_b: np.ndarray) -> np.ndarray:
    """Rows whose symmetric 4x4 matrix is positive definite by an LDL^T test.

    The factorization is written out entry by entry over the stack, from the
    lower triangle; a row passes when every pivot exceeds 1e-12 times its
    trace (Golub & Van Loan, *Matrix Computations*, sec. 4.2).  A NaN pivot
    fails.  Every row that passes on the scan, slice and boundary rows of the
    test suite has ``eigvalsh`` lambda_min > 0, so it gets the unclipped
    certificate that the eigenvalue rule would give it.  The floor is what
    makes that hold: on rows whose lambda_min is 0 up to rounding, a floor
    of 1e-14 times the trace passes one with lambda_min <= 0.
    """
    a = rho_b
    with np.errstate(all="ignore"):
        d0 = a[:, 0, 0]
        l1, l2, l3 = a[:, 1, 0] / d0, a[:, 2, 0] / d0, a[:, 3, 0] / d0
        d1 = a[:, 1, 1] - l1 * a[:, 1, 0]
        s21 = a[:, 2, 1] - l2 * a[:, 1, 0]
        s31 = a[:, 3, 1] - l3 * a[:, 1, 0]
        m2, m3 = s21 / d1, s31 / d1
        d2 = a[:, 2, 2] - l2 * a[:, 2, 0] - m2 * s21
        s32 = a[:, 3, 2] - l3 * a[:, 2, 0] - m3 * s21
        d3 = a[:, 3, 3] - l3 * a[:, 3, 0] - m3 * s31 - s32 * s32 / d2
        floor = 1e-12 * (a[:, 0, 0] + a[:, 1, 1] + a[:, 2, 2] + a[:, 3, 3])
        return (d0 > floor) & (d1 > floor) & (d2 > floor) & (d3 > floor)


def _lmi(rho_b: np.ndarray):
    """Decide A(t) = rho_b + t_1 XZ/4 + t_2 ZX/4 >= 0 for a stack of rho_b.

    Returns (code, a, witness, margin, steps): code is 1 when the primal
    certificate checked, -1 when the dual one did and 0 when the budget ran
    out; ``a`` holds the last A(t) and ``witness`` the normalized PSD W of
    each infeasible row (zero elsewhere); ``margin`` is lambda_min(A(t)) for
    primal and open rows, 0 for rows that :func:`_ldl_positive` passes, and
    Tr(W rho_b) for dual ones; ``steps`` counts Newton steps.  A row is
    decided with A = rho_b and no Newton step when rho_b passes the LDL^T
    screen, or else when the eigenvalues that place its start pass the
    primal rule; only the rows the screen rejects are eigendecomposed.

    Rejected rows that are equal byte for byte are solved once, by
    :func:`_newton` on one representative, and its five outputs are copied
    to the others.  That is exact: a row's arithmetic never reads another
    row, so each copy gets the bits it would have computed itself, and since
    :func:`_base_state` adds I/4 last, no entry is -0.0, so equal bytes means
    equal values.  ``steps`` still counts every copy's steps.  The Newton
    loop runs in the frame of :func:`_diag_frame`, but ``a`` and ``witness``
    are returned in the computational basis.
    """
    n = rho_b.shape[0]
    code = np.zeros(n, dtype=np.int8)
    a_out = rho_b.copy()
    witness = np.zeros_like(rho_b)
    margin = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    code[_ldl_positive(rho_b)] = 1
    rest = np.flatnonzero(code == 0)
    if not rest.size:
        return code, a_out, witness, margin, steps
    keys = rho_b[rest].reshape(rest.size, 16).view(np.dtype((np.void, 128)))[:, 0]
    _, first, back = np.unique(keys, return_index=True, return_inverse=True)
    for out, solved in zip((code, a_out, witness, margin, steps), _newton(rho_b[rest[first]])):
        out[rest] = solved[back]
    return code, a_out, witness, margin, steps


def _frame_eigh(rho_b: np.ndarray):
    """(R, w, v): R = q^T rho_b q in the frame q of :func:`_diag_frame`, and
    its ``eigh``.  w[:, 0] is lambda_min(rho_b), the value the eigenvalue
    rule of :func:`_lmi` tests; it places the first iterate."""
    q = _diag_frame()[0]
    r = q.T @ rho_b @ q
    w, v = np.linalg.eigh(r)
    return r, w, v


def _newton(rho_b: np.ndarray):
    """:func:`_lmi`'s outputs for rows that the LDL^T screen rejected: one
    ``eigh`` of R = q^T rho_b q places each start, then the barrier's Newton
    loop runs on the rows its eigenvalues do not certify.

    The loop works in the frame q of :func:`_diag_frame`, where the free
    directions are diagonal: M = q^T (A(t) - sI) q = R + diag(B z) with
    z = (t_1, t_2, s).  The first iterate, M = R - s_0 I, shares R's
    eigenvectors, so step 0 reuses R's ``eigh``; every later step takes one
    ``eigh`` of M.  With G = M^{-1}, the barrier -log det M has gradient
    -B^T diag(G) and Hessian B^T (G o G) B (o the elementwise product), and
    one ``solve`` against [gradient, e_s] gives the Newton step and its
    decrement for every barrier weight.  All rows start together, so one
    step counter serves them all; the open rows' indices, z, tau and R shrink
    only on a step where some row finishes, and a finished row's A(t) is
    formed in the computational basis.
    """
    q, b = _diag_frame()
    neg_b = -b
    diag_b = np.zeros((3, 16))
    diag_b[:, ::5] = b.T  # z @ diag_b is diag(B z), flattened
    free = _lmi_frame()[1]
    n = rho_b.shape[0]
    code = np.zeros(n, dtype=np.int8)
    a_out = rho_b.copy()
    witness = np.zeros_like(rho_b)
    margin = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    r, w, v = _frame_eigh(rho_b)
    psd = w[:, 0] >= -_CERT_EIG_TOL
    code[psd] = 1
    margin[psd] = w[psd, 0]
    rows = np.flatnonzero(~psd)
    z = np.zeros((rows.size, 3))  # (t_1, t_2, s)
    z[:, 2] = w[rows, 0] - _START_GAP
    r, w, v = r[rows], w[rows] - z[:, 2:], v[rows]
    tau = np.zeros(rows.size)
    taken = 0
    while rows.size:
        g = (v * (1.0 / w)[:, None, :]) @ v.transpose(0, 2, 1)
        # the barrier's gradient -B^T diag(G) = (-Tr(G F_1), -Tr(G F_2), Tr G)
        g0 = g.diagonal(0, 1, 2) @ neg_b
        # lambda_min(A(t)), or Tr(W rho_b) once the row's witness checks
        value = z[:, 2] + w[:, 0]
        feasible = value >= -_CERT_EIG_TOL
        # Tr(G rho_b) / Tr(G), since Tr(G (A - sI)) = 4; the witness margin
        # is never below it
        maybe = (4.0 + (z * g0).sum(axis=1)) / g0[:, 2] <= -TOL_INFEASIBLE
        if taken == MAX_CYCLES or (feasible | maybe).any():
            verdict = feasible.astype(np.int8)
            cand = np.flatnonzero(maybe & ~feasible)
            if cand.size:
                wit, mg = _dual_witness(g[cand], r[cand])
                ok = mg <= -TOL_INFEASIBLE
                hit = cand[ok]
                verdict[hit] = -1
                value[hit] = mg[ok]
                witness[rows[hit]] = q @ wit[ok] @ q.T
            done = (verdict != 0) | (taken == MAX_CYCLES)
            if done.any():
                out = rows[done]
                code[out] = verdict[done]
                margin[out] = value[done]
                steps[out] = taken
                a_out[out] = rho_b[out] + (z[done, :2, None, None] * free).sum(axis=1)
                go = ~done
                rows, z, tau, r = rows[go], z[go], tau[go], r[go]
                if not rows.size:
                    break
                g, g0 = g[go], g0[go]

        rhs = np.zeros((rows.size, 3, 2))  # [gradient of the barrier, e_s]
        rhs[:, :, 0] = g0
        rhs[:, 2, 1] = 1.0
        s0, s1 = np.linalg.solve(neg_b.T @ (g * g) @ neg_b, rhs).transpose(2, 0, 1)
        c, a2, b2 = (g0 * s0).sum(axis=1), 2.0 * s0[:, 2], s1[:, 2]
        # the squared decrement of g0 - x e_s is c - x (a2 - x b2); the first
        # weight makes the s-component of the gradient vanish
        weight = tau if taken else g0[:, 2]
        tau = np.where(c - weight * (a2 - weight * b2) <= _CENTERED,
                       np.minimum(weight * _TAU_GROWTH, _TAU_MAX), weight)
        dec2 = c - tau * (a2 - tau * b2)
        alpha = np.where(dec2 > _FULL_STEP, 1.0 / (1.0 + np.sqrt(np.maximum(dec2, 0.0))), 1.0)
        z += alpha[:, None] * (tau[:, None] * s1 - s0)
        w, v = np.linalg.eigh(r + (z @ diag_b).reshape(-1, 4, 4))
        taken += 1
    return code, a_out, witness, margin, steps


def _dual_witness(g: np.ndarray, r: np.ndarray):
    """(W, Tr(W R)): the PSD, trace-one W with no XZ or ZX coordinate made
    from G = (A - sI)^{-1}, and its value on R, all in the frame q of
    :func:`_diag_frame`, where the two directions are the diagonals B[:, 0]
    and B[:, 1]: orthogonal, each of norm 1/2 and with zero sum, so that
    removing them keeps the trace and W is scaled once, at the end."""
    f = _diag_frame()[1][:, :2]
    w = g + g.transpose(0, 2, 1)
    d = w.reshape(-1, 16)[:, ::5]
    d -= 4.0 * (d @ f) @ f.T
    d -= np.minimum(np.linalg.eigvalsh(w)[:, :1], 0.0)
    w /= d.sum(axis=1)[:, None, None]
    return w, (w * r).sum(axis=(1, 2))


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


# indexed by code: 0 inconclusive, 1 feasible, -1 infeasible
_STATUS_OF_CODE = np.array([FeasibilityStatus.INCONCLUSIVE, FeasibilityStatus.FEASIBLE,
                            FeasibilityStatus.INFEASIBLE], dtype=object)


def solve_batch(p_xx: np.ndarray, p_zz: np.ndarray):
    """Decide a stack of feasibility problems.

    Parameters are target probability rows ``p_xx``, ``p_zz`` of shape (n, 4);
    rows with non-finite entries, entries outside [-1e-9, 1 + 1e-9] or a sum
    off 1 by more than 1e-9 raise :class:`DomainError`.  Rows are solved as
    given, without renormalization.  The certificate state's row residual is
    bounded by ``TOL_FEASIBLE`` (1e-7), the least witness margin is
    ``TOL_INFEASIBLE`` (1e-6) and the Newton-step budget per problem is
    ``MAX_CYCLES`` (200); the module docstring gives the measured headroom.

    Returns (statuses, states, residuals, cycles): statuses a list of
    :class:`FeasibilityStatus`; states real certificate matrices for feasible
    rows and None otherwise; residuals max(0, -lambda_min(A(t))) for feasible
    and inconclusive rows and the witness margin -Tr(W rho_b) for infeasible
    ones; cycles the Newton steps taken, zero exactly for the rows whose
    rho_b is its own certificate: positive definite by the LDL^T screen, or
    else PSD within 1e-8 by its eigenvalues.  Every status is one of the
    three :class:`FeasibilityStatus` members itself, so ``is`` compares them.
    """
    p_xx = _checked_rows(p_xx, "p_xx")
    p_zz = _checked_rows(p_zz, "p_zz")
    if p_xx.shape != p_zz.shape:
        raise DomainError(f"p_xx and p_zz shapes differ: {p_xx.shape} vs {p_zz.shape}")
    code, a, _, margin, steps = _lmi(_base_state(p_xx, p_zz))

    states: list[np.ndarray | None] = [None] * len(code)
    hit = np.flatnonzero(code == 1)
    certs = _certificate(a[hit], margin[hit])
    rows = np.concatenate([p_xx[hit], p_zz[hit]], axis=1)
    res = np.abs(certs.reshape(-1, 16) @ _projectors().reshape(8, 16).T - rows).max(axis=1)
    ok = res <= TOL_FEASIBLE
    code[hit[~ok]] = 0
    for i, cert in zip(hit[ok].tolist(), certs[ok]):
        states[i] = cert
    residuals = np.where(code == -1, -margin, np.maximum(0.0, -margin))
    return _STATUS_OF_CODE[code].tolist(), states, residuals, steps


def _certificate(a: np.ndarray, lam_min: np.ndarray) -> np.ndarray:
    """Clip residual negative eigenvalues of the rows with ``lam_min < 0`` and
    renormalize the trace of every row."""
    cert = a.copy()
    neg = np.nonzero(lam_min < 0.0)[0]
    if neg.size:
        w, v = np.linalg.eigh(a[neg])
        clipped = (v * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(v, -1, -2)
        cert[neg] = np.where(w[:, :1, None] < 0.0, clipped, a[neg])
    return cert / np.trace(cert, axis1=1, axis2=2)[:, None, None]


def feasible_for_probabilities(problem: FeasibilityProblem) -> FeasibilityResult:
    """Decide one labeled-probability instance; see the module docstring."""
    statuses, states, viol, cycles = solve_batch(problem.p_xx[None], problem.p_zz[None])
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


_CODE_OF_STATUS = {FeasibilityStatus.INFEASIBLE: 1, FeasibilityStatus.FEASIBLE: 0,
                   FeasibilityStatus.INCONCLUSIVE: -1}


def reduce_assignments(statuses, k: int) -> np.ndarray:
    """Fold consecutive blocks of ``k`` statuses into one int8 code per sample.

    1 when all ``k`` assignments are infeasible (detected), 0 when any is
    feasible (possibly separable), -1 otherwise (inconclusive).
    """
    codes = np.fromiter((_CODE_OF_STATUS[s] for s in statuses), dtype=np.int8,
                        count=len(statuses)).reshape(-1, k)
    # any feasible (0) wins; otherwise the least code, 1 only if all are 1
    return np.where(np.any(codes == 0, axis=1), 0, codes.min(axis=1)).astype(np.int8)


_VERDICT_OF_CODE = {1: Verdict.DETECTED, 0: Verdict.POSSIBLY_SEPARABLE,
                    -1: Verdict.INCONCLUSIVE}


def scrambled_possibly_separable(d: ScrambledData) -> tuple[Verdict, SeparabilityEvidence]:
    """Decide whether any separable state reproduces some assignment of ``d``.

    Solves the 18 canonical permutation assignments; possibly separable on
    the first (lowest canonical index) feasible one, detected when all are
    infeasible, inconclusive otherwise.
    """
    p_xx, p_zz = assignment_rows(d.multiset(XX)[None], d.multiset(ZZ)[None])
    statuses, states, viol, _ = solve_batch(p_xx, p_zz)
    verdict = _VERDICT_OF_CODE[int(reduce_assignments(statuses, len(statuses))[0])]
    evidence = dict(statuses=tuple(statuses), residuals=tuple(float(v) for v in viol))
    if verdict is Verdict.POSSIBLY_SEPARABLE:
        i = statuses.index(FeasibilityStatus.FEASIBLE)
        evidence.update(permutation=canonical_permutations()[i],
                        state=DensityMatrix(states[i]))
    return verdict, SeparabilityEvidence(**evidence)


def star_convexity_ray(rho: DensityMatrix, resolution: int = 256) -> float:
    """Detectability threshold along the ray from the maximally mixed state.

    Bisects the mixing weight lambda of ``mix(I/4, rho, lambda)`` over
    [0, 1], ceil(log2(resolution)) times; by star-convexity of the
    possibly-separable set the verdict flips exactly once.  Returns the upper
    end of the final bracket, the smallest weight shown to be detected, and
    1.0 when ``rho`` itself is not detected.  The upper end is 1.0 also for a
    detected ``rho`` whose threshold lies in the top bracket: at resolution 2
    the counterexample mixture gives 1.0, at 64 it gives 0.859375.
    Inconclusive verdicts count as not detected, which can only push the
    reported boundary outward.
    """
    resolution = check_count("resolution", resolution, 2)

    def detected(lam: float) -> bool:
        state = mix(maximally_mixed(), rho, lam)
        data = scramble([probabilities(state, XX), probabilities(state, ZZ)])
        verdict, _ = scrambled_possibly_separable(data)
        return verdict is Verdict.DETECTED

    if not detected(1.0):
        return 1.0
    _, hi = bisect(lambda lam: not detected(float(lam)), 0.0, 1.0,
                   max(1, math.ceil(math.log2(resolution))))
    return float(hi)


# ---------------------------------------------------------------------------
# Independent oracle: direct minimization of the constraint violation over a
# parametrized family of PPT states.  Kept deliberately separate from the
# barrier solver so the two routes share no machinery.
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
