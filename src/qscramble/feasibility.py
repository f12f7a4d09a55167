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

:func:`solve_batch` decides it in closed form.  In the Bell frame T, whose
columns are Phi-, Psi+, Phi+ and Psi-, M = T^T A(t) T has eight entries
fixed by the data (its diagonal and M_02, M_03, M_12, M_13) and two free
ones, x = M_01 = (t_1 + t_2)/4 and y = M_23 = (t_2 - t_1)/4.  The LMI asks
for a PSD completion of a partial matrix whose specified graph is the
4-cycle 0-2-1-3-0.  With x fixed the graph is chordal, with cliques {0,1,2}
and {0,1,3}, and the matrix is completable exactly when both 3x3 blocks are
PSD (Grone, Johnson, Sa & Wolkowicz, Linear Algebra Appl. 58, 1984; Barrett,
Johnson & Tarazaga, Linear Algebra Appl. 192, 1993, state the same test in
angle form).  Block k is PSD exactly when its edges (0, k) and (1, k), 2x2
principal blocks, are PSD and x lies in the interval

    M_0k M_1k / e +- sqrt((M_00 e - M_0k^2)(M_11 e - M_1k^2)) / e,  e = M_kk,

which becomes |x| <= sqrt(M_00 M_11) as e -> 0.  So a row is feasible when
its four edges are PSD and the two intervals meet: a few dozen flops, no
iteration and no eigendecomposition.  A row that fails on M is tested on
M + 1e-8 I, its intervals only where its edges pass there, so a row is
feasible when s* = max_t lambda_min(A(t)) >= -1e-8.  Rows are decided side
by side: ``_bell_entries`` returns the eight fixed entries as an (8, n)
array, each entry one contiguous row, and the edge eigenvalues, intervals,
y, witnesses and margins are elementwise formulas on those rows, with no
reduction over a short axis; only the three fixed tables (the entries, A
and the certificate check) go through ``_apply``, row by row.  Each verdict
carries a certificate that is checked apart from the test:

* feasible: x is the midpoint of the two intervals and y the max-determinant
  choice M_{2,01} S^+ M_{01,3}, S = [[M_00, x], [x, M_11]]; M(x, y) is PSD,
  and A = T M(x, y) T^T, renormalized, must reproduce the rows within
  ``TOL_FEASIBLE`` (1e-7), checked in one product with the eight measured
  projectors.  A row that passes only on M + 1e-8 I gets the completion of
  that matrix, whose negative eigenvalues (at least -1e-8) are clipped;
* infeasible: a PSD, trace-one W with W_01 = W_23 = 0 exactly, so with no XZ
  or ZX part, and Tr(W rho_b) = Tr(W M) <= -``TOL_INFEASIBLE`` = -1e-6; (W +
  W^{T_B})/2 is then a decomposable witness in the span of the measured
  projectors.  When an edge is not PSD, W = v v^T for its least eigenvector.
  When the intervals are disjoint, v and w are the least eigenvectors of the
  two blocks at an x between them; each lambda_min is concave in x and grows
  towards its own interval, so the slopes 2 v_0 v_1 and 2 w_0 w_1 have
  opposite signs and W = |2 w_0 w_1| v v^T + |2 v_0 v_1| w w^T, trace-
  normalized, has W_01 = 0 (a W_01 that rounding leaves nonzero voids the
  witness).  The x between the intervals of M + 1e-8 I comes first.  A row
  whose margin misses -1e-6 there gets s*, bisected on the test of M - sI
  (monotone in s), and W is rebuilt from the test just above s*, where its
  margin is within rounding of s*, the least any such witness reaches.

Neither is inconclusive: a row with s* between -1e-6 and -1e-8, which
reports -s*, or one whose certificate misses its check.  The three values
are fixed, not options: on 27 848 rows (the true labelings of the first
20 000 states of scan seed 314159265, the 18 assignments of the first 300
states of scrambled-scan seed 1, and the 2 448 rows of the default slice
grid) no row comes near them, with certificate residuals up to 4.5e-16 and
witness margins no shallower than -7.7e-5.  There is no iteration count:
:func:`solve_batch`'s ``cycles`` are all zero.  A row's arithmetic never
mixes with another row's, so neither its verdict nor its bits depend on the
batch.  Every certified decision goes through ``_solve_codes``: the input
check, the test and the certificate check, returning int8 codes (1
certified feasible, -1 witnessed infeasible, 0 inconclusive) and the
certificates.  :func:`solve_batch` turns them into statuses, states and
residuals; a scan uses the codes for its true rows.  This module decides
labeled rows only; :mod:`~qscramble.detector` alone expands scrambled data
into its 18 canonical assignments and folds their verdicts.  Its ray search
uses the test alone (``_edge_eigenvalues`` and ``_completes``), uncertified,
at the shift where a row's s* along the ray crosses -``TOL_INFEASIBLE``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, check_instance, check_numbers, check_probabilities
from .measurement import _MEASURED_KETS
from .optimize import bisect
from .quantum import DensityMatrix

TOL_FEASIBLE = 1e-7
TOL_INFEASIBLE = 1e-6
_CERT_EIG_TOL = 1e-8


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# sqrt(2) T: the Bell states Phi-, Psi+, Phi+, Psi- as columns, in the
# computational basis; T M T^T = _BELL M _BELL^T / 2 with no rounding in T
_BELL = _frozen([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [-1, 0, 1, 0]])
# M's fixed entries m = (M_00, M_11, M_22, M_33, M_02, M_03, M_12, M_13) are
# _ENTRY_BASE + [p_xx | p_zz] @ _ENTRY_MAP, with X = <XX> and Z = <ZZ>:
# diag M = (1 - X + Z, 1 + X - Z, 1 + X + Z, 1 - X - Z) / 4, and each setting
# fixes two edges, XX (1, 2) and (0, 3), ZZ (0, 2) and (1, 3)
_ENTRY_MAP = _frozen(np.array([[-1, 1, 1, -1, 0, 0, 2, 0],
                               [1, -1, -1, 1, 0, -2, 0, 0],
                               [1, -1, -1, 1, 0, 2, 0, 0],
                               [-1, 1, 1, -1, 0, 0, -2, 0],
                               [1, -1, 1, -1, 2, 0, 0, 0],
                               [-1, 1, -1, 1, 0, 0, 0, 2],
                               [-1, 1, -1, 1, 0, 0, 0, -2],
                               [1, -1, 1, -1, -2, 0, 0, 0]]) / 4.0)
_ENTRY_BASE = _frozen([0.25] * 4 + [0.0] * 4)
# M(x, y) flattened, from m extended by x (entry 8) and y (entry 9); also
# lays out the witness W from its entries at the same places
_M_INDEX = np.array([0, 8, 4, 5, 8, 1, 6, 7, 4, 6, 2, 9, 5, 7, 9, 3])
# vec(T W T^T) = vec(W) @ _TO_COMPUTATIONAL, for W in the Bell frame
_TO_COMPUTATIONAL = _frozen(0.5 * np.kron(_BELL, _BELL).T)
# A = T M(x, y) T^T flattened is [m, x, y] @ _CERT_MAP; exact, as entries are
# multiples of 1/2
_CERT_MAP = _frozen((np.arange(10)[:, None] == _M_INDEX) @ _TO_COMPUTATIONAL)
# the blocks {0,1,2} and {0,1,3} of M at x (entry 8), flattened
_BLOCK_INDEX = np.array([[0, 8, 4, 8, 1, 6, 4, 6, 2], [0, 8, 5, 8, 1, 7, 5, 7, 3]])
# the eight measured projectors |u_k><u_k|, XX then ZZ outcomes, as C-contiguous
# real (8, 4, 4)
_PROJECTORS = _frozen(_MEASURED_KETS[:, :, None] * _MEASURED_KETS[:, None, :])
# below every lambda_min(M(0, 0)), by Gershgorin: M_ii >= -1/4, and each row
# has two off-diagonal entries, each at most 1/2 in size
_SHIFT_FLOOR = -1.5


class FeasibilityStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Target labeled probabilities for the XX and ZZ settings, stored as
    :func:`~qscramble.errors.check_probabilities` returns them, not the caller's."""

    p_xx: np.ndarray
    p_zz: np.ndarray

    def __post_init__(self):
        for name in ("p_xx", "p_zz"):
            object.__setattr__(self, name, check_probabilities(name, getattr(self, name), 1))


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    witness_state: DensityMatrix | None
    residual: float


def _apply(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rows @ table, each row summed in one fixed order: BLAS may round a row
    differently with the size of its batch, and no row's bits may depend on
    the batch it comes in."""
    return np.einsum("nk,kj->nj", rows, table)


def _bell_entries(p: np.ndarray) -> np.ndarray:
    """M's eight fixed entries (see ``_ENTRY_MAP``) for rows [p_xx | p_zz],
    as (8, n): entry c of every row is the contiguous row c."""
    return np.ascontiguousarray((_apply(p, _ENTRY_MAP) + _ENTRY_BASE).T)


def _interval(m: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the x at which both 3x3 blocks of M - sI are PSD, for the
    columns of ``m`` whose edges are; lo > hi when there is none.  ``s`` is a
    scalar or one shift per column.  A block whose diagonal entry e is 0 is
    computed with e = 1: its edges are PSD only when M_0k = M_1k = 0, and
    then the interval is the e -> 0 limit |x| <= sqrt(M_00 M_11)."""
    d = m[:4] - s
    e = np.where(d[2:] > 0.0, d[2:], 1.0)
    a, b = m[4:6], m[6:]
    h = np.sqrt(np.maximum((d[0] * e - a * a) * (d[1] * e - b * b), 0.0))
    ab = a * b
    lo, hi = (ab - h) / e, (ab + h) / e
    return np.maximum(lo[0], lo[1]), np.minimum(hi[0], hi[1])


def _edge_eigenvalues(m: np.ndarray) -> np.ndarray:
    """(4, n): lambda_min of the edges [[M_ii, M_ik], [M_ik, M_kk]], i = 0, 1
    and k = 2, 3, of each column of ``m``."""
    n = m.shape[1]
    di, dk = m[:2, None], m[None, 2:4]
    return (0.5 * (di + dk) - np.hypot(0.5 * (di - dk), m[4:].reshape(2, 2, n))).reshape(4, n)


def _completes(m: np.ndarray, lam_min: np.ndarray, s) -> np.ndarray:
    """Where M - sI has a PSD completion, for the columns of ``m`` whose
    edges have least eigenvalue ``lam_min``: its edges are PSD and its two
    intervals meet.  ``s`` is a scalar or one shift per column."""
    lo, hi = _interval(m, s)
    return (lam_min >= s) & (lo <= hi)


def _completion(m: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A = T M(x, y) T^T, (k, 4, 4), y the max-determinant completion of
    M - sI at x: y = u^T S^+ w with u = (M_02, M_12), w = (M_03, M_13) and
    S = [[M_00 - s, x], [x, M_11 - s]]; S^+ = adj(S) / det S, or S / Tr(S)^2
    where S has rank one."""
    d0, d1 = m[0] - s, m[1] - s
    u0, w0, u1, w1 = m[4:]
    det = d0 * d1 - x * x
    full = det > 0.0
    y = (u0 * (d1 * w0 - x * w1) + u1 * (d0 * w1 - x * w0)) / np.where(full, det, 1.0)
    r = np.flatnonzero(~full)
    if r.size:
        e0, e1, xr = d0[r], d1[r], x[r]
        tr2 = (e0 + e1) ** 2
        y[r] = ((u0[r] * (e0 * w0[r] + xr * w1[r]) + u1[r] * (e1 * w1[r] + xr * w0[r]))
                / np.where(tr2 > 0.0, tr2, 1.0))
    ext = np.concatenate([m.T, x[:, None], y[:, None]], axis=1)
    return _apply(ext, _CERT_MAP).reshape(-1, 4, 4)


def _witness(m: np.ndarray, lam: np.ndarray, lam_min: np.ndarray, s: np.ndarray,
             x: np.ndarray):
    """(W, Tr(W M)) for the columns of ``m`` whose M - sI has no PSD
    completion, one shift s per column, and x between the intervals of the
    columns whose edges pass; ``lam`` holds the four edges' lambda_min.

    W, in the Bell frame, is PSD with trace one and W_01 = W_23 = 0: v v^T
    for the least eigenvector v of an edge that fails, else |2 w_0 w_1| v v^T
    + |2 v_0 v_1| w w^T for the least eigenvectors v, w of the blocks {0,1,2}
    and {0,1,3} at x.  It is returned as (10, k), laid out as m extended by
    x and y: its entries at M's eight fixed places, W_01 and W_23 = 0.  The
    margin is +inf where W_01 came out nonzero, which the slopes' opposite
    signs rule out up to rounding.
    """
    w = np.zeros((10, m.shape[1]))  # row 9: W_23, which stays 0
    on_edge = lam_min < s
    r = np.flatnonzero(on_edge)
    if r.size:
        edge = lam[:, r].argmin(axis=0)
        i, block = edge >> 1, edge & 1
        theta = 0.5 * np.arctan2(2.0 * m[4 + edge, r], m[i, r] - m[2 + block, r])
        sin, cos = np.sin(theta), np.cos(theta)
        w[i, r], w[4 + edge, r], w[2 + block, r] = sin * sin, -sin * cos, cos * cos
    g = np.flatnonzero(~on_edge)
    if g.size:
        blocks = np.concatenate([m[:, g], x[None, g]])[_BLOCK_INDEX]
        v = np.linalg.eigh(np.moveaxis(blocks, -1, 0).reshape(-1, 2, 3, 3))[1][..., 0]
        v = v.transpose(1, 2, 0)  # (2, 3, g): the vector of each block
        weight = np.abs(2.0 * v[::-1, 0] * v[::-1, 1])
        # weight (v_a v_b), not (weight v_a) v_b: only this order cancels W_01 exactly
        p = weight[:, None, None] * (v[:, :, None] * v[:, None, :])
        w[:9, g] = [p[0, 0, 0] + p[1, 0, 0], p[0, 1, 1] + p[1, 1, 1], p[0, 2, 2], p[1, 2, 2],
                    p[0, 0, 2], p[1, 0, 2], p[0, 1, 2], p[1, 1, 2], p[0, 0, 1] + p[1, 0, 1]]
    w /= np.maximum(((w[0] + w[1]) + w[2]) + w[3], np.finfo(float).tiny)
    t = w[:8] * m
    margin = (((t[0] + t[1]) + t[2]) + t[3]) + 2.0 * (((t[4] + t[5]) + t[6]) + t[7])
    return w, np.where(w[8] == 0.0, margin, np.inf)


def _lmi(m: np.ndarray):
    """Decide the completion problem for each column of fixed entries ``m``,
    shape (8, n) as :func:`_bell_entries` returns it.

    Returns (code, a, witness, value): code 1 for feasible rows, -1 where a
    witness checked and 0 otherwise; ``a`` holds A = T M(x, y) T^T of the
    rows with code 1 and ``witness`` the Bell-frame W of those with code -1,
    each (k, 4, 4) in row order.  ``value`` is 0 for feasible rows that pass
    the test on M itself and -1e-8, a bound on lambda_min(A), for those that
    need the shift; Tr(W rho_b) for infeasible rows, and s* for the others.
    """
    n = m.shape[1]
    code = np.zeros(n, dtype=np.int8)
    value = np.zeros(n)
    lam = _edge_eigenvalues(m)
    lam_min = lam.min(axis=0)  # elementwise, over contiguous rows
    lo, hi = _interval(m, 0.0)
    ok = (lam_min >= 0.0) & (lo <= hi)
    x, shift = 0.5 * (lo + hi), np.zeros(n)
    redo = np.flatnonzero(~ok)
    shift[redo] = -_CERT_EIG_TOL
    # the decision: M + 1e-8 I, whose intervals matter only where its edges pass
    redo = redo[lam_min[redo] >= -_CERT_EIG_TOL]
    if redo.size:
        lo, hi = _interval(m[:, redo], -_CERT_EIG_TOL)
        x[redo] = 0.5 * (lo + hi)
        ok[redo] = lo <= hi
    hit = np.flatnonzero(ok)
    code[hit] = 1
    value[hit] = shift[hit]
    a = _completion(m[:, hit], shift[hit], x[hit]) if hit.size else np.zeros((0, 4, 4))
    rest = np.flatnonzero(~ok)
    if not rest.size:
        return code, a, np.zeros((0, 4, 4)), value
    m, lam, lam_min, s = m[:, rest], lam[:, rest], lam_min[rest], shift[rest]
    w, margin = _witness(m, lam, lam_min, s, x[rest])
    found = margin <= -TOL_INFEASIBLE
    short = np.flatnonzero(~found)
    if short.size:
        # rebuild W just above s*, bisected between a shift at which every
        # M - sI is PSD at x = y = 0 and the failing -1e-8
        m, lam, lam_min = m[:, short], lam[:, short], lam_min[short]
        s_lo, s_hi = bisect(lambda t: _completes(m, lam_min, t),
                            np.full(short.size, _SHIFT_FLOOR), s[short], 50)
        lo, hi = _interval(m, s_hi)
        w[:, short], rebuilt = _witness(m, lam, lam_min, s_hi, 0.5 * (lo + hi))
        found[short] = rebuilt <= -TOL_INFEASIBLE
        margin[short] = np.where(found[short], rebuilt, 0.5 * (s_lo + s_hi))
    code[rest[found]] = -1
    value[rest] = margin
    return code, a, w[_M_INDEX][:, found].T.reshape(-1, 4, 4), value


def _checked_pair(p_xx, p_zz) -> np.ndarray:
    """[p_xx | p_zz], shape (n, 8), each checked as (n, 4) rows by
    :func:`~qscramble.errors.check_probabilities`: in one pass when their shapes
    match, and again one input at a time on failure, for an error naming it."""
    p_xx, p_zz = check_numbers("p_xx", p_xx), check_numbers("p_zz", p_zz)
    if p_xx.ndim == 2 and p_xx.shape[1] == 4 and p_zz.shape == p_xx.shape:
        p = np.concatenate([p_xx, p_zz], axis=1).reshape(-1, 4)
        with contextlib.suppress(DomainError):
            return check_probabilities("rows", p, 2).reshape(-1, 8)
    check_probabilities("p_xx", p_xx, 2)
    check_probabilities("p_zz", p_zz, 2)
    # both pass, so only their shapes can differ
    raise DomainError(f"p_xx and p_zz shapes differ: {p_xx.shape} vs {p_zz.shape}")


# indexed by code: 0 inconclusive, 1 feasible, -1 infeasible
_STATUS_OF_CODE = np.array([FeasibilityStatus.INCONCLUSIVE, FeasibilityStatus.FEASIBLE,
                            FeasibilityStatus.INFEASIBLE], dtype=object)


def _solve_codes(p_xx, p_zz):
    """(codes, certs, value): :func:`solve_batch`'s decision as int8 codes, 1
    for rows certified feasible, -1 for rows witnessed infeasible and 0 for
    inconclusive ones; ``certs`` the certificate states of the rows with code
    1, in row order; ``value`` as ``_lmi`` returns it, except that rows the
    test passes hold :func:`_certificate`'s lambda_min."""
    p = _checked_pair(p_xx, p_zz)
    code, a, _, value = _lmi(_bell_entries(p))
    hit = np.flatnonzero(code == 1)
    certs, value[hit] = _certificate(a, value[hit])
    rows = _apply(certs.reshape(-1, 16), _PROJECTORS.reshape(8, 16).T)
    # the worst column by elementwise maxima: numpy reduces a short last axis slowly
    ok = np.ascontiguousarray(np.abs(rows - p[hit]).T).max(axis=0) <= TOL_FEASIBLE
    code[hit[~ok]] = 0
    return code, certs[ok], value


def solve_batch(p_xx: np.ndarray, p_zz: np.ndarray):
    """Decide a stack of feasibility problems.

    Parameters are target probability rows ``p_xx``, ``p_zz`` of shape (n, 4);
    rows that fail :func:`~qscramble.errors.check_probabilities` raise
    :class:`DomainError`.  Rows are solved as that check returns them, clipped
    to [0, 1] and not renormalized, by the closed-form completion test of the
    module docstring: feasible when max_t lambda_min(A(t)) >= -1e-8.  A
    certificate state must reproduce its rows within ``TOL_FEASIBLE`` (1e-7)
    and a witness must have margin at most -``TOL_INFEASIBLE`` (-1e-6); a row
    for which neither checks is inconclusive.

    Returns (statuses, states, residuals, cycles): statuses a list of
    :class:`FeasibilityStatus`; states real certificate matrices for feasible
    rows and None otherwise; residuals max(0, -lambda_min(A)) for feasible
    rows (0 when the test passes on M itself, so that A needs no clipping),
    the witness margin -Tr(W rho_b) for infeasible ones and -s* for
    inconclusive ones; cycles an int array of zeros, since nothing iterates.
    Every status is one of the three :class:`FeasibilityStatus` members
    itself, so ``is`` compares them.
    """
    code, certs, value = _solve_codes(p_xx, p_zz)
    states: list[np.ndarray | None] = [None] * len(code)
    for i, cert in zip(np.flatnonzero(code == 1).tolist(), certs):
        states[i] = cert
    # np.maximum returns its second operand on a tie, so value 0 reports +0.0
    residuals = np.where(code == -1, -value, np.maximum(-value, 0.0))
    return _STATUS_OF_CODE[code].tolist(), states, residuals, np.zeros(len(code), dtype=np.int64)


def _certificate(a: np.ndarray, low: np.ndarray):
    """(cert, lam): every A renormalized to trace one, those with ``low < 0``
    first clipped to their PSD part; lam is their lambda_min, and ``low``
    for the others."""
    neg = np.flatnonzero(low < 0.0)
    if neg.size:
        a, low = a.copy(), low.copy()
        w, v = np.linalg.eigh(a[neg])
        clipped = (v * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(v, -1, -2)
        a[neg] = np.where(w[:, :1, None] < 0.0, clipped, a[neg])
        low[neg] = w[:, 0]
    return a / np.trace(a, axis1=1, axis2=2)[:, None, None], low


def feasible_for_probabilities(problem: FeasibilityProblem) -> FeasibilityResult:
    """Decide one labeled-probability instance; see the module docstring."""
    check_instance("feasible_for_probabilities", problem, FeasibilityProblem)
    statuses, states, viol, _ = solve_batch(problem.p_xx[None], problem.p_zz[None])
    state = DensityMatrix(states[0]) if states[0] is not None else None
    return FeasibilityResult(statuses[0], state, float(viol[0]))
