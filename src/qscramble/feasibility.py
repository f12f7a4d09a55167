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
iteration and no eigendecomposition.  The test runs on M + 1e-8 I, so a row
is feasible when s* = max_t lambda_min(A(t)) >= -1e-8.  Each verdict carries
a certificate that is checked apart from the test:

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
batch.  Every decision goes through ``_solve_codes``: the input check, the
test and the certificate check, returning int8 codes (1 certified feasible,
-1 witnessed infeasible, 0 inconclusive) and the certificates.
:func:`solve_batch` turns them into statuses, states and residuals; a scan
uses the codes for its true rows.  This module decides labeled rows only;
:mod:`~qscramble.detector` alone expands scrambled data into its 18
canonical assignments and folds their verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_numbers
from .measurement import PROB_ENTRY_ATOL, PROB_SUM_ATOL, XX, ZZ, setting
from .optimize import bisect
from .quantum import DensityMatrix, _ginibre, derive_seed

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
# M(x, y) flattened, from m extended by x (column 8) and y (column 9)
_M_INDEX = np.array([0, 8, 4, 5, 8, 1, 6, 7, 4, 6, 2, 9, 5, 7, 9, 3])
# row c: where column c of [m, x, y] sits in M(x, y), flattened
_PATTERN = _frozen(np.arange(10)[:, None] == _M_INDEX)
# vec(T W T^T) = vec(W) @ _TO_COMPUTATIONAL, for W in the Bell frame
_TO_COMPUTATIONAL = _frozen(0.5 * np.kron(_BELL, _BELL).T)
# A = T M(x, y) T^T flattened is [m, x, y] @ _CERT_MAP; exact, as entries are
# multiples of 1/2
_CERT_MAP = _frozen(_PATTERN @ _TO_COMPUTATIONAL)
# the blocks {0,1,2} and {0,1,3} of M at x (column 8), flattened
_BLOCK_INDEX = np.array([[0, 8, 4, 8, 1, 6, 4, 6, 2], [0, 8, 5, 8, 1, 7, 5, 7, 3]])
# (2, 3, 3) blocks of outer products, flattened, to their places in a 4x4
_BLOCK_EMBED = _frozen(np.arange(16) == np.array([[0, 1, 2], [4, 5, 6], [8, 9, 10],
                                                  [0, 1, 3], [4, 5, 7], [12, 13, 15]])
                       .reshape(18, 1))
# below every lambda_min(M(0, 0)), by Gershgorin: M_ii >= -1/4, and each row
# has two off-diagonal entries, each at most 1/2 in size
_SHIFT_FLOOR = -1.5


class FeasibilityStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Target labeled probabilities for the XX and ZZ settings, checked by
    the rule of :func:`solve_batch` and stored as given."""

    p_xx: np.ndarray
    p_zz: np.ndarray

    def __post_init__(self):
        for name in ("p_xx", "p_zz"):
            # the list makes a copy, so the stored rows are not the caller's
            p = _checked_rows([getattr(self, name)], name)[0]
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


def _apply(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rows @ table, each row summed in one fixed order: BLAS may round a row
    differently with the size of its batch, and no row's bits may depend on
    the batch it comes in."""
    return np.einsum("nk,kj->nj", rows, table)


def _bell_entries(p: np.ndarray) -> np.ndarray:
    """M's eight fixed entries (see ``_ENTRY_MAP``) for rows [p_xx | p_zz]."""
    return _apply(p, _ENTRY_MAP) + _ENTRY_BASE


def _edge_eigenvalues(m: np.ndarray) -> np.ndarray:
    """lambda_min of each row's four edges [[M_ii, M_ik], [M_ik, M_kk]], as
    (n, 2, 2) over i = 0, 1 and k = 2, 3."""
    di, dk = m[:, :2, None], m[:, None, 2:4]
    return 0.5 * (di + dk) - np.hypot(0.5 * (di - dk), m[:, 4:].reshape(-1, 2, 2))


def _x_interval(m: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the x at which both 3x3 blocks of M - sI are PSD, for rows
    whose edges are; lo > hi when there is none.  ``s`` is a scalar or one
    shift per row, shape (n, 1).  A block whose diagonal entry e is 0 is
    computed with e = 1: its edges are PSD only when M_0k = M_1k = 0, and
    then the interval is the e -> 0 limit |x| <= sqrt(M_00 M_11)."""
    d = m[:, :4] - s
    e = np.where(d[:, 2:] > 0.0, d[:, 2:], 1.0)
    a, b = m[:, 4:6], m[:, 6:]
    h = np.sqrt(np.maximum((d[:, :1] * e - a * a) * (d[:, 1:2] * e - b * b), 0.0))
    ab = a * b
    lo, hi = (ab - h) / e, (ab + h) / e
    # two columns each: numpy reduces so short an axis many times slower
    return np.maximum(lo[:, 0], lo[:, 1]), np.minimum(hi[:, 0], hi[:, 1])


def _completes(m: np.ndarray, lam_min: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows whose M - sI has a PSD completion, one shift per row."""
    lo, hi = _x_interval(m, s[:, None])
    return (lam_min >= s) & (lo <= hi)


def _completion(m: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A = T M(x, y) T^T, y the max-determinant completion of M - sI at x:
    y = u^T S^+ w with u = (M_02, M_12), w = (M_03, M_13) and S = [[M_00 - s,
    x], [x, M_11 - s]]; S^+ = adj(S) / det S, or S / Tr(S)^2 where S has
    rank one."""
    d = m[:, :2] - s[:, None]
    u, w, xc = m[:, 4::2], m[:, 5::2], x[:, None]
    det = d[:, 0] * d[:, 1] - x * x
    full = det > 0.0
    y = (u * (d[:, ::-1] * w - xc * w[:, ::-1])).sum(axis=1) / np.where(full, det, 1.0)
    r = np.flatnonzero(~full)
    if r.size:
        tr2 = d[r].sum(axis=1) ** 2
        y[r] = ((u[r] * (d[r] * w[r] + xc[r] * w[r, ::-1])).sum(axis=1)
                / np.where(tr2 > 0.0, tr2, 1.0))
    return _apply(np.concatenate([m, xc, y[:, None]], axis=1), _CERT_MAP).reshape(-1, 4, 4)


def _witness(m: np.ndarray, lam: np.ndarray, lam_min: np.ndarray, s: np.ndarray,
             x: np.ndarray):
    """(W, Tr(W M)) for rows whose M - sI has no PSD completion, one shift s
    per row, and x between the intervals of the rows whose edges pass.

    W, flattened and in the Bell frame, is PSD with trace one and W_01 =
    W_23 = 0: v v^T for the least eigenvector v of an edge that fails, else
    |2 w_0 w_1| v v^T + |2 v_0 v_1| w w^T for the least eigenvectors v, w of
    the blocks {0,1,2} and {0,1,3} at x.  The margin is +inf where W_01 came
    out nonzero, which the slopes' opposite signs rule out up to rounding.
    """
    k = len(m)
    vecs = np.zeros((k, 2, 3))  # one vector on each block, its third entry vertex 2 or 3
    weight = np.zeros((k, 2))
    on_edge = lam_min < s
    r = np.flatnonzero(on_edge)
    if r.size:
        edge = lam[r].reshape(-1, 4).argmin(axis=1)
        i, block = edge >> 1, edge & 1
        theta = 0.5 * np.arctan2(2.0 * m[r, 4 + edge], m[r, i] - m[r, 2 + block])
        vecs[r, block, i], vecs[r, block, 2] = -np.sin(theta), np.cos(theta)
        weight[r, block] = 1.0
    g = np.flatnonzero(~on_edge)
    if g.size:
        ext = np.concatenate([m[g], x[g, None]], axis=1)
        vecs[g] = np.linalg.eigh(ext[:, _BLOCK_INDEX].reshape(-1, 2, 3, 3))[1][..., 0]
        weight[g] = np.abs(2.0 * vecs[g, ::-1, 0] * vecs[g, ::-1, 1])
    w = (weight[:, :, None, None] * (vecs[:, :, :, None] * vecs[:, :, None, :])).reshape(k, 18)
    w = w @ _BLOCK_EMBED
    w /= np.maximum(w[:, ::5].sum(axis=1), np.finfo(float).tiny)[:, None]
    margin = np.einsum("nk,jk,nj->n", w, _PATTERN[:8], m)
    return w, np.where(w[:, 1] == 0.0, margin, np.inf)


def _lmi(m: np.ndarray):
    """Decide the completion problem for each row of fixed entries ``m``.

    Returns (code, a, witness, value): code 1 for feasible rows, -1 where a
    witness checked and 0 otherwise; ``a`` holds A = T M(x, y) T^T of the
    rows with code 1 and ``witness`` the Bell-frame W of those with code -1,
    each in row order.  ``value`` is 0 for feasible rows that pass
    the test on M itself and -1e-8, a bound on lambda_min(A), for those that
    need the shift; Tr(W rho_b) for infeasible rows, and s* for the others.
    """
    n = len(m)
    code = np.zeros(n, dtype=np.int8)
    value = np.zeros(n)
    lam = _edge_eigenvalues(m)
    lam_min = lam.min(axis=(1, 2))
    lo, hi = _x_interval(m, 0.0)
    ok = (lam_min >= 0.0) & (lo <= hi)
    x, shift = 0.5 * (lo + hi), np.zeros(n)
    redo = np.flatnonzero(~ok)
    if redo.size:
        # the decision: M + 1e-8 I
        lo, hi = _x_interval(m[redo], -_CERT_EIG_TOL)
        x[redo], shift[redo] = 0.5 * (lo + hi), -_CERT_EIG_TOL
        ok[redo] = (lam_min[redo] >= -_CERT_EIG_TOL) & (lo <= hi)
    hit = np.flatnonzero(ok)
    code[hit] = 1
    value[hit] = shift[hit]
    a = _completion(m[hit], shift[hit], x[hit]) if hit.size else np.zeros((0, 4, 4))
    rest = np.flatnonzero(~ok)
    if not rest.size:
        return code, a, np.zeros((0, 4, 4)), value
    m, lam, lam_min, s = m[rest], lam[rest], lam_min[rest], shift[rest]
    w, margin = _witness(m, lam, lam_min, s, x[rest])
    found = margin <= -TOL_INFEASIBLE
    short = np.flatnonzero(~found)
    if short.size:
        # rebuild W just above s*, bisected between a shift at which every
        # M - sI is PSD at x = y = 0 and the failing -1e-8
        m, lam, lam_min = m[short], lam[short], lam_min[short]
        s_lo, s_hi = bisect(lambda t: _completes(m, lam_min, t),
                            np.full(short.size, _SHIFT_FLOOR), s[short], 50)
        lo, hi = _x_interval(m, s_hi[:, None])
        w[short], rebuilt = _witness(m, lam, lam_min, s_hi, 0.5 * (lo + hi))
        found[short] = rebuilt <= -TOL_INFEASIBLE
        margin[short] = np.where(found[short], rebuilt, 0.5 * (s_lo + s_hi))
    code[rest[found]] = -1
    value[rest] = margin
    return code, a, w[found].reshape(-1, 4, 4), value


def _checked_rows(p, name: str) -> np.ndarray:
    p = check_numbers(name, p)
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


def _checked_pair(p_xx, p_zz) -> np.ndarray:
    """[p_xx | p_zz], shape (n, 8), once both pass :func:`_checked_rows`.

    Valid rows take one combined pass of the same conditions (a NaN fails
    each of them); any failure reruns the checks one input at a time for
    their error."""
    p_xx = check_numbers("p_xx", p_xx)
    p_zz = check_numbers("p_zz", p_zz)
    if p_xx.ndim == 2 and p_xx.shape[1] == 4 and p_zz.shape == p_xx.shape and p_xx.size:
        p = np.concatenate([p_xx, p_zz], axis=1)
        if (p.min() >= -PROB_ENTRY_ATOL and p.max() <= 1.0 + PROB_ENTRY_ATOL
                and np.abs(p.reshape(-1, 2, 4).sum(axis=2) - 1.0).max() <= PROB_SUM_ATOL):
            return p
    p_xx = _checked_rows(p_xx, "p_xx")
    p_zz = _checked_rows(p_zz, "p_zz")
    if p_xx.shape != p_zz.shape:
        raise DomainError(f"p_xx and p_zz shapes differ: {p_xx.shape} vs {p_zz.shape}")
    return np.concatenate([p_xx, p_zz], axis=1)


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
    rows = _apply(certs.reshape(-1, 16), _projectors().reshape(8, 16).T)
    ok = np.abs(rows - p[hit]).max(axis=1) <= TOL_FEASIBLE
    code[hit[~ok]] = 0
    return code, certs[ok], value


def solve_batch(p_xx: np.ndarray, p_zz: np.ndarray):
    """Decide a stack of feasibility problems.

    Parameters are target probability rows ``p_xx``, ``p_zz`` of shape (n, 4);
    rows with non-finite entries, entries outside [-1e-9, 1 + 1e-9] or a sum
    off 1 by more than 1e-9 raise :class:`DomainError`.  Rows are solved as
    given, without renormalization, by the closed-form completion test of the
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


def _require(value, kind: type, caller: str) -> None:
    """:class:`DomainError` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise DomainError(f"{caller} expects a {kind.__name__}, got {type(value)!r}")


def feasible_for_probabilities(problem: FeasibilityProblem) -> FeasibilityResult:
    """Decide one labeled-probability instance; see the module docstring."""
    _require(problem, FeasibilityProblem, "feasible_for_probabilities")
    statuses, states, viol, cycles = solve_batch(problem.p_xx[None], problem.p_zz[None])
    state = DensityMatrix(states[0]) if states[0] is not None else None
    return FeasibilityResult(statuses[0], state, float(viol[0]), int(cycles[0]))


# ---------------------------------------------------------------------------
# Independent oracle: direct minimization of the constraint violation over a
# parametrized family of PPT states.  Kept deliberately separate from the
# closed-form solver so the two routes share no machinery.
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
