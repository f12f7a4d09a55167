"""Orchestration: scrambled-data verdicts, multi-method detection reports,
scans, and the paper checks.

The three detection routes are ordered by strength on this data: the
feasibility engine (sdp) is complete, so anything the witness family or the
entropy pair detects must also be sdp-detected.  Each route decides stacks
of sorted multisets in one function: sdp in ``_decide`` below, the witness
family in ``witness._family_values`` and the entropy pair in
``entropy._decide_pairs``.  :func:`detect` keeps their verdicts side by side.

Scrambled data is decided here, labeled rows in :mod:`~qscramble.feasibility`.
``_assignment_rows`` alone expands sorted multisets into their 18 canonical
assignments.  ``_decide`` solves those rows in one ``solve_batch`` call and
folds each sample's statuses into one code; it backs the sdp method, the
slice grid and the scans' second stage.  ``_ray_search``, the one bisection
behind :func:`nonconvex_slice` and :func:`star_convexity_ray`, builds the
rows' Bell-frame entries once per ray end: on (1 - lambda) I/4 + lambda rho
each row's s* is affine in lambda, so every midpoint is decided by the
solver's closed-form completion test at one shift, without a solve.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import witness
from .entropy import _TSALLIS2, EntropySpec, _decide_pairs
from .errors import DomainError, check_count, check_instance, check_real
from .feasibility import (TOL_INFEASIBLE, FeasibilityStatus, _bell_entries, _completes,
                          _edge_eigenvalues, _solve_codes, solve_batch)
from .measurement import (_CANONICAL, _CANONICAL_X, _CANONICAL_Z, XX, ZZ, PermutationPair,
                          ScrambledData, apply_permutation, canonical_permutations,
                          ginibre_probabilities, probabilities, scramble_equivalent,
                          scramble_state)
from .optimize import bisect
from .quantum import (SIGMA_X, SIGMA_Z, I2, DensityMatrix, ginibre_stack, is_ppt, mix,
                      phi_plus, plus_zero)
# random_hs_stack, probabilities_stack, get_separable_boundary and tangent_curve
# are not called here; they are re-exported because bench/spans.py traces calls
# looked up as detector.<name>
from .entropy import get_separable_boundary  # noqa: F401
from .measurement import probabilities_stack  # noqa: F401
from .quantum import random_hs_stack  # noqa: F401
from .witness import (correlation_witness_values, scrambled_family_min,  # noqa: F401
                      tangent_curve)

# samples drawn per chunk; a chunk decides its true labelings in one
# _solve_codes call and, when scrambled, the rest in one _decide call
_SCAN_CHUNK = 8192
_ALL_METHODS = ("sdp", "witness", "entropy")


# ---------------------------------------------------------------------------
# Paper states used by the non-convexity construction.
# ---------------------------------------------------------------------------


def rho1() -> DensityMatrix:
    """The separable counterexample endpoint with Bloch coefficients
    -7/10 on the four local terms and +1/2 on the four x/z correlations."""
    m = np.kron(I2, I2).astype(complex)
    for op in (np.kron(I2, SIGMA_X), np.kron(SIGMA_X, I2),
               np.kron(I2, SIGMA_Z), np.kron(SIGMA_Z, I2)):
        m -= 0.7 * op
    for op in (np.kron(SIGMA_X, SIGMA_X), np.kron(SIGMA_Z, SIGMA_Z),
               np.kron(SIGMA_X, SIGMA_Z), np.kron(SIGMA_Z, SIGMA_X)):
        m += 0.5 * op
    return DensityMatrix(m / 4.0)


def counterexample_mixture() -> DensityMatrix:
    """5/6 rho1 + 1/6 |Phi+><Phi+|, the detectable mixture of two
    possibly-separable states."""
    return mix(rho1(), phi_plus().density(), 1.0 / 6.0)


# ---------------------------------------------------------------------------
# Scrambled data: the 18 assignments, and rays from the maximally mixed state.
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    DETECTED = "detected"
    POSSIBLY_SEPARABLE = "possibly_separable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeparabilityEvidence:
    """Per-assignment solver outcomes backing a scrambled-data verdict."""

    statuses: tuple[FeasibilityStatus, ...]
    permutation: PermutationPair | None = None
    state: DensityMatrix | None = None
    residuals: tuple[float, ...] = field(default=())


_VERDICT_OF_CODE = {1: Verdict.DETECTED, 0: Verdict.POSSIBLY_SEPARABLE, -1: Verdict.INCONCLUSIVE}
_CODE_OF_STATUS = {FeasibilityStatus.FEASIBLE: 1, FeasibilityStatus.INCONCLUSIVE: 0,
                   FeasibilityStatus.INFEASIBLE: -1}
# a status's text in detect's evidence, read without the enum's value property
_TEXT_OF_STATUS = {status: status.value for status in FeasibilityStatus}
# a sample's verdict is its assignments' greatest code: any feasible row (1)
# makes it possibly separable (0), else any inconclusive row (0) inconclusive
# (-1), and only infeasible rows (-1) detected (1); indexed by that code,
# -1 reaching the last entry
_VERDICT_OF_MAX_CODE = np.array([-1, 0, 1], dtype=np.int8)


def _fold(codes: np.ndarray, k: int) -> np.ndarray:
    """One int8 verdict code per consecutive block of ``k`` int8 solver codes."""
    return _VERDICT_OF_MAX_CODE[codes.reshape(-1, k).max(axis=1)]


def _assignment_rows(mx: np.ndarray, mz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_xx, p_zz), each (18 n, 4): the assignment rows of sorted
    (descending) multisets (n, 4).  Row ``18 i + j`` gives outcome ``k`` of
    sample ``i`` the ``pi[k]``-th largest entry, pi canonical assignment ``j``."""
    return mx[:, _CANONICAL_X].reshape(-1, 4), mz[:, _CANONICAL_Z].reshape(-1, 4)


def _decide(mx: np.ndarray, mz: np.ndarray):
    """(codes, statuses, states, residuals): ``solve_batch`` on the 18 n
    assignment rows of sorted (descending) multisets (n, 4), in the order of
    :func:`_assignment_rows`, and one code per sample."""
    statuses, states, residuals, _ = solve_batch(*_assignment_rows(mx, mz))
    codes = np.fromiter(map(_CODE_OF_STATUS.__getitem__, statuses), dtype=np.int8,
                        count=len(statuses))
    return _fold(codes, len(_CANONICAL)), statuses, states, residuals


def _ray_search(mx: np.ndarray, mz: np.ndarray, resolution: int):
    """(lo, hi): [0, 1] halved ceil(log2(resolution)) times towards the
    detection threshold of lambda on each ray (1 - lambda) I/4 + lambda rho,
    given by the sorted multisets of its rho.

    Each assignment's Bell-frame matrix along the ray is M(lambda) =
    (1 - lambda) I/4 + lambda M, M that of rho, so its s*(lambda) = (1 -
    lambda)/4 + lambda s* is affine in lambda, and s*(lambda) <
    -``TOL_INFEASIBLE``, the margin at which the solver witnesses a row
    infeasible, holds exactly when M - sI has no PSD completion, s = -((1 -
    lambda)/4 + ``TOL_INFEASIBLE``)/lambda.  A midpoint is detected when that
    holds for all 18 assignments.  The entries and edge eigenvalues of M are
    built once per ray, and each midpoint costs one closed-form completion
    test per assignment, with no certificate; the decisions are ``_decide``'s
    up to rounding.  As s*(lambda) is affine and s*(0) = 1/4, each row's
    test flips once along the ray, and so does the sample's.
    """
    m = _bell_entries(np.concatenate(_assignment_rows(mx, mz), axis=1))
    lam_min = _edge_eigenvalues(m).min(axis=0)
    k = len(_CANONICAL)

    def undetected(lam):
        s = np.repeat(-((1.0 - lam) * 0.25 + TOL_INFEASIBLE) / lam, k)
        return _completes(m, lam_min, s).reshape(-1, k).any(axis=1)

    steps = max(1, math.ceil(math.log2(resolution)))
    return bisect(undetected, np.zeros(len(mx)), 1.0, steps)


def scrambled_possibly_separable(d: ScrambledData) -> tuple[Verdict, SeparabilityEvidence]:
    """Decide whether any separable state reproduces some assignment of ``d``:
    possibly separable on the first (lowest canonical index) feasible one of
    the 18, detected when all are infeasible, inconclusive otherwise."""
    check_instance("scrambled_possibly_separable", d, ScrambledData)
    codes, statuses, states, viol = _decide(d.multiset(XX)[None], d.multiset(ZZ)[None])
    verdict = _VERDICT_OF_CODE[int(codes[0])]
    evidence = dict(statuses=tuple(statuses), residuals=tuple(viol.tolist()))
    if verdict is Verdict.POSSIBLY_SEPARABLE:
        i = statuses.index(FeasibilityStatus.FEASIBLE)
        evidence.update(permutation=canonical_permutations()[i],
                        state=DensityMatrix(states[i]))
    return verdict, SeparabilityEvidence(**evidence)


def star_convexity_ray(rho: DensityMatrix, resolution: int = 256) -> float:
    """Detectability threshold along the ray from the maximally mixed state.

    ``rho`` itself is decided by the solver; when detected, the weight lambda
    of ``mix(I/4, rho, lambda)`` is bisected (``_ray_search``).  Each
    assignment's s*(lambda) = (1 - lambda)/4 + lambda s* is affine in lambda,
    so the verdict flips once, and a weight is shown detected when every
    assignment's s*(lambda) < -``TOL_INFEASIBLE`` (1e-6), the margin at which
    the solver certifies a row infeasible with a witness.  Returns the upper
    end of the final bracket, the least weight shown detected, or 1.0 when
    ``rho`` is not detected or the threshold lies in the top bracket: the
    counterexample mixture gives 1.0 at resolution 2 and 0.859375 at 64.  A
    row with s*(lambda) between -1e-6 and -1e-8, which the solver reports
    inconclusive, counts as not detected, which can only push the reported
    threshold outward.
    """
    check_instance("star_convexity_ray", rho, DensityMatrix)
    resolution = check_count("resolution", resolution, 2)
    data = scramble_state(rho)
    mx, mz = data.multiset(XX)[None], data.multiset(ZZ)[None]
    if _decide(mx, mz)[0][0] != 1:
        return 1.0
    return float(_ray_search(mx, mz, resolution)[1][0])


# ---------------------------------------------------------------------------
# Multi-method detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionReport:
    """Per-method verdicts plus the aggregated one.

    ``methods`` maps method name to one of "detected", "not_detected",
    "possibly_separable", "inconclusive" or "error: ...".  A failed method's
    evidence is {"error": <exception class name>, "message": <text>}.

    ``overall`` is "detected" as soon as any method detects; otherwise
    "inconclusive" if sdp is inconclusive or any method failed; otherwise
    "possibly_separable" if sdp ran, as only sdp certifies that, and
    "not_detected" if it did not.
    """

    methods: Mapping[str, str]
    overall: str
    evidence: Mapping[str, object] = field(default_factory=dict)


def detect(inp, methods: Iterable[str] = _ALL_METHODS, *,
           spec_x: EntropySpec | None = None,
           spec_z: EntropySpec | None = None) -> DetectionReport:
    """Run the requested detection methods on a state or its scrambled data.

    Bad methods, inputs, specs and missing settings raise before any method runs.
    """
    if isinstance(methods, str):
        raise DomainError(f"methods must be a list such as [{methods!r}], not a string")
    methods = set(map(str, check_instance("detect (methods)", methods, Iterable)))  # read once
    unknown = methods - set(_ALL_METHODS)
    if unknown:
        raise DomainError(f"unknown detection methods {sorted(unknown)}")
    if not methods:
        raise DomainError(f"no detection method requested; choose from {list(_ALL_METHODS)}")
    wanted = [m for m in _ALL_METHODS if m in methods]
    data = check_instance("detect", inp, (DensityMatrix, ScrambledData))
    data = scramble_state(data) if isinstance(data, DensityMatrix) else data
    spec_x = check_instance("detect (spec_x)", _TSALLIS2 if spec_x is None else spec_x, EntropySpec)
    spec_z = check_instance("detect (spec_z)", _TSALLIS2 if spec_z is None else spec_z, EntropySpec)
    mx, mz = data.multiset(XX)[None], data.multiset(ZZ)[None]  # every method needs both

    verdicts: dict[str, str] = {}
    evidence: dict[str, object] = {}
    for method in wanted:
        try:
            if method == "sdp":
                verdict, ev = scrambled_possibly_separable(data)
                verdicts[method] = verdict.value
                evidence[method] = {
                    "statuses": list(map(_TEXT_OF_STATUS.__getitem__, ev.statuses)),
                    "permutation": None if ev.permutation is None else
                        {"pi_x": list(ev.permutation.pi_x), "pi_z": list(ev.permutation.pi_z)},
                    "residuals": list(ev.residuals),
                }
                if ev.state is not None:
                    evidence[method]["state"] = ev.state.matrix.tolist()
            elif method == "witness":
                value, params = scrambled_family_min(data)
                detected = value < -witness.WITNESS_DETECT_TOL
                verdicts[method] = "detected" if detected else "not_detected"
                evidence[method] = {"value": value,
                                    "alpha": params[0], "gamma": params[1]}
            else:
                s_x, s_z, bound, detected = _decide_pairs(mx, mz, spec_x, spec_z)
                verdicts[method] = "detected" if detected[0] else "not_detected"
                evidence[method] = {"s_xx": float(s_x[0]), "s_zz": float(s_z[0]),
                                    "separable_bound": float(bound[0])}
        except Exception as exc:  # recorded per method, never fatal to the report
            verdicts[method] = f"error: {exc}"
            evidence[method] = {"error": type(exc).__name__, "message": str(exc)}

    if any(v == "detected" for v in verdicts.values()):
        overall = Verdict.DETECTED.value
    elif (verdicts.get("sdp") == Verdict.INCONCLUSIVE.value
          or any(v.startswith("error") for v in verdicts.values())):
        overall = Verdict.INCONCLUSIVE.value
    elif "sdp" in verdicts:
        overall = Verdict.POSSIBLY_SEPARABLE.value
    else:
        overall = "not_detected"
    return DetectionReport(methods=verdicts, overall=overall, evidence=evidence)


# ---------------------------------------------------------------------------
# Monte-Carlo scans.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanStats:
    samples: int
    detected_unscrambled: int
    detected_scrambled: int
    inconclusive: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def _scan_codes(h: np.ndarray, scrambled: bool) -> np.ndarray:
    """Scan outcome codes of a stack of Ginibre matrices (see
    :func:`scan_details`), given as :func:`~qscramble.quantum.ginibre_stack`
    returns them."""
    p = ginibre_probabilities(h)
    pxx, pzz = p[:, :4], p[:, 4:]
    codes = _fold(_solve_codes(pxx, pzz)[0], 1)
    if scrambled:
        # the true labeling is one of the relabelings, so a feasible true row
        # already makes the sample possibly separable
        uncertified = np.flatnonzero(codes != 0)
        if uncertified.size:
            codes[uncertified] = _decide(np.sort(pxx[uncertified], axis=1)[:, ::-1],
                                         np.sort(pzz[uncertified], axis=1)[:, ::-1])[0]
    return codes


def scan_details(samples: int, seed: int, scrambled: bool) -> np.ndarray:
    """Per-sample scan outcomes: 1 detected, 0 not detected, -1 inconclusive.

    Sample ``i`` is ``random_hs_state(derive_seed(seed, i))``, though no
    state is formed: its eight probabilities come straight from its Ginibre
    matrix G, as p_k = ||u_k^T G||^2 / ||G||^2, and go to the solver's int8
    codes, which fold per sample with one reduction.  Every sample's true
    labeling is decided first; that decides unscrambled mode.  Scrambled
    mode keeps the samples whose true row is certified feasible (the true
    labeling is one of the relabelings) and decides the rest, the infeasible
    and inconclusive ones, on all 18 canonical assignments of their sorted
    multisets.  Samples are drawn ``_SCAN_CHUNK`` at a time; a sample's
    outcome does not depend on the chunk it falls in.

    ``samples`` must be an integer of at least 1, ``seed`` an integer and
    ``scrambled`` a bool; anything else raises :class:`DomainError`.
    """
    samples = check_count("samples", samples, 1)
    if not isinstance(scrambled, (bool, np.bool_)):
        raise DomainError(f"scrambled must be a bool, got {scrambled!r}")
    out = np.zeros(samples, dtype=np.int8)
    for start in range(0, samples, _SCAN_CHUNK):
        count = min(_SCAN_CHUNK, samples - start)
        out[start:start + count] = _scan_codes(
            ginibre_stack(seed, count, start_index=start), bool(scrambled))
    return out


def scan(samples: int, seed: int, scrambled: bool) -> ScanStats:
    """Count SDP-detectable Hilbert-Schmidt random states; deterministic per seed."""
    outcomes = scan_details(samples, seed, scrambled)
    detected = int(np.sum(outcomes == 1))
    inconclusive = int(np.sum(outcomes == -1))
    return ScanStats(
        samples=int(samples),
        detected_unscrambled=0 if scrambled else detected,
        detected_scrambled=detected if scrambled else 0,
        inconclusive=inconclusive,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# The non-convex slice of the possibly-separable set.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlicePoint:
    """One point of the symmetric slice p_++ = p_00, p_+- = p_-+ = p_01 = p_10."""

    p_pp: float
    p_pm: float
    possibly_separable: bool


def _in_slice(p_pp, p_pm):
    """Where (p_pp, p_pm) has no probability below -1e-12, p_-- included."""
    return (p_pp >= -1e-12) & (p_pm >= -1e-12) & (1.0 - p_pp - 2.0 * p_pm >= -1e-12)


def _slice_multisets(p_pp: np.ndarray, p_pm: np.ndarray) -> np.ndarray:
    """The sorted multiset, XX and ZZ alike, of each symmetric slice point."""
    m = np.stack([p_pp, p_pm, p_pm, np.maximum(1.0 - p_pp - 2.0 * p_pm, 0.0)], axis=1)
    return np.sort(m, axis=1)[:, ::-1]


def _classify_slice_batch(m: np.ndarray) -> np.ndarray:
    """possibly_separable flags of slice points' sorted multisets; see :func:`nonconvex_slice`."""
    return _decide(m, m)[0] != 1


def classify_slice_point(p_pp: float, p_pm: float) -> SlicePoint:
    p_pp, p_pm = check_real("p_pp", p_pp), check_real("p_pm", p_pm)
    if not _in_slice(p_pp, p_pm):
        raise DomainError(f"slice point ({p_pp}, {p_pm}) has negative probabilities")
    flag = _classify_slice_batch(_slice_multisets(np.array([p_pp]), np.array([p_pm])))[0]
    return SlicePoint(p_pp, p_pm, bool(flag))


def nonconvex_slice(resolution: int, *, rays: int = 64) -> list[SlicePoint]:
    """Classified grid of the symmetric slice plus ray-traced boundary points.

    The grid covers the valid triangle p_pp in [0, 1], p_pm in [0, (1-p_pp)/2];
    the boundary is bisected (``_ray_search``) along ``rays`` (at least 1)
    evenly spaced rays from the uniform point (1/4, 1/4), which is sound as the
    possibly-separable set is star-convex around I/4: each assignment's
    s*(lambda) = (1 - lambda)/4 + lambda s* is affine along a ray.  The ray
    points come last, each the lower end of its final bracket, the greatest
    weight not shown detected.

    A grid point is flagged possibly separable unless all 18 of its
    assignments are proven infeasible: a point with no feasible assignment
    but an inconclusive one counts as possibly separable, as in
    :func:`star_convexity_ray`.  A bisection midpoint is shown detected when
    every assignment's s*(lambda) < -``TOL_INFEASIBLE``, the margin of a
    checked witness.  Solver doubt can therefore only move the reported
    boundary outward.
    """
    resolution = check_count("resolution", resolution, 8)
    rays = check_count("rays", rays, 1)
    p_pp, p_pm = np.meshgrid(np.linspace(0.0, 1.0, resolution),
                             np.linspace(0.0, 0.5, resolution), indexing="ij")
    inside = _in_slice(p_pp, p_pm)
    p_pp, p_pm = p_pp[inside], p_pm[inside]
    flags = _classify_slice_batch(_slice_multisets(p_pp, p_pm))
    points = [SlicePoint(float(pp), float(pm), bool(f)) for pp, pm, f in zip(p_pp, p_pm, flags)]

    center = np.array([0.25, 0.25])
    ang = 2.0 * math.pi * np.arange(rays) / rays
    d = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # the largest step keeping the point inside the triangle: each edge
    # n . (p - center) <= 1/4 that the direction heads towards bounds it
    denom = np.stack([-d[:, 0], -d[:, 1], d[:, 0] + 2.0 * d[:, 1]], axis=1)
    tmax = np.min(np.where(denom > 1e-15, 0.25 / np.maximum(denom, 1e-15), np.inf), axis=1)
    dirs = d * tmax[:, None]
    ends = _slice_multisets(*(center + dirs).T)
    lam_lo, _ = _ray_search(ends, ends, resolution)
    boundary = center + lam_lo[:, None] * dirs
    points.extend(SlicePoint(float(pp), float(pm), True) for pp, pm in boundary)
    return points


# ---------------------------------------------------------------------------
# Built-in verification of the paper's non-convexity counterexample.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CounterexampleReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_counterexample() -> CounterexampleReport:
    """Re-derive the non-convexity construction and check every claim."""
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(passed), detail))

    try:
        r1 = DensityMatrix.from_matrix(rho1().matrix)
        add("rho1 is a valid state", True)
    except Exception as exc:
        add("rho1 is a valid state", False, str(exc))
        return CounterexampleReport(tuple(checks))

    add("rho1 is PPT (separable)", is_ppt(r1))

    d2 = scramble_state(phi_plus().density())
    d_prod = scramble_state(plus_zero().density())
    add("rho2 scrambled data equals that of |+>|0>",
        scramble_equivalent(d2, d_prod, 1e-12))

    mixture = counterexample_mixture()
    p_x = probabilities(mixture, XX).p
    p_z = probabilities(mixture, ZZ).p
    expected = np.array([5.0, 5.0, 5.0, 33.0]) / 48.0
    exact = np.max(np.abs([p_x - expected, p_z - expected])) <= 1e-12
    add("mixture probabilities equal the (5/48 x6, 33/48 x2) pattern", exact,
        f"xx={p_x.tolist()}")

    d_mix = scramble_state(mixture)
    verdict, _ = scrambled_possibly_separable(d_mix)
    add("mixture scrambled data is detected", verdict is Verdict.DETECTED,
        f"verdict={verdict.value}")

    refuted = all(np.min(correlation_witness_values(apply_permutation(d_mix, pair))) < 0.0
                  for pair in canonical_permutations())
    add("a correlation witness refutes every canonical assignment", refuted)

    v1, _ = scrambled_possibly_separable(scramble_state(r1))
    add("rho1 endpoint is possibly separable", v1 is Verdict.POSSIBLY_SEPARABLE,
        f"verdict={v1.value}")
    v2, _ = scrambled_possibly_separable(d2)
    add("rho2 endpoint is possibly separable", v2 is Verdict.POSSIBLY_SEPARABLE,
        f"verdict={v2.value}")

    return CounterexampleReport(tuple(checks))
