"""Orchestration: multi-method detection reports, scans, and the paper checks.

The three detection routes are ordered by strength on this data: the
feasibility engine (sdp) is complete, so anything the witness family or the
entropy pair detects must also be sdp-detected.  Reports keep the verdicts
side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .entropy import (DETECT_MARGIN, TSALLIS, EntropySpec, entropy as entropy_of,
                      entropy_detect, entropy_nd, get_separable_boundary)
from .errors import DomainError
from .feasibility import (Verdict, assignment_rows, reduce_assignments,
                          scrambled_possibly_separable, solve_batch)
from .measurement import (XX, YY, ZZ, OutcomeDistribution, ScrambledData,
                          apply_permutation, canonical_permutations, probabilities,
                          probabilities_stack, scramble, scramble_state)
from .quantum import (SIGMA_X, SIGMA_Z, I2, DensityMatrix, mix, phi_plus,
                      random_hs_stack)
# tangent_curve is not called here; it is re-exported because bench/spans.py
# traces calls looked up as detector.tangent_curve
from .witness import (correlation_witness_values, scrambled_family_min,  # noqa: F401
                      tangent_curve)

WITNESS_DETECT_TOL = 1e-8
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
# Multi-method detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionReport:
    """Per-method verdicts plus the aggregated one.

    ``methods`` maps method name to one of "detected", "not_detected",
    "possibly_separable", "inconclusive" or "error: ...".  A failed method's
    evidence is {"error": <exception class name>, "message": <text>}.  The
    overall verdict is detected as soon as any method detects.
    """

    methods: Mapping[str, str]
    overall: str
    evidence: Mapping[str, object] = field(default_factory=dict)


def _as_scrambled(inp) -> ScrambledData:
    if isinstance(inp, ScrambledData):
        return inp
    if isinstance(inp, DensityMatrix):
        return scramble_state(inp, (XX, YY, ZZ))
    raise DomainError(f"detect expects a DensityMatrix or ScrambledData, got {type(inp)!r}")


def detect(inp, methods: Iterable[str] = _ALL_METHODS, *,
           spec_x: EntropySpec | None = None,
           spec_z: EntropySpec | None = None,
           tol_feasible: float | None = None,
           tol_infeasible: float | None = None) -> DetectionReport:
    """Run the requested detection methods on a state or its scrambled data."""
    wanted = [m for m in _ALL_METHODS if m in set(methods)]
    unknown = set(methods) - set(_ALL_METHODS)
    if unknown or not wanted:
        raise DomainError(f"unknown detection methods {sorted(unknown)}")
    data = _as_scrambled(inp)
    spec_x = spec_x or EntropySpec(TSALLIS, 2.0)
    spec_z = spec_z or EntropySpec(TSALLIS, 2.0)

    verdicts: dict[str, str] = {}
    evidence: dict[str, object] = {}
    for method in wanted:
        try:
            if method == "sdp":
                kwargs = {}
                if tol_feasible is not None:
                    kwargs["tol_feasible"] = tol_feasible
                if tol_infeasible is not None:
                    kwargs["tol_infeasible"] = tol_infeasible
                verdict, ev = scrambled_possibly_separable(data, **kwargs)
                verdicts[method] = verdict.value
                evidence[method] = {
                    "statuses": [s.value for s in ev.statuses],
                    "permutation": None if ev.permutation is None else
                        {"pi_x": list(ev.permutation.pi_x), "pi_z": list(ev.permutation.pi_z)},
                    "residuals": list(ev.residuals),
                }
                if ev.state is not None:
                    evidence[method]["state"] = ev.state.matrix.tolist()
            elif method == "witness":
                value, params = scrambled_family_min(data)
                detected = value < -WITNESS_DETECT_TOL
                verdicts[method] = "detected" if detected else "not_detected"
                evidence[method] = {"value": value,
                                    "alpha": params[0], "gamma": params[1]}
            else:
                s_x = entropy_of(data.multiset(XX), spec_x)
                s_z = entropy_of(data.multiset(ZZ), spec_z)
                detected = entropy_detect(data, spec_x, spec_z)
                verdicts[method] = "detected" if detected else "not_detected"
                bound = get_separable_boundary(spec_x, spec_z)
                evidence[method] = {"s_xx": s_x, "s_zz": s_z,
                                    "separable_bound": float(bound.value(s_x))}
        except Exception as exc:  # recorded per method, never fatal to the report
            verdicts[method] = f"error: {exc}"
            evidence[method] = {"error": type(exc).__name__, "message": str(exc)}

    if any(v == "detected" for v in verdicts.values()):
        overall = Verdict.DETECTED.value
    elif verdicts.get("sdp") == Verdict.INCONCLUSIVE.value:
        overall = Verdict.INCONCLUSIVE.value
    elif any(v.startswith("error") for v in verdicts.values()):
        overall = Verdict.INCONCLUSIVE.value
    else:
        overall = Verdict.POSSIBLY_SEPARABLE.value
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
        return {"samples": self.samples,
                "detected_unscrambled": self.detected_unscrambled,
                "detected_scrambled": self.detected_scrambled,
                "inconclusive": self.inconclusive,
                "seed": self.seed}


def scan_details(samples: int, seed: int, scrambled: bool, *,
                 chunk: int = 8192, max_cycles: int | None = None,
                 tol_feasible: float | None = None,
                 tol_infeasible: float | None = None) -> np.ndarray:
    """Per-sample scan outcomes: 1 detected, 0 not detected, -1 inconclusive.

    Sample ``i`` is ``random_hs_state(derive_seed(seed, i))``; unscrambled
    mode solves the true labeling only (one assignment per sample),
    scrambled mode all 18 canonical assignments of the sorted multisets.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    kwargs = {}
    if max_cycles is not None:
        kwargs["max_cycles"] = max_cycles
    if tol_feasible is not None:
        kwargs["tol_feasible"] = tol_feasible
    if tol_infeasible is not None:
        kwargs["tol_infeasible"] = tol_infeasible
    k = len(canonical_permutations()) if scrambled else 1
    out = np.zeros(samples, dtype=np.int8)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        states = random_hs_stack(seed, count, start_index=start)
        pxx = np.clip(probabilities_stack(states, XX), 0.0, 1.0)
        pzz = np.clip(probabilities_stack(states, ZZ), 0.0, 1.0)
        if scrambled:
            pxx, pzz = assignment_rows(np.sort(pxx, axis=1)[:, ::-1],
                                       np.sort(pzz, axis=1)[:, ::-1])
        statuses, _, _, _ = solve_batch(pxx, pzz, **kwargs)
        out[start:start + count] = reduce_assignments(statuses, k)
    return out


def scan(samples: int, seed: int, scrambled: bool, *, chunk: int = 8192,
         max_cycles: int | None = None, tol_feasible: float | None = None,
         tol_infeasible: float | None = None) -> ScanStats:
    """Count SDP-detectable Hilbert-Schmidt random states; deterministic per seed."""
    outcomes = scan_details(samples, seed, scrambled, chunk=chunk, max_cycles=max_cycles,
                            tol_feasible=tol_feasible, tol_infeasible=tol_infeasible)
    detected = int(np.sum(outcomes == 1))
    inconclusive = int(np.sum(outcomes == -1))
    return ScanStats(
        samples=samples,
        detected_unscrambled=0 if scrambled else detected,
        detected_scrambled=detected if scrambled else 0,
        inconclusive=inconclusive,
        seed=seed,
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


def _slice_multiset(p_pp: float, p_pm: float) -> np.ndarray | None:
    p_mm = 1.0 - p_pp - 2.0 * p_pm
    if p_pp < -1e-12 or p_pm < -1e-12 or p_mm < -1e-12:
        return None
    return np.array([p_pp, p_pm, p_pm, max(p_mm, 0.0)])


def _classify_slice_batch(points: list[tuple[float, float]], **kwargs) -> list[bool]:
    """possibly_separable flags for symmetric slice points, batched over the
    18 assignments of every point; see :func:`nonconvex_slice` for the policy."""
    m = np.sort([_slice_multiset(p_pp, p_pm) for p_pp, p_pm in points], axis=1)[:, ::-1]
    statuses, _, _, _ = solve_batch(*assignment_rows(m, m), **kwargs)
    return (reduce_assignments(statuses, len(canonical_permutations())) != 1).tolist()


def classify_slice_point(p_pp: float, p_pm: float, **kwargs) -> SlicePoint:
    if _slice_multiset(p_pp, p_pm) is None:
        raise DomainError(f"slice point ({p_pp}, {p_pm}) has negative probabilities")
    flag = _classify_slice_batch([(p_pp, p_pm)], **kwargs)[0]
    return SlicePoint(p_pp, p_pm, flag)


def nonconvex_slice(resolution: int, *, rays: int = 64, **kwargs) -> list[SlicePoint]:
    """Classified grid of the symmetric slice plus ray-traced boundary points.

    The grid covers the valid triangle p_pp in [0, 1], p_pm in [0, (1-p_pp)/2];
    the boundary is found by bisecting along rays from the uniform point
    (1/4, 1/4), which is sound because the possibly-separable set is
    star-convex around the maximally mixed state.

    A point is flagged possibly separable unless all 18 of its assignments
    are proven infeasible: a point with no feasible assignment but an
    inconclusive one counts as possibly separable, as in
    :func:`~qscramble.feasibility.star_convexity_ray`.  Solver doubt can
    therefore only move the reported boundary outward.
    """
    if resolution < 8:
        raise DomainError("resolution must be at least 8")
    grid_pts: list[tuple[float, float]] = []
    for p_pp in np.linspace(0.0, 1.0, resolution):
        for p_pm in np.linspace(0.0, 0.5, resolution):
            if _slice_multiset(p_pp, p_pm) is not None:
                grid_pts.append((float(p_pp), float(p_pm)))
    flags = _classify_slice_batch(grid_pts, **kwargs)
    points = [SlicePoint(pp, pm, f) for (pp, pm), f in zip(grid_pts, flags)]

    center = np.array([0.25, 0.25])
    depth = max(1, math.ceil(math.log2(resolution)))
    lam_lo = np.zeros(rays)
    lam_hi = np.ones(rays)
    dirs = []
    for k in range(rays):
        ang = 2.0 * math.pi * k / rays
        d = np.array([math.cos(ang), math.sin(ang)])
        # largest step keeping the point inside the valid triangle
        tmax = math.inf
        for normal, offset in (([-1.0, 0.0], 0.25), ([0.0, -1.0], 0.25),
                               ([1.0, 2.0], 0.25)):
            denom = float(np.dot(normal, d))
            if denom > 1e-15:
                tmax = min(tmax, offset / denom)
        dirs.append(d * tmax)
    dirs = np.array(dirs)
    for _ in range(depth):
        mid = 0.5 * (lam_lo + lam_hi)
        pts = center + mid[:, None] * dirs
        flags = _classify_slice_batch([tuple(p) for p in pts], **kwargs)
        flags = np.array(flags)
        lam_lo = np.where(flags, mid, lam_lo)
        lam_hi = np.where(flags, lam_hi, mid)
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


def verify_counterexample(**kwargs) -> CounterexampleReport:
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

    from .quantum import is_ppt
    add("rho1 is PPT (separable)", is_ppt(r1))

    r2 = phi_plus().density()
    from .quantum import plus_zero
    from .measurement import scramble_equivalent
    d2 = scramble_state(r2)
    d_prod = scramble_state(plus_zero().density())
    add("rho2 scrambled data equals that of |+>|0>",
        scramble_equivalent(d2, d_prod, 1e-12))

    mixture = counterexample_mixture()
    p_x = probabilities(mixture, XX).p
    p_z = probabilities(mixture, ZZ).p
    expected = np.array([5.0, 5.0, 5.0, 33.0]) / 48.0
    exact = (np.max(np.abs(p_x - expected)) <= 1e-12
             and np.max(np.abs(p_z - expected)) <= 1e-12)
    add("mixture probabilities equal the (5/48 x6, 33/48 x2) pattern", exact,
        f"xx={p_x.tolist()}")

    d_mix = scramble([OutcomeDistribution(XX, p_x), OutcomeDistribution(ZZ, p_z)])
    verdict, _ = scrambled_possibly_separable(d_mix, **kwargs)
    add("mixture scrambled data is detected", verdict is Verdict.DETECTED,
        f"verdict={verdict.value}")

    refuted = True
    for pair in canonical_permutations():
        vals = correlation_witness_values(apply_permutation(d_mix, pair))
        if np.min(vals) >= 0.0:
            refuted = False
            break
    add("a correlation witness refutes every canonical assignment", refuted)

    v1, _ = scrambled_possibly_separable(scramble_state(r1), **kwargs)
    add("rho1 endpoint is possibly separable", v1 is Verdict.POSSIBLY_SEPARABLE,
        f"verdict={v1.value}")
    v2, _ = scrambled_possibly_separable(d2, **kwargs)
    add("rho2 endpoint is possibly separable", v2 is Verdict.POSSIBLY_SEPARABLE,
        f"verdict={v2.value}")

    return CounterexampleReport(tuple(checks))


# ---------------------------------------------------------------------------
# Vectorized helpers shared with the test suite's bulk properties.
# ---------------------------------------------------------------------------


def entropy_detected_stack(pxx: np.ndarray, pzz: np.ndarray,
                           spec_x: EntropySpec, spec_z: EntropySpec,
                           margin: float = DETECT_MARGIN) -> np.ndarray:
    """Vectorized entropy-method verdicts for stacks of probability rows."""
    s_x = entropy_nd(np.asarray(pxx, float), spec_x)
    s_z = entropy_nd(np.asarray(pzz, float), spec_z)
    bxz = get_separable_boundary(spec_x, spec_z)
    bzx = get_separable_boundary(spec_z, spec_x)
    return (s_z < bxz.value(s_x) - margin) | (s_x < bzx.value(s_z) - margin)
