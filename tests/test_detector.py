import numpy as np
import pytest

import qscramble.detector as det
from qscramble.detector import (classify_slice_point, counterexample_mixture, detect,
                                nonconvex_slice, rho1, scan, scan_details,
                                verify_counterexample)
from qscramble.entropy import entropy_detected_stack
from qscramble.errors import DomainError
from qscramble.feasibility import FeasibilityStatus, solve_batch
from qscramble.measurement import (XX, ZZ, apply_permutation, canonical_permutations,
                                   probabilities, probabilities_stack, scramble_state)
from qscramble.quantum import (DensityMatrix, is_ppt, maximally_mixed, psi_t,
                               random_hs_stack, singlet)
from qscramble.witness import witness_min_stack


def test_rho1_construction():
    r = rho1()
    assert is_ppt(r)
    p = probabilities(r, ZZ).p
    assert np.max(np.abs(p - [0.025, 0.125, 0.125, 0.725])) < 1e-12


def test_counterexample_mixture_probabilities():
    m = counterexample_mixture()
    expected = np.array([5, 5, 5, 33]) / 48.0
    assert np.max(np.abs(probabilities(m, XX).p - expected)) < 1e-12
    assert np.max(np.abs(probabilities(m, ZZ).p - expected)) < 1e-12


def test_detect_reports(boundary_22):
    rep = detect(singlet().density())
    assert list(rep.methods) == ["sdp", "witness", "entropy"]
    assert rep.methods["sdp"] == "possibly_separable"
    assert rep.methods["witness"] == "not_detected"
    assert rep.methods["entropy"] == "not_detected"
    assert rep.overall == "possibly_separable"

    rep = detect(psi_t(3.0).density())
    assert rep.methods == {"sdp": "detected", "witness": "detected",
                           "entropy": "detected"}
    assert rep.overall == "detected"

    rep = detect(counterexample_mixture())
    assert rep.methods["sdp"] == "detected"
    assert rep.overall == "detected"


def test_detect_accepts_scrambled_data(boundary_22):
    data = scramble_state(maximally_mixed())
    rep = detect(data)
    assert rep.overall == "possibly_separable"
    with pytest.raises(DomainError):
        detect(np.eye(4))
    with pytest.raises(DomainError):
        detect(data, methods=["sdp", "nonsense"])


def test_detect_records_method_errors():
    from qscramble.entropy import SHANNON, EntropySpec
    rep = detect(scramble_state(singlet().density()), methods=["entropy"],
                 spec_x=EntropySpec(SHANNON), spec_z=EntropySpec(SHANNON))
    assert rep.methods["entropy"].startswith("error:")
    assert rep.evidence["entropy"]["error"] == "DomainError"
    assert rep.evidence["entropy"]["message"] == rep.methods["entropy"][len("error: "):]
    assert rep.overall == "inconclusive"


def test_scan_has_no_inconclusive_sample():
    # every sample gets a certificate, including the near-boundary sample 2270
    outcomes = scan_details(4000, 11, False)
    assert not np.any(outcomes == -1)


def test_scan_deterministic():
    s1 = scan(300, 99, False)
    s2 = scan(300, 99, False)
    assert s1 == s2
    assert s1.samples == 300
    assert s1.detected_scrambled == 0


def test_scan_scrambled_mode_runs():
    stats = scan(60, 5, True)
    assert stats.samples == 60
    assert stats.detected_unscrambled == 0
    assert 0 <= stats.detected_scrambled <= 2  # rate ~2e-5, essentially zero


@pytest.mark.parametrize("scrambled", [False, True])
def test_scan_details_do_not_depend_on_the_chunk(monkeypatch, scrambled):
    # seed 2 has unscrambled detections at samples 6, 40 and 44, which fall
    # at and inside chunk edges when a chunk holds 7 samples
    whole = scan_details(50, 2, scrambled)
    monkeypatch.setattr(det, "_SCAN_CHUNK", 7)
    assert np.array_equal(scan_details(50, 2, scrambled), whole)
    if not scrambled:
        assert np.flatnonzero(whole == 1).tolist() == [6, 40, 44]


def test_scan_details_consistent_with_scan():
    out = scan_details(300, 99, False)
    stats = scan(300, 99, False)
    assert int(np.sum(out == 1)) == stats.detected_unscrambled
    assert int(np.sum(out == -1)) == stats.inconclusive


def test_classify_slice_points_from_paper():
    assert classify_slice_point(0.025, 0.125).possibly_separable
    assert classify_slice_point(0.5, 0.0).possibly_separable
    assert not classify_slice_point(5 / 48, 5 / 48).possibly_separable
    assert classify_slice_point(0.25, 0.25).possibly_separable
    with pytest.raises(DomainError):
        classify_slice_point(0.9, 0.3)


def test_slice_counts_inconclusive_as_possibly_separable(monkeypatch):
    # a point is detected only when all 18 assignments are proven infeasible;
    # one inconclusive assignment and no feasible one leaves it possibly separable
    calls = []

    def solve_stub(p_xx, p_zz, **kwargs):
        calls.append(len(p_xx))
        statuses = [FeasibilityStatus.INFEASIBLE] * len(p_xx)
        statuses[-1] = FeasibilityStatus.INCONCLUSIVE  # last assignment of the last point
        return statuses, [None] * len(p_xx), np.zeros(len(p_xx)), np.zeros(len(p_xx), int)

    monkeypatch.setattr(det, "solve_batch", solve_stub)
    flags = det._classify_slice_batch([(5 / 48, 5 / 48), (0.3, 0.1)])
    assert flags == [False, True]
    assert calls == [36]


def test_nonconvex_slice_output():
    with pytest.raises(DomainError):
        nonconvex_slice(4)
    points = nonconvex_slice(8, rays=8)
    assert len(points) > 20
    flags = [p.possibly_separable for p in points]
    assert any(flags) and not all(flags)
    for p in points:
        assert p.p_pp >= -1e-12 and p.p_pm >= -1e-12
        assert 1.0 - p.p_pp - 2.0 * p.p_pm >= -1e-9
    # boundary points are appended and marked possibly separable
    assert all(p.possibly_separable for p in points[-8:])


def test_verify_counterexample_all_pass():
    report = verify_counterexample()
    for check in report.checks:
        assert check.passed, check
    assert report.all_passed


def test_witness_min_stack_matches_scalar():
    from qscramble.witness import (correlation_witness_values, scrambled_family_min,
                                   scrambled_witness_min, tangent_curve)
    states = random_hs_stack(13, 25)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    vec = witness_min_stack(pxx, pzz)
    for i, m in enumerate(states):
        data = scramble_state(DensityMatrix(m))
        curve = min(scrambled_witness_min(data, a, 0.0, g) for a, g in tangent_curve())
        corr = max(float(np.min(correlation_witness_values(apply_permutation(data, pair))))
                   for pair in canonical_permutations())
        assert abs(min(curve, corr) - vec[i]) < 1e-12
        assert scrambled_family_min(data)[0] == vec[i]


def test_hierarchy_on_scan(tsallis2, boundary_22):
    # witness-detected and entropy-detected instances must be sdp-detected
    n = 3000
    seed = 2718
    outcomes = scan_details(n, seed, False)
    states = random_hs_stack(seed, n)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    wvals = witness_min_stack(pxx, pzz)
    edet = entropy_detected_stack(pxx, pzz, tsallis2, tsallis2)
    sdp_detected = outcomes == 1
    assert not np.any(edet & ~sdp_detected)
    # witness detection certifies the scrambled data, hence also every
    # relabeling of the identity assignment
    assert not np.any((wvals < -1e-8) & (outcomes == 0))


def test_star_convexity_single_flip_on_detected_states():
    # scrambled-detectable states are rare among random states, so build a
    # population by perturbing the paper's detected mixture, then check the
    # verdict flips exactly once along each ray from the maximally mixed state
    from qscramble.quantum import mix
    base = counterexample_mixture()
    candidates = random_hs_stack(161803, 220)
    perms = canonical_permutations()
    detected_states = []
    for k, m in enumerate(candidates):
        w = 0.02 + 0.13 * (k % 10) / 10.0
        state = mix(base, DensityMatrix(m), w)
        data = scramble_state(state)
        mx, mz = data.multiset(XX), data.multiset(ZZ)
        rows_x = [mx[list(p.pi_x)] for p in perms]
        rows_z = [mz[list(p.pi_z)] for p in perms]
        st, _, _, _ = solve_batch(np.array(rows_x), np.array(rows_z))
        if all(s is FeasibilityStatus.INFEASIBLE for s in st):
            detected_states.append(state.matrix)
        if len(detected_states) == 100:
            break
    assert len(detected_states) == 100

    lams = np.linspace(0.0, 1.0, 8)
    rows_x, rows_z = [], []
    for m in detected_states:
        pxx = np.clip(probabilities_stack(m[None], XX)[0], 0, 1)
        pzz = np.clip(probabilities_stack(m[None], ZZ)[0], 0, 1)
        mx = np.sort(pxx)[::-1]
        mz = np.sort(pzz)[::-1]
        for lam in lams:
            mx_l = (1 - lam) * 0.25 + lam * mx
            mz_l = (1 - lam) * 0.25 + lam * mz
            for p in perms:
                rows_x.append(mx_l[list(p.pi_x)])
                rows_z.append(mz_l[list(p.pi_z)])
    statuses, _, _, _ = solve_batch(np.array(rows_x), np.array(rows_z))
    codes = np.array([0 if s is FeasibilityStatus.FEASIBLE
                      else 1 if s is FeasibilityStatus.INFEASIBLE else 2
                      for s in statuses]).reshape(len(detected_states), len(lams), len(perms))
    for k in range(len(detected_states)):
        flags = []
        for j in range(len(lams)):
            block = codes[k, j]
            if np.any(block == 2) and not np.any(block == 0):
                flags.append(None)  # inconclusive point, excluded
            else:
                flags.append(bool(np.all(block == 1)))
        decided = [f for f in flags if f is not None]
        assert decided == sorted(decided)
        assert decided[-1]  # the state itself is detected
