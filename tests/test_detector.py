import itertools
import math
import sys

import numpy as np
import pytest

import qscramble.detector as det
import qscramble.entropy as entropy_module
from qscramble.detector import (classify_slice_point, counterexample_mixture, detect,
                                nonconvex_slice, rho1, scan, scan_details,
                                verify_counterexample)
from qscramble.entropy import (RENYI, TSALLIS, EntropySpec, _decide_pairs,
                               _entropy_nd, _separable_values,
                               entropy_detect, get_separable_boundary)
from qscramble.errors import DomainError, MissingSetting
from qscramble.feasibility import FeasibilityStatus, _solve_codes, solve_batch
from qscramble.measurement import (XX, ZZ, ScrambledData, apply_permutation,
                                   canonical_permutations, probabilities, probabilities_stack,
                                   scramble_state)
from qscramble.optimize import bisect
from qscramble.quantum import (DensityMatrix, ginibre_stack, is_ppt, maximally_mixed,
                               psi_t, random_hs_stack, singlet)
from qscramble.witness import WITNESS_DETECT_TOL, _family_values, tangent_curve

SPEC_PAIRS = [(EntropySpec(TSALLIS, 2.0), EntropySpec(TSALLIS, 2.0)),
              (EntropySpec(RENYI, 3.0), EntropySpec(TSALLIS, 2.5))]


def _multisets(states):
    """The sorted (descending) XX and ZZ multisets of a stack of states."""
    return tuple(np.sort(np.clip(probabilities_stack(states, label), 0, 1), axis=1)[:, ::-1]
                 for label in (XX, ZZ))


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


def test_detect_reports():
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


def test_detect_accepts_scrambled_data():
    data = scramble_state(maximally_mixed())
    rep = detect(data)
    assert rep.overall == "possibly_separable"
    with pytest.raises(DomainError):
        detect(np.eye(4))
    with pytest.raises(DomainError):
        detect(data, methods=["sdp", "nonsense"])


def test_only_sdp_makes_the_overall_verdict_possibly_separable():
    # the witness and entropy routes certify nothing when they do not detect
    data = scramble_state(singlet().density())
    for methods in (["witness"], ["entropy"], ["witness", "entropy"]):
        rep = detect(data, methods)
        assert set(rep.methods.values()) == {"not_detected"}
        assert rep.overall == "not_detected"
    assert detect(data, ["sdp", "witness"]).overall == "possibly_separable"


def test_detect_reads_a_one_shot_methods_iterable_once():
    data = scramble_state(singlet().density())
    rep = detect(data, (m for m in ["witness", "sdp"]))
    assert list(rep.methods) == ["sdp", "witness"]
    with pytest.raises(DomainError, match="'bogus'"):
        detect(data, iter(["entropy", "bogus"]))


def test_detect_records_method_errors():
    from qscramble.entropy import SHANNON, EntropySpec
    rep = detect(scramble_state(singlet().density()), methods=["entropy"],
                 spec_x=EntropySpec(SHANNON), spec_z=EntropySpec(SHANNON))
    assert rep.methods["entropy"].startswith("error:")
    assert rep.evidence["entropy"]["error"] == "DomainError"
    assert rep.evidence["entropy"]["message"] == rep.methods["entropy"][len("error: "):]
    assert rep.overall == "inconclusive"


def test_detect_needs_both_settings_before_any_method():
    m = [0.7, 0.1, 0.1, 0.1]
    for data, missing in ((ScrambledData({XX: m}), "ZZ"), (ScrambledData({ZZ: m}), "XX")):
        for methods in (["sdp"], ["witness"], ["entropy"], ["sdp", "witness", "entropy"]):
            with pytest.raises(MissingSetting, match=missing):
                detect(data, methods)


@pytest.mark.parametrize("specs", SPEC_PAIRS, ids=["tsallis2-tsallis2", "renyi3-tsallis2.5"])
def test_detect_entropy_evidence_is_the_route_decision(specs):
    spec_x, spec_z = specs
    for rho in (singlet().density(), psi_t(3.0).density(), counterexample_mixture(),
                maximally_mixed()):
        data = scramble_state(rho)
        rep = detect(data, ["entropy"], spec_x=spec_x, spec_z=spec_z)
        ev = rep.evidence["entropy"]
        s_xx = float(_entropy_nd(data.multiset(XX), spec_x))
        assert ev["s_xx"] == s_xx
        assert ev["s_zz"] == float(_entropy_nd(data.multiset(ZZ), spec_z))
        # the bound that decided the row: the exact boundary at its own s_xx
        exact = float(_separable_values(np.array([s_xx]), spec_x, spec_z)[0])
        assert ev["separable_bound"] == exact
        detected = entropy_detect(data, spec_x, spec_z)
        assert rep.methods["entropy"] == ("detected" if detected else "not_detected")


def test_renyi_product_state_is_not_entropy_detected():
    # phi_0.7 (x) phi_0.7 lies on the (Renyi 3, Renyi 3) product curve, which
    # is convex there: the grid's chord passes 8.7e-7 above it and once
    # detected this product state, while sdp certified it
    phi = np.array([np.cos(0.35), np.sin(0.35)])
    psi = np.kron(phi, phi)
    r3 = EntropySpec(RENYI, 3.0)
    rep = detect(scramble_state(DensityMatrix(np.outer(psi, psi))), ["sdp", "entropy"],
                 spec_x=r3, spec_z=r3)
    assert rep.methods == {"sdp": "possibly_separable", "entropy": "not_detected"}
    assert rep.overall == "possibly_separable"
    ev = rep.evidence["entropy"]
    grid, values = get_separable_boundary(r3, r3)
    assert float(np.interp(ev["s_xx"], grid, values)) - ev["s_zz"] > 8e-7
    assert abs(ev["s_zz"] - 0.5379734905677552) <= 1e-15
    assert abs(ev["separable_bound"] - 0.5379734905677538) <= 1e-15


@pytest.mark.parametrize("specs", SPEC_PAIRS, ids=["tsallis2-tsallis2", "renyi3-tsallis2.5"])
def test_warm_entropy_detect_evaluates_each_entropy_once(specs):
    spec_x, spec_z = specs
    code = entropy_module._entropy_nd.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(np.array(frame.f_locals["p"]))

    # singlet: not detected, so the boundary is read in both orientations;
    # psi_3: detected in the forward one alone.  Each read is of one row, at
    # its own s, never of a grid: at the default pair the closed form, which
    # evaluates no entropy, else the ZZ entropy of the Newton point; the two
    # maxima (uniform rows) are cached per spec, so a warm call evaluates none
    default = spec_x == spec_z == EntropySpec(TSALLIS, 2.0)
    for rho, verdict, reads in ((singlet().density(), "not_detected", 2),
                                (psi_t(3.0).density(), "detected", 1)):
        data = scramble_state(rho)
        detect(data, ["entropy"], spec_x=spec_x, spec_z=spec_z)  # warm
        calls.clear()
        sys.setprofile(profile)
        try:
            report = detect(data, ["entropy"], spec_x=spec_x, spec_z=spec_z)
        finally:
            sys.setprofile(None)
        assert report.methods["entropy"] == verdict
        own = [label for label in (XX, ZZ) for p in calls
               if np.array_equal(p, data.multiset(label)[None])]
        assert own == [XX, ZZ]
        assert all(p.size == 4 for p in calls)
        assert len(calls) == (2 if default else 2 + reads)
        assert not any(np.array_equal(p, np.full(4, 0.25)) for p in calls)


@pytest.mark.parametrize("kinds", [((TSALLIS, 2.0), (TSALLIS, 2.0)), ((RENYI, 3.0), (TSALLIS, 2.5)),
                                   ((RENYI, math.inf), (RENYI, 2.0))],
                         ids=["tsallis2-tsallis2", "renyi3-tsallis2.5", "renyiinf-renyi2"])
def test_entropy_detect_builds_no_grid_and_bisects_nothing(kinds, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the entropy route built a grid or ran a bisection")
    monkeypatch.setattr(entropy_module, "get_separable_boundary", refuse)
    monkeypatch.setattr(entropy_module, "bisect", refuse)
    spec_x, spec_z = EntropySpec(*kinds[0]), EntropySpec(*kinds[1])
    for rho, verdict in ((singlet().density(), "not_detected"),
                         (psi_t(3.0).density(), "detected")):
        rep = detect(rho, ["entropy"], spec_x=spec_x, spec_z=spec_z)
        assert rep.methods == {"entropy": verdict}


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
    assert stats.detected_scrambled == 0  # rate ~2e-5, essentially zero


@pytest.mark.parametrize("scrambled", [False, True])
def test_scan_details_do_not_depend_on_the_chunk(monkeypatch, scrambled):
    # seed 2 has unscrambled detections at samples 6, 40 and 44, which fall
    # at and inside chunk edges when a chunk holds 7 samples
    whole = scan_details(50, 2, scrambled)
    monkeypatch.setattr(det, "_SCAN_CHUNK", 7)
    assert np.array_equal(scan_details(50, 2, scrambled), whole)
    if not scrambled:
        assert np.flatnonzero(whole == 1).tolist() == [6, 40, 44]


def _true_rows(states):
    return (np.clip(probabilities_stack(states, XX), 0.0, 1.0),
            np.clip(probabilities_stack(states, ZZ), 0.0, 1.0))


def _verdicts(statuses, k):
    """The verdict of each block of k statuses, by definition: 1 (detected)
    when all are infeasible, 0 (possibly separable) when any is feasible,
    -1 (inconclusive) otherwise."""
    blocks = [statuses[i:i + k] for i in range(0, len(statuses), k)]
    return np.array([1 if all(s is FeasibilityStatus.INFEASIBLE for s in b) else
                     0 if FeasibilityStatus.FEASIBLE in b else -1 for b in blocks], dtype=np.int8)


def _true_codes(states):
    """Unscrambled outcomes from solve_batch on the true labeling of every state."""
    statuses, _, _, _ = solve_batch(*_true_rows(states))
    return _verdicts(statuses, 1)


def _all_assignment_codes(states):
    """Scrambled outcomes from all 18 canonical assignments of every sample."""
    pxx, pzz = _true_rows(states)
    mx = np.sort(pxx, axis=1)[:, ::-1]
    mz = np.sort(pzz, axis=1)[:, ::-1]
    perms = canonical_permutations()
    rows_x = mx[:, [p.pi_x for p in perms]].reshape(-1, 4)
    rows_z = mz[:, [p.pi_z for p in perms]].reshape(-1, 4)
    statuses, _, _, _ = solve_batch(rows_x, rows_z)
    return _verdicts(statuses, len(perms))


def test_scrambled_scan_matches_all_assignments():
    # seed 1 has 35 samples below 3000 that are detected on their true
    # labeling and go to the 18-assignment stage; sample 101 is one of them
    # and is possibly separable scrambled
    n, seed = 3000, 1
    scrambled = scan_details(n, seed, True)
    assert np.array_equal(scrambled, _all_assignment_codes(random_hs_stack(seed, n)))
    unscrambled = scan_details(n, seed, False)
    assert np.count_nonzero(unscrambled) == 35
    assert (unscrambled[101], scrambled[101]) == (1, 0)


@pytest.mark.parametrize("seed", [1, 2, 107])
def test_scan_outcomes_equal_the_density_matrix_route(seed):
    # the scan never forms rho; its outcomes must equal those decided from
    # rho = G G^dag / Tr, its probabilities_stack rows and solve_batch
    n = 3000
    states = random_hs_stack(seed, n)
    unscrambled = scan_details(n, seed, False)
    assert np.array_equal(unscrambled, _true_codes(states))
    assert np.count_nonzero(unscrambled == 1) > 20
    assert np.array_equal(scan_details(n, seed, True), _all_assignment_codes(states))


def test_scrambled_scan_detects_sample_14816_of_seed_1():
    # samples 14816, 101 and 244 of seed 1 are detected on their true
    # labeling, and 14816 alone stays detected scrambled; sample 0 is
    # certified on its true labeling
    index = (0, 14816, 101, 244)
    gaussians = np.concatenate([ginibre_stack(1, 1, start_index=i) for i in index])
    assert det._scan_codes(gaussians, False).tolist() == [0, 1, 1, 1]
    assert det._scan_codes(gaussians, True).tolist() == [0, 1, 0, 0]
    states = np.concatenate([random_hs_stack(1, 1, start_index=i) for i in index])
    assert _true_codes(states).tolist() == [0, 1, 1, 1]
    assert _all_assignment_codes(states).tolist() == [0, 1, 0, 0]


def test_scrambled_scan_expands_only_uncertified_samples(monkeypatch):
    n, seed = 400, 1
    statuses, _, _, _ = solve_batch(*_true_rows(random_hs_stack(seed, n)))
    uncertified = sum(s is not FeasibilityStatus.FEASIBLE for s in statuses)
    assert uncertified >= 2
    rows = []

    def counting(solve):
        def counted(p_xx, p_zz):
            rows.append(len(p_xx))
            return solve(p_xx, p_zz)
        return counted

    # the true rows go to _solve_codes, the 18 assignments of the rest to
    # solve_batch through _decide
    monkeypatch.setattr(det, "_solve_codes", counting(_solve_codes))
    monkeypatch.setattr(det, "solve_batch", counting(solve_batch))
    scan_details(n, seed, True)
    assert rows == [n, 18 * uncertified]


_F, _I, _U = (FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE,
              FeasibilityStatus.INCONCLUSIVE)
_STATUS_OF_CODE = {1: _F, 0: _U, -1: _I}


def _decide_on(monkeypatch, statuses):
    """_decide's codes when solve_batch returns ``statuses`` for its rows."""
    def solve_stub(p_xx, p_zz):
        assert len(p_xx) == len(statuses)
        return list(statuses), [None] * len(statuses), np.zeros(len(statuses)), None

    monkeypatch.setattr(det, "solve_batch", solve_stub)
    n = len(statuses) // 18
    return det._decide(np.full((n, 4), 0.25), np.full((n, 4), 0.25))[0]


def test_fold_and_decide_verdicts(monkeypatch):
    codes = det._fold(np.array([1, -1, 0], dtype=np.int8), 1)
    assert codes.dtype == np.int8
    assert codes.tolist() == [0, 1, -1]
    blocks = [[_I] * 18, [_I] * 17 + [_F], [_U] + [_I] * 17, [_U] * 17 + [_F]]
    codes = _decide_on(monkeypatch, [s for b in blocks for s in b])
    assert codes.dtype == np.int8
    assert codes.tolist() == [1, 0, -1, 0]


def test_fold_every_block_of_three():
    # every block of k = 3 solver codes, against the definition applied per
    # block of statuses
    blocks = list(itertools.product([1, 0, -1], repeat=3))
    codes = det._fold(np.array(blocks, dtype=np.int8).ravel(), 3)
    assert codes.dtype == np.int8
    assert codes.tolist() == _verdicts([_STATUS_OF_CODE[c] for b in blocks for c in b], 3).tolist()
    assert det._fold(np.zeros(0, dtype=np.int8), 18).shape == (0,)
    assert det._decide(np.zeros((0, 4)), np.zeros((0, 4)))[0].shape == (0,)


def test_decide_folds_statuses_as_fold_folds_codes(monkeypatch):
    # every block of 3 statuses, repeated six times to fill 18 assignments:
    # _decide's status map and fold give the fold of the three codes
    blocks = list(itertools.product([1, 0, -1], repeat=3))
    codes = _decide_on(monkeypatch, [_STATUS_OF_CODE[c] for b in blocks for c in b * 6])
    assert np.array_equal(codes, det._fold(np.array(blocks, dtype=np.int8).ravel(), 3))


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
    flags = det._classify_slice_batch(det._slice_multisets(np.array([5 / 48, 0.3]),
                                                           np.array([5 / 48, 0.1])))
    assert flags.tolist() == [False, True]
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


@pytest.mark.parametrize("rays", [0, -1, 2.5, True])
def test_nonconvex_slice_rejects_bad_rays(rays):
    with pytest.raises(DomainError, match="rays"):
        nonconvex_slice(8, rays=rays)


@pytest.mark.parametrize("call, message", [
    (lambda: scan_details(10.5, 1, False), "samples must be an integer, got 10.5"),
    (lambda: scan_details(True, 1, False), "samples must be an integer, got True"),
    (lambda: scan(10.5, 1, True), "samples must be an integer"),
    (lambda: scan(0, 1, False), "samples must be at least 1, got 0"),
    (lambda: nonconvex_slice(8.0), "resolution must be an integer, got 8.0"),
    (lambda: nonconvex_slice(4), "resolution must be at least 8, got 4"),
    (lambda: classify_slice_point(float("nan"), 0.1), "non-finite"),
    (lambda: classify_slice_point(0.5, float("inf")), "non-finite"),
    (lambda: scan_details(10, 0, "false"), "scrambled must be a bool, got 'false'"),
    (lambda: scan_details(10, 0, None), "scrambled must be a bool, got None"),
    (lambda: scan(10, 0, 1), "scrambled must be a bool, got 1"),
    (lambda: scan_details(10, 1.5, False), "seed must be an integer, got 1.5"),
    (lambda: scan_details(10, None, True), "seed must be an integer, got None"),
    (lambda: scan(10, True, False), "seed must be an integer, got True"),
], ids=["scan_details-float", "scan_details-bool", "scan-float", "scan-zero",
        "slice-float", "slice-small", "point-nan", "point-inf", "scrambled-str",
        "scrambled-none", "scrambled-int", "seed-float", "seed-none", "seed-bool"])
def test_detector_entry_points_raise_typed_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_integer_arguments_accept_numpy_integers():
    assert scan_details(np.int64(3), 1, False).shape == (3,)
    # a seed is taken modulo 2^64, from a numpy integer as from an int
    assert np.array_equal(scan_details(20, np.int64(-1), np.bool_(True)),
                          scan_details(20, -1, True))
    assert np.array_equal(scan_details(20, np.uint64(2**64 - 1), False),
                          scan_details(20, -1, False))
    assert type(scan(5, np.int32(4), False).seed) is int
    assert len(nonconvex_slice(np.int32(8), rays=np.int8(1))) == 37


def test_verify_counterexample_all_pass():
    report = verify_counterexample()
    for check in report.checks:
        assert check.passed, check
    assert report.all_passed


def test_family_values_match_scalar():
    from qscramble.witness import (correlation_witness_values, scrambled_family_min,
                                   scrambled_witness_min)
    states = random_hs_stack(13, 25)
    vec = np.min(_family_values(*_multisets(states)), axis=1)
    for i, m in enumerate(states):
        data = scramble_state(DensityMatrix(m))
        curve = min(scrambled_witness_min(data, a, 0.0, g) for a, g in tangent_curve())
        corr = max(float(np.min(correlation_witness_values(apply_permutation(data, pair))))
                   for pair in canonical_permutations())
        assert abs(min(curve, corr) - vec[i]) < 1e-12
        assert scrambled_family_min(data)[0] == vec[i]


def test_hierarchy_on_scan(tsallis2):
    # witness-detected and entropy-detected instances must be sdp-detected
    n = 3000
    seed = 2718
    outcomes = scan_details(n, seed, False)
    mx, mz = _multisets(random_hs_stack(seed, n))
    wvals = np.min(_family_values(mx, mz), axis=1)
    edet = _decide_pairs(mx, mz, tsallis2, tsallis2)[3]
    sdp_detected = outcomes == 1
    assert not np.any(edet & ~sdp_detected)
    # witness detection certifies the scrambled data, hence also every
    # relabeling of the identity assignment
    assert not np.any((wvals < -WITNESS_DETECT_TOL) & (outcomes == 0))


@pytest.mark.parametrize("kinds", [((RENYI, 3.0), (RENYI, 3.0)), ((RENYI, 3.0), (TSALLIS, 2.5)),
                                   ((RENYI, np.inf), (RENYI, 2.0)),
                                   ((TSALLIS, 5.0), (RENYI, 20.0))],
                         ids=["renyi3-renyi3", "renyi3-tsallis2.5", "renyiinf-renyi2",
                              "tsallis5-renyi20"])
def test_renyi_entropy_detections_are_sdp_detected(kinds):
    # the entropy route lies inside sdp for pairs with a Renyi entropy too,
    # whose boundary a grid's chords can overshoot; each pair detects some
    # of these states, so the check is not vacuous
    g = np.random.default_rng(141421).normal(size=(2, 20_000, 4))
    v = g[0] + 1j * g[1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    mx, mz = _multisets(v[:, :, None] * v[:, None, :].conj())  # Haar-random pure states
    edet = _decide_pairs(mx, mz, EntropySpec(*kinds[0]), EntropySpec(*kinds[1]))[3]
    assert np.count_nonzero(edet) >= 5
    assert np.all(det._decide(mx[edet], mz[edet])[0] == 1)


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


def test_star_convexity_ray_matches_the_state_route():
    # the ray search bisects multisets in data space; the reference forms
    # every state on the ray, measures and scrambles it, and bisects the same
    # predicate with the same steps
    import math
    from qscramble.detector import Verdict, scrambled_possibly_separable, star_convexity_ray
    from qscramble.optimize import bisect
    from qscramble.quantum import mix

    def state_route(rho, resolution):
        def detected(lam):
            data = scramble_state(mix(maximally_mixed(), rho, lam))
            return scrambled_possibly_separable(data)[0] is Verdict.DETECTED

        if not detected(1.0):
            return 1.0
        steps = max(1, math.ceil(math.log2(resolution)))
        return float(bisect(lambda lam: not detected(float(lam)), 0.0, 1.0, steps)[1])

    states = [maximally_mixed(), rho1(), counterexample_mixture()]
    states += [psi_t(t).density() for t in (1.5, 3.0, 10.0)]
    for rho in states:
        for resolution in (2, 64, 2 ** 20):
            assert star_convexity_ray(rho, resolution) == state_route(rho, resolution)

    data = [scramble_state(rho) for rho in states]
    mx = np.array([d.multiset(XX) for d in data])
    mz = np.array([d.multiset(ZZ) for d in data])
    lo, hi = det._ray_search(mx, mz, 2 ** 20)
    for k in range(len(states)):
        alone = det._ray_search(mx[k:k + 1], mz[k:k + 1], 2 ** 20)
        assert (lo[k], hi[k]) == (alone[0][0], alone[1][0])


def _ray_ends():
    """Sorted multisets of seeded Dirichlet rows (alpha 0.3, 1 and 5) and of
    points on the slice triangle's edges, where entries tie or vanish."""
    rng = np.random.default_rng(20191)
    mx, mz = [], []
    for alpha in (0.3, 1.0, 5.0):
        mx.append(np.sort(rng.dirichlet(np.full(4, alpha), 400), axis=1)[:, ::-1])
        mz.append(np.sort(rng.dirichlet(np.full(4, alpha), 400), axis=1)[:, ::-1])
    t = np.linspace(0.0, 1.0, 41)
    edges = det._slice_multisets(np.concatenate([t, np.zeros_like(t), t]),
                                 np.concatenate([(1.0 - t) / 2.0, t / 2.0, np.zeros_like(t)]))
    return np.concatenate(mx + [edges]), np.concatenate(mz + [edges])


@pytest.mark.parametrize("resolution", [2, 8, 2 ** 12])
def test_ray_search_equals_bisection_on_certified_decisions(resolution):
    # the closed-form midpoint test against the bisection it replaced, which
    # decides every midpoint with _decide's 18 certified rows
    mx, mz = _ray_ends()

    def on_ray(lam):
        lam = np.asarray(lam)[:, None]
        return 0.25 + lam * (mx - 0.25), 0.25 + lam * (mz - 0.25)

    def undetected(lam):
        return det._decide(*on_ray(lam))[0] != 1

    steps = max(1, math.ceil(math.log2(resolution)))
    ref_lo, ref_hi = bisect(undetected, np.zeros(len(mx)), 1.0, steps)
    lo, hi = det._ray_search(mx, mz, resolution)
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)

    # every hi below 1 is detected with 18 checked witnesses, and no lo is
    inner = hi < 1.0
    assert resolution == 2 or inner.sum() >= 100
    codes, statuses, _, _ = det._decide(*on_ray(hi))
    assert np.all(codes[inner] == 1)
    k = len(canonical_permutations())
    blocks = np.array([s is FeasibilityStatus.INFEASIBLE for s in statuses]).reshape(-1, k)
    assert blocks[inner].all()
    assert not np.any(det._decide(*on_ray(lo))[0] == 1)
