import numpy as np
import pytest

import qscramble.feasibility as fz
from qscramble.feasibility import (FeasibilityProblem, FeasibilityStatus, Verdict,
                                   feasible_for_probabilities, oracle_feasible,
                                   oracle_min_violation, scrambled_possibly_separable,
                                   solve_batch, star_convexity_ray)
from qscramble.measurement import (XX, ZZ, ScrambledData, probabilities,
                                   probabilities_stack, scramble, scramble_state, setting)
from qscramble.quantum import (DensityMatrix, is_ppt, maximally_mixed, mix,
                               partial_transpose_stack, random_hs_stack, singlet)


_PLUS, _MINUS = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
_KETS = (np.array([np.kron(a, b) for a in (_PLUS, _MINUS) for b in (_PLUS, _MINUS)]),
         np.array([np.kron(a, b) for a in np.eye(2) for b in np.eye(2)]))


def certificate_checks(cert, p_xx, p_zz):
    """The rules of bench/checks.certificate, from numpy alone: trace, PSD and
    PPT within 1e-8, rows within 1e-7."""
    m = np.asarray(cert, dtype=complex)
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    rows = [np.real(np.einsum("ka,ab,kb->k", kets, m, kets)) for kets in _KETS]
    return (abs(np.trace(m).real - 1.0) <= 1e-8
            and min(np.linalg.eigvalsh(m)[0], np.linalg.eigvalsh(pt)[0]) >= -1e-8
            and max(np.max(np.abs(rows[0] - p_xx)), np.max(np.abs(rows[1] - p_zz))) <= 1e-7)


def test_lmi_reduction_reproduces_rows():
    states = random_hs_stack(99, 20)
    pxx = probabilities_stack(states, XX)
    pzz = probabilities_stack(states, ZZ)
    rho_b = fz._base_state(pxx, pzz)
    assert np.max(np.abs(np.trace(rho_b, axis1=1, axis2=2) - 1.0)) <= 1e-15
    assert np.max(np.abs(probabilities_stack(rho_b, XX) - pxx)) <= 1e-15
    assert np.max(np.abs(probabilities_stack(rho_b, ZZ) - pzz)) <= 1e-15
    _, free = fz._lmi_frame()
    projs = np.concatenate([setting(XX).projectors, setting(ZZ).projectors])
    assert np.max(np.abs(np.einsum("kab,fba->kf", projs, free))) <= 1e-15
    t = np.random.default_rng(5).normal(size=(20, 2))
    a = rho_b + t[:, 0, None, None] * free[0] + t[:, 1, None, None] * free[1]
    assert np.array_equal(partial_transpose_stack(a), a)


def test_uniform_is_feasible():
    res = feasible_for_probabilities(FeasibilityProblem([0.25] * 4, [0.25] * 4))
    assert res.status is FeasibilityStatus.FEASIBLE
    assert np.max(np.abs(res.witness_state.matrix - np.eye(4) / 4)) < 1e-6


def test_singlet_labeling_is_infeasible():
    res = feasible_for_probabilities(FeasibilityProblem([0, .5, .5, 0], [0, .5, .5, 0]))
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.residual > 1e-2  # the correlation witness value -1 obstructs strongly


def test_plus_zero_labeling_is_feasible_with_certificate():
    res = feasible_for_probabilities(FeasibilityProblem([.5, .5, 0, 0], [.5, 0, .5, 0]))
    assert res.status is FeasibilityStatus.FEASIBLE
    cert = res.witness_state
    assert cert is not None
    assert is_ppt(cert)
    assert np.max(np.abs(probabilities(cert, XX).p - [.5, .5, 0, 0])) < 1e-7
    assert np.max(np.abs(probabilities(cert, ZZ).p - [.5, 0, .5, 0])) < 1e-7
    assert cert.min_eigenvalue() > -1e-8


def test_scrambled_verdicts_on_paper_instances():
    v, ev = scrambled_possibly_separable(scramble_state(singlet().density()))
    assert v is Verdict.POSSIBLY_SEPARABLE
    assert ev.permutation is not None and ev.state is not None
    # the certificate reproduces the claimed assignment of the multisets
    from qscramble.measurement import apply_permutation
    dists = apply_permutation(scramble_state(singlet().density()), ev.permutation)
    assert np.max(np.abs(probabilities(ev.state, XX).p - dists[0].p)) < 1e-6

    uniform = ScrambledData({XX: [0.25] * 4, ZZ: [0.25] * 4})
    v, _ = scrambled_possibly_separable(uniform)
    assert v is Verdict.POSSIBLY_SEPARABLE

    m = np.array([5, 5, 5, 33]) / 48.0
    v, ev = scrambled_possibly_separable(ScrambledData({XX: m, ZZ: m}))
    assert v is Verdict.DETECTED
    assert all(s is FeasibilityStatus.INFEASIBLE for s in ev.statuses)


def test_feasible_certificates_on_random_states(random_states_2k):
    # identity-assignment problems built from actual states are feasible,
    # and certificates reproduce the targets
    pxx = np.clip(probabilities_stack(random_states_2k[:40], XX), 0, 1)
    pzz = np.clip(probabilities_stack(random_states_2k[:40], ZZ), 0, 1)
    statuses, states, viol, _ = solve_batch(pxx, pzz)
    for i, s in enumerate(statuses):
        if s is not FeasibilityStatus.FEASIBLE:
            continue
        cert = DensityMatrix(states[i])
        assert is_ppt(cert)
        assert np.max(np.abs(probabilities(cert, XX).p - pxx[i])) < 1e-7
        assert np.max(np.abs(probabilities(cert, ZZ).p - pzz[i])) < 1e-7


def test_verdict_invariant_under_relabelings(random_states_2k):
    import itertools
    from qscramble.measurement import (PermutationPair, apply_permutation,
                                       scramble_equivalent)
    rng = np.random.default_rng(0)
    perms = [PermutationPair(px, pz)
             for px in itertools.permutations(range(4))
             for pz in itertools.permutations(range(4))]
    for m in random_states_2k[:4]:
        data = scramble_state(DensityMatrix(m))
        base, _ = scrambled_possibly_separable(data)
        for pair in (perms[i] for i in rng.choice(len(perms), size=5, replace=False)):
            relabeled = scramble(apply_permutation(data, pair))
            assert scramble_equivalent(relabeled, data, 0.0)
            v, _ = scrambled_possibly_separable(relabeled)
            assert v is base


def test_solver_agrees_with_oracle_sample(random_states_2k):
    pxx = np.clip(probabilities_stack(random_states_2k[:150], XX), 0, 1)
    pzz = np.clip(probabilities_stack(random_states_2k[:150], ZZ), 0, 1)
    statuses, _, _, _ = solve_batch(pxx, pzz)
    for i, s in enumerate(statuses):
        if s is FeasibilityStatus.INCONCLUSIVE:
            continue
        assert oracle_feasible(pxx[i], pzz[i]) == (s is FeasibilityStatus.FEASIBLE)


def test_oracle_values_on_known_instances():
    assert oracle_min_violation([0.25] * 4, [0.25] * 4) < 1e-14
    assert oracle_min_violation([.5, .5, 0, 0], [.5, 0, .5, 0]) < 1e-12
    assert oracle_min_violation([0, .5, .5, 0], [0, .5, .5, 0]) > 1e-4


def test_oracle_gradient_matches_finite_differences():
    from qscramble.feasibility import oracle_objective
    rng = np.random.default_rng(2)
    targets = np.array([0.1, 0.2, 0.3, 0.4, 0.4, 0.3, 0.2, 0.1])
    a0 = rng.normal(size=16)
    _, grad = oracle_objective(a0, targets)
    eps = 1e-6
    for k in range(16):
        ap = a0.copy()
        ap[k] += eps
        am = a0.copy()
        am[k] -= eps
        fd = (oracle_objective(ap, targets)[0] - oracle_objective(am, targets)[0]) / (2 * eps)
        assert abs(fd - grad[k]) < 1e-5 * max(1.0, abs(fd))


def test_certificates_check_on_mixed_rows():
    states = random_hs_stack(424242, 25)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    # add two instances that are far from feasible
    pxx = np.vstack([pxx, [0, .5, .5, 0], np.array([5, 5, 5, 33]) / 48.0])
    pzz = np.vstack([pzz, [0, .5, .5, 0], np.array([5, 5, 5, 33]) / 48.0])
    statuses, certs, _, _ = solve_batch(pxx, pzz)
    assert FeasibilityStatus.INCONCLUSIVE not in statuses
    for i, s in enumerate(statuses):
        if s is FeasibilityStatus.FEASIBLE:
            assert certificate_checks(certs[i], pxx[i], pzz[i]), i
    rho_b = fz._base_state(pxx, pzz)
    code, _, wit, _, _ = fz._lmi(rho_b, fz.TOL_INFEASIBLE, fz.MAX_CYCLES)
    infeasible = [i for i, s in enumerate(statuses) if s is FeasibilityStatus.INFEASIBLE]
    assert np.nonzero(code == -1)[0].tolist() == infeasible
    assert infeasible[-2:] == [25, 26]
    _, free = fz._lmi_frame()
    for i in infeasible:
        w = wit[i]
        assert np.linalg.eigvalsh(w)[0] >= 0.0
        assert abs(np.trace(w) - 1.0) <= 1e-15
        assert np.max(np.abs(np.einsum("fab,ba->f", free, w))) <= 1e-15
        assert np.sum(w * rho_b[i]) < 0.0
    oracle = [i for i in range(len(pxx)) if not oracle_feasible(pxx[i], pzz[i])]
    assert oracle == infeasible


def test_wrong_and_missing_verdicts_are_feasible():
    # near-boundary rows, each reproduced by a positive-definite PPT state
    states = np.concatenate([random_hs_stack(107, 1, start_index=i) for i in (66, 734, 1772)])
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    statuses, certs, residuals, _ = solve_batch(pxx, pzz)
    assert statuses == [FeasibilityStatus.FEASIBLE] * 3
    for i in range(3):
        assert certificate_checks(certs[i], pxx[i], pzz[i])
        assert residuals[i] <= fz._CERT_EIG_TOL


def test_verdict_independent_of_batch():
    states = random_hs_stack(107, 200)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    pxx = np.vstack([pxx, [0, .5, .5, 0], [.5, .5, 0, 0]])
    pzz = np.vstack([pzz, [0, .5, .5, 0], [.5, 0, .5, 0]])
    statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
    assert FeasibilityStatus.INFEASIBLE in statuses
    for i in list(range(0, 200, 3)) + [200, 201]:  # sample 66 and the two fixed rows
        s, c, r, k = solve_batch(pxx[i:i + 1], pzz[i:i + 1])
        assert s[0] is statuses[i] and k[0] == cycles[i]
        assert abs(r[0] - residuals[i]) <= 1e-15
        if certs[i] is not None:
            assert np.max(np.abs(c[0] - certs[i])) <= 1e-15


def test_rows_between_the_certificates_are_inconclusive():
    # on the segment from uniform to the singlet labeling, max_t lambda_min(A(t))
    # is (1 - 2 lam)/4: here -3.5e-8 to -5e-7, below the primal rule's -1e-8
    # and above the witness margin floor -1e-6, so neither certificate can check
    gaps = np.array([3.5e-8, 1e-7, 1.5e-7, 5e-7])
    lam = 0.5 + 2.0 * gaps[:, None]
    p = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    statuses, states, residuals, cycles = solve_batch(p, p)
    assert statuses == [FeasibilityStatus.INCONCLUSIVE] * 4 and states == [None] * 4
    assert np.all(cycles == fz.MAX_CYCLES)
    assert np.max(np.abs(residuals - gaps)) < 1e-9


def test_star_convexity_ray():
    assert star_convexity_ray(maximally_mixed(), 64) == 1.0
    from qscramble.detector import counterexample_mixture
    rho = counterexample_mixture()
    lam = star_convexity_ray(rho, 64)
    assert 0.0 < lam < 1.0
    # verdicts flip exactly once along the ray
    flags = []
    for l in np.linspace(0.0, 1.0, 9):
        data = scramble_state(mix(maximally_mixed(), rho, float(l)))
        v, _ = scrambled_possibly_separable(data)
        flags.append(v is Verdict.DETECTED)
    assert flags == sorted(flags)
    assert not flags[0] and flags[-1]


def test_problem_validation():
    from qscramble.errors import DomainError
    with pytest.raises(DomainError):
        FeasibilityProblem([0.5, 0.5, 0.5, 0.5], [0.25] * 4)
    with pytest.raises(DomainError):
        FeasibilityProblem([0.25] * 4, [0.25] * 4, tol_feasible=1e-5, tol_infeasible=1e-7)


def test_assignment_rows_match_apply_permutation(random_states_2k):
    from qscramble.measurement import apply_permutation, canonical_permutations
    data = [scramble_state(DensityMatrix(m)) for m in random_states_2k[:3]]
    mx = np.array([d.multiset(XX) for d in data])
    mz = np.array([d.multiset(ZZ) for d in data])
    rows_x, rows_z = fz.assignment_rows(mx, mz)
    perms = canonical_permutations()
    assert rows_x.shape == rows_z.shape == (len(data) * 18, 4)
    for i, d in enumerate(data):
        for j, pair in enumerate(perms):
            dx, dz = apply_permutation(d, pair)
            assert np.array_equal(rows_x[18 * i + j], dx.p)
            assert np.array_equal(rows_z[18 * i + j], dz.p)


def test_reduce_assignments():
    F, I, U = (FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE,
               FeasibilityStatus.INCONCLUSIVE)
    codes = fz.reduce_assignments([F, I, U], 1)
    assert codes.dtype == np.int8
    assert codes.tolist() == [0, 1, -1]
    blocks = [[I] * 18, [I] * 17 + [F], [U] + [I] * 17, [U] * 17 + [F]]
    codes = fz.reduce_assignments([s for b in blocks for s in b], 18)
    assert codes.tolist() == [1, 0, -1, 0]


def test_solve_batch_rejects_invalid_rows():
    from qscramble.errors import DomainError
    good = np.full((2, 4), 0.25)
    with pytest.raises(DomainError, match="non-finite"):
        solve_batch(np.array([[0.25, np.nan, 0.25, 0.25], [0.25] * 4]), good)
    with pytest.raises(DomainError, match="sums to"):
        solve_batch(good, np.array([[0.25] * 4, [0.3, 0.2, 0.2, 0.2]]))
    with pytest.raises(DomainError, match="shape"):
        solve_batch(good, np.full((3, 4), 0.25))
    with pytest.raises(DomainError, match="shape"):
        solve_batch(np.full((2, 3), 1 / 3), np.full((2, 3), 1 / 3))
    with pytest.raises(DomainError, match="outside"):
        solve_batch(np.array([[1.5, -0.5, 0.0, 0.0]] * 2), good)
