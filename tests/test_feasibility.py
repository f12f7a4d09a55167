import itertools

import numpy as np
import pytest

import qscramble.detector as det
import qscramble.feasibility as fz
from qscramble.detector import Verdict, scrambled_possibly_separable, star_convexity_ray
from qscramble.feasibility import (FeasibilityProblem, FeasibilityStatus,
                                   feasible_for_probabilities, solve_batch)
from qscramble.measurement import (XX, ZZ, ScrambledData, apply_permutation,
                                   canonical_permutations, probabilities, probabilities_stack,
                                   scramble, scramble_state, setting)
from qscramble.quantum import (DensityMatrix, is_ppt, maximally_mixed, mix,
                               partial_transpose_stack, random_hs_stack, singlet)

from oracle import oracle_feasible, oracle_min_violation, oracle_objective


_PLUS, _MINUS = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
_KETS = (np.array([np.kron(a, b) for a in (_PLUS, _MINUS) for b in (_PLUS, _MINUS)]),
         np.array([np.kron(a, b) for a in np.eye(2) for b in np.eye(2)]))


def _assignment_rows(mx, mz):
    """The 18 canonical assignments of sorted multisets (n, 4) as labeled
    rows (18 n, 4), sample-major: outcome k of row 18 i + j receives the
    pi[k]-th largest entry of sample i, pi canonical assignment j."""
    perms = canonical_permutations()
    return (mx[:, [p.pi_x for p in perms]].reshape(-1, 4),
            mz[:, [p.pi_z for p in perms]].reshape(-1, 4))


def certificate_checks(cert, p_xx, p_zz):
    """The rules of bench/checks.certificate, from numpy alone: trace, PSD and
    PPT within 1e-8, rows within 1e-7."""
    m = np.asarray(cert, dtype=complex)
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    rows = [np.real(np.einsum("ka,ab,kb->k", kets, m, kets)) for kets in _KETS]
    return (abs(np.trace(m).real - 1.0) <= 1e-8
            and min(np.linalg.eigvalsh(m)[0], np.linalg.eigvalsh(pt)[0]) >= -1e-8
            and max(np.max(np.abs(rows[0] - p_xx)), np.max(np.abs(rows[1] - p_zz))) <= 1e-7)


_PX, _PZ, _I2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
# XZ/4 and ZX/4, the free directions of the LMI
_FREE = np.array([np.kron(_PX, _PZ), np.kron(_PZ, _PX)]) / 4.0
# the Bell states Phi-, Psi+, Phi+, Psi- as columns
_T = np.array([[1, 0, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, -1, 0]]).T / np.sqrt(2.0)


def reference_base_state(pxx, pzz):
    """rho_b from its seven fixed Pauli coordinates, built apart from the solver:
    I/4 plus c_P P / 4 with c_P = sum_k p_k Tr(Pi_k P) over the eight
    measured projectors."""
    projs = np.concatenate([setting(XX), setting(ZZ)]).real
    p = np.concatenate([np.atleast_2d(pxx), np.atleast_2d(pzz)], axis=1)
    rho = np.broadcast_to(np.eye(4) / 4.0, (len(p), 4, 4)).copy()
    for a, b in ((_PX, _I2), (_I2, _PX), (_PX, _PX), (_PZ, _I2), (_I2, _PZ), (_PZ, _PZ)):
        pauli = np.kron(a, b)
        rho += (p @ np.einsum("kab,ba->k", projs, pauli))[:, None, None] * pauli / 4.0
    return rho


def test_lmi_reduction_reproduces_rows():
    # rho_b reproduces the rows, the free directions are invisible to the
    # projectors and to the partial transpose, and in the Bell frame M =
    # T^T A(t) T the data fix the eight entries _bell_entries returns while
    # t moves only M_01 = (t_1 + t_2)/4 and M_23 = (t_2 - t_1)/4; each entry
    # is one contiguous row of _bell_entries' (8, n)
    states = random_hs_stack(99, 20)
    pxx = probabilities_stack(states, XX)
    pzz = probabilities_stack(states, ZZ)
    rho_b = reference_base_state(pxx, pzz)
    assert np.max(np.abs(np.trace(rho_b, axis1=1, axis2=2) - 1.0)) <= 1e-15
    assert np.max(np.abs(probabilities_stack(rho_b, XX) - pxx)) <= 1e-15
    assert np.max(np.abs(probabilities_stack(rho_b, ZZ) - pzz)) <= 1e-15
    projs = np.concatenate([setting(XX), setting(ZZ)])
    assert np.array_equal(fz._PROJECTORS, projs.real)  # the solver's copy, from the kets
    assert np.max(np.abs(np.einsum("kab,fba->kf", projs, _FREE))) <= 1e-15
    t = np.random.default_rng(5).normal(size=(20, 2))
    a = rho_b + t[:, 0, None, None] * _FREE[0] + t[:, 1, None, None] * _FREE[1]
    assert np.array_equal(partial_transpose_stack(a), a)
    m = _T.T @ a @ _T
    x, y = (t[:, 0] + t[:, 1]) / 4.0, (t[:, 1] - t[:, 0]) / 4.0
    fixed = np.concatenate([np.diagonal(m, axis1=1, axis2=2),
                            m[:, [0, 0, 1, 1], [2, 3, 2, 3]]], axis=1)
    entries = fz._bell_entries(np.concatenate([pxx, pzz], axis=1))
    assert entries.shape == (8, 20) and entries.flags.c_contiguous
    assert np.max(np.abs(entries.T - fixed)) <= 1e-15
    assert np.max(np.abs(m[:, 0, 1] - x)) <= 1e-15 and np.max(np.abs(m[:, 2, 3] - y)) <= 1e-15
    ext = np.concatenate([entries.T, x[:, None], y[:, None]], axis=1)
    assert np.max(np.abs((ext @ fz._CERT_MAP).reshape(-1, 4, 4) - a)) <= 1e-15


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
    from qscramble.measurement import PermutationPair, scramble_equivalent
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
    rho_b = reference_base_state(pxx, pzz)
    code, _, wit, _ = fz._lmi(fz._bell_entries(np.concatenate([pxx, pzz], axis=1)))
    wit = fz._apply(wit.reshape(-1, 16), fz._TO_COMPUTATIONAL).reshape(-1, 4, 4)
    infeasible = [i for i, s in enumerate(statuses) if s is FeasibilityStatus.INFEASIBLE]
    assert np.nonzero(code == -1)[0].tolist() == infeasible
    assert infeasible[-2:] == [25, 26]
    for w, i in zip(wit, infeasible):
        assert np.linalg.eigvalsh(w)[0] >= -1e-15
        assert abs(np.trace(w) - 1.0) <= 1e-15
        assert np.max(np.abs(np.einsum("fab,ba->f", _FREE, w))) <= 1e-16
        assert np.sum(w * rho_b[i]) <= -fz.TOL_INFEASIBLE
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
    # fixed rows: the singlet and |+>|0> labelings, and a row whose rho_b has
    # lambda_min = -5e-9: certified on M + 1e-8 I, with a clipped
    # certificate.  Each appears three times, before, among and after the HS
    # rows; fixed row j sits at pos[j]
    lam = 0.5 + 1e-8
    gap_row = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    fixed_x = np.array([[0, .5, .5, 0], [.5, .5, 0, 0], gap_row])
    fixed_z = np.array([[0, .5, .5, 0], [.5, 0, .5, 0], gap_row])
    order = [2, 1, 0], [1, 0, 2], [0, 1, 2]
    pxx = np.vstack([fixed_x[order[0]], pxx[:100], fixed_x[order[1]], pxx[100:], fixed_x[order[2]]])
    pzz = np.vstack([fixed_z[order[0]], pzz[:100], fixed_z[order[1]], pzz[100:], fixed_z[order[2]]])
    hs = np.r_[3:103, 106:206]
    pos = np.array([[2, 104, 206], [1, 103, 207], [0, 105, 208]])
    statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
    assert FeasibilityStatus.INFEASIBLE in statuses
    assert statuses[208] is FeasibilityStatus.FEASIBLE and abs(residuals[208] - 5e-9) <= 1e-15
    for i in [*hs[::3], *pos[:, 2]]:  # sample 66 and the fixed rows
        s, c, r, k = solve_batch(pxx[i:i + 1], pzz[i:i + 1])
        assert s[0] is statuses[i] and k[0] == cycles[i]
        assert abs(r[0] - residuals[i]) <= 1e-15
        if certs[i] is not None:
            assert np.max(np.abs(c[0] - certs[i])) <= 1e-15
    for j, copies in enumerate(pos):
        assert [statuses[i] for i in copies] == [statuses[pos[j, 2]]] * 3
        assert len(set(cycles[copies].tolist())) == 1
        assert len({residuals[i].tobytes() for i in copies}) == 1
        assert len({None if certs[i] is None else certs[i].tobytes() for i in copies}) == 1
    assert statuses[pos[0, 2]] is FeasibilityStatus.INFEASIBLE
    assert cycles.dtype.kind == "i" and not cycles.any()


def _scan_rows():
    """The true labelings of random_hs_stack(107, 3000) and the 18 assignments
    of the first 80 samples of scramble seed 1, as the scans build them."""
    hs = random_hs_stack(107, 3000)
    scr = random_hs_stack(1, 80)
    sx = np.sort(np.clip(probabilities_stack(scr, XX), 0, 1), axis=1)[:, ::-1]
    sz = np.sort(np.clip(probabilities_stack(scr, ZZ), 0, 1), axis=1)[:, ::-1]
    yield np.clip(probabilities_stack(hs, XX), 0, 1), np.clip(probabilities_stack(hs, ZZ), 0, 1)
    yield _assignment_rows(sx, sz)


def test_psd_base_states_need_no_newton_step():
    # no row takes a Newton step.  x = y = 0 completes M when rho_b is PSD, so
    # the test passes on M itself and the certificate needs no clipping:
    # residual 0.  Rows whose rho_b has lambda_min >= -1e-8 pass on M + 1e-8 I.  Boundary rows: the true rows of
    # random_hs_stack(5, 3000) whose rho_b is not PSD, moved along the ray
    # from I/4 to where lambda_min(rho_b) = 0 up to rounding; segment rows:
    # from uniform towards the singlet labeling, lambda_min(rho_b) = -gap
    states = random_hs_stack(5, 3000)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    lam0 = np.linalg.eigvalsh(reference_base_state(pxx, pzz))[:, 0]
    t = 1.0 / (1.0 - 4.0 * lam0[lam0 < 0.0, None])
    boundary = [(1 - t) * np.full(4, 0.25) + t * q[lam0 < 0.0] for q in (pxx, pzz)]
    lam = 0.5 + 2.0 * np.array([1e-12, -1e-12, 1e-9, -1e-9])[:, None]
    segment = [(1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])] * 2
    for pxx, pzz in [*_scan_rows(), boundary, segment]:
        statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
        lam0 = np.linalg.eigvalsh(reference_base_state(pxx, pzz))[:, 0]
        psd = lam0 >= -fz._CERT_EIG_TOL
        assert 0 < psd.sum() and not cycles.any()
        assert all(statuses[i] is FeasibilityStatus.FEASIBLE for i in np.flatnonzero(psd))
        assert np.all(residuals[psd] <= fz._CERT_EIG_TOL)
        assert np.all(residuals[lam0 > 1e-12] == 0.0)
        # max(0, -lambda_min) is +0.0 where the test passes on M itself
        assert not np.signbit(residuals[psd]).any()
        for i in np.flatnonzero(psd)[::7]:
            assert certificate_checks(certs[i], pxx[i], pzz[i]), i


def _slice_rows(resolution):
    """The 18 assignments of every point of nonconvex_slice's grid."""
    from qscramble.detector import _in_slice
    p_pp, p_pm = np.meshgrid(np.linspace(0.0, 1.0, resolution),
                             np.linspace(0.0, 0.5, resolution), indexing="ij")
    inside = _in_slice(p_pp, p_pm)
    p_pp, p_pm = p_pp[inside], p_pm[inside]
    m = np.stack([p_pp, p_pm, p_pm, np.maximum(1.0 - p_pp - 2.0 * p_pm, 0.0)], axis=1)
    m = np.sort(m, axis=1)[:, ::-1]
    return _assignment_rows(m, m)


def _solved_bits(pxx, pzz):
    """solve_batch's outputs per row, as comparable values and bytes."""
    statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
    return [(s, None if c is None else c.tobytes(), r.tobytes(), int(k))
            for s, c, r, k in zip(statuses, certs, residuals, cycles)]


def test_duplicate_rows_are_solved_bit_for_bit():
    # five copies of the rank-deficient |+>|0> labeling, two of them
    # adjacent, among scan rows around the infeasible sample 66 and every
    # fifth row of the resolution-8 slice grid, which repeats rows of its own:
    # each row gets the same bits alone as in the batch
    states = random_hs_stack(107, 80)[60:80]
    scan = (np.clip(probabilities_stack(states, XX), 0, 1),
            np.clip(probabilities_stack(states, ZZ), 0, 1))
    others = [np.vstack([q, s[::5]]) for q, s in zip(scan, _slice_rows(8))]
    plus_zero = np.array([.5, .5, 0, 0]), np.array([.5, 0, .5, 0])
    m = len(others[0])
    at = [0, m // 3, m // 3, 2 * m // 3, m]
    pxx, pzz = (np.insert(o, at, row, axis=0) for o, row in zip(others, plus_zero))
    copies = np.array(at) + np.arange(len(at))
    assert np.all(pxx[copies] == plus_zero[0]) and np.all(pzz[copies] == plus_zero[1])

    batch = _solved_bits(pxx, pzz)
    assert all(batch[i] == batch[copies[0]] for i in copies)
    assert batch[copies[0]][0] is FeasibilityStatus.FEASIBLE
    assert {b[0] for b in batch} == {FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE}
    for i in range(len(pxx)):
        assert _solved_bits(pxx[i:i + 1], pzz[i:i + 1])[0] == batch[i], i


def test_screened_batch_runs_no_eigendecomposition(monkeypatch):
    # uniform rows and HS rows whose rho_b is positive definite pass the
    # completion test on M itself: each is certified by its completion, with
    # no eigvalsh or eigh call at all
    states = random_hs_stack(107, 40)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    keep = np.flatnonzero(np.linalg.eigvalsh(reference_base_state(pxx, pzz))[:, 0] > 1e-3)[:20]
    assert len(keep) == 20
    uniform = np.full((2, 4), 0.25)
    pxx, pzz = (np.vstack([uniform[:1], q[keep], uniform[1:]]) for q in (pxx, pzz))

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition on a screened batch")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
    monkeypatch.undo()
    assert statuses == [FeasibilityStatus.FEASIBLE] * 22
    assert np.all(cycles == 0) and np.all(residuals == 0.0)
    for i in range(22):
        assert certificate_checks(certs[i], pxx[i], pzz[i]), i
        assert np.linalg.eigvalsh(certs[i])[0] >= 0.0
    assert np.max(np.abs(certs[0] - np.eye(4) / 4.0)) <= 1e-16


def test_diag_frame_is_exact():
    # sqrt(2) T has entries 0 and +-1: T^T T = I, T diagonalizes the measured
    # correlators XX and ZZ (and YY), and takes XZ/4 and ZX/4 to the free
    # entries (0, 1) and (2, 3) of M, with no rounding at all; the tables
    # built from it are exact multiples of 1/4
    b = fz._BELL
    assert np.array_equal(b.T @ b, 2.0 * np.eye(4))
    assert np.max(np.abs(b / np.sqrt(2.0) - _T)) <= 1e-16
    for pauli in (np.kron(_PX, _PX), np.kron(_PZ, _PZ), np.kron(_PX @ _PZ, _PX @ _PZ)):
        d = b.T @ pauli @ b / 2.0
        assert np.array_equal(d, np.diag(np.diagonal(d)))
    for f, sign in zip(_FREE, (-1.0, 1.0)):
        free = np.zeros((4, 4))
        free[0, 1] = free[1, 0] = 0.25
        free[2, 3] = free[3, 2] = 0.25 * sign
        assert np.array_equal(b.T @ f @ b / 2.0, free)
    for table in (fz._ENTRY_MAP, fz._CERT_MAP, fz._TO_COMPUTATIONAL):
        assert np.array_equal(table * 4.0, np.round(table * 4.0))


def _status_counts(statuses):
    return tuple(sum(s is m for s in statuses) for m in FeasibilityStatus)


def _hs_true_rows(seed, count):
    states = random_hs_stack(seed, count)
    return (np.clip(probabilities_stack(states, XX), 0, 1),
            np.clip(probabilities_stack(states, ZZ), 0, 1))


def test_solver_exit_counts(monkeypatch):
    # every row leaves _lmi by one of five exits, counted in this order:
    # certified at M (value 0), certified at M + 1e-8 I (value -1e-8), the
    # witness of a failing edge, the interval witness, whose W_01 must cancel
    # to exactly 0.0 (a W_01 that rounding leaves nonzero sends its row to
    # the rebuild), and the s* rebuild, counted at its bisection.  The status
    # counts are those the earlier barrier solver reached, and no row iterates
    rebuilt, bisect = [], fz.bisect

    def counted_bisect(go_right, lo, hi, steps):
        rebuilt.append(len(lo))
        return bisect(go_right, lo, hi, steps)

    monkeypatch.setattr(fz, "bisect", counted_bisect)
    hs = _hs_true_rows(314159265, 30000)
    sx, sz = (np.sort(q[:3000], axis=1)[:, ::-1] for q in hs)
    plus_zero = np.array([[.5, .5, 0, 0]]), np.array([[.5, 0, .5, 0]])
    for (pxx, pzz), counts, exits in [
            (_slice_rows(8), (196, 452, 0), (196, 0, 436, 16, 0)),
            (_slice_rows(16), (1048, 1400, 0), (1048, 0, 1348, 52, 0)),
            (_slice_rows(32), (4680, 4824, 0), (4680, 0, 4564, 260, 0)),
            (hs, (29664, 336, 0), (29664, 0, 336, 0, 0)),
            (_assignment_rows(sx, sz), (53566, 434, 0), (53566, 0, 428, 6, 0)),
            (_hs_true_rows(107, 3000), (2959, 41, 0), (2959, 0, 41, 0, 0)),
            (plus_zero, (1, 0, 0), (1, 0, 0, 0, 0))]:
        statuses, _, _, cycles = solve_batch(pxx, pzz)
        assert _status_counts(statuses) == counts
        assert cycles.shape == (len(pxx),) and cycles.dtype.kind == "i" and not cycles.any()
        rebuilt.clear()
        code, _, w, value = fz._lmi(fz._bell_entries(np.concatenate([pxx, pzz], axis=1)))
        interval = (w[:, 2, 2] > 0.0) & (w[:, 3, 3] > 0.0)  # an edge witness has one of them 0
        assert np.all(w[interval, 0, 1] == 0.0)
        assert (np.sum((code == 1) & (value == 0.0)),
                np.sum((code == 1) & (value == -fz._CERT_EIG_TOL)),
                np.sum(~interval), np.sum(interval), sum(rebuilt)) == exits


def test_docstring_rows_headroom():
    # the 27 848 rows of the module docstring: the true labelings of the
    # first 20 000 states of scan seed 314159265, the 18 assignments of the
    # first 300 states of scrambled-scan seed 1 and the resolution-16 slice
    # grid.  Certificates reproduce their rows within 1e-12, far inside
    # TOL_FEASIBLE = 1e-7, and every witness margin is at most -1e-6
    scr = random_hs_stack(1, 300)
    sx = np.sort(np.clip(probabilities_stack(scr, XX), 0, 1), axis=1)[:, ::-1]
    sz = np.sort(np.clip(probabilities_stack(scr, ZZ), 0, 1), axis=1)[:, ::-1]
    sets = [(_hs_true_rows(314159265, 20000), (19769, 231, 0)),
            (_assignment_rows(sx, sz), (5366, 34, 0)),
            (_slice_rows(16), (1048, 1400, 0))]
    assert sum(len(rows[0]) for rows, _ in sets) == 27848
    projs = np.concatenate([setting(XX), setting(ZZ)]).real
    for (pxx, pzz), counts in sets:
        statuses, certs, residuals, _ = solve_batch(pxx, pzz)
        assert _status_counts(statuses) == counts
        hit = [i for i, s in enumerate(statuses) if s is FeasibilityStatus.FEASIBLE]
        c = np.array([certs[i] for i in hit])
        rows = np.einsum("kab,nba->nk", projs, c)
        assert np.max(np.abs(rows - np.concatenate([pxx[hit], pzz[hit]], axis=1))) <= 1e-12
        assert np.max(np.abs(np.trace(c, axis1=1, axis2=2) - 1.0)) <= 1e-15
        assert np.min(np.linalg.eigvalsh(c)[:, 0]) >= -1e-15
        assert np.min(np.linalg.eigvalsh(partial_transpose_stack(c))[:, 0]) >= -1e-15
        infeasible = np.array([s is FeasibilityStatus.INFEASIBLE for s in statuses])
        assert np.min(residuals[infeasible]) >= fz.TOL_INFEASIBLE
        assert np.max(residuals[~infeasible]) <= 1e-15


def test_witnesses_of_infeasible_slice_rows():
    # every witness _lmi returns, rotated back from the Bell frame, is a
    # symmetric PSD trace-one W with no XZ or ZX coordinate, and Tr(W rho_b)
    # is its margin
    pxx, pzz = _slice_rows(8)
    statuses, _, _, _ = solve_batch(pxx, pzz)
    infeasible = np.array([s is FeasibilityStatus.INFEASIBLE for s in statuses])
    assert infeasible.sum() == 452
    pxx, pzz = pxx[infeasible], pzz[infeasible]
    code, _, w, margin = fz._lmi(fz._bell_entries(np.concatenate([pxx, pzz], axis=1)))
    assert np.all(code == -1) and len(w) == 452
    w = fz._apply(w.reshape(-1, 16), fz._TO_COMPUTATIONAL).reshape(-1, 4, 4)
    assert np.max(np.abs(w - np.swapaxes(w, 1, 2))) <= 1e-15
    assert np.min(np.linalg.eigvalsh(w)[:, 0]) >= -1e-15
    assert np.max(np.abs(np.trace(w, axis1=1, axis2=2) - 1.0)) <= 1e-15
    for f in _FREE:
        assert np.max(np.abs((w * f).sum(axis=(1, 2)))) <= 1e-16
    value = (w * reference_base_state(pxx, pzz)).sum(axis=(1, 2))
    assert np.max(np.abs(value - margin)) <= 1e-15
    assert np.max(value) <= -fz.TOL_INFEASIBLE


def test_solve_batch_on_zero_rows_and_status_identity():
    statuses, states, residuals, cycles = solve_batch(np.empty((0, 4)), np.empty((0, 4)))
    assert statuses == [] and states == []
    assert residuals.shape == (0,) and cycles.shape == (0,)
    # feasible, infeasible and (between the certificates) inconclusive rows
    gap_row = (0.5 - 2e-7) * np.full(4, 0.25) + (0.5 + 2e-7) * np.array([0, .5, .5, 0])
    pxx = np.array([[.25] * 4, [0, .5, .5, 0], gap_row, [.5, .5, 0, 0]])
    pzz = np.array([[.25] * 4, [0, .5, .5, 0], gap_row, [.5, 0, .5, 0]])
    statuses, states, _, _ = solve_batch(pxx, pzz)
    members = list(FeasibilityStatus)
    assert all(any(s is m for m in members) for s in statuses)
    assert statuses == [FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE,
                        FeasibilityStatus.INCONCLUSIVE, FeasibilityStatus.FEASIBLE]
    assert [s is None for s in states] == [False, True, True, False]


@pytest.mark.parametrize("resolution", [2.5, True, 1])
def test_star_convexity_ray_rejects_bad_resolution(resolution):
    from qscramble.errors import DomainError
    with pytest.raises(DomainError, match="resolution"):
        star_convexity_ray(maximally_mixed(), resolution)


def test_slightly_negative_base_state_gets_a_clipped_certificate():
    # on the segment from uniform to the singlet labeling M is diagonal and
    # lambda_min(rho_b) = (1 - 2 lam)/4 = -gap, inside the 1e-8 shift: the
    # completion is rho_b itself, and its least eigenvalue is clipped
    gaps = np.array([1e-12, 1e-9, 5e-9, 9e-9])
    lam = 0.5 + 2.0 * gaps[:, None]
    p = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    statuses, certs, residuals, cycles = solve_batch(p, p)
    assert statuses == [FeasibilityStatus.FEASIBLE] * 4
    assert np.all(cycles == 0)
    lam0 = np.linalg.eigvalsh(reference_base_state(p, p))[:, 0]
    assert np.max(np.abs(residuals + lam0)) <= 1e-16  # the margin is lambda_min(rho_b)
    assert np.max(np.abs(residuals - gaps)) <= 1e-15
    for i in range(4):
        assert certificate_checks(certs[i], p[i], p[i])
        assert np.linalg.eigvalsh(certs[i])[0] >= -1e-15  # clipped, not -gap


def test_rows_between_the_certificates_are_inconclusive():
    # on the segment from uniform to the singlet labeling, max_t lambda_min(A(t))
    # is (1 - 2 lam)/4: here -3.5e-8 to -5e-7, below the primal rule's -1e-8
    # and above the witness margin floor -1e-6, so neither certificate can
    # check, and the residual is -s*, bisected on the completion test
    gaps = np.array([3.5e-8, 1e-7, 1.5e-7, 5e-7])
    lam = 0.5 + 2.0 * gaps[:, None]
    p = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    statuses, states, residuals, cycles = solve_batch(p, p)
    assert statuses == [FeasibilityStatus.INCONCLUSIVE] * 4 and states == [None] * 4
    assert np.all(cycles == 0)
    assert np.max(np.abs(residuals - gaps)) < 1e-15


def _grid_s_star(m):
    """max_t lambda_min(A(t)) for a Bell-frame M (4x4, any M_01 and M_23).

    M - sI has a PSD completion at x exactly when its blocks {0,1,2} and
    {0,1,3} are PSD there, so s* = max_x min_k lambda_min(B_k(x)), a concave
    function of x: ``eigvalsh`` on a grid over x, zoomed in five times."""
    blocks = np.array([m[np.ix_(b, b)] for b in ([0, 1, 2], [0, 1, 3])])
    lo, hi = -1.0, 1.0
    for _ in range(5):
        x = np.linspace(lo, hi, 401)
        b = np.repeat(blocks[None], len(x), axis=0)
        b[:, :, 0, 1] = b[:, :, 1, 0] = x[:, None]
        value = np.linalg.eigvalsh(b)[:, :, 0].min(axis=1)
        best, step = np.argmax(value), x[1] - x[0]
        lo, hi = x[best] - 2 * step, x[best] + 2 * step
    return value[best]


# rows that a closed-form solver must handle with care, each with its
# verdict under the earlier barrier solver
_EDGE_BANK = [
    # the multiset (1, 0, 0, 0) of the slice grid: M_33 = -1/4
    ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], "infeasible"),
    # mirror slice rows, resolution 8, whose two blocks have equal spectra for every x
    ([5 / 14, 5 / 14, 2 / 7, 0.0], [5 / 14, 0.0, 5 / 14, 2 / 7], "infeasible"),
    ([5 / 14, 5 / 14, 0.0, 2 / 7], [5 / 14, 2 / 7, 5 / 14, 0.0], "infeasible"),
    ([0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], "feasible"),
    # the |00> labeling: M_11 = M_33 = 0 exactly, the e -> 0 limit of an interval
    ([0.25] * 4, [1.0, 0.0, 0.0, 0.0], "feasible"),
    # Dirichlet(0.1) rows with a diagonal entry of M within 3.3e-7 of 0
    ([0.12659561133704883, 0.5832757550614878, 1.7778335730248156e-05, 0.2901108552657332],
     [0.47537377517958707, 0.018996336476453417, 0.06429724728160816, 0.44133264106235137],
     "infeasible"),
    ([0.9121502665457378, 0.0011325750465920974, 0.08666566244124958, 5.149596642049754e-05],
     [4.338673519328858e-15, 3.9765214924540964e-17, 0.5877978247146709, 0.4122021752853249],
     "infeasible"),
    ([7.537812828402098e-08, 0.5931379727028051, 2.265679091643468e-09, 0.40686194965338757],
     [6.345258138089606e-20, 0.09313681126100483, 1.8263779710218215e-06, 0.9068613623610242],
     "infeasible"),
    # Dirichlet(0.1) and (0.3) rows whose first witness, between the
    # intervals of M + 1e-8 I, misses -1e-6: only the one rebuilt at s* checks
    ([7.427843145105436e-12, 4.228927506592029e-19, 0.21839939166696906, 0.7816006083256031],
     [0.40681438189041075, 0.2659845846358521, 0.23480825791829038, 0.09239277555544666],
     "infeasible"),
    ([0.7634889549756539, 0.23648605358285807, 2.4927249276933958e-05, 6.419221097607936e-08],
     [0.12716945165281307, 0.3124018574354698, 0.18869702209918132, 0.3717316688125359],
     "infeasible"),
    ([0.09346014153591946, 0.43651766521571406, 0.06429894360974567, 0.4057232496386209],
     [5.539535411389459e-12, 2.799238990959346e-06, 0.40508181585226216, 0.5949153849032074],
     "infeasible"),
    ([0.014039594577775608, 0.23390602553783316, 0.32843400135179596, 0.4236203785325953],
     [0.5623206059576868, 0.002506699041059451, 0.3874762548958834, 0.04769644010537018],
     "infeasible"),
    ([0.13338416148025373, 0.5417886685975474, 2.584896059423418e-05, 0.3248013209616045],
     [0.02040851000276209, 0.45677236750353983, 0.03568982336900022, 0.4871292991246978],
     "infeasible"),
    ([0.48494727985901, 0.00033915126697646724, 0.5147134383652264, 1.3050878720930916e-07],
     [0.44525415212199065, 0.49639757021645214, 0.004712848134979686, 0.05363542952657759],
     "infeasible"),
    # a Dirichlet(0.3) row with s* = -5.9e-7, between the two rules
    ([0.09171596966220431, 0.4199521341107593, 0.08152305401856683, 0.4068088422084695],
     [8.884739785639892e-08, 0.0013368599361039757, 0.1995631618438033, 0.7990998893726949],
     "inconclusive"),
]


def test_edge_rows_keep_their_verdicts():
    pxx = np.array([r[0] for r in _EDGE_BANK])
    pzz = np.array([r[1] for r in _EDGE_BANK])
    statuses, certs, residuals, _ = solve_batch(pxx, pzz)
    assert [s.value for s in statuses] == [r[2] for r in _EDGE_BANK]
    m = _T.T @ reference_base_state(pxx, pzz) @ _T
    assert abs(m[0, 3, 3] + 0.25) <= 1e-15
    for i in (1, 2, 3):  # equal blocks: B_3 is B_2 with M_03 = -M_02, M_13 = -M_12
        assert abs(m[i, 2, 2] - m[i, 3, 3]) <= 1e-15
        assert np.max(np.abs(m[i, [0, 1], 2] + m[i, [0, 1], 3])) <= 1e-15
    assert np.abs(np.diagonal(m[5:8], axis1=1, axis2=2)).min(axis=1).max() <= 3.4e-7
    entries = fz._bell_entries(np.concatenate([pxx, pzz], axis=1))
    for i, s in enumerate(statuses):
        if s is FeasibilityStatus.FEASIBLE:
            assert certificate_checks(certs[i], pxx[i], pzz[i]) and residuals[i] == 0.0
            continue
        s_star = _grid_s_star(m[i])
        if s is FeasibilityStatus.INCONCLUSIVE:
            assert abs(residuals[i] + s_star) <= 1e-9
            continue
        # a witness never beats s*; it reaches it when rebuilt at s*, or when
        # the edge it sits on binds.  Rows 6 and 7 get the witness of their
        # failing edge, whose margin, that edge's lambda_min, lies above s*
        assert -residuals[i] >= s_star - 1e-12
        if i in (6, 7):
            edge = min(np.linalg.eigvalsh(m[i][np.ix_(e, e)])[0]
                       for e in ([0, 2], [0, 3], [1, 2], [1, 3]))
            assert abs(residuals[i] + edge) <= 1e-15 and -residuals[i] > s_star + 1e-3
        else:
            assert -residuals[i] <= s_star + 1e-9, i
    # the rebuilt rows: the witness between the intervals of M + 1e-8 I misses
    # the -1e-6 floor, so their verdicts rest on the rebuild
    rows = entries[:, 8:14]
    lo, hi = fz._interval(rows, -fz._CERT_EIG_TOL)
    lam = np.array([[np.linalg.eigvalsh(m[i][np.ix_(e, e)])[0] for i in range(8, 14)]
                    for e in ([0, 2], [0, 3], [1, 2], [1, 3])])
    shift = np.full(6, -fz._CERT_EIG_TOL)
    _, first = fz._witness(rows, lam, lam.min(axis=0), shift, 0.5 * (lo + hi))
    assert np.all((first > -fz.TOL_INFEASIBLE) & (first < 0.0))
    assert np.all(residuals[8:14] > 1e-4)


@pytest.mark.parametrize("call", [feasible_for_probabilities, scrambled_possibly_separable,
                                  star_convexity_ray])
@pytest.mark.parametrize("bad", [None, np.full((4, 4), 0.25), "feasible"])
def test_entry_points_raise_typed_errors(call, bad):
    from qscramble.errors import DomainError
    with pytest.raises(DomainError, match="expects a"):
        call(bad)


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


@pytest.mark.parametrize("p_xx, p_zz", [
    ([0.4, 0.3, 0.2, 0.1 + 5e-10], [0.25] * 4),            # feasible
    ([0.0, 0.5, 0.5, 5e-10], [0.0, 0.5, 0.5, 0.0]),        # infeasible
])
def test_problem_solves_the_rows_solve_batch_solves(p_xx, p_zz):
    # a row sum 1 + 5e-10 is inside the 1e-9 band both entry points accept,
    # and neither may renormalize it
    problem = FeasibilityProblem(p_xx, p_zz)
    assert np.array_equal(problem.p_xx, p_xx) and np.array_equal(problem.p_zz, p_zz)
    res = feasible_for_probabilities(problem)
    statuses, states, residuals, _ = solve_batch(np.array([p_xx]), np.array([p_zz]))
    assert res.status is statuses[0]
    assert res.residual == residuals[0]
    if states[0] is None:
        assert res.witness_state is None
    else:
        assert np.array_equal(res.witness_state.matrix, DensityMatrix(states[0]).matrix)


def test_scrambled_data_solves_the_rows_the_scans_solve():
    # a multiset summing to 1 + 5e-10 is stored as given, so the detect path
    # and the scan path decide the same 18 rows
    mx, mz = np.array([0.4, 0.3, 0.2, 0.1 + 5e-10]), np.array([0.5, 0.5, 0.0, 0.0])
    verdict, ev = scrambled_possibly_separable(ScrambledData({XX: mx, ZZ: mz}))
    statuses, _, residuals, _ = solve_batch(*_assignment_rows(mx[None], mz[None]))
    assert verdict is Verdict.DETECTED
    assert ev.statuses == tuple(statuses)
    assert ev.residuals == tuple(float(r) for r in residuals)


def test_assignment_rows_match_apply_permutation(random_states_2k, monkeypatch):
    # the rows _decide hands to solve_batch are apply_permutation's, sample-major
    data = [scramble_state(DensityMatrix(m)) for m in random_states_2k[:3]]
    mx = np.array([d.multiset(XX) for d in data])
    mz = np.array([d.multiset(ZZ) for d in data])
    seen = []

    def capture(p_xx, p_zz):
        seen.append((p_xx, p_zz))
        return solve_batch(p_xx, p_zz)

    monkeypatch.setattr(det, "solve_batch", capture)
    det._decide(mx, mz)
    [(rows_x, rows_z)] = seen
    perms = canonical_permutations()
    assert rows_x.shape == rows_z.shape == (len(data) * 18, 4)
    for i, d in enumerate(data):
        for j, pair in enumerate(perms):
            dx, dz = apply_permutation(d, pair)
            assert np.array_equal(rows_x[18 * i + j], dx.p)
            assert np.array_equal(rows_z[18 * i + j], dz.p)


def test_solve_codes_is_solve_batch_as_codes():
    for pxx, pzz in _scan_rows():
        code, certs, _ = fz._solve_codes(pxx, pzz)
        statuses, states, _, _ = solve_batch(pxx, pzz)
        assert code.dtype == np.int8
        assert fz._STATUS_OF_CODE[code].tolist() == statuses
        assert {-1, 1} <= set(code.tolist())
        hit = np.flatnonzero(code == 1)
        assert len(certs) == len(hit)
        assert all(np.array_equal(states[i], c) for i, c in zip(hit, certs))


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
