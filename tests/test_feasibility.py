import itertools

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
    code, _, wit, _, _ = fz._lmi(rho_b)
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
    # fixed rows: the singlet and |+>|0> labelings, and a row whose rho_b has
    # lambda_min = -5e-9: certified before any Newton step, with a clipped
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
    assert statuses[208] is FeasibilityStatus.FEASIBLE and cycles[208] == 0
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
    assert cycles[pos[1:, 2]].tolist() == [29, 0]


def _scan_rows():
    """The true labelings of random_hs_stack(107, 3000) and the 18 assignments
    of the first 80 samples of scramble seed 1, as the scans build them."""
    hs = random_hs_stack(107, 3000)
    scr = random_hs_stack(1, 80)
    sx = np.sort(np.clip(probabilities_stack(scr, XX), 0, 1), axis=1)[:, ::-1]
    sz = np.sort(np.clip(probabilities_stack(scr, ZZ), 0, 1), axis=1)[:, ::-1]
    yield np.clip(probabilities_stack(hs, XX), 0, 1), np.clip(probabilities_stack(hs, ZZ), 0, 1)
    yield fz.assignment_rows(sx, sz)


def test_psd_base_states_need_no_newton_step():
    # a PSD rho_b is its own certificate, found by the eigenvalues that place
    # the first iterate; only the other rows take Newton steps
    for pxx, pzz in _scan_rows():
        statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
        rho_b = fz._base_state(pxx, pzz)
        lam0 = np.linalg.eigvalsh(rho_b)[:, 0]
        screened = lam0 >= -fz._CERT_EIG_TOL
        assert 0 < screened.sum() < len(lam0)
        assert np.array_equal(cycles == 0, screened)
        assert all(statuses[i] is FeasibilityStatus.FEASIBLE for i in np.nonzero(screened)[0])
        assert np.array_equal(residuals[screened], np.maximum(0.0, -lam0[screened]))
        exact = rho_b / np.trace(rho_b, axis1=1, axis2=2)[:, None, None]
        for i in np.nonzero(lam0 >= 0.0)[0]:
            assert np.array_equal(certs[i], exact[i]), i


def _slice_rows(resolution):
    """The 18 assignments of every point of nonconvex_slice's grid."""
    from qscramble.detector import _in_slice
    p_pp, p_pm = np.meshgrid(np.linspace(0.0, 1.0, resolution),
                             np.linspace(0.0, 0.5, resolution), indexing="ij")
    inside = _in_slice(p_pp, p_pm)
    p_pp, p_pm = p_pp[inside], p_pm[inside]
    m = np.stack([p_pp, p_pm, p_pm, np.maximum(1.0 - p_pp - 2.0 * p_pm, 0.0)], axis=1)
    m = np.sort(m, axis=1)[:, ::-1]
    return fz.assignment_rows(m, m)


def test_ldl_screen_is_sound():
    # a row the LDL^T screen passes is positive definite by eigvalsh, so its
    # certificate is rho_b unclipped, as the eigenvalue rule gives it; a row
    # it rejects that is PSD within 1e-8 is still certified with no step.
    # Boundary rows: the true rows of random_hs_stack(5, 3000) whose rho_b is
    # not PSD, moved along the ray from I/4 to where lambda_min(rho_b) = 0 up
    # to rounding; a pivot floor of 1e-14 x trace would pass one of them with
    # lambda_min <= 0.  Edge rows: the rank-1 rho_b of the |00> labeling, and
    # singlet-segment rows with lambda_min(rho_b) = -gap
    states = random_hs_stack(5, 3000)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    lam0 = np.linalg.eigvalsh(fz._base_state(pxx, pzz))[:, 0]
    t = 1.0 / (1.0 - 4.0 * lam0[lam0 < 0.0, None])
    boundary = [(1 - t) * np.full(4, 0.25) + t * q[lam0 < 0.0] for q in (pxx, pzz)]
    gaps = np.array([1e-12, -1e-12, 1e-9, -1e-9])
    lam = 0.5 + 2.0 * gaps[:, None]
    p = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    edge = np.vstack([[.25] * 4, p]), np.vstack([[1.0, 0, 0, 0], p])
    for pxx, pzz in [*_scan_rows(), _slice_rows(16), boundary, edge]:
        rho_b = fz._base_state(pxx, pzz)
        screened = fz._ldl_positive(rho_b)
        lam0 = np.linalg.eigvalsh(rho_b)[:, 0]
        assert np.all(lam0[screened] > 0.0)
        statuses, _, _, cycles = solve_batch(pxx, pzz)
        late = np.flatnonzero(~screened & (lam0 >= -fz._CERT_EIG_TOL))
        assert all(statuses[i] is FeasibilityStatus.FEASIBLE for i in late)
        assert np.all(cycles[late] == 0)
    assert screened.tolist() == [False, False, True, False, True]
    assert late.tolist() == [0, 1, 3]


def _solved_bits(pxx, pzz):
    """solve_batch's outputs per row, as comparable values and bytes."""
    statuses, certs, residuals, cycles = solve_batch(pxx, pzz)
    return [(s, None if c is None else c.tobytes(), r.tobytes(), int(k))
            for s, c, r, k in zip(statuses, certs, residuals, cycles)]


def test_duplicate_rows_are_solved_once_and_bit_for_bit(monkeypatch):
    # five copies of the |+>|0> labeling (29 Newton steps, a rank-deficient
    # rho_b the screen rejects), two of them adjacent, among scan rows around
    # the infeasible sample 66 and every fifth row of the resolution-8 slice
    # grid, which repeats rows of its own
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
    assert batch[copies[0]][0] is FeasibilityStatus.FEASIBLE and batch[copies[0]][3] == 29
    for i in range(len(pxx)):
        assert _solved_bits(pxx[i:i + 1], pzz[i:i + 1])[0] == batch[i], i

    # _lmi's eigendecompositions, the start's first, run on the distinct
    # rejected rows only, so the copies add none
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(len(a))
        return eigh(a, *args, **kwargs)

    rho_b = fz._base_state(pxx, pzz)
    single = np.ones(len(pxx), dtype=bool)
    single[copies[1:]] = False
    monkeypatch.setattr(np.linalg, "eigh", spy)
    fz._lmi(rho_b)
    with_copies, seen[:] = seen[:], []
    fz._lmi(rho_b[single])
    monkeypatch.undo()
    rejected = rho_b[~fz._ldl_positive(rho_b)].reshape(-1, 16)
    assert with_copies[0] == len(np.unique(rejected, axis=0)) < len(rejected) - len(at)
    assert with_copies == seen


def test_screened_batch_runs_no_eigendecomposition(monkeypatch):
    # uniform rows and the first HS rows that pass the LDL^T screen: each is
    # certified by its own rho_b, with no eigvalsh or eigh call at all
    states = random_hs_stack(107, 40)
    pxx = np.clip(probabilities_stack(states, XX), 0, 1)
    pzz = np.clip(probabilities_stack(states, ZZ), 0, 1)
    keep = np.flatnonzero(fz._ldl_positive(fz._base_state(pxx, pzz)))[:20]
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
    rho_b = fz._base_state(pxx, pzz)
    exact = rho_b / np.trace(rho_b, axis1=1, axis2=2)[:, None, None]
    for i in range(22):
        assert np.array_equal(certs[i], exact[i]), i


def test_diag_frame_is_exact():
    # q is orthogonal and turns both free directions into diag(B[:, k]),
    # with no rounding at all
    q, b = fz._diag_frame()
    assert np.array_equal(q.T @ q, np.eye(4))
    for k, f in enumerate(fz._lmi_frame()[1]):
        assert np.array_equal(q.T @ f @ q, np.diag(b[:, k]))
    assert np.array_equal(b[:, 2], -np.ones(4))


def test_barrier_derivatives_match_finite_differences():
    # at interior points (t, s) of scan and slice rows, -B^T diag(G) and
    # B^T (G o G) B, G = (q^T (A(t) - sI) q)^{-1}, are the gradient and
    # Hessian of -log det(A(t) - sI), differenced in the computational basis.
    # Only q comes from the solver; B is rebuilt here from the Paulis
    q = fz._diag_frame()[0]
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    free = np.array([np.kron(x, z), np.kron(z, x)]) / 4.0
    b = np.column_stack([*(np.diagonal(q.T @ f @ q) for f in free), -np.ones(4)])
    pxx, pzz = next(_scan_rows())
    sx, sz = _slice_rows(8)
    rows = np.vstack([fz._base_state(pxx[:40:4], pzz[:40:4]), fz._base_state(sx[::97], sz[::97])])
    rng = np.random.default_rng(11)
    for rho in rows:
        t = rng.normal(scale=0.3, size=2)
        a = rho + t[0] * free[0] + t[1] * free[1]
        gap = rng.uniform(0.05, 0.5)
        point = np.array([*t, np.linalg.eigvalsh(a)[0] - gap])

        def barrier(p):
            return -np.linalg.slogdet(rho + p[0] * free[0] + p[1] * free[1] - p[2] * np.eye(4))[1]

        g = np.linalg.inv(q.T @ (a - point[2] * np.eye(4)) @ q)
        grad, hess = -b.T @ np.diagonal(g), b.T @ (g * g) @ b
        h = 1e-4 * gap
        e = h * np.eye(3)
        fd_grad = np.array([barrier(point + e[k]) - barrier(point - e[k]) for k in range(3)]) / (2 * h)
        fd_hess = np.array([[barrier(point + e[k] + e[l]) - barrier(point + e[k] - e[l])
                             - barrier(point - e[k] + e[l]) + barrier(point - e[k] - e[l])
                             for l in range(3)] for k in range(3)]) / (4 * h * h)
        assert np.linalg.norm(fd_grad - grad) <= 1e-6 * np.linalg.norm(grad)
        assert np.linalg.norm(fd_hess - hess) <= 1e-6 * np.linalg.norm(hess)


def _status_counts(statuses):
    return tuple(sum(s is m for s in statuses) for m in FeasibilityStatus)


def test_newton_step_counts():
    # step counts do not depend on the machine: the resolution-8 slice grid,
    # the rank-deficient |+>|0> labeling, and the true rows of 30 000 HS
    # states, each with its (feasible, infeasible, inconclusive) counts
    statuses, _, _, cycles = solve_batch(*_slice_rows(8))
    assert (cycles.sum(), cycles.max()) == (1432, 29)
    assert _status_counts(statuses) == (196, 452, 0)
    statuses, _, _, cycles = solve_batch(np.array([[.5, .5, 0, 0]]), np.array([[.5, 0, .5, 0]]))
    assert cycles.tolist() == [29]
    assert _status_counts(statuses) == (1, 0, 0)
    states = random_hs_stack(314159265, 30000)
    statuses, _, _, cycles = solve_batch(np.clip(probabilities_stack(states, XX), 0, 1),
                                         np.clip(probabilities_stack(states, ZZ), 0, 1))
    assert (cycles.sum(), cycles.max()) == (2733, 10)
    assert _status_counts(statuses) == (29664, 336, 0)


def test_verdicts_do_not_depend_on_the_barrier_schedule(monkeypatch):
    # the weight factor moves iterates and step counts, never a verdict: the
    # resolution-8 slice rows, the |+>|0> labeling and the true rows of
    # random_hs_stack(107, 3000) get the same statuses at the old factor 8
    states = random_hs_stack(107, 3000)
    rows = [_slice_rows(8), (np.array([[.5, .5, 0, 0]]), np.array([[.5, 0, .5, 0]])),
            (np.clip(probabilities_stack(states, XX), 0, 1),
             np.clip(probabilities_stack(states, ZZ), 0, 1))]
    solved = [solve_batch(pxx, pzz) for pxx, pzz in rows]
    monkeypatch.setattr(fz, "_TAU_GROWTH", 8.0)
    for (pxx, pzz), (statuses, _, _, cycles) in zip(rows, solved):
        slow_statuses, _, _, slow_cycles = solve_batch(pxx, pzz)
        assert slow_statuses == statuses
        assert slow_cycles.sum() > cycles.sum()
    assert _status_counts(solved[2][0]) == (2959, 41, 0)


def test_witnesses_of_infeasible_slice_rows():
    # every witness _lmi returns, rotated back from the frame q, is a
    # symmetric PSD trace-one W with no XZ or ZX coordinate, and Tr(W rho_b)
    # is its margin
    pxx, pzz = _slice_rows(8)
    statuses, _, _, _ = solve_batch(pxx, pzz)
    infeasible = np.array([s is FeasibilityStatus.INFEASIBLE for s in statuses])
    assert infeasible.sum() == 452
    rho_b = fz._base_state(pxx[infeasible], pzz[infeasible])
    code, _, w, margin, _ = fz._lmi(rho_b)
    assert np.all(code == -1)
    assert np.max(np.abs(w - np.swapaxes(w, 1, 2))) <= 1e-15
    assert np.min(np.linalg.eigvalsh(w)[:, 0]) >= -1e-15
    assert np.max(np.abs(np.trace(w, axis1=1, axis2=2) - 1.0)) <= 1e-15
    for f in fz._lmi_frame()[1]:
        assert np.max(np.abs((w * f).sum(axis=(1, 2)))) <= 1e-15
    value = (w * rho_b).sum(axis=(1, 2))
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
    # on the segment from uniform to the singlet labeling lambda_min(rho_b) is
    # (1 - 2 lam)/4 = -gap, inside the primal rule's 1e-8
    gaps = np.array([1e-12, 1e-9, 5e-9, 9e-9])
    lam = 0.5 + 2.0 * gaps[:, None]
    p = (1 - lam) * np.full(4, 0.25) + lam * np.array([0, .5, .5, 0])
    statuses, certs, residuals, cycles = solve_batch(p, p)
    assert statuses == [FeasibilityStatus.FEASIBLE] * 4
    assert np.all(cycles == 0)
    lam0 = fz._frame_eigh(fz._base_state(p, p))[1][:, 0]
    assert np.array_equal(residuals, -lam0)  # the margin is the start eigenvalue
    assert np.max(np.abs(residuals - gaps)) <= 1e-15
    for i in range(4):
        assert certificate_checks(certs[i], p[i], p[i])
        assert np.linalg.eigvalsh(certs[i])[0] >= -1e-15  # clipped, not -gap


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
    statuses, _, residuals, _ = solve_batch(*fz.assignment_rows(mx[None], mz[None]))
    assert verdict is Verdict.DETECTED
    assert ev.statuses == tuple(statuses)
    assert ev.residuals == tuple(float(r) for r in residuals)


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


def test_reduce_assignments_every_block_of_three():
    # every block of k = 3 statuses, against the definition applied per block
    blocks = list(itertools.product(list(FeasibilityStatus), repeat=3))
    codes = fz.reduce_assignments(tuple(s for b in blocks for s in b), 3)
    expected = [1 if all(s is FeasibilityStatus.INFEASIBLE for s in b) else
                0 if FeasibilityStatus.FEASIBLE in b else -1 for b in blocks]
    assert codes.dtype == np.int8
    assert codes.tolist() == expected
    assert fz.reduce_assignments([], 18).shape == (0,)


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
