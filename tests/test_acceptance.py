"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s`` or in failure output).
"""

import math

import numpy as np
import pytest

import qscramble.quantum as qm
from qscramble.detector import counterexample_mixture, scan_details, verify_counterexample
from qscramble.entropy import (TSALLIS, EntropySpec, all_states_bound_closed_form,
                               _decide_pairs, all_states_bound_vec, entropy_nd,
                               psi_t_entropies, robustness, separable_bound,
                               separable_bound_closed_form)
from qscramble.feasibility import (FeasibilityStatus, oracle_feasible, solve_batch)
from qscramble.measurement import (XX, ZZ, canonical_permutations, probabilities,
                                   probabilities_stack, scramble_equivalent,
                                   scramble_state)
from qscramble.witness import (WITNESS_DETECT_TOL, _family_values, min_over_separable,
                               optimize_params, tangent_curve, witness_matrix,
                               witness_min_eigvec, WitnessParams)

SEED = 314159265
T2 = EntropySpec(TSALLIS, 2.0)
TANGENT = 8.0 * math.sqrt(2.0) - 12.0


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def big_stack():
    states = qm.random_hs_stack(SEED, 100_000)
    pxx = np.clip(probabilities_stack(states, XX), 0.0, 1.0)
    pzz = np.clip(probabilities_stack(states, ZZ), 0.0, 1.0)
    return states, pxx, pzz


def test_criterion_1_table1():
    singlet = qm.singlet().density()
    product = qm.plus_zero().density()
    table = {
        (0, XX): [0, 0.5, 0.5, 0], (0, ZZ): [0, 0.5, 0.5, 0],
        (1, XX): [0.5, 0.5, 0, 0], (1, ZZ): [0.5, 0, 0.5, 0],
    }
    worst = 0.0
    for (idx, label), expected in table.items():
        rho = (singlet, product)[idx]
        worst = max(worst, float(np.max(np.abs(probabilities(rho, label).p - expected))))
    same = scramble_equivalent(scramble_state(singlet), scramble_state(product), 1e-12)
    report("criterion 1: Table 1 probabilities and scrambled equivalence",
           worst <= 1e-12 and same, f"max dev {worst:.2e}, equivalent={same}")


def test_criterion_2_eur_validity_and_saturation(big_stack):
    _, pxx, pzz = big_stack
    worst_f = math.inf
    for q, qt in ((2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0)):
        spec_x = EntropySpec(TSALLIS, qt)
        spec_z = EntropySpec(TSALLIS, q)
        s_x = entropy_nd(pxx, spec_x)
        s_z = entropy_nd(pzz, spec_z)
        bound = all_states_bound_vec(s_x, spec_x, spec_z)
        worst_f = min(worst_f, float(np.min(s_z - bound)))
    sat = 0.0
    for q, qt in ((2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0)):
        spec_x = EntropySpec(TSALLIS, qt)
        spec_z = EntropySpec(TSALLIS, q)
        for t in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0):
            pt = psi_t_entropies(t, spec_x, spec_z)
            gap = pt.s_zz - float(all_states_bound_vec(np.asarray(pt.s_xx), spec_x, spec_z))
            sat = max(sat, abs(gap))
    report("criterion 2: EUR validity on 1e5 states and psi_t saturation",
           worst_f >= -1e-9 and sat <= 1e-9,
           f"min F = {worst_f:.2e}, max saturation gap = {sat:.2e}")


def test_criterion_3_closed_form_agreement():
    grid = np.linspace(0.0, 0.75, 100)
    parametric = all_states_bound_vec(grid, T2, T2)
    closed = np.array([all_states_bound_closed_form(s) for s in grid])
    worst = float(np.max(np.abs(parametric - closed)))
    report("criterion 3: (T,Q) closed form vs parametric bound at 100 points",
           worst <= 1e-9, f"max dev {worst:.2e}")


def test_criterion_4_separable_boundary(big_stack):
    grid = np.linspace(0.0, 0.75, 20)
    worst_opt = 0.0
    for s in grid:
        worst_opt = max(worst_opt, abs(separable_bound(float(s), T2, T2)
                                       - separable_bound_closed_form(float(s))))
    states, pxx, pzz = big_stack
    sub = slice(0, 45_000)
    ppt = qm.min_eigval_stack(qm.partial_transpose_stack(states[sub])) >= -1e-9
    sep_x = entropy_nd(pxx[sub][ppt], T2)[:10_000]
    sep_z = entropy_nd(pzz[sub][ppt], T2)[:10_000]
    n_sep = sep_x.size
    formula = np.array([separable_bound_closed_form(float(s)) for s in sep_x])
    worst_below = float(np.min(sep_z - formula))
    report("criterion 4: separable boundary (symmetric curve + 1e4 PPT states)",
           worst_opt <= 1e-4 and n_sep == 10_000 and worst_below >= -1e-6,
           f"curve dev {worst_opt:.2e}, min margin {worst_below:.2e}, n={n_sep}")


def test_criterion_5_robustness():
    lam_inf = (10.0 - math.sqrt(2.0) - math.sqrt(12.0) - math.sqrt(24.0)) / 11.0
    ok_formula = abs(robustness(math.inf) - lam_inf) <= 1e-9
    ok_solver = abs(robustness(1000.0) - lam_inf) <= 1e-3
    vals = [robustness(q) for q in (2.0, 3.0, 5.0, 10.0, 50.0)]
    ok_mono = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    report("criterion 5: robustness closed form, solver at q=1e3, monotonicity",
           ok_formula and ok_solver and ok_mono,
           f"lambda(inf)={robustness(math.inf):.9f}, lambda(q): " +
           " ".join(f"{v:.6f}" for v in vals))


def test_criterion_6_witness_optimality():
    tangent_min = min_over_separable(TANGENT, 0.0, TANGENT)
    ok_tangent = abs(tangent_min) <= 1e-6

    rng = np.random.default_rng(20_26)
    worst_overlap = 0.0
    for _ in range(100):
        a = -rng.uniform(0.05, 3.0)
        g = -rng.uniform(0.05, 3.0)
        t, state = witness_min_eigvec(a, g)
        evals, evecs = qm.eig_hermitian(witness_matrix(WitnessParams(a, 0.0, g)))
        overlap = abs(np.vdot(state.amplitudes, evecs[:, -1])) ** 2
        worst_overlap = max(worst_overlap, abs(1.0 - overlap))
    ok_eigvec = worst_overlap <= 1e-9

    curve = optimize_params(0.0, num=21)
    worst_curve = 0.0
    for a, g in curve:
        if a == 0.0:
            continue  # degenerate endpoint (0, -1): tangent at |00> exactly
        worst_curve = max(worst_curve, abs(min_over_separable(a, 0.0, g)))
    ok_curve = worst_curve <= 1e-8
    report("criterion 6: witness tangency, eigenvector formula, optimized curve",
           ok_tangent and ok_eigvec and ok_curve,
           f"tangent min {tangent_min:.2e}, overlap dev {worst_overlap:.2e}, "
           f"curve dev {worst_curve:.2e}")


def test_criterion_7_permutation_machinery():
    import itertools
    from qscramble.detector import scrambled_possibly_separable
    from qscramble.measurement import PermutationPair, apply_permutation, scramble

    ok_count = len(canonical_permutations()) == 18

    states = qm.random_hs_stack(27182818, 20)
    perms = [PermutationPair(px, pz)
             for px in itertools.permutations(range(4))
             for pz in itertools.permutations(range(4))]
    rng = np.random.default_rng(1)
    ok_invariant = True
    for m in states:
        data = scramble_state(qm.DensityMatrix(m))
        base, _ = scrambled_possibly_separable(data)
        for pair in perms:
            relabeled = scramble(apply_permutation(data, pair))
            if not scramble_equivalent(relabeled, data, 0.0):
                ok_invariant = False
        for k in rng.choice(len(perms), size=4, replace=False):
            relabeled = scramble(apply_permutation(data, perms[k]))
            v, _ = scrambled_possibly_separable(relabeled)
            if v is not base:
                ok_invariant = False
    report("criterion 7: 18 canonical assignments, verdicts invariant under 576 relabelings",
           ok_count and ok_invariant)


def test_criterion_8_counterexample_suite():
    rep = verify_counterexample()
    mixture = counterexample_mixture()
    expected = np.array([5, 5, 5, 33]) / 48.0
    exact = max(float(np.max(np.abs(probabilities(mixture, XX).p - expected))),
                float(np.max(np.abs(probabilities(mixture, ZZ).p - expected))))
    detail = "; ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in rep.checks)
    report("criterion 8: non-convexity counterexample suite",
           rep.all_passed and exact <= 1e-12,
           detail + f"; pattern dev {exact:.2e}")


def test_criterion_9_detection_rate_and_hierarchy(big_stack, boundary_22, tsallis2):
    outcomes = scan_details(100_000, SEED, False)
    fraction = int(np.sum(outcomes == 1)) / outcomes.size
    inconclusive = int(np.sum(outcomes == -1))
    ok_rate = 0.009 <= fraction <= 0.015

    _, pxx, pzz = big_stack
    mx, mz = (np.sort(p, axis=1)[:, ::-1] for p in (pxx, pzz))
    wvals = np.min(_family_values(mx, mz, tangent_curve()), axis=1)
    wdet = wvals < -WITNESS_DETECT_TOL
    ok_hierarchy = not np.any(wdet & (outcomes != 1))

    edet = _decide_pairs(mx, mz, tsallis2, tsallis2)[3]
    ok_entropy_zero = int(np.sum(edet)) == 0
    report("criterion 9: 1e5-state scan rate, witness hierarchy, entropy null result",
           ok_rate and ok_hierarchy and ok_entropy_zero,
           f"rate {fraction:.4f}, inconclusive {inconclusive}, "
           f"witness-detected {int(np.sum(wdet))}, entropy-detected {int(np.sum(edet))}")


def test_criterion_10_solver_vs_oracle():
    states = qm.random_hs_stack(1618033988, 1000)
    # samples 66, 734 and 1772 of seed 107: near-boundary rows, each feasible
    # with a strictly positive-definite PPT state
    extra = np.concatenate([qm.random_hs_stack(107, 1, start_index=i) for i in (66, 734, 1772)])
    states = np.concatenate([states, extra])
    pxx = np.clip(probabilities_stack(states, XX), 0.0, 1.0)
    pzz = np.clip(probabilities_stack(states, ZZ), 0.0, 1.0)
    statuses, _, _, _ = solve_batch(pxx, pzz)
    inconclusive = sum(1 for s in statuses if s is FeasibilityStatus.INCONCLUSIVE)
    disagreements = 0
    for i, s in enumerate(statuses):
        if s is FeasibilityStatus.INCONCLUSIVE:
            continue
        if oracle_feasible(pxx[i], pzz[i]) != (s is FeasibilityStatus.FEASIBLE):
            disagreements += 1
    report("criterion 10: solver agrees with constraint-violation oracle",
           disagreements == 0 and inconclusive < 10,
           f"disagreements {disagreements}, inconclusive {inconclusive}/{len(statuses)}")
