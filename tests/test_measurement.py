import itertools

import numpy as np
import pytest

from qscramble import fileio
from qscramble.errors import DomainError, DuplicateSetting, SettingMismatch
from qscramble.feasibility import FeasibilityProblem, solve_batch
from qscramble.measurement import (XX, YY, ZZ, OutcomeDistribution, PermutationPair,
                                   ScrambledData, apply_permutation,
                                   canonical_permutations, ginibre_probabilities, probabilities,
                                   probabilities_stack, relabeling_group, scramble,
                                   scramble_equivalent, scramble_state, setting)
from qscramble.quantum import (I2, SIGMA_X, SIGMA_Z, DensityMatrix, PureState, ginibre_stack,
                               plus_zero, psi_t, random_hs_stack, singlet)


def test_projector_invariants():
    for label in (XX, YY, ZZ):
        s = setting(label)
        total = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            p = s.projectors[i]
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            for j in range(i + 1, 4):
                assert np.max(np.abs(p @ s.projectors[j])) < 1e-12
            total += p
        assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_table1_probabilities():
    s = singlet().density()
    p = plus_zero().density()
    assert np.max(np.abs(probabilities(s, XX).p - [0, 0.5, 0.5, 0])) < 1e-15
    assert np.max(np.abs(probabilities(s, ZZ).p - [0, 0.5, 0.5, 0])) < 1e-15
    assert np.max(np.abs(probabilities(p, XX).p - [0.5, 0.5, 0, 0])) < 1e-15
    assert np.max(np.abs(probabilities(p, ZZ).p - [0.5, 0, 0.5, 0])) < 1e-15


def test_psi3_xx_distribution():
    p = probabilities(psi_t(3.0).density(), XX).p
    assert np.max(np.abs(p - [0.75, 1 / 12, 1 / 12, 1 / 12])) < 1e-12


def test_probability_sums(random_states_2k):
    for m in random_states_2k[:100]:
        rho = DensityMatrix(m)
        for label in (XX, YY, ZZ):
            assert abs(probabilities(rho, label).p.sum() - 1.0) < 1e-12


def test_probabilities_do_not_depend_on_the_batch():
    # a state's rows are the same bits alone, in any slice of a stack and
    # through the single-state path
    states = random_hs_stack(13, 1000)
    for label in (XX, YY, ZZ):
        stack = probabilities_stack(states, label)
        assert np.array_equal(probabilities_stack(states[5:700], label), stack[5:700])
        for i in range(0, 1000, 7):
            assert np.array_equal(probabilities_stack(states[i:i + 1], label)[0], stack[i])
            assert np.array_equal(probabilities(DensityMatrix(states[i]), label).p, stack[i])


@pytest.mark.parametrize("seed", [1, 2, 107, 314159265])
def test_ginibre_probabilities_match_the_density_matrix_route(seed):
    p = ginibre_probabilities(ginibre_stack(seed, 4000))
    states = random_hs_stack(seed, 4000)
    assert p.shape == (4000, 8)
    assert np.max(np.abs(p[:, :4] - probabilities_stack(states, XX))) <= 1e-15
    assert np.max(np.abs(p[:, 4:] - probabilities_stack(states, ZZ))) <= 1e-15


def test_ginibre_probabilities_do_not_depend_on_the_batch():
    # a sample's row is the same bits alone, in any slice of a stack, and in
    # a stack drawn from any start index, as the scan's chunks are
    h = ginibre_stack(2, 1000)
    stack = ginibre_probabilities(h)
    for a, b in ((0, 1), (5, 700), (7, 14), (999, 1000), (0, 1000)):
        assert np.array_equal(ginibre_probabilities(h[a:b]), stack[a:b])
        assert np.array_equal(ginibre_probabilities(h[a:b].copy()), stack[a:b])
        assert np.array_equal(ginibre_probabilities(ginibre_stack(2, b - a, start_index=a)),
                              stack[a:b])
    for i in range(0, 1000, 37):
        assert np.array_equal(ginibre_probabilities(h[i:i + 1])[0], stack[i])


def test_outcome_distribution_validation():
    with pytest.raises(DomainError):
        OutcomeDistribution(XX, [0.5, 0.5, 0.1, 0.0])  # sum 1.1
    with pytest.raises(DomainError):
        OutcomeDistribution(XX, [-1e-6, 0.5, 0.5, 0.0])  # entry below tolerance
    d = OutcomeDistribution(XX, [0.25 + 2e-10, 0.25, 0.25, 0.25])
    assert np.array_equal(d.p, [0.25 + 2e-10, 0.25, 0.25, 0.25])  # stored as given
    d = OutcomeDistribution(ZZ, [-1e-10, 0.5, 0.5, 1e-10])
    assert d.p[0] == 0.0  # clamped
    # misshaped: neither flattened nor left to numpy's reshape error
    for bad in ([0.5, 0.5, 0.0], np.full((2, 2), 0.25), np.full((1, 4), 0.25), 0.25):
        with pytest.raises(DomainError, match="shape"):
            OutcomeDistribution(XX, bad)
        with pytest.raises(DomainError, match="shape"):
            ScrambledData({XX: bad, ZZ: np.full(4, 0.25)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outcome_distribution_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so only an in-range test catches it
    with pytest.raises(DomainError, match="non-finite"):
        OutcomeDistribution(XX, [bad, 0.5, 0.25, 0.25])
    with pytest.raises(DomainError, match="non-finite"):
        ScrambledData({XX: np.array([0.5, 0.25, 0.25, bad]), ZZ: np.full(4, 0.25)})


UNIFORM = [0.25] * 4


@pytest.mark.parametrize("build", [
    lambda: OutcomeDistribution(XX, ["a", 0.5, 0.25, 0.25]),
    lambda: OutcomeDistribution(XX, [[0.5], [0.5, 0.0, 0.0]]),
    lambda: ScrambledData({XX: ["a", 0.5, 0.25, 0.25], ZZ: UNIFORM}),
    lambda: PureState(["x", 0, 0, 0]),
    lambda: DensityMatrix([["a"] * 4] * 4),
    lambda: DensityMatrix([[1.0], [0.0, 0.0]]),
    lambda: FeasibilityProblem([[0.5], [0.5, 0.0, 0.0]], UNIFORM),
    lambda: solve_batch([["a", 0.5, 0.25, 0.25]], [UNIFORM]),
    lambda: solve_batch([UNIFORM], [[0.5], [0.5, 0.0, 0.0]]),
    lambda: fileio._probabilities_from_payload({"xx": ["a", 0.5, 0.25, 0.25], "zz": UNIFORM}),
    lambda: fileio._probabilities_from_payload({"xx": UNIFORM, "zz": [[0.5], [0.5, 0.0]]}),
    lambda: fileio._state_from_payload({"rho_re": [["a"] * 4] * 4, "rho_im": [[0.0] * 4] * 4}),
    lambda: fileio._state_from_payload({"rho_re": np.eye(4).tolist(), "rho_im": [[0.0], []]}),
])
def test_non_numeric_or_ragged_input_is_a_domain_error(build):
    # numpy's own conversion error would be a bare ValueError
    with pytest.raises(DomainError, match="rectangular array of numbers"):
        build()


def test_scramble_examples():
    s_data = scramble_state(singlet().density())
    assert np.allclose(s_data.multiset(XX), [0.5, 0.5, 0, 0], atol=1e-15)
    assert np.allclose(s_data.multiset(ZZ), [0.5, 0.5, 0, 0], atol=1e-15)
    p_data = scramble_state(plus_zero().density())
    assert scramble_equivalent(s_data, p_data, 1e-12)
    assert scramble_equivalent(s_data, s_data, 0.0)
    uniform = scramble([OutcomeDistribution(XX, [0.25] * 4),
                        OutcomeDistribution(ZZ, [0.25] * 4)])
    assert np.array_equal(uniform.multiset(XX), [0.25] * 4)

    mixture = ScrambledData({XX: np.array([5, 5, 5, 33]) / 48.0,
                             ZZ: np.array([5, 5, 5, 33]) / 48.0})
    assert not scramble_equivalent(s_data, mixture, 1e-9)


def test_scramble_errors():
    d = OutcomeDistribution(XX, [0.25] * 4)
    with pytest.raises(DuplicateSetting):
        scramble([d, d])
    d1 = scramble([d, OutcomeDistribution(ZZ, [0.25] * 4)])
    d2 = scramble([d])
    with pytest.raises(SettingMismatch):
        scramble_equivalent(d1, d2)


def test_relabeling_group_order():
    assert len(relabeling_group()) == 32


def _compose(a, b):
    return tuple(a[i] for i in b)


def _induced_permutation(u: np.ndarray, label: str):
    """Outcome permutation sigma with U^dag Pi_i U = Pi_sigma(i)."""
    projs = setting(label).projectors
    conj = u.conj().T @ projs @ u
    match = np.max(np.abs(conj[:, None] - projs[None]), axis=(-2, -1)) < 1e-9
    if not np.all(np.count_nonzero(match, axis=1) == 1):
        raise ArithmeticError(f"relabeling does not permute {label} projectors")
    return tuple(int(j) for j in np.argmax(match, axis=1))


def test_relabeling_tables_match_their_derivation():
    # the group: closure of the actions that sigma_x (x) 1, sigma_z (x) 1,
    # 1 (x) sigma_x, 1 (x) sigma_z and the qubit swap induce on the projectors
    swap = np.eye(4)[[0, 2, 1, 3]]
    gens = [np.kron(SIGMA_X, I2), np.kron(SIGMA_Z, I2), np.kron(I2, SIGMA_X),
            np.kron(I2, SIGMA_Z), swap]
    gen_pairs = [(_induced_permutation(u, XX), _induced_permutation(u, ZZ)) for u in gens]
    identity = ((0, 1, 2, 3), (0, 1, 2, 3))
    group, frontier = {identity}, [identity]
    while frontier:
        products = {(_compose(hx, gx), _compose(hz, gz))
                    for gx, gz in frontier for hx, hz in gen_pairs}
        frontier = list(products - group)
        group |= products
    assert relabeling_group() == tuple(PermutationPair(gx, gz) for gx, gz in sorted(group))
    # the representatives: in lexicographic order, the first pair met in each orbit
    seen, reps = set(), []
    for ax, az in itertools.product(itertools.permutations(range(4)), repeat=2):
        if (ax, az) not in seen:
            reps.append(PermutationPair(ax, az))
            seen.update((_compose(ax, hx), _compose(az, hz)) for hx, hz in group)
    assert canonical_permutations() == tuple(reps)


def test_induced_permutation_rejects_a_non_permuting_unitary():
    # H (x) 1 maps the XX projectors onto XZ ones, which match no XX projector
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    with pytest.raises(ArithmeticError, match="XX"):
        _induced_permutation(np.kron(h, I2), XX)
    assert _induced_permutation(np.kron(SIGMA_Z, I2), XX) == (2, 3, 0, 1)


def test_canonical_permutations_count_and_cover():
    reps = canonical_permutations()
    assert len(reps) == 18
    assert PermutationPair((0, 1, 2, 3), (0, 1, 2, 3)) in reps

    group = [(g.pi_x, g.pi_z) for g in relabeling_group()]
    seen = {}
    for ax in itertools.permutations(range(4)):
        for az in itertools.permutations(range(4)):
            orbit = {(_compose(ax, hx), _compose(az, hz)) for hx, hz in group}
            assert len(orbit) == 32  # free action
            rep = min(orbit)
            seen.setdefault(rep, set()).update(orbit)
    assert len(seen) == 18
    assert [(r.pi_x, r.pi_z) for r in reps] == sorted(seen)
    all_pairs = set()
    for orbit in seen.values():
        assert not (all_pairs & orbit)  # disjoint
        all_pairs |= orbit
    assert len(all_pairs) == 576


def test_permutation_pair_stores_tuples_of_ints():
    ident = PermutationPair((0, 1, 2, 3), (0, 1, 2, 3))
    for given in ([0, 1, 2, 3], np.arange(4), range(4)):
        pair = PermutationPair(given, given)
        assert pair == ident and hash(pair) == hash(ident)
        assert type(pair.pi_x) is tuple and all(type(v) is int for v in pair.pi_x)
    assert canonical_permutations().index(PermutationPair([0, 1, 2, 3], [0, 1, 2, 3])) == 0
    for bad in ((0, 1, 2, 3.0), (0, 1, 2, True), ("0", 1, 2, 3), "0123", 3, None,
                (0, 1, 2, 2), (0, 1, 2)):
        with pytest.raises(DomainError):
            PermutationPair(bad, (0, 1, 2, 3))
        with pytest.raises(DomainError):
            PermutationPair((0, 1, 2, 3), bad)


def test_apply_permutation_round_trip():
    data = scramble_state(singlet().density())
    ident = PermutationPair((0, 1, 2, 3), (0, 1, 2, 3))
    dists = apply_permutation(data, ident)
    assert np.array_equal(dists[0].p, data.multiset(XX))
    # re-scrambling any assignment gives back the original multisets
    for pi_x in itertools.permutations(range(4)):
        for pi_z in itertools.permutations(range(4)):
            redone = scramble(apply_permutation(data, PermutationPair(pi_x, pi_z)))
            assert scramble_equivalent(redone, data, 0.0)


def test_some_permutation_reaches_plus_zero_labeling():
    data = scramble_state(singlet().density())
    target_x = [0.5, 0.5, 0.0, 0.0]
    target_z = [0.5, 0.0, 0.5, 0.0]
    hit = False
    for pi_x in itertools.permutations(range(4)):
        for pi_z in itertools.permutations(range(4)):
            dx, dz = apply_permutation(data, PermutationPair(pi_x, pi_z))
            if np.allclose(dx.p, target_x, atol=1e-15) and np.allclose(dz.p, target_z, atol=1e-15):
                hit = True
                break
        if hit:
            break
    assert hit


def test_group_action_leaves_scrambled_data_invariant():
    # conjugating the state by any relabeling-group unitary preserves the data
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = 1
    swap[1, 2] = swap[2, 1] = 1
    gens = [np.kron(SIGMA_X, I2), np.kron(SIGMA_Z, I2),
            np.kron(I2, SIGMA_X), np.kron(I2, SIGMA_Z), swap,
            np.kron(SIGMA_X, SIGMA_Z), swap @ np.kron(SIGMA_X, I2)]
    for m in random_hs_stack(31415, 20):
        base = scramble_state(DensityMatrix(m))
        for u in gens:
            moved = scramble_state(DensityMatrix(u @ m @ u.conj().T))
            assert scramble_equivalent(base, moved, 1e-12)
