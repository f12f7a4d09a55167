import math

import numpy as np
import pytest

from qscramble.errors import DomainError, MissingSetting
from qscramble.measurement import (XX, YY, ZZ, OutcomeDistribution, ScrambledData,
                                   apply_permutation, canonical_permutations,
                                   probabilities, scramble, scramble_state)
from qscramble.quantum import eig_hermitian, psi_t, random_hs_stack, singlet
from qscramble.witness import (WITNESS_DETECT_TOL, WitnessParams, _min_over_b, _separable_min,
                               _tangency_scales, correlation_witness_values,
                               min_entropy_form, min_over_separable, optimize_params,
                               scrambled_correlation_min, scrambled_family_min,
                               scrambled_witness_min, tangent_curve, witness_matrix,
                               witness_min_eigvec, witness_value)

TANGENT = 8.0 * math.sqrt(2.0) - 12.0  # alpha = gamma at the symmetric tangent point


def qubit_probs(theta, phi=0.0) -> np.ndarray:
    """Probabilities (p_x, p_y, p_z) of the +, +i and 0 outcomes of a qubit
    with Bloch angles (theta, phi), along a new last axis."""
    s = np.sin(theta)
    return 0.5 * (1.0 + np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1))


def reference_min_over_b(pa, k):
    """<W> minimized over qubit B through np.sum and np.linalg.norm."""
    u = k * pa
    return 1.0 + 0.5 * np.sum(u, axis=-1) - 0.5 * np.linalg.norm(u, axis=-1)


def curve_directions(num):
    """The (alpha, 0, gamma) directions of optimize_params(0.0, num=num)
    with alpha != 0, and 4 001 Bloch angles of qubit A on the circle phi = 0."""
    omega = np.linspace(0.0, 0.5 * math.pi, num)
    k = np.stack([-np.cos(omega), np.zeros(num), -np.sin(omega)], axis=-1)
    k[np.abs(k) < 1e-15] = 0.0
    t = np.linspace(-math.pi, math.pi, 4001, endpoint=False)
    return k[k[:, 0] != 0.0], t


def grid_min_separable(alpha: float, gamma: float, n: int = 1001) -> float:
    """Independent brute-force oracle over real product states (valid for beta=0)."""
    th = np.linspace(-math.pi, math.pi, n)
    px = 0.5 * (1.0 + np.sin(th))
    pz = np.cos(th / 2.0) ** 2
    vals = 1.0 + alpha * np.outer(px, px) + gamma * np.outer(pz, pz)
    return float(vals.min())


def singlet_dists():
    rho = singlet().density()
    return [probabilities(rho, XX), probabilities(rho, ZZ)]


def test_witness_matrix_basics():
    assert np.array_equal(witness_matrix(WitnessParams(0, 0, 0)), np.eye(4))
    w = witness_matrix(WitnessParams(-1.0, 0.0, 0.0, choice_x=0))
    evals, _ = eig_hermitian(w)
    assert np.allclose(evals, [1, 1, 1, 0], atol=1e-12)


def test_family_members_related_by_lu_and_pt():
    # conjugating W^{T_A} by sigma_x on A maps the |10> member to the |00> member
    w1 = witness_matrix(WitnessParams(-0.3, -0.2, -0.5, choice_x=1, choice_y=0, choice_z=2))
    w2 = witness_matrix(WitnessParams(-0.3, -0.2, -0.5, choice_x=1, choice_y=0, choice_z=0))
    pt_a = w1.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    sx = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    assert np.max(np.abs(sx.conj().T @ pt_a @ sx - w2)) < 1e-12


def test_witness_value_examples():
    dists = singlet_dists()
    w = WitnessParams(-2.0, 0.0, -2.0, choice_x=1, choice_z=1)  # p_dn+- and p_01
    assert abs(witness_value(dists, w) - (-1.0)) < 1e-15
    w = WitnessParams(-2.0, 0.0, -2.0, choice_x=0, choice_z=0)
    assert abs(witness_value(dists, w) - 1.0) < 1e-15
    assert witness_value(dists, WitnessParams(0, 0, 0)) == 1.0
    with pytest.raises(MissingSetting):
        witness_value(dists, WitnessParams(-1.0, -1.0, 0.0))  # needs YY


def test_scrambled_witness_min_examples():
    d = scramble(singlet_dists())
    assert abs(scrambled_witness_min(d, TANGENT, 0.0, TANGENT)
               - (8.0 * math.sqrt(2.0) - 11.0)) < 1e-12
    d3 = scramble_state(psi_t(3.0).density())
    assert abs(scrambled_witness_min(d3, TANGENT, 0.0, TANGENT)
               - (12.0 * math.sqrt(2.0) - 17.0)) < 1e-12
    assert scrambled_witness_min(d3, 0.0, 0.0, 0.0) == 1.0
    with pytest.raises(MissingSetting):
        scrambled_witness_min(d, 0.0, -1.0, 0.0)


def test_min_entropy_form_matches_extremal_choice():
    d = scramble(singlet_dists())
    assert abs(min_entropy_form(-1.0, 0.0, -1.0, d) - 0.0) < 1e-15
    d3 = scramble_state(psi_t(3.0).density())
    assert abs(min_entropy_form(-1.0, 0.0, -1.0, d3) - (-0.5)) < 1e-12
    with pytest.raises(DomainError):
        min_entropy_form(0.5, -1.0, -1.0, d)
    rng = np.random.default_rng(11)
    for m in random_hs_stack(2024, 40):
        from qscramble.quantum import DensityMatrix
        rho = DensityMatrix(m)
        data = scramble_state(rho, (XX, YY, ZZ))
        a, b, g = -rng.uniform(0.1, 2, size=3)
        assert abs(min_entropy_form(a, b, g, data)
                   - scrambled_witness_min(data, a, b, g)) < 1e-12


def test_min_over_separable_values():
    assert abs(min_over_separable(0.0, 0.0, 0.0) - 1.0) < 1e-12
    # 1 - |x x><x x| vanishes on the product state |x>|x>, exactly
    for abg in [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]:
        assert min_over_separable(*abg) == 0.0
    exact = (1.0 - 2.0 * math.sqrt(2.0)) / 4.0
    got = min_over_separable(-1.0, 0.0, -1.0)
    assert abs(got - exact) < 1e-15
    assert abs(got - grid_min_separable(-1.0, -1.0)) < 1e-5
    assert abs(min_over_separable(TANGENT, 0.0, TANGENT)) < 1e-6


def test_min_over_separable_against_grid_oracle():
    rng = np.random.default_rng(3)
    pairs = [(-rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)) for _ in range(6)]
    # mixed signs, and both positive
    pairs += [(1.3, -0.8), (-1.7, 0.6), (0.5, -1.5), (-0.4, 1.9), (0.9, 0.4)]
    for a, g in pairs:
        assert abs(min_over_separable(a, 0.0, g) - grid_min_separable(a, g, 2001)) < 2e-5


def random_qubits(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sampled_product_values(w: np.ndarray, rng, n: int = 20000, rounds: int = 12) -> np.ndarray:
    """Independent oracle: Tr(W rho) on random pure product states, then on
    ever closer random perturbations of the best one found so far."""
    def values(a, b):
        psi = np.einsum("ni,nj->nij", a, b).reshape(-1, 4)
        rho = np.einsum("ni,nj->nij", psi, psi.conj())
        return np.einsum("ij,nji->n", w, rho).real

    a, b = random_qubits(rng, n), random_qubits(rng, n)
    found = [values(a, b)]
    best_a, best_b = a[np.argmin(found[0])], b[np.argmin(found[0])]
    for r in range(rounds):
        kick = [0.5 ** (r + 1) * random_qubits(rng, 2000) for _ in range(2)]
        a, b = best_a + kick[0], best_b + kick[1]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        found.append(values(a, b))
        if found[-1].min() < min(f.min() for f in found[:-1]):
            best_a, best_b = a[np.argmin(found[-1])], b[np.argmin(found[-1])]
    return np.concatenate(found)


def test_min_over_separable_beta_against_sampled_product_states():
    rng = np.random.default_rng(5)
    for abg in [(-0.5, -0.3, -0.5), (0.8, -1.2, -0.4), (-1.5, 0.7, 0.3), (0.6, 0.4, -1.1),
                (-0.9, -0.6, 1.3), (1.0, 0.5, 0.2), (0.0, 0.5, 0.0), (-1.2, -0.8, 0.0)]:
        sampled = sampled_product_values(witness_matrix(WitnessParams(*abg)), rng)
        reduced = min_over_separable(*abg)
        assert np.all(reduced <= sampled + 1e-12), abg
        assert sampled.min() - reduced < 1e-3, abg


def test_min_over_separable_rejects_non_finite():
    for abg in [(math.nan, 0.0, -1.0), (-1.0, math.inf, -1.0), (-1.0, 0.0, -math.inf)]:
        with pytest.raises(DomainError, match="finite"):
            min_over_separable(*abg)


def test_closed_form_equal_coefficients():
    # alpha = gamma (and alpha = beta = gamma) give a repeated eigenvalue of
    # diag(k); the minimizer is then the symmetric state a = (1, 0, 1)/sqrt(2)
    # (resp. (1, 1, 1)/sqrt(3)), where <W> = 1 + c n (1 + 1/sqrt(n))^2 / 4
    for c in (-0.3, TANGENT, -1.0, -2.0):
        for n, abg in ((2, (c, 0.0, c)), (3, (c, c, c))):
            exact = 1.0 + c * n * (1.0 + 1.0 / math.sqrt(n)) ** 2 / 4.0
            assert abs(min_over_separable(*abg) - exact) < 2e-15, (c, n)


def mixed_rows(rng, n: int) -> np.ndarray:
    """n coefficient rows (alpha, beta, gamma) of every sign pattern, with
    exactly equal pairs, the one-ulp-apart pair of the curve's diagonal
    direction, and zero coefficients among them."""
    k = rng.uniform(-2.0, 2.0, size=(n, 3))
    k[::4, 2] = k[::4, 0]
    k[1::4, 1] = k[1::4, 2]
    k[::5, 1] = 0.0
    k[2::7, 0] = 0.0
    k[3::9] = -math.cos(math.pi / 4), 0.4, -math.sin(math.pi / 4)
    k[4::9] = 1.0, 1.0, 1.0
    k[5::9] = -0.7, -0.7, 0.3
    return k


def test_closed_form_is_scale_free():
    # rows are scaled to max |k_i| = 1 before the candidates are built and
    # ranked, so a tiny row does not underflow to NaN, and power-of-two
    # scales change no bit of A's probabilities
    tiny = np.array([-1e-200, 0.0, 0.0])
    assert min_over_separable(*tiny) == 1.0
    assert np.array_equal(_separable_min(*tiny)[1], _separable_min(*1e150 * tiny)[1])
    k = mixed_rows(np.random.default_rng(17), 40)
    pa = _separable_min(*k.T)[1]
    # the values overflow at 2^900; A's probabilities do not
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (2.0 ** -900, 2.0 ** 900):
            assert np.array_equal(pa, _separable_min(*(scale * k).T)[1])


def test_closed_form_against_a_dense_grid():
    # the closed form is a true product-state value, at most the minimum
    # over a dense (theta, phi) grid of qubit A with B exact, and close to it
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, 401),
                         np.linspace(-math.pi, math.pi, 800, endpoint=False))
    grid = qubit_probs(th.ravel(), ph.ravel())
    rng = np.random.default_rng(23)
    rows = np.concatenate([-rng.uniform(0.0, 2.0, size=(30, 3)), mixed_rows(rng, 60)])
    got = _separable_min(*rows.T)[0]
    for abg, value in zip(rows, got):
        dense = reference_min_over_b(grid, abg).min()
        assert value <= dense + 1e-12 and dense - value < 1e-4, abg


def test_near_equal_pairs_survive_alternating_refinement():
    # as k_2 -> k_0 the asymmetric KKT point runs into the hard case, where a
    # formula dividing by mu nu - k_i^2 loses up to 1e-12; a hundred exact
    # alternating steps (A given B, then B given A) lower no value found
    rng = np.random.default_rng(41)
    k = rng.uniform(-1.0, 1.0, size=(60, 3))
    k[:, 2] = k[:, 0] * (1.0 - 10.0 ** rng.uniform(-8.0, -3.0, size=60))
    value, _, pb = _separable_min(*k.T)
    b = 2.0 * pb - 1.0
    for _ in range(100):
        u = k * (1.0 + b)
        a = -u / np.linalg.norm(u, axis=1, keepdims=True)
        u = k * (1.0 + a)
        b = -u / np.linalg.norm(u, axis=1, keepdims=True)
    refined = 1.0 + 0.25 * np.sum(k * (1.0 + a) * (1.0 + b), axis=1)
    assert np.all(value <= refined + 1e-15)


def test_no_sign_pattern_searches(monkeypatch):
    import qscramble.optimize as optimize
    import qscramble.witness as witness

    def no_search(*args, **kwargs):
        raise AssertionError("nelder_mead called")

    monkeypatch.setattr(optimize, "nelder_mead", no_search)
    assert not hasattr(witness, "nelder_mead")
    for beta in (0.4, -0.3, 0.0):
        assert len(optimize_params(beta, num=9)) == 9
    assert min_over_separable(-1.0, 0.0, 0.5) < 1.0 and min_over_separable(0, 0, 0) == 1.0


def test_min_over_b_matches_sum_and_norm_bit_for_bit():
    k, t = curve_directions(17)
    assert len(k) == 16
    grid = qubit_probs(t)
    for row in k:
        assert np.array_equal(_min_over_b(grid, row), reference_min_over_b(grid, row))
    rng = np.random.default_rng(5)
    for shape in ((5000, 3), (7, 24, 3)):  # the latter is _separable_min's candidate array
        pa, kk = rng.uniform(size=shape), rng.normal(size=shape)
        assert np.array_equal(_min_over_b(pa, kk), reference_min_over_b(pa, kk))


def test_optimize_params_beta_zero():
    curve = optimize_params(0.0, num=9)
    assert len(curve) == 9
    mid = curve[4]  # symmetric direction, ratio 1
    assert abs(mid[0] - TANGENT) < 1e-6 and abs(mid[1] - TANGENT) < 1e-6
    # endpoint: pure-gamma witness tangent at |00>
    assert curve[-1] == (0.0, -1.0) and curve[0] == (-1.0, 0.0)
    # alpha <-> gamma symmetry of the emitted curve
    for (a1, g1), (a2, g2) in zip(curve, curve[::-1]):
        assert abs(a1 - g2) < 1e-6 and abs(g1 - a2) < 1e-6


def test_optimize_params_tangency():
    for a, g in optimize_params(0.0, num=7):
        assert abs(min_over_separable(a, 0.0, g)) < 1e-8


def test_curve_resolution_must_be_positive():
    tangent_curve(0.0, 3)  # num=3.0 must not be served from this entry
    for num in (0, -1, 3.0, True):
        with pytest.raises(DomainError, match="resolution"):
            optimize_params(0.0, num=num)
        with pytest.raises(DomainError, match="resolution"):
            tangent_curve(0.0, num)


def test_optimize_params_beta_nonzero():
    beta = -0.3
    curve = optimize_params(beta, num=3)
    assert len(curve) == 3
    for a, g in curve:
        assert abs(min_over_separable(a, beta, g)) < 1e-6
    # the y-projector term absorbs part of the budget, shrinking alpha, gamma
    a_mid, g_mid = curve[1]
    assert abs(a_mid) < abs(TANGENT) and abs(g_mid) < abs(TANGENT)
    assert optimize_params(-1.0, num=3) == []


@pytest.mark.parametrize("beta", [-0.9, 0.0, 0.4])
def test_tangency_direction_alone_equals_batch(beta):
    # one Newton loop serves every direction, and each retires at its own
    # step: at beta = -0.9 two of the nine directions take one more step; at
    # beta = 0 the two endpoints retire at the first step, the rest at the second
    omega = np.linspace(0.0, 0.5 * math.pi, 9)
    a0, g0 = -np.cos(omega), -np.sin(omega)
    batch = _tangency_scales(a0, g0, beta)
    for k in range(9):
        alone = _tangency_scales(a0[k:k + 1], g0[k:k + 1], beta)
        assert np.array_equal(alone, batch[k:k + 1], equal_nan=True)


def test_witness_entry_points_reject_non_finite():
    d = scramble(singlet_dists())
    calls = [lambda: scrambled_witness_min(d, math.nan, 0.0, -1.0),
             lambda: scrambled_witness_min(d, -1.0, 0.0, math.inf),
             lambda: min_entropy_form(math.nan, 0.0, -1.0, d),
             lambda: witness_min_eigvec(math.nan, -1.0),
             lambda: witness_min_eigvec(-1.0, -math.inf),
             lambda: optimize_params(math.nan, num=3),
             lambda: WitnessParams(-1.0, math.nan, 0.0)]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


_PAIR = np.array([-1.0, -2.0])


@pytest.mark.parametrize("call", [
    lambda d: scrambled_witness_min(d, _PAIR, 0.0, -1.0),
    lambda d: scrambled_witness_min(d, -1.0, 0.0, _PAIR),
    lambda d: min_entropy_form(_PAIR, 0.0, -1.0, d),
    lambda d: min_entropy_form(-1.0, 0.0, _PAIR, d),
    lambda d: witness_min_eigvec(_PAIR, -1.0),
    lambda d: witness_min_eigvec(-1.0, _PAIR),
    lambda d: optimize_params(np.zeros(2), num=3),
], ids=["scrambled_witness_min-alpha", "scrambled_witness_min-gamma",
        "min_entropy_form-alpha", "min_entropy_form-gamma",
        "witness_min_eigvec-alpha", "witness_min_eigvec-gamma", "optimize_params-beta"])
def test_scalar_entry_points_reject_array_coefficients(call):
    # the check WitnessParams uses: an array is a DomainError, never numpy's
    # "truth value of an array is ambiguous"
    with pytest.raises(DomainError, match="not arrays"):
        call(scramble(singlet_dists()))


def test_witness_params_take_numbers_and_outcome_indices():
    for bad in (True, False, 1.0, -1, 4, "0", None):
        with pytest.raises(DomainError, match="outcome index"):
            WitnessParams(-1.0, 0.0, 0.0, choice_x=bad)
    with pytest.raises(DomainError, match="not arrays"):
        WitnessParams(np.array([-1.0, -2.0]), 0.0, 0.0)
    w = WitnessParams(-1.0, 0.0, -1.0, choice_x=np.int64(3), choice_z=2)
    assert witness_matrix(w).shape == (4, 4)


def test_witness_min_eigvec():
    t, state = witness_min_eigvec(-0.7, -0.7)
    assert abs(t - 3.0) < 1e-12
    w = witness_matrix(WitnessParams(TANGENT, 0.0, TANGENT))
    evals, evecs = eig_hermitian(w)
    assert abs(evals[-1] - (12.0 * math.sqrt(2.0) - 17.0)) < 1e-12
    _, ps = witness_min_eigvec(TANGENT, TANGENT)
    overlap = abs(np.vdot(ps.amplitudes, evecs[:, -1])) ** 2
    assert abs(overlap - 1.0) < 1e-9
    with pytest.raises(DomainError):
        witness_min_eigvec(0.0, -1.0)
    with pytest.raises(DomainError):
        witness_min_eigvec(0.5, 0.5)


def test_correlation_witness_values():
    vals = correlation_witness_values(singlet_dists())
    assert abs(min(vals) + 1.0) < 1e-15
    uniform = [OutcomeDistribution(XX, [0.25] * 4), OutcomeDistribution(ZZ, [0.25] * 4)]
    assert np.allclose(correlation_witness_values(uniform), 1.0, atol=1e-15)


def test_correlation_refutes_all_mixture_assignments():
    m = np.array([5, 5, 5, 33]) / 48.0
    d = ScrambledData({XX: m, ZZ: m})
    for pair in canonical_permutations():
        vals = correlation_witness_values(apply_permutation(d, pair))
        assert min(vals) < -1e-12
    assert abs(scrambled_correlation_min(d) - (-1.0 / 6.0)) < 1e-12


def test_scrambled_min_equals_brute_force_over_assignments():
    # exact equality with the minimum of witness_value over all 576
    # assignments and all projector choices
    import itertools
    from qscramble.measurement import PermutationPair
    from qscramble.quantum import DensityMatrix
    rng = np.random.default_rng(8)
    for m in random_hs_stack(99, 5):
        data = scramble_state(DensityMatrix(m))
        a, g = rng.uniform(-2.0, 1.0, size=2)
        fast = scrambled_witness_min(data, a, 0.0, g)
        brute = math.inf
        for pi_x in itertools.permutations(range(4)):
            for pi_z in itertools.permutations(range(4)):
                dists = apply_permutation(data, PermutationPair(pi_x, pi_z))
                for cx in range(4):
                    for cz in range(4):
                        w = WitnessParams(a, 0.0, g, choice_x=cx, choice_z=cz)
                        brute = min(brute, witness_value(dists, w))
        assert fast == brute


def test_scrambled_correlation_min_is_sound_on_singlet():
    # the singlet's scrambled data admits a separable explanation, so the
    # certified correlation value must stay nonnegative
    d = scramble(singlet_dists())
    assert scrambled_correlation_min(d) >= -1e-12


def test_scrambled_family_min_soundness_on_separable_data():
    from qscramble.quantum import DensityMatrix, min_eigval_stack, partial_transpose_stack
    states = random_hs_stack(555, 400)
    ppt = min_eigval_stack(partial_transpose_stack(states)) >= -1e-9
    for m in states[ppt][:60]:
        data = scramble_state(DensityMatrix(m))
        value, _ = scrambled_family_min(data)
        assert value >= -WITNESS_DETECT_TOL
