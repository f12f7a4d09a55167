import math

import numpy as np
import pytest

from qscramble.errors import DomainError, InvalidState, NotHermitian
from qscramble.quantum import (DensityMatrix, ProductStateParams, PureState,
                               _derive_keys, _ginibre, _philox4x64, _uniforms, derive_seed,
                               eig_hermitian, ginibre_stack, is_ppt, maximally_mixed,
                               min_eigval_stack, mix, partial_transpose, phi_plus,
                               plus_zero, product_state, psi_t, random_hs_stack,
                               random_hs_state, singlet)

SZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def test_eig_identity():
    evals, evecs = eig_hermitian(np.eye(4))
    assert np.allclose(evals, [1, 1, 1, 1], atol=0)
    assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(4))) < 1e-12


def test_eig_sigma_zz():
    evals, _ = eig_hermitian(SZZ)
    assert np.allclose(evals, [1, 1, -1, -1], atol=1e-14)


def test_eig_bell_projector():
    evals, evecs = eig_hermitian(phi_plus().projector())
    assert np.allclose(evals, [1, 0, 0, 0], atol=1e-14)
    overlap = abs(np.vdot(evecs[:, 0], phi_plus().amplitudes)) ** 2
    assert abs(overlap - 1.0) < 1e-12


def test_eig_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


def test_eig_reconstruction_random():
    # module invariant: descending eigenvalues, orthonormal eigenvectors and
    # reconstruction within 1e-10 on 1e4 random Hermitian matrices
    rng = np.random.default_rng(5)
    g = rng.normal(size=(10_000, 4, 4)) + 1j * rng.normal(size=(10_000, 4, 4))
    for m in g:
        h = 0.5 * (m + m.conj().T)
        evals, evecs = eig_hermitian(h)
        assert np.all(np.diff(evals) <= 0.0)
        assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(4))) < 1e-10
        assert np.max(np.abs((evecs * evals) @ evecs.conj().T - h)) < 1e-10


def test_partial_transpose_maximally_mixed():
    m = maximally_mixed().matrix
    assert np.array_equal(partial_transpose(m), m)


def test_partial_transpose_singlet():
    pt = partial_transpose(singlet().density())
    evals, _ = eig_hermitian(pt)
    assert abs(evals[-1] + 0.5) < 1e-12


def test_partial_transpose_product_diagonal():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert np.array_equal(partial_transpose(rho), rho)


def test_partial_transpose_involution_and_trace(random_states_2k):
    pts = np.stack([partial_transpose(m) for m in random_states_2k[:200]])
    back = np.stack([partial_transpose(m) for m in pts])
    assert np.array_equal(back, random_states_2k[:200])
    traces = np.trace(pts, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-12


def test_is_ppt_examples():
    assert is_ppt(maximally_mixed())
    assert not is_ppt(singlet().density())


def test_random_hs_state_contract():
    r0 = random_hs_state(0)
    assert abs(np.trace(r0.matrix) - 1.0) < 1e-12
    r1 = random_hs_state(1)
    assert np.max(np.abs(r0.matrix - r1.matrix)) > 1e-3
    again = random_hs_state(0)
    assert np.array_equal(r0.matrix, again.matrix)


def test_random_hs_state_invariants_bulk():
    # module invariant: valid density matrices for 1e5 seeds
    states = random_hs_stack(0, 100_000)
    herm = np.max(np.abs(states - np.conj(np.transpose(states, (0, 2, 1)))))
    assert herm < 1e-10
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    assert float(np.min(min_eigval_stack(states))) > -1e-9


def test_philox_kernel_matches_numpy():
    keys = [0, 1, 2**63, 2**64 - 1]
    keys += [int(k) for k in _derive_keys(2024, np.arange(1000, dtype=np.uint64))]
    raw = _philox4x64(np.array(keys, dtype=np.uint64), 8)
    for k, words in zip(keys, raw):
        assert np.array_equal(words, np.random.Philox(key=k).random_raw(32))
    # fewer blocks give a prefix of the same stream
    assert np.array_equal(_philox4x64(np.array([5], dtype=np.uint64), 3)[0],
                          np.random.Philox(key=5).random_raw(12))


def test_uniforms_match_numpy_generator():
    high = np.array([1.0, math.pi, 2.0 * math.pi])
    for k in (0, 7, 2**64 - 1):
        gen = np.random.Generator(np.random.Philox(key=k))
        assert np.array_equal(_uniforms(k, 30)[0], gen.random(30))
        # the formula Generator.uniform(0, high) applies to the same doubles
        u = _uniforms(k, 30 + 12)[0, 30:].reshape(4, 3)
        assert np.array_equal(0.0 + high * u, gen.uniform(0.0, high, size=(4, 3)))


def test_derive_keys_match_scalar_at_the_wrap():
    seed, start = 2**64 - 1, 2**40
    keys = _derive_keys(seed, np.arange(64, dtype=np.uint64) + np.uint64(start))
    assert [int(k) for k in keys] == [derive_seed(seed, start + i) for i in range(64)]
    keys = _derive_keys(-3, np.array([0, 2**64 - 1], dtype=np.uint64))
    assert [int(k) for k in keys] == [derive_seed(-3, 0), derive_seed(-3, 2**64 - 1)]


@pytest.mark.parametrize("seed, start", [(107, 0), (1, 0), (11, 2270)])
def test_random_hs_stack_sample_is_the_single_state(seed, start):
    states = random_hs_stack(seed, 200, start_index=start)
    for i, m in enumerate(states):
        assert np.array_equal(m, random_hs_state(derive_seed(seed, start + i)).matrix)


def _generator_hs_state(key: int) -> np.ndarray:
    # the per-sample reference: one numpy Philox generator per state
    u = np.random.Generator(np.random.Philox(key=key)).random((2, 16))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    ang = 2.0 * math.pi * u[1]
    g = (r * np.cos(ang) + 1j * (r * np.sin(ang))).reshape(4, 4)
    s = g @ g.conj().T
    return s / np.trace(s).real


def test_random_hs_stack_matches_per_sample_generators():
    for seed, start in ((107, 0), (314159265, 5000)):
        states = random_hs_stack(seed, 100, start_index=start)
        for i, m in enumerate(states):
            assert np.array_equal(m, _generator_hs_state(derive_seed(seed, start + i)))


def test_random_hs_stack_does_not_depend_on_the_batch():
    whole = random_hs_stack(31, 300)
    for a, b in ((0, 1), (0, 300), (17, 18), (99, 256), (250, 300)):
        assert np.array_equal(whole[a:b], random_hs_stack(31, b - a, start_index=a))


def test_ginibre_stack_is_the_ginibre_matrix_of_each_sample():
    # real and imaginary parts side by side, so that viewed as complex it is
    # the G behind random_hs_stack, bit for bit
    seed, start = 314159265, 70
    h = ginibre_stack(seed, 40, start_index=start)
    assert h.shape == (40, 4, 8) and h.dtype == np.float64
    g = _ginibre(_derive_keys(seed, np.arange(40, dtype=np.uint64) + np.uint64(start)))
    assert np.array_equal(h[..., 0::2], g.real) and np.array_equal(h[..., 1::2], g.imag)
    s = g @ g.conj().swapaxes(1, 2)
    assert np.array_equal(random_hs_stack(seed, 40, start_index=start),
                          s / np.trace(s, axis1=1, axis2=2).real[:, None, None])


@pytest.mark.parametrize("seed", [1.5, None, True, "7", np.float64(2.0)])
def test_samplers_reject_a_seed_that_is_not_an_integer(seed):
    for call in (lambda: random_hs_stack(seed, 3), lambda: ginibre_stack(seed, 3),
                 lambda: random_hs_state(seed)):
        with pytest.raises(DomainError, match="seed must be an integer"):
            call()


@pytest.mark.parametrize("count, start, message", [
    (1.5, 0, "count must be an integer, got 1.5"),
    (-1, 0, "count must be at least 0, got -1"),
    (3, 2.0, "start_index must be an integer, got 2.0"),
])
def test_samplers_reject_bad_counts_and_start_indices(count, start, message):
    with pytest.raises(DomainError, match=message):
        random_hs_stack(1, count, start_index=start)


def test_samplers_take_numpy_integer_seeds_modulo_2_64():
    assert np.array_equal(random_hs_stack(np.int64(-1), 3), random_hs_stack(2**64 - 1, 3))
    assert np.array_equal(ginibre_stack(np.uint8(7), 3), ginibre_stack(7, 3))
    assert np.array_equal(random_hs_state(np.int64(-1)).matrix,
                          random_hs_state(2**64 - 1).matrix)


def test_psi_t_values():
    assert np.allclose(psi_t(1.0).amplitudes, np.full(4, 0.5), atol=1e-15)
    assert np.allclose(psi_t(3.0).amplitudes,
                       np.array([3, 1, 1, 1]) / math.sqrt(12.0), atol=1e-15)
    assert np.allclose(psi_t(10.0).amplitudes,
                       np.array([10, 1, 1, 1]) / math.sqrt(103.0), atol=1e-15)
    with pytest.raises(DomainError):
        psi_t(0.99)


def test_psi_t_entanglement_boundary():
    # product at t = 1, entangled (NPT) for every t > 1
    assert is_ppt(psi_t(1.0).density())
    for t in (1.0 + 1e-6, 1.5, 2.0, 3.0, 10.0, 1e4):
        state = psi_t(t)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        assert not is_ppt(state.density())


def test_product_state_examples():
    ket = product_state(ProductStateParams(0.0, 0.0)).amplitudes
    assert np.allclose(ket, [1, 0, 0, 0], atol=1e-15)
    ket = product_state(ProductStateParams(math.pi / 2, 0.0)).amplitudes
    assert np.allclose(ket, plus_zero().amplitudes, atol=1e-15)
    with pytest.raises(DomainError):
        ProductStateParams(-0.1, 0.0)
    with pytest.raises(DomainError):
        ProductStateParams(0.0, 0.0, phi_a=7.0)


def test_mix():
    r1 = singlet().density()
    r2 = maximally_mixed()
    assert np.array_equal(mix(r1, r2, 0.0).matrix, r1.matrix)
    lam = 0.3
    noisy = mix(psi_t(3.0).density(), maximally_mixed(), lam)
    expected = (1 - lam) * psi_t(3.0).projector() + lam * np.eye(4) / 4
    assert np.max(np.abs(noisy.matrix - expected)) < 1e-15
    with pytest.raises(DomainError):
        mix(r1, r2, 1.5)


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidState):
        DensityMatrix.from_matrix(bad)
    with pytest.raises(DomainError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]))


def test_pure_state_rejects_non_finite_amplitudes():
    for amplitudes in (np.full(4, np.nan), [math.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(DomainError, match="norm"):
            PureState(amplitudes)
