"""Exact linear algebra for two-qubit states.

Conventions used everywhere in this package:

* the first tensor factor is party A, the second party B;
* the computational basis is ordered ``|00>, |01>, |10>, |11>``;
* ``|+/->`` are the eigenvectors of sigma_x, ``|y+/-> = (|0> +/- i|1>)/sqrt(2)``
  the eigenvectors of sigma_y, and ``|0>, |1>`` those of sigma_z.

Eigenvalues come from LAPACK through ``numpy.linalg.eigh``/``eigvalsh``, and
:func:`partial_transpose_stack` is the package's one partial transpose, used
by the PPT test; the tests' independent L-BFGS oracle (``tests/oracle.py``)
imports it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidState, NotHermitian, check_count, check_instance,
                     check_integer, check_numbers, check_real)

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-9
PSD_ATOL = 1e-9
NORM_ATOL = 1e-12

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_matrix4(m) -> np.ndarray:
    a = check_numbers("a 4x4 matrix", m, complex)
    if a.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    return a


def hermiticity_defect(m) -> float:
    """Max-norm distance of ``m`` from its own conjugate transpose."""
    a = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())))


# ---------------------------------------------------------------------------
# Eigendecomposition, partial transpose and the PPT test.
# ---------------------------------------------------------------------------


def _as_hermitian4(h) -> np.ndarray:
    """``h`` as a 4x4 array; :class:`NotHermitian` if max|h - h^dag| > 1e-10."""
    a = _as_matrix4(h)
    defect = hermiticity_defect(a)
    if defect > HERMITIAN_ATOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {defect:.3e}")
    return a


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of ``h``.

    Raises :class:`NotHermitian` if ``max|h - h^dag|`` exceeds ``1e-10``.
    """
    a = _as_hermitian4(h)
    evals, evecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    return evals[::-1], evecs[:, ::-1]


def min_eigval_stack(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a Hermitian stack (..., 4, 4)."""
    return np.linalg.eigvalsh(h)[..., 0]


def partial_transpose_stack(m: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of every matrix in a stack (..., 4, 4)."""
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-1, -3) \
            .reshape(*m.shape[:-2], 4, 4)


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second tensor factor: rho^{T_B}.

    Accepts a :class:`DensityMatrix` or a raw 4x4 array that passes
    :func:`eig_hermitian`'s rule (or :class:`NotHermitian`), and returns a raw
    array; the result is Hermitian and trace-preserving but in general not
    positive.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_hermitian4(rho)
    return partial_transpose_stack(m)


def is_ppt(rho) -> bool:
    """Whether rho^{T_B} >= -1e-9; equals separability for two qubits."""
    return bool(min_eigval_stack(partial_transpose(rho)) >= -PSD_ATOL)


# ---------------------------------------------------------------------------
# State containers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """Normalized 4-component state vector in the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = check_numbers("a state vector", self.amplitudes, complex)
        if a.shape != (4,):
            raise DomainError(f"a state vector has shape (4,), got {a.shape}")
        with np.errstate(invalid="ignore"):  # infinite amplitudes give NaN, rejected below
            norm2 = float(np.real(a.conj() @ a))
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise DomainError(f"state vector norm^2 deviates from 1 by {norm2 - 1.0:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.projector())


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, trace-one, positive-semidefinite operator.

    The constructor checks, in this order, that the input is a 4x4 array
    of numbers, that its entries are finite (:class:`DomainError` for
    either), that it is Hermitian within 1e-10 and that its trace is 1
    within 1e-9 (:class:`InvalidState` for either), and stores the
    Hermitian part, read-only, forming the conjugate transpose once.  Use
    :meth:`from_matrix` for untrusted input, which additionally checks
    positivity of the spectrum.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix4(self.matrix)
        h = m.conj().T
        defect = float(abs(m - h).max())
        if defect > HERMITIAN_ATOL:
            raise InvalidState(f"not Hermitian: max|rho - rho^dag| = {defect:.3e}")
        off = abs(m.trace() - 1.0)
        if off > TRACE_ATOL:
            raise InvalidState(f"trace deviates from 1 by {off:.3e}")
        m = 0.5 * (m + h)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        rho = cls(m)
        lam_min = float(min_eigval_stack(rho.matrix[None])[0])
        if lam_min < -PSD_ATOL:
            raise InvalidState(f"not positive semidefinite: min eigenvalue {lam_min:.3e}")
        return rho

    def min_eigenvalue(self) -> float:
        return float(min_eigval_stack(self.matrix[None])[0])


@dataclass(frozen=True)
class ProductStateParams:
    """Bloch angles of a pure product state: cos(t/2)|0> + e^{i phi} sin(t/2)|1>."""

    theta_a: float
    theta_b: float
    phi_a: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        for name in ("theta_a", "theta_b"):
            t = check_real(name, getattr(self, name))
            if not (0.0 <= t <= math.pi):
                raise DomainError(f"{name} = {t} outside [0, pi]")
        for name in ("phi_a", "phi_b"):
            p = check_real(name, getattr(self, name))
            if not (0.0 <= p < 2.0 * math.pi):
                raise DomainError(f"{name} = {p} outside [0, 2*pi)")


# ---------------------------------------------------------------------------
# State constructors.
# ---------------------------------------------------------------------------


def qubit_state(theta: float, phi: float = 0.0) -> np.ndarray:
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))],
                    dtype=complex)


def product_state(params: ProductStateParams) -> PureState:
    """Tensor product of the two single-qubit states described by ``params``."""
    check_instance("product_state", params, ProductStateParams)
    ket = np.kron(qubit_state(params.theta_a, params.phi_a),
                  qubit_state(params.theta_b, params.phi_b))
    return PureState(ket)


def psi_t(t: float) -> PureState:
    """The boundary family (t|00> + |01> + |10> + |11>) / sqrt(3 + t^2), t >= 1."""
    if not check_real("t", t) >= 1.0:
        raise DomainError(f"psi_t requires t >= 1, got {t}")
    norm2 = 3.0 + t * t  # overflows past t = 1.3e154, where hypot still holds the norm
    norm = math.sqrt(norm2) if norm2 < math.inf else math.hypot(t, 1.0, 1.0, 1.0)
    return PureState(np.array([t, 1.0, 1.0, 1.0], dtype=complex) / norm)


def mix(rho1: DensityMatrix, rho2: DensityMatrix, w: float) -> DensityMatrix:
    """Convex combination (1-w) rho1 + w rho2 with w in [0, 1]."""
    check_instance("mix (rho1)", rho1, DensityMatrix)
    check_instance("mix (rho2)", rho2, DensityMatrix)
    if not (0.0 <= check_real("mixing weight", w) <= 1.0):
        raise DomainError(f"mixing weight {w} outside [0, 1]")
    return DensityMatrix((1.0 - w) * rho1.matrix + w * rho2.matrix)


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)


def singlet() -> PureState:
    """|psi^-> = (|01> - |10>)/sqrt(2)."""
    return PureState(np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0))


def phi_plus() -> PureState:
    """|Phi^+> = (|00> + |11>)/sqrt(2)."""
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))


def plus_zero() -> PureState:
    """The product state |+> (x) |0>."""
    return PureState(np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Random states distributed by the Hilbert-Schmidt measure.
#
# Sample i of a scan is keyed by the SplitMix64 hash of (seed, i) and draws
# its 32 doubles from a Philox4x64-10 stream under that key (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  Philox is
# counter-based, so distinct keys give independent streams and every sample
# of a stack is computed at once: the rounds run in numpy on (keys, counters)
# arrays, word for word the stream ``np.random.Philox(key=k)`` yields, and
# the doubles are those ``Generator.random`` makes of it.  Gaussians come
# from an explicit Box-Muller transform, so the map from seed to state is
# pinned down bit for bit.
#
# Every operand in the hashing and the rounds is an explicit np.uint64:
# numpy < 2 promotes a uint64 scalar mixed with a Python int to float64,
# which would drop key bits silently.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, the high word
    summed from 32-bit halves (Warren, "Hacker's Delight", mulhu)."""
    m_lo, m_hi = m & _M32, m >> _S32
    x_lo, x_hi = x & _M32, x >> _S32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _S32)
    w = m_lo * x_hi + (t & _M32)
    return m_hi * x_hi + (t >> _S32) + (w >> _S32), m * x


def _philox4x64(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` words of ``np.random.Philox(key=k)`` for every
    k in the uint64 array ``keys``; shape (len(keys), 4 * blocks).

    Block b is Philox4x64-10 of the counter (b, 0, 0, 0) under the key (k, 0),
    b = 1 .. blocks: the generator increments its counter before each block.
    Words that depend only on the key or only on the counter keep a
    broadcastable shape until the rounds mix them.
    """
    k0, k1 = keys[:, None], np.zeros((1, 1), dtype=np.uint64)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = k1
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1) \
             .reshape(len(keys), 4 * blocks)


def _uniforms(keys, count: int) -> np.ndarray:
    """The first ``count`` doubles ``Generator(Philox(key=k)).random()`` draws,
    for every key k (an int in [0, 2^64) or a uint64 array);
    shape (number of keys, count)."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    raw = _philox4x64(keys, -(-count // 4))[:, :count]
    return (raw >> np.uint64(11)) * 2.0 ** -53


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Gaussian pairs (r cos 2 pi u2, r sin 2 pi u2), r = sqrt(-2 log(1 - u1)),
    on a new last axis."""
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], avoids log(0)
    ang = 2.0 * math.pi * u2
    z = np.empty(u1.shape + (2,))
    np.multiply(r, np.cos(ang), out=z[..., 0])
    np.multiply(r, np.sin(ang), out=z[..., 1])
    return z


def _gaussians(keys) -> np.ndarray:
    """The Ginibre matrix G of every Philox key (as in :func:`_uniforms`) as a
    real (4, 8) matrix [Re G | Im G] with the columns interleaved: row a holds
    Re G_a0, Im G_a0, Re G_a1, ..., Im G_a3.  Shape (number of keys, 4, 8)."""
    u = _uniforms(keys, 32)
    return _box_muller(u[:, :16], u[:, 16:]).reshape(-1, 4, 8)


def _ginibre(keys) -> np.ndarray:
    """Complex Ginibre matrices, one per Philox key (as in :func:`_uniforms`);
    shape (number of keys, 4, 4).  A view of :func:`_gaussians`."""
    return _gaussians(keys).view(complex)


def _hs_matrices(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for every matrix G of a complex stack."""
    s = g @ g.conj().swapaxes(-1, -2)
    return s / np.trace(s, axis1=-2, axis2=-1).real[:, None, None]


def random_hs_state(seed: int) -> DensityMatrix:
    """Draw rho = G G^dag / Tr(G G^dag) with G a complex Ginibre matrix.

    The map from ``seed`` (an integer, or :class:`DomainError`) to the state
    is deterministic and bit-stable: a Philox stream keyed by ``seed`` modulo
    2^64 feeds a Box-Muller transform.
    """
    seed = check_integer("seed", seed)
    return DensityMatrix(_hs_matrices(_ginibre(seed & _MASK64))[0])


def derive_seed(seed: int, index: int) -> int:
    """SplitMix64-style per-index seed derivation for scan streams."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _derive_keys(seed: int, index: np.ndarray) -> np.ndarray:
    """``derive_seed(seed, i)`` for every i in the uint64 array ``index``."""
    z = np.uint64(seed & _MASK64) + (index + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def ginibre_stack(seed: int, count: int, start_index: int = 0) -> np.ndarray:
    """The Ginibre matrices of :func:`random_hs_stack`'s samples as real
    (count, 4, 8) arrays, laid out as in :func:`_gaussians`.

    Sample ``i`` is keyed by ``derive_seed(seed, start_index + i)``.  A
    ``seed`` or ``start_index`` that is not an integer (numpy integers are,
    bools are not), or a ``count`` that is not a nonnegative one, raises
    :class:`DomainError`.
    """
    seed = check_integer("seed", seed)
    count = check_count("count", count, 0)
    start_index = check_integer("start_index", start_index)
    index = np.arange(count, dtype=np.uint64) + np.uint64(start_index & _MASK64)
    return _gaussians(_derive_keys(seed, index))


def random_hs_stack(seed: int, count: int, start_index: int = 0) -> np.ndarray:
    """Stack of ``count`` Hilbert-Schmidt random states as raw matrices.

    Sample ``i`` equals ``random_hs_state(derive_seed(seed, start_index + i))``;
    all of them are drawn in one pass.  Arguments are checked as in
    :func:`ginibre_stack`.
    """
    return _hs_matrices(ginibre_stack(seed, count, start_index).view(complex))
