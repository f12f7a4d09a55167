"""Local measurements, outcome probabilities, and the scrambled-data format.

Scrambled data keeps, for each measurement setting, only the multiset of the
four outcome probabilities; the assignment of probabilities to outcomes is
forgotten.  Permutations act independently per setting, so a full relabeling
is a pair of permutations of four symbols, one for the XX and one for the ZZ
setting.  Local bit flips and the qubit swap generate a 32-element group of
relabelings that never changes physics, which cuts the 576 assignment pairs
down to 18 canonical representatives.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, DuplicateSetting, MissingSetting, SettingMismatch, check_instance,
                     check_integer, check_probabilities, check_real)
from .quantum import I2, SIGMA_X, SIGMA_Z, DensityMatrix

XX, YY, ZZ = "XX", "YY", "ZZ"
SETTING_LABELS = (XX, YY, ZZ)

_OUTCOME_LABELS = {
    XX: ("++", "+-", "-+", "--"),
    YY: ("++", "+-", "-+", "--"),
    ZZ: ("00", "01", "10", "11"),
}

_SQ2 = np.sqrt(2.0)
_LOCAL_BASES = {
    XX: (np.array([1, 1], dtype=complex) / _SQ2, np.array([1, -1], dtype=complex) / _SQ2),
    # y eigenbasis pinned to |y+/-> = (|0> +/- i|1>)/sqrt(2)
    YY: (np.array([1, 1j], dtype=complex) / _SQ2, np.array([1, -1j], dtype=complex) / _SQ2),
    ZZ: (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}

@dataclass(frozen=True)
class MeasurementSetting:
    """One local two-qubit measurement: label, rank-1 projectors, outcome names."""

    label: str
    projectors: np.ndarray  # (4, 4, 4), outcome index first
    outcome_labels: tuple[str, str, str, str]


def setting(label: str) -> MeasurementSetting:
    """The measurement setting for ``label`` in {"XX", "YY", "ZZ"}, else :class:`DomainError`."""
    if not (isinstance(label, str) and label in SETTING_LABELS):
        raise DomainError(f"unknown setting label {label!r}")
    return _setting(label)


@lru_cache(maxsize=None)
def _setting(label: str) -> MeasurementSetting:
    va, vb = _LOCAL_BASES[label]
    kets = [np.kron(a, b) for a in (va, vb) for b in (va, vb)]
    projs = np.stack([np.outer(k, k.conj()) for k in kets])
    projs.setflags(write=False)
    return MeasurementSetting(label, projs, _OUTCOME_LABELS[label])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Four outcome probabilities for one setting, in outcome-label order,
    stored as :func:`~qscramble.errors.check_probabilities` returns them."""

    setting: str
    p: np.ndarray

    def __post_init__(self):
        p = check_probabilities(f"setting {setting(self.setting).label} probabilities", self.p, 1)
        object.__setattr__(self, "p", p)


def probabilities(rho: DensityMatrix, s: MeasurementSetting | str) -> OutcomeDistribution:
    """Outcome probabilities p_i = Tr(rho Pi_i) for one setting."""
    check_instance("probabilities", rho, DensityMatrix)
    label = s.label if isinstance(s, MeasurementSetting) else s
    return OutcomeDistribution(label, probabilities_stack(rho.matrix, label))


def probabilities_stack(rhos: np.ndarray, label: str) -> np.ndarray:
    """Raw probabilities (..., 4) of a stack of state matrices, no clamping.

    Each p_k = Re sum_ab Pi_k[a, b] rho[b, a] is an elementwise product
    summed over each matrix on its own, so a matrix gets the same bits alone
    as in any stack (a stacked einsum does not).
    """
    terms = setting(label).projectors * np.swapaxes(rhos, -1, -2)[..., None, :, :]
    return np.real(terms.sum(axis=(-2, -1)))


@lru_cache(maxsize=1)
def _measured_kets() -> np.ndarray:
    """The eight measured kets u_k, XX then ZZ outcomes in outcome-label
    order, as the rows of a real (8, 4) matrix; its entries are 0, 1 and
    +-1/2 exactly."""
    kets = [np.kron(a, b).real for label in (XX, ZZ)
            for a in _LOCAL_BASES[label] for b in _LOCAL_BASES[label]]
    k = np.array(kets)
    k.setflags(write=False)
    return k


def ginibre_probabilities(h: np.ndarray) -> np.ndarray:
    """[p_xx | p_zz], shape (n, 4 + 4), of the states rho = G G^dag / Tr(G G^dag)
    for Ginibre matrices G given as real (n, 4, 8) arrays H = [Re G | Im G]
    (in any column order; see :func:`qscramble.quantum.ginibre_stack`).

    p_k = <u_k|rho|u_k> = ||u_k^T G||^2 / ||G||^2 for the real kets u_k, so
    one matmul K H with the (8, 4) ket matrix K gives every numerator, and no
    rho is formed.  The ZZ kets are the computational basis, so the ZZ
    numerators sum to ||G||^2.  numpy's matmul multiplies a stack one matrix
    at a time, and the einsum sums each row of K H in one fixed order, so a
    sample's row has the same bits alone as in any stack.
    """
    kh = _measured_kets() @ h
    num = np.einsum("nkj,nkj->nk", kh, kh)
    return num / num[:, 4:].sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ScrambledData:
    """Per-setting multisets of outcome probabilities, stored sorted descending.

    Each multiset is stored as :func:`~qscramble.errors.check_probabilities`
    returns it, sorted, so its assignments are the rows that the scans decide
    for the same multisets.
    """

    multisets: Mapping[str, np.ndarray]

    def __post_init__(self):
        multisets = check_instance("ScrambledData", self.multisets, Mapping)
        unknown = set(multisets) - set(SETTING_LABELS)
        if unknown:
            raise DomainError(f"unknown setting labels {sorted(unknown, key=repr)}")
        canon = {}
        for label in [lab for lab in SETTING_LABELS if lab in multisets]:
            m = check_probabilities(f"setting {label} probabilities", multisets[label], 1)
            canon[label] = np.sort(m)[::-1]
            canon[label].setflags(write=False)
        object.__setattr__(self, "multisets", canon)

    @property
    def settings(self) -> tuple[str, ...]:
        return tuple(label for label in SETTING_LABELS if label in self.multisets)

    def multiset(self, label: str) -> np.ndarray:
        try:
            return self.multisets[label]
        except KeyError:
            raise MissingSetting(f"the scrambled data has no {label} multiset") from None


def scramble(dists: Iterable[OutcomeDistribution]) -> ScrambledData:
    """Forget outcome labels, keeping one sorted multiset per setting."""
    multisets: dict[str, np.ndarray] = {}
    for d in check_instance("scramble", dists, Iterable):
        check_instance("scramble", d, OutcomeDistribution)
        if d.setting in multisets:
            raise DuplicateSetting(f"two distributions given for setting {d.setting}")
        multisets[d.setting] = d.p
    return ScrambledData(multisets)


def scramble_state(rho: DensityMatrix, labels: Iterable[str] = (XX, ZZ)) -> ScrambledData:
    """Measure ``rho`` in the given settings and scramble the outcomes."""
    labels = check_instance("scramble_state (labels)", labels, Iterable)
    return scramble([probabilities(rho, lab) for lab in labels])


def scramble_equivalent(d1: ScrambledData, d2: ScrambledData, tol: float = 1e-9) -> bool:
    """Whether two scrambled-data objects agree elementwise within ``tol``."""
    check_instance("scramble_equivalent (d1)", d1, ScrambledData)
    check_instance("scramble_equivalent (d2)", d2, ScrambledData)
    tol = check_real("tol", tol)
    if d1.settings != d2.settings:
        raise SettingMismatch(f"settings {d1.settings} vs {d2.settings}")
    return all(
        bool(np.all(np.abs(d1.multiset(lab) - d2.multiset(lab)) <= tol))
        for lab in d1.settings
    )


# ---------------------------------------------------------------------------
# Permutation machinery.
# ---------------------------------------------------------------------------

Perm = tuple[int, int, int, int]
_IDENTITY: Perm = (0, 1, 2, 3)


@dataclass(frozen=True, order=True)
class PermutationPair:
    """An outcome relabeling: one permutation for XX, one for ZZ, each stored
    as a tuple of ints."""

    pi_x: Perm
    pi_z: Perm

    def __post_init__(self):
        for name in ("pi_x", "pi_z"):
            pi = getattr(self, name)
            try:
                entries = tuple(check_integer(f"{name} entry", v) for v in pi)
            except TypeError:
                raise DomainError(f"{name} = {pi!r} is not a sequence") from None
            if sorted(entries) != [0, 1, 2, 3]:
                raise DomainError(f"{name} = {pi} is not a permutation of 0..3")
            object.__setattr__(self, name, entries)


def _compose(a: Perm, b: Perm) -> Perm:
    # (a o b)(i) = a[b[i]]
    return (a[b[0]], a[b[1]], a[b[2]], a[b[3]])


def _induced_permutation(u: np.ndarray, label: str) -> Perm:
    """Outcome permutation sigma with U^dag Pi_i U = Pi_sigma(i)."""
    projs = setting(label).projectors
    conj = u.conj().T @ projs @ u
    match = np.max(np.abs(conj[:, None] - projs[None]), axis=(-2, -1)) < 1e-9
    if not np.all(np.count_nonzero(match, axis=1) == 1):
        raise ArithmeticError(f"relabeling does not permute {label} projectors")
    return tuple(int(j) for j in np.argmax(match, axis=1))  # type: ignore[return-value]


@lru_cache(maxsize=1)
def relabeling_group() -> tuple[PermutationPair, ...]:
    """The group of physical outcome relabelings, computed numerically.

    Generated by the induced actions of sigma_x (x) 1, sigma_z (x) 1,
    1 (x) sigma_x, 1 (x) sigma_z and the qubit swap on the XX and ZZ
    outcome sets.  Its order is 32.
    """
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = 1
    swap[1, 2] = swap[2, 1] = 1
    gens = [np.kron(SIGMA_X, I2), np.kron(SIGMA_Z, I2),
            np.kron(I2, SIGMA_X), np.kron(I2, SIGMA_Z), swap]
    gen_pairs = [(_induced_permutation(u, XX), _induced_permutation(u, ZZ)) for u in gens]
    group = {(_IDENTITY, _IDENTITY)}
    frontier = [(_IDENTITY, _IDENTITY)]
    while frontier:
        nxt = []
        for gx, gz in frontier:
            for hx, hz in gen_pairs:
                prod = (_compose(hx, gx), _compose(hz, gz))
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(PermutationPair(gx, gz) for gx, gz in group))


@lru_cache(maxsize=1)
def canonical_permutations() -> tuple[PermutationPair, ...]:
    """Lexicographically minimal representatives of the 18 relabeling orbits.

    Two assignment pairs are equivalent when they differ by right-composition
    with a relabeling-group element; equivalent assignments yield feasibility
    problems related by a separability-preserving transformation.
    """
    group = [(g.pi_x, g.pi_z) for g in relabeling_group()]
    # pairs come in lexicographic order, so the first pair met in an orbit is its minimum
    seen: set[tuple[Perm, Perm]] = set()
    reps = []
    for ax, az in itertools.product(itertools.permutations(range(4)), repeat=2):
        if (ax, az) not in seen:
            reps.append(PermutationPair(ax, az))
            seen.update((_compose(ax, hx), _compose(az, hz)) for hx, hz in group)
    return tuple(reps)


def apply_permutation(d: ScrambledData, pair: PermutationPair) -> list[OutcomeDistribution]:
    """Assign the sorted multiset entries to outcome labels according to ``pair``.

    Outcome ``i`` of XX receives the ``pair.pi_x[i]``-th largest probability,
    and likewise for ZZ.
    """
    check_instance("apply_permutation (d)", d, ScrambledData)
    check_instance("apply_permutation (pair)", pair, PermutationPair)
    mx = d.multiset(XX)
    mz = d.multiset(ZZ)
    return [
        OutcomeDistribution(XX, mx[list(pair.pi_x)]),
        OutcomeDistribution(ZZ, mz[list(pair.pi_z)]),
    ]
