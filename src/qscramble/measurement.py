"""Local measurements, outcome probabilities, and the scrambled-data format.

The paper measures two settings, XX and ZZ, in mutually unbiased bases, and
:func:`scramble_state` measures a state in exactly those; :func:`scramble`
builds scrambled data of any settings from their :class:`OutcomeDistribution`s.
The measurements are fixed, so a setting is named by its label, "XX", "YY"
or "ZZ", and :func:`setting` returns the label's projector stack.  Every
ket and projector table is built once, at import, from the local bases.
Scrambled data keeps, for each measurement setting, only the multiset of the
four outcome probabilities; the assignment of probabilities to outcomes is
forgotten.  Permutations act independently per setting, so a full relabeling
is a pair of permutations of four symbols, one for the XX and one for the ZZ
setting.  Local bit flips and the qubit swap generate a 32-element group of
relabelings that never changes physics, which cuts the 576 assignment pairs
down to 18 canonical representatives; both tables are generated from this
structure, with no numerical step.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, DuplicateSetting, MissingSetting, SettingMismatch, check_instance,
                     check_integer, check_probabilities, check_real)
from .quantum import DensityMatrix

XX, YY, ZZ = "XX", "YY", "ZZ"
SETTING_LABELS = (XX, YY, ZZ)

_SQ2 = np.sqrt(2.0)
_LOCAL_BASES = {
    XX: (np.array([1, 1], dtype=complex) / _SQ2, np.array([1, -1], dtype=complex) / _SQ2),
    # y eigenbasis pinned to |y+/-> = (|0> +/- i|1>)/sqrt(2)
    YY: (np.array([1, 1j], dtype=complex) / _SQ2, np.array([1, -1j], dtype=complex) / _SQ2),
    ZZ: (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Each setting's four kets |a b> = kron(a, b), in outcome-label order, as rows.
_KETS = {label: _frozen(np.array([np.outer(a, b).ravel() for a in basis for b in basis]))
         for label, basis in _LOCAL_BASES.items()}
# Each setting's four rank-1 projectors |k><k|, a (4, 4, 4) stack, outcome first.
_SETTINGS = {label: _frozen(np.stack([np.outer(k, k.conj()) for k in kets]))
             for label, kets in _KETS.items()}
# The paper's two settings: the XX then the ZZ projectors, complex (8, 4, 4),
# and the eight measured kets u_k as the rows of a real (8, 4) matrix, whose
# entries are 0, 1 and +-1/2 exactly.
_XX_ZZ_PROJECTORS = _frozen(np.concatenate([_SETTINGS[XX], _SETTINGS[ZZ]]))
_MEASURED_KETS = _frozen(np.concatenate([_KETS[XX], _KETS[ZZ]]).real.copy())


def setting(label: str) -> np.ndarray:
    """The read-only (4, 4, 4) projector stack of the setting ``label`` in
    {"XX", "YY", "ZZ"}, outcome index first; any other argument is a
    :class:`DomainError`."""
    if not (isinstance(label, str) and label in SETTING_LABELS):
        raise DomainError(f"unknown setting label {label!r}")
    return _SETTINGS[label]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Four outcome probabilities for one setting, in outcome-label order,
    stored as :func:`~qscramble.errors.check_probabilities` returns them."""

    setting: str
    p: np.ndarray

    def __post_init__(self):
        setting(self.setting)
        p = check_probabilities(f"setting {self.setting} probabilities", self.p, 1)
        object.__setattr__(self, "p", p)


def probabilities(rho: DensityMatrix, label: str) -> OutcomeDistribution:
    """Outcome probabilities p_i = Tr(rho Pi_i) for the setting ``label``
    ("XX", "YY" or "ZZ"); anything but a label is a :class:`DomainError`."""
    check_instance("probabilities", rho, DensityMatrix)
    return OutcomeDistribution(label, probabilities_stack(rho.matrix, label))


def probabilities_stack(rhos: np.ndarray, label: str) -> np.ndarray:
    """Raw probabilities (..., 4) of a stack of state matrices, no clamping.

    Each p_k = Re sum_ab Pi_k[a, b] rho[b, a] is an elementwise product
    summed over each matrix on its own, so a matrix gets the same bits alone
    as in any stack (a stacked einsum does not).
    """
    return _measure(setting(label), rhos)


def _measure(projs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Re sum_ab Pi_k[a, b] rho[b, a] for each projector Pi_k of the stack
    ``projs`` (k, 4, 4) and each matrix of ``rhos`` (..., 4, 4), shape (..., k)."""
    terms = projs * np.swapaxes(rhos, -1, -2)[..., None, :, :]
    return np.real(terms.sum(axis=(-2, -1)))


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
    kh = _MEASURED_KETS @ h
    num = np.einsum("nkj,nkj->nk", kh, kh)
    return num / num[:, 4:].sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ScrambledData:
    """Per-setting multisets of outcome probabilities, stored sorted descending.

    Each multiset is stored as :func:`~qscramble.errors.check_probabilities`
    returns it, sorted, so its assignments are the rows that the scans decide
    for the same multisets.  All settings are checked and sorted as one
    (k, 4) stack, and again one setting at a time on failure, for an error
    naming the setting.
    """

    multisets: Mapping[str, np.ndarray]

    def __post_init__(self):
        multisets = check_instance("ScrambledData", self.multisets, Mapping)
        unknown = set(multisets) - set(SETTING_LABELS)
        if unknown:
            raise DomainError(f"unknown setting labels {sorted(unknown, key=repr)}")
        labels = [lab for lab in SETTING_LABELS if lab in multisets]
        try:
            rows = check_probabilities("multisets", [multisets[lab] for lab in labels], 2)
        except DomainError:
            rows = np.array([check_probabilities(f"setting {lab} probabilities", multisets[lab], 1)
                             for lab in labels]).reshape(-1, 4)
        rows = np.sort(rows, axis=1)[:, ::-1]
        rows.setflags(write=False)
        object.__setattr__(self, "multisets", dict(zip(labels, rows)))

    @property
    def settings(self) -> tuple[str, ...]:
        return tuple(label for label in SETTING_LABELS if label in self.multisets)

    def multiset(self, label: str) -> np.ndarray:
        try:
            return self.multisets[label]
        except KeyError:
            raise MissingSetting(f"the scrambled data has no {label} multiset") from None


def _by_setting(dists, caller: str) -> dict[str, OutcomeDistribution]:
    """``dists``, an iterable of :class:`OutcomeDistribution` (or :class:`DomainError`
    naming ``caller``), keyed by setting; :class:`DuplicateSetting` if one repeats."""
    out: dict[str, OutcomeDistribution] = {}
    for d in check_instance(caller, dists, Iterable):
        check_instance(caller, d, OutcomeDistribution)
        if d.setting in out:
            raise DuplicateSetting(f"two distributions given for setting {d.setting}")
        out[d.setting] = d
    return out


def scramble(dists: Iterable[OutcomeDistribution]) -> ScrambledData:
    """Forget outcome labels, keeping one sorted multiset per setting."""
    return ScrambledData({label: d.p for label, d in _by_setting(dists, "scramble").items()})


def scramble_state(rho: DensityMatrix) -> ScrambledData:
    """Measure ``rho`` in the paper's two settings, XX and ZZ, and scramble the outcomes.

    The multisets equal ``scramble([probabilities(rho, XX), probabilities(rho,
    ZZ)])`` bit for bit, with no :class:`OutcomeDistribution` built: one
    elementwise product with the stacked XX and ZZ projectors gives all eight
    probabilities by the per-projector sum of :func:`probabilities_stack`,
    and :class:`ScrambledData` checks them once.  Scrambled data of other
    settings is ``scramble([probabilities(rho, s) for s in labels])``.  A
    ``rho`` that is not a :class:`DensityMatrix` raises :class:`DomainError`.
    """
    check_instance("probabilities", rho, DensityMatrix)  # named as probabilities() names it
    p = _measure(_XX_ZZ_PROJECTORS, rho.matrix)
    return ScrambledData({XX: p[:4], ZZ: p[4:]})


def scramble_equivalent(d1: ScrambledData, d2: ScrambledData, tol: float = 1e-9) -> bool:
    """Whether two scrambled-data objects agree elementwise within ``tol``, a
    finite real >= 0 (else :class:`DomainError`)."""
    check_instance("scramble_equivalent (d1)", d1, ScrambledData)
    check_instance("scramble_equivalent (d2)", d2, ScrambledData)
    tol = check_real("tol", tol)
    if tol < 0.0:
        raise DomainError(f"tol = {tol!r} is negative")
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


# Outcome 2a + b is qubit A's outcome a and qubit B's b in either setting.  A
# local Pauli flips one qubit's outcome in one setting and fixes the other
# setting's (V4, the bit flips), and the qubit swap exchanges outcomes 1 and 2.
_FLIPS: tuple[Perm, ...] = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_SWAP: Perm = (0, 2, 1, 3)
_FIX_0 = [pi for pi in itertools.permutations(range(4)) if pi[0] == 0]
# The canonical (pi_x, pi_z) as integers: a flip per setting brings any entry
# to position 0 and the swap then orders pi_x[1] < pi_x[2], so each orbit has
# exactly one such pair, its lexicographic minimum.
_CANONICAL = tuple((px, pz) for px in _FIX_0 if px[1] < px[2] for pz in _FIX_0)
# The same pairs as two (18, 4) index arrays: row j holds pair j's pi_x / pi_z.
_CANONICAL_X, _CANONICAL_Z = (_frozen(np.array(pis)) for pis in zip(*_CANONICAL))


@lru_cache(maxsize=1)
def relabeling_group() -> tuple[PermutationPair, ...]:
    """The 32 physical outcome relabelings, sorted: the pairs (a, b) with a
    and b both in V4 or both in V4 o swap.  tests/test_measurement.py derives
    them again from the conjugated projectors."""
    cosets = (_FLIPS, tuple(_compose(v, _SWAP) for v in _FLIPS))
    return tuple(sorted(PermutationPair(a, b) for coset in cosets for a in coset for b in coset))


@lru_cache(maxsize=1)
def canonical_permutations() -> tuple[PermutationPair, ...]:
    """Lexicographically minimal representatives of the 18 relabeling orbits,
    in lexicographic order: pi_x[0] = pi_z[0] = 0 and pi_x[1] < pi_x[2].

    Two assignment pairs are equivalent when they differ by right-composition
    with a relabeling-group element; equivalent assignments yield feasibility
    problems related by a separability-preserving transformation.
    """
    return tuple(PermutationPair(px, pz) for px, pz in _CANONICAL)


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
