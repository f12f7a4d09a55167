"""Every public entry point rejects wrong types, non-numbers and invalid
probability rows with a DomainError, through the helpers of qscramble.errors."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qscramble import (DomainError, DuplicateSetting, EntropySpec, OutcomeDistribution,
                       ProductStateParams, ScrambledData, WitnessParams,
                       all_states_bound_closed_form, apply_permutation,
                       correlation_witness_values, detect, entropy,
                       entropy_detect, min_entropy_form, min_over_separable, mix,
                       probabilities, product_state, psi_t, psi_t_entropies,
                       robustness, scramble, scramble_equivalent, scramble_state,
                       scrambled_witness_min, separable_bound, separable_bound_closed_form,
                       setting, singlet, t_from_sxx, witness_matrix, witness_min_eigvec,
                       witness_value)
from qscramble.cli import main
from qscramble.detector import classify_slice_point
from qscramble.entropy import T_CAP, TSALLIS_CAP, all_states_bound_vec, t_from_sxx_vec
from qscramble.errors import check_probabilities, check_real
from qscramble.feasibility import FeasibilityProblem, solve_batch
from qscramble.fileio import write_probabilities, write_state
from qscramble.measurement import XX, ZZ
from qscramble.quantum import DensityMatrix
from qscramble.witness import (COEFFICIENT_CAP, optimize_params, scrambled_correlation_min,
                               scrambled_family_min)

from oracle import oracle_feasible

T2 = EntropySpec("tsallis", 2.0)
RHO = singlet().density()
DATA = scramble_state(RHO)
DISTS = [probabilities(RHO, XX), probabilities(RHO, ZZ)]
UNIFORM = [0.25] * 4
# the writers must raise before writing: in a missing directory a write would fail otherwise
PATH = Path("no-such-directory") / "out.json"

CASES = {
    # wrong type
    "scrambled_witness_min-dict": (lambda: scrambled_witness_min({}, -1.0, 0.0, -1.0),
                                   "expects a"),
    "min_entropy_form-dict": (lambda: min_entropy_form(-1.0, 0.0, -1.0, {}), "expects a"),
    "entropy_detect-dict": (lambda: entropy_detect({}, T2, T2), "expects a"),
    "scrambled_family_min-dict": (lambda: scrambled_family_min({}), "expects a"),
    "scrambled_correlation_min-dict": (lambda: scrambled_correlation_min({}), "expects a"),
    "apply_permutation-tuples": (lambda: apply_permutation(DATA, ((0, 1, 2, 3), (0, 1, 2, 3))),
                                 "expects a"),
    "witness_value-none": (lambda: witness_value(DISTS, None), "expects a"),
    "witness_matrix-none": (lambda: witness_matrix(None), "expects a"),
    "mix-ndarray": (lambda: mix(np.eye(4) / 4, RHO, 0.5), "expects a"),
    "probabilities-ndarray": (lambda: probabilities(np.eye(4) / 4, XX), "expects a"),
    "scramble_state-ndarray": (lambda: scramble_state(np.eye(4) / 4), "expects a"),
    "scramble-int": (lambda: scramble([1]), "expects a"),
    "entropy-str-spec": (lambda: entropy(UNIFORM, "x"), "expects a"),
    "separable_bound-none-spec": (lambda: separable_bound(0.1, T2, None), "expects a"),
    "psi_t_entropies-none-spec": (lambda: psi_t_entropies(2, None, T2), "expects a"),
    "product_state-none": (lambda: product_state(None), "expects a"),
    "scramble-none": (lambda: scramble(None), "expects a"),
    "ScrambledData-none": (lambda: ScrambledData(None), "expects a"),
    "scramble_state-labels-none": (lambda: scramble_state(RHO, None), "expects a"),
    "correlation_witness_values-none": (lambda: correlation_witness_values(None), "expects a"),
    "detect-methods-none": (lambda: detect(RHO, None), "expects a"),
    "detect-methods-str": (lambda: detect(RHO, "sdp"), r"such as \['sdp'\], not a string"),
    "detect-methods-empty": (lambda: detect(RHO, []), "no detection method"),
    "detect-array-spec": (lambda: detect(RHO, spec_z=np.zeros(3)), "expects a"),
    # not a number
    "robustness-str": (lambda: robustness("x"), "real number"),
    "robustness-none": (lambda: robustness(None), "real number"),
    "psi_t-str": (lambda: psi_t("a"), "real number"),
    "EntropySpec-str": (lambda: EntropySpec("tsallis", "x"), "real number"),
    "EntropySpec-none": (lambda: EntropySpec("tsallis", None), "real number"),
    "separable_bound-str": (lambda: separable_bound("x", T2, T2), "real number"),
    "t_from_sxx-str": (lambda: t_from_sxx("x", T2), "real number"),
    "all_states_bound_closed_form-str": (lambda: all_states_bound_closed_form("x"),
                                         "real number"),
    "separable_bound_closed_form-str": (lambda: separable_bound_closed_form("x"),
                                        "real number"),
    "ProductStateParams-str": (lambda: ProductStateParams("a", 0), "real number"),
    "WitnessParams-str": (lambda: WitnessParams("a", 0, 0), "real number"),
    "min_over_separable-str": (lambda: min_over_separable("a", 0, 0), "real number"),
    "classify_slice_point-str": (lambda: classify_slice_point("a", 0.1), "real number"),
    "mix-weight-str": (lambda: mix(RHO, RHO, "x"), "real number"),
    # unhashable label
    "setting-list": (lambda: setting([1]), "unknown setting label"),
    # silently wrong
    "min_over_separable-array": (lambda: min_over_separable(np.array([1.0, 2.0]), 0, 0),
                                 "not arrays"),
    "scramble_equivalent-nan": (lambda: scramble_equivalent(DATA, DATA, math.nan),
                                "non-finite"),
    "detect-str-spec": (lambda: detect(RHO, ["entropy"], spec_x="tsallis"), "expects a"),
    # oracle
    "oracle_feasible-three": (lambda: oracle_feasible([1, 0, 0], UNIFORM), "shape"),
    "oracle_feasible-nan": (lambda: oracle_feasible([math.nan, 0, 0, 1], UNIFORM),
                            "non-finite"),
    # S_xx that numpy cannot read as an array of numbers
    "all_states_bound_vec-str": (lambda: all_states_bound_vec(["a"], T2, T2), "numbers"),
    "t_from_sxx_vec-ragged": (lambda: t_from_sxx_vec([[0.1], [0.1, 0.2]], T2), "numbers"),
    # the file writers
    "write_state-int": (lambda: write_state(PATH, 3), "expects a"),
    "write_probabilities-int": (lambda: write_probabilities(PATH, dists=[1]), "expects a"),
    # large or tiny finite numbers, which overflowed: wrong values, warnings or a misleading error
    "psi_t_entropies-huge": (lambda: psi_t_entropies(1e200, T2, T2), "T_CAP"),
    "min_over_separable-huge": (lambda: min_over_separable(-1e155, 0, 0), "coefficient alpha"),
    "witness_min_eigvec-subnormal": (lambda: witness_min_eigvec(5e-324, -1), "alpha"),
    "optimize_params-huge": (lambda: optimize_params(1e200), "coefficient beta"),
    # entropy of an unnormalized or misshaped row
    "entropy-unnormalized": (lambda: entropy([0.6, 0.6, 0.0, 0.0], T2), "sums to"),
    "entropy-two-entries": (lambda: entropy([0.5, 0.5], T2), "shape"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_input_is_a_domain_error(name):
    call, message = CASES[name]
    with pytest.raises(DomainError, match=message):
        call()


def test_a_repeated_setting_is_a_duplicate_setting(tmp_path):
    # DuplicateSetting, which scramble raises too, is not a DomainError
    path, twice = tmp_path / "twice.json", [DISTS[0], DISTS[1], DISTS[0]]
    with pytest.raises(DuplicateSetting, match="setting XX"):
        write_probabilities(path, dists=twice)
    assert not path.exists()
    for call in (lambda: witness_value(twice, WitnessParams(-1.0, 0.0, 0.0)),
                 lambda: correlation_witness_values(twice)):
        with pytest.raises(DuplicateSetting, match="setting XX"):
            call()


def test_large_finite_inputs_give_right_values_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi_t_entropies(T_CAP, T2, T2).s_xx <= 0.75
        # t * t overflows past 1.3e154: the norm comes from hypot there, and
        # below it psi_t keeps the bits of sqrt(3 + t^2)
        assert np.array_equal(psi_t(1e200).amplitudes, [1.0, 1e-200, 1e-200, 1e-200])
        psi3 = np.array([3, 1, 1, 1], dtype=complex) / math.sqrt(12.0)
        assert np.array_equal(psi_t(3).amplitudes, psi3)
        assert min_over_separable(-COEFFICIENT_CAP, 0, 0) == 1.0 - COEFFICIENT_CAP
        t, state = witness_min_eigvec(1e-300, -1)  # the state is -|00>
        assert math.isclose(t, -4e300) and abs(state.amplitudes[0] + 1.0) <= 1e-15
        assert len(optimize_params(COEFFICIENT_CAP, num=3)) == 3


def test_tsallis_parameters_above_the_cap_are_domain_errors(tmp_path, capsys):
    # Tsallis-q entropies are at most about 1/(q - 1), so at q = 1e13 every
    # entropy read as an endpoint of the separable boundary, and detect
    # called this product state entangled while sdp certified it
    phi = np.array([math.cos(0.35), math.sin(0.35)])
    path = tmp_path / "phi.json"
    write_state(path, DensityMatrix(np.outer(np.kron(phi, phi), np.kron(phi, phi))))
    assert main(["detect", "--in", str(path), "--q", "1e13"]) == 2
    captured = capsys.readouterr()
    assert "Tsallis entropy parameter" in captured.err and captured.out == ""
    for q in (np.nextafter(TSALLIS_CAP, math.inf), 1e308, math.inf):
        with pytest.raises(DomainError, match="TSALLIS_CAP"):
            EntropySpec("tsallis", q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, qtilde in ((TSALLIS_CAP, 2.0), (2.0, TSALLIS_CAP), (TSALLIS_CAP, TSALLIS_CAP)):
            argv = ["detect", "--in", str(path), "--q", repr(q), "--qtilde", repr(qtilde)]
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["methods"] == {"sdp": "possibly_separable", "witness": "not_detected",
                                      "entropy": "not_detected"}
        # the Renyi order has no cap
        for alpha in ("1e15", "1e300", "inf"):
            argv = ["detect", "--in", str(path), "--entropy", "renyi", "--q", alpha,
                    "--qtilde", alpha, "--method", "entropy"]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["methods"] == {"entropy": "not_detected"}


def test_inf_is_accepted_where_it_is_meaningful():
    # robustness and the Renyi order take inf before check_real rejects it
    assert robustness(math.inf) == robustness(np.float64(math.inf))
    assert EntropySpec("renyi", math.inf).parameter == math.inf
    for call in (lambda: robustness(-math.inf), lambda: EntropySpec("renyi", -math.inf)):
        with pytest.raises(DomainError, match="non-finite"):
            call()


@pytest.mark.parametrize("value", [True, np.bool_(False), None, "1", 1j, [1.0], (1.0,),
                                   np.zeros(2), np.array(0.5), math.nan, -math.inf])
def test_check_real_rejects(value):
    with pytest.raises(DomainError):
        check_real("x", value)


def test_check_real_returns_floats():
    for value in (1, np.int64(2), np.float32(0.5), 3.0):
        out = check_real("x", value)
        assert type(out) is float and out == float(value)


def test_entropy_of_a_row_equals_that_of_its_distribution():
    for row in ([0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [1.0 + 5e-10, -5e-10, 0.0, 0.0]):
        assert entropy(row, T2) == entropy(OutcomeDistribution(XX, row), T2)
    assert entropy([1.0 + 5e-10, -5e-10, 0.0, 0.0], T2) == 0.0  # that of [1, 0, 0, 0]


# rows near the simplex, some entries pushed up to 2e-9 past [0, 1] or off the sum
_OFFSETS = st.sampled_from([0.0, 0.0, 0.0, -2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9])


@st.composite
def _rows(draw):
    cuts = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0])
                                | st.floats(0.0, 1.0), min_size=3, max_size=3)))
    row = np.diff([0.0, *cuts, 1.0])
    return row + np.array(draw(st.lists(_OFFSETS, min_size=4, max_size=4)))


def _accepted(build):
    try:
        return build()
    except DomainError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rows(), _rows())
def test_accepted_rows_are_solved_as_stored(x, z):
    """A row OutcomeDistribution accepts passes solve_batch, raw or as stored,
    with the same decision and bits; a row it rejects, solve_batch rejects."""
    dx = _accepted(lambda: OutcomeDistribution(XX, x))
    dz = _accepted(lambda: OutcomeDistribution(ZZ, z))
    raw = _accepted(lambda: solve_batch(x[None], z[None]))
    assert (raw is not None) == (dx is not None and dz is not None)
    if raw is None:
        with pytest.raises(DomainError):
            FeasibilityProblem(x, z)
        return
    assert all(0.0 <= d.p.min() and d.p.max() <= 1.0 for d in (dx, dz))
    stored = solve_batch(dx.p[None], dz.p[None])
    problem = FeasibilityProblem(x, z)
    assert np.array_equal(problem.p_xx, dx.p) and np.array_equal(problem.p_zz, dz.p)
    assert np.array_equal(check_probabilities("x", x, 1), dx.p)
    assert raw[0] == stored[0] and np.array_equal(raw[2], stored[2])
    assert all(a is None and b is None or np.array_equal(a, b) for a, b in zip(raw[1], stored[1]))
