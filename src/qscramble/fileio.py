"""JSON file formats for states and probability data.

State files: {"rho_re": [[...]], "rho_im": [[...]]} with 4x4 row-major
entries in the computational basis.  Probability files: {"xx": [p1..p4],
"zz": [...], "yy": [... optional], "scrambled": bool}; when scrambled is
true the array order is meaningless and canonicalized on load.  ``yy`` is
validated and carried in the loaded data, but no ``detect`` method reads
it: the sdp and entropy routes use XX and ZZ only, and ``detect`` evaluates
only the beta = 0 witness family, which has no YY term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, check_numbers
from .measurement import XX, YY, ZZ, OutcomeDistribution, ScrambledData, scramble
from .quantum import DensityMatrix


def write_state(path, rho: DensityMatrix) -> None:
    payload = {
        "rho_re": rho.matrix.real.tolist(),
        "rho_im": rho.matrix.imag.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def read_json_object(path) -> dict:
    """The JSON object a state or probability file holds."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise DomainError(f"the file must hold a JSON object, got {type(payload).__name__}")
    return payload


def read_state(path) -> DensityMatrix:
    """Parse and fully validate a state file; diagnostics name the violated invariant."""
    return _state_from_payload(read_json_object(path))


def _state_from_payload(payload: dict) -> DensityMatrix:
    for key in ("rho_re", "rho_im"):
        if key not in payload:
            raise DomainError(f"state file is missing the {key!r} field")
    re = check_numbers("field 'rho_re'", payload["rho_re"])
    im = check_numbers("field 'rho_im'", payload["rho_im"])
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise DomainError(f"state file arrays must be 4x4, got {re.shape} and {im.shape}")
    return DensityMatrix.from_matrix(re + 1j * im)


@dataclass(frozen=True)
class ProbabilityFile:
    """Parsed probability data; ``dists`` is None when the file was scrambled."""

    data: ScrambledData
    dists: list[OutcomeDistribution] | None


_KEY_FOR = {"xx": XX, "zz": ZZ, "yy": YY}


def write_probabilities(path, dists=None, data: ScrambledData | None = None) -> None:
    if (dists is None) == (data is None):
        raise DomainError("pass exactly one of labeled distributions or scrambled data")
    payload: dict = {"scrambled": data is not None}
    if dists is not None:
        for d in dists:
            payload[d.setting.lower()] = d.p.tolist()
    else:
        for label in data.settings:
            payload[label.lower()] = data.multiset(label).tolist()
    Path(path).write_text(json.dumps(payload, indent=1))


def read_probabilities(path) -> ProbabilityFile:
    return _probabilities_from_payload(read_json_object(path))


def _probabilities_from_payload(payload: dict) -> ProbabilityFile:
    scrambled = payload.get("scrambled", False)
    if not isinstance(scrambled, bool):
        raise DomainError(f"field 'scrambled' must be true or false, got {scrambled!r}")
    arrays: dict[str, np.ndarray] = {}
    for key, label in _KEY_FOR.items():
        if key in payload:
            arr = check_numbers(f"field {key!r}", payload[key])
            if arr.shape != (4,):
                raise DomainError(f"field {key!r} must hold 4 probabilities")
            arrays[label] = arr
    if XX not in arrays or ZZ not in arrays:
        raise DomainError("probability file needs at least the 'xx' and 'zz' fields")
    if scrambled:
        return ProbabilityFile(ScrambledData(arrays), None)
    dists = [OutcomeDistribution(label, arr) for label, arr in arrays.items()]
    return ProbabilityFile(scramble(dists), dists)
