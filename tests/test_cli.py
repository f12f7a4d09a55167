import json

import numpy as np
import pytest

from qscramble.cli import main
from qscramble.fileio import (read_probabilities, read_state, write_probabilities,
                              write_state)
from qscramble.measurement import XX, ZZ, probabilities
from qscramble.quantum import random_hs_state, singlet


def test_state_file_round_trip(tmp_path):
    rho = random_hs_state(17)
    path = tmp_path / "state.json"
    write_state(path, rho)
    back = read_state(path)
    assert np.array_equal(back.matrix, rho.matrix)


def test_state_file_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "rho_re": np.diag([1.5, -0.5, 0, 0]).tolist(),
        "rho_im": np.zeros((4, 4)).tolist(),
    }))
    from qscramble.errors import InvalidState
    with pytest.raises(InvalidState, match="positive semidefinite"):
        read_state(path)


def test_probability_file_round_trip(tmp_path):
    rho = singlet().density()
    dists = [probabilities(rho, XX), probabilities(rho, ZZ)]
    path = tmp_path / "probs.json"
    write_probabilities(path, dists=dists)
    parsed = read_probabilities(path)
    assert parsed.dists is not None
    for orig, back in zip(dists, parsed.dists):
        assert np.array_equal(orig.p, back.p)

    write_probabilities(path, data=parsed.data)
    again = read_probabilities(path)
    assert again.dists is None
    assert np.array_equal(again.data.multiset(XX), parsed.data.multiset(XX))


def test_probability_file_scrambled_canonicalizes(tmp_path):
    path = tmp_path / "probs.json"
    path.write_text(json.dumps({"xx": [0.1, 0.5, 0.15, 0.25],
                                "zz": [0.0, 0.25, 0.5, 0.25],
                                "scrambled": True}))
    parsed = read_probabilities(path)
    assert np.array_equal(parsed.data.multiset(XX), [0.5, 0.25, 0.15, 0.1])


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "scrambled data equivalent: True" in out


def test_cli_robustness(capsys):
    assert main(["robustness", "--q", "inf"]) == 0
    assert capsys.readouterr().out.strip().startswith("0.0202459397")
    assert main(["robustness", "--q", "1.2"]) == 2  # below the valid regime


def test_cli_detect_state_file(tmp_path, capsys, boundary_22):
    path = tmp_path / "singlet.json"
    write_state(path, singlet().density())
    assert main(["detect", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "possibly_separable"
    assert list(doc["methods"]) == ["sdp", "witness", "entropy"]


def test_cli_detect_probability_file(tmp_path, capsys):
    path = tmp_path / "mix.json"
    m = (np.array([5, 5, 5, 33]) / 48.0).tolist()
    path.write_text(json.dumps({"xx": m, "zz": m, "scrambled": True}))
    assert main(["detect", "--in", str(path), "--method", "sdp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "detected"
    assert doc["methods"]["sdp"] == "detected"


def test_cli_detect_q_roles(tmp_path, capsys, monkeypatch):
    # --qtilde is the XX (horizontal) entropy parameter and --q the ZZ
    # (vertical) one, as in entropy-curve; a flat stub boundary keeps the test
    # from building the q = 3 separable boundaries, which play no part here
    import importlib
    from qscramble import detector
    from qscramble.entropy import SeparableBoundary, max_entropy
    entropy_module = importlib.import_module("qscramble.entropy")

    def flat(spec_x, spec_z):
        return SeparableBoundary(spec_x, spec_z, np.array([0.0, max_entropy(spec_x)]),
                                 np.zeros(2))
    monkeypatch.setattr(detector, "get_separable_boundary", flat)
    monkeypatch.setattr(entropy_module, "get_separable_boundary", flat)
    rho = random_hs_state(17)
    path = tmp_path / "state.json"
    write_state(path, rho)
    assert main(["detect", "--in", str(path), "--method", "entropy",
                 "--q", "3", "--qtilde", "2"]) == 0
    ev = json.loads(capsys.readouterr().out)["evidence"]["entropy"]
    p_xx = probabilities(rho, XX).p
    p_zz = probabilities(rho, ZZ).p
    assert ev["s_xx"] == pytest.approx(1.0 - np.sum(p_xx ** 2), abs=1e-12)
    assert ev["s_zz"] == pytest.approx((1.0 - np.sum(p_zz ** 3)) / 2.0, abs=1e-12)


def test_cli_detect_missing_file(capsys):
    assert main(["detect", "--in", "/nonexistent/state.json"]) == 2


def test_cli_usage_error():
    assert main(["detect"]) == 2  # --in required
    assert main(["frobnicate"]) == 2


def test_cli_scan_deterministic(tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(["scan", "--samples", "120", "--seed", "4", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["scan", "--samples", "120", "--seed", "4", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    doc = json.loads(out1.read_text())
    assert doc["samples"] == 120


def test_cli_entropy_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["entropy-curve", "--resolution", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s_xx,bound_all,bound_sep,q,qtilde,entropy_kind"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.75, abs=1e-9)


def test_cli_entropy_curve_shannon_has_no_all_states_bound(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["entropy-curve", "--entropy", "shannon", "--resolution", "3",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert all(r[1] == "" for r in rows)
    assert all(r[5] == "shannon" for r in rows)


def test_cli_witness_curve(tmp_path):
    out = tmp_path / "wc.csv"
    assert main(["witness-curve", "--resolution", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,alpha,gamma"
    mid = lines[3].split(",")
    assert float(mid[1]) == pytest.approx(8 * np.sqrt(2) - 12, abs=1e-6)


def test_cli_nonconvex_slice(tmp_path):
    out = tmp_path / "slice.csv"
    assert main(["nonconvex-slice", "--resolution", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p_pp,p_pm,possibly_separable"
    assert len(lines) > 20


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
