"""Pinned outputs of the command-line interface, run in-process through
``cli.main``: the same hashes, verdicts and tolerances as a shell call of
``qscramble <command>``, which prints the same bytes."""

import hashlib
import json

from qscramble import fileio, psi_t
from qscramble.cli import main

COUNTEREXAMPLE = [0.6875] + [0.10416666666666667] * 3  # (33, 5, 5, 5) / 48


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_entropy_curve_default_pin(capsys):
    out = _stdout(capsys, ["entropy-curve"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "34875e4d6558b334fd0c684a626fd8de064613017029060e134da76dd1924e52"


def test_detect_counterexample_data_pin(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"xx": COUNTEREXAMPLE, "zz": COUNTEREXAMPLE, "scrambled": True}))
    d = json.loads(_stdout(capsys, ["detect", "--in", str(path)]))
    methods = {"sdp": "detected", "witness": "detected", "entropy": "not_detected"}
    assert (d["overall"], d["methods"]) == ("detected", methods), d
    bound = d["evidence"]["entropy"]["separable_bound"]
    assert abs(bound - 0.377117729227137) <= 1e-12, bound


def test_detect_psi3_entropy_pin(tmp_path, capsys):
    path = tmp_path / "psi3.json"
    fileio.write_state(path, psi_t(3).density())
    d = json.loads(_stdout(capsys, ["detect", "--in", str(path), "--method", "entropy"]))
    assert (d["overall"], d["methods"]) == ("detected", {"entropy": "detected"}), d
    e = d["evidence"]["entropy"]
    pins = {"s_xx": 0.41666666666666663, "s_zz": 0.4166666666666661,
            "separable_bound": 0.45794307219343017}
    assert all(abs(e[k] - v) <= 1e-12 for k, v in pins.items()), e
