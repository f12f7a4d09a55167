import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qscramble import cli
from qscramble.cli import build_parser, main
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


def test_probability_file_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    from qscramble.errors import DomainError
    with pytest.raises(DomainError, match="JSON object, got list"):
        read_probabilities(path)
    for payload in ("[1, 2, 3]", "5", "null"):
        path.write_text(payload)
        assert main(["detect", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert "JSON object" in captured.err and captured.out == ""


def test_probability_file_scrambled_must_be_boolean(tmp_path, capsys):
    path = tmp_path / "probs.json"
    path.write_text(json.dumps({"xx": [0.25] * 4, "zz": [0.25] * 4, "scrambled": "false"}))
    from qscramble.errors import DomainError
    with pytest.raises(DomainError, match="'scrambled' must be true or false"):
        read_probabilities(path)
    assert main(["detect", "--in", str(path), "--method", "sdp"]) == 2
    assert "scrambled" in capsys.readouterr().err


def test_cli_detect_rejects_nan_probabilities(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"xx": [NaN, 0.5, 0.25, 0.25], "zz": [0.25, 0.25, 0.25, 0.25], '
                    '"scrambled": true}')  # json.loads accepts the bare NaN literal
    assert main(["detect", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "non-finite" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("kind", ["state", "probabilities"])
def test_cli_detect_reads_the_file_once(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "in.json"
    if kind == "state":
        write_state(path, singlet().density())
    else:
        path.write_text(json.dumps({"xx": [0.25] * 4, "zz": [0.25] * 4, "scrambled": True}))
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)
    monkeypatch.setattr(Path, "read_text", counted)
    assert main(["detect", "--in", str(path), "--method", "witness"]) == 0
    assert reads == [path]


def test_cli_detect_q_roles(tmp_path, capsys):
    # --qtilde is the XX (horizontal) entropy parameter and --q the ZZ
    # (vertical) one, as in entropy-curve
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


def test_cli_detect_without_sdp_is_never_possibly_separable(tmp_path, capsys):
    # the counterexample data: entropy does not detect it, sdp and witness do
    path = tmp_path / "cx.json"
    m = [0.6875] + [0.10416666666666667] * 3
    path.write_text(json.dumps({"xx": m, "zz": m, "scrambled": True}))
    for method, verdict, overall in (("entropy", "not_detected", "not_detected"),
                                     ("sdp", "detected", "detected"),
                                     ("witness", "detected", "detected")):
        assert main(["detect", "--in", str(path), "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["methods"], doc["overall"]) == ({method: verdict}, overall)


def test_cli_detect_missing_file(capsys):
    assert main(["detect", "--in", "/nonexistent/state.json"]) == 2


def test_cli_usage_error():
    assert main(["detect"]) == 2  # --in required
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["table1", "extra"], ["detect", "--in", "x", "extra"], ["detect"],
    ["detect", "--in", "x", "--method", "nope"], ["scan", "--samples", "x"],
    ["nonconvex-slice", "--resolution"], *([c, "-h"] for c in cli._COMMANDS),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_usage_and_help_are_the_full_parsers(argv, capsys):
    # main builds one subcommand's parser where it can; every help, usage and
    # error text and exit code must still be the full parser's
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (int(full.value.code or 0), want.out, want.err)


def test_main_reads_sys_argv_as_the_console_script_does(monkeypatch, capsys):
    # the installed qscramble script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["qscramble", "robustness", "--q", "inf"])
    assert main() == 0
    assert capsys.readouterr().out.strip().startswith("0.0202459397")
    monkeypatch.setattr(sys, "argv", ["qscramble", "table1", "extra"])
    assert main() == 2
    err = capsys.readouterr().err
    assert "{table1,detect,scan," in err and "unrecognized arguments: extra" in err


def test_cli_rejects_retired_solver_flags(tmp_path, capsys):
    # the solver tolerances and step budget are constants, not options
    path = tmp_path / "state.json"
    write_state(path, singlet().density())
    for argv in (["scan", "--max-cycles", "5"],
                 ["detect", "--in", str(path), "--tol-feas", "1e-3"],
                 ["nonconvex-slice", "--tol-infeas", "1e-3"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


def test_cli_entropy_curve_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    from qscramble import cli
    from qscramble.errors import ConvergenceFailure

    def fail(*args, **kwargs):
        raise ConvergenceFailure("separable boundary: starts disagree")
    monkeypatch.setattr(cli, "get_separable_boundary", fail)
    assert main(["entropy-curve", "--resolution", "5"]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "curve.csv"
    assert main(["entropy-curve", "--resolution", "5", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_entropy_curve_rejects_bad_resolution(capsys):
    for resolution in ("1", "0", "-3"):
        assert main(["entropy-curve", "--resolution", resolution]) == 2
        captured = capsys.readouterr()
        assert "resolution" in captured.err and captured.out == ""


@pytest.mark.parametrize("args", [
    ["--entropy", "shannon"],
    ["--entropy", "tsallis", "--q", "1.5", "--qtilde", "1.5", "--resolution", "9"],
    ["--entropy", "renyi", "--q", "0.5", "--qtilde", "0.5", "--resolution", "9"],
])
def test_cli_entropy_curve_outside_the_bound_regime(args, capsys):
    assert main(["entropy-curve", *args]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    n = int(args[-1]) if "--resolution" in args else 64
    bound = np.array([float(r[2]) for r in rows])
    assert len(rows) == n and np.all(np.isfinite(bound))
    # decreasing from the maximal ZZ entropy down to 0
    assert bound[-1] == 0.0 and np.all(np.diff(bound) < 0)


def test_cli_witness_curve(tmp_path):
    out = tmp_path / "wc.csv"
    assert main(["witness-curve", "--resolution", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,alpha,gamma"
    mid = lines[3].split(",")
    assert float(mid[1]) == pytest.approx(8 * np.sqrt(2) - 12, abs=1e-6)


def test_cli_witness_curve_rejects_bad_resolution(capsys):
    for resolution in ("0", "-1"):
        assert main(["witness-curve", "--resolution", resolution]) == 2
        captured = capsys.readouterr()
        assert "resolution" in captured.err and captured.out == ""


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


_NO_SCIPY = """
import json, sys

blocked = []


class NoScipy:
    # a meta path finder that makes scipy unimportable and records each attempt
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from qscramble.cli import main

m = [0.6875] + [0.10416666666666667] * 3
json.dump({"xx": m, "zz": m, "scrambled": True}, open(sys.argv[1], "w"))
for argv in (["verify"], ["detect", "--in", sys.argv[1]],
             ["detect", "--in", sys.argv[1], "--entropy", "renyi", "--q", "3"],
             ["entropy-curve", "--entropy", "renyi", "--q", "3", "--qtilde", "2",
              "--resolution", "9"],
             ["witness-curve", "--resolution", "3"], ["nonconvex-slice", "--resolution", "8"],
             ["scan", "--samples", "200", "--scrambled", "true"], ["robustness", "--q", "2"],
             ["table1"]):
    assert main(argv) == 0, argv
assert not blocked, blocked
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""


def test_a_fresh_interpreter_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: the L-BFGS oracle lives in tests/oracle.py
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path / "cx.json")],
                          env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_a_cold_detect_prints_what_a_warm_one_does(tmp_path, capsys):
    # a fresh process builds the relabeling tables and the separable boundary
    # itself; its output must be byte for byte that of a warm in-process call
    path = tmp_path / "cx.json"
    m = [0.6875] + [0.10416666666666667] * 3
    path.write_text(json.dumps({"xx": m, "zz": m, "scrambled": True}))
    argv = ["detect", "--in", str(path), "--method", "all"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "qscramble.cli", *argv],
                          env={"PYTHONPATH": src}, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == warm.encode()


_COLD_DETECT = """
import argparse, sys

added, built = [], []
add_parser = argparse._SubParsersAction.add_parser


def counted(self, name, **kwargs):
    added.append(name)
    return add_parser(self, name, **kwargs)


argparse._SubParsersAction.add_parser = counted
from qscramble import cli, witness


def refuse(*args, **kwargs):
    built.append(args)
    raise AssertionError("a cold detect must not build the tangent curve")


witness.optimize_params = witness._separable_min = refuse
code = cli.main(["detect", "--in", sys.argv[1], "--method", "all"])
assert (code, added, built) == (0, ["detect"], []), (code, added, built)
"""


def test_a_cold_detect_builds_one_parser_and_no_curve(tmp_path, capsys):
    # a fresh process answers detect from the tangent table and the detect
    # subparser alone, and prints what the full parser does (the table is
    # optimize_params' curve bit for bit: test_the_tangent_table_is_optimize_params)
    path = tmp_path / "cx.json"
    m = [0.6875] + [0.10416666666666667] * 3
    path.write_text(json.dumps({"xx": m, "zz": m, "scrambled": True}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _COLD_DETECT, str(path)],
                          env={"PYTHONPATH": src}, capture_output=True)
    assert done.returncode == 0, done.stderr
    args = build_parser().parse_args(["detect", "--in", str(path), "--method", "all"])
    assert cli._COMMANDS[args.command][2](args) == 0
    assert done.stdout == capsys.readouterr().out.encode()
