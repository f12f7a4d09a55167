"""Pinned outputs of the command-line interface, run in-process through
``cli.main``: the same hashes, verdicts and tolerances as a shell call of
``qscramble <command>``, which prints the same bytes.

Each table holds one kind of pin, one line per command line.  Every
subcommand of the parser has a line in a table or a ``test_<command>_``
test below (:func:`test_every_subcommand_is_pinned`).
"""

import argparse
import csv
import hashlib
import io
import json
import math

import pytest

from qscramble import ProductStateParams, fileio, product_state, psi_t, star_convexity_ray
from qscramble.cli import build_parser, main
from qscramble.detector import counterexample_mixture, rho1

COUNTEREXAMPLE = [0.6875] + [0.10416666666666667] * 3  # (33, 5, 5, 5) / 48

# argv -> sha256 of stdout
SHA256 = {
    "table1": "507713c15764c832ff4f2d581b9b452b5292e3a6839fbe35f07fed542d17d54d",
    "verify": "06e802e4db374da7fb1bc9f6d4830694eba2b95eac52a43971e0414815671a6d",
    "witness-curve --beta -0.3 --resolution 3":
        "182c4b7bc44c5e0e12106e1b1c32ef371b6b8fc61d94e8b9bfca854130bee615",
    "witness-curve --beta 0.4 --resolution 3":
        "616e4e91fec3359cc5f2b189ee38f8a933243bf4674b4afbbad057710c19c88d",
    "witness-curve --beta 0.4": "e4ddd380494db260a6ff64f25be83b1b633e811359d6b31b13f183e4dc3f0e68",
    "witness-curve": "3b1907ca4797d16331c7598b41921930d74c90af421e32a8812abe5aecc5678c",
    "entropy-curve": "34875e4d6558b334fd0c684a626fd8de064613017029060e134da76dd1924e52",
    "entropy-curve --entropy renyi --q 3 --qtilde 2 --resolution 9":
        "b4be3b0bb2a6594f425f0c6b01d3376c694f976175e8565c40b0412fa28833e6",
    "entropy-curve --entropy shannon":
        "563515c10b35c8be9b8d377bda679faa4268f0fe0f328146f90529acd22b1974",
    "entropy-curve --entropy tsallis --q 1.5 --qtilde 1.5 --resolution 9":
        "7c1811ea39ade567caa919fadce0f28aa9962db763d4844022360b7bf5f4012e",
}

# argv -> (sha256 of stdout, (rows, possibly separable, not))
SLICES = {
    "nonconvex-slice --resolution 8":
        ("d3c7177d66af093bd77c5e8fc44a669389cbb03971df744d07738101f36a1003", (100, 78, 22)),
    "nonconvex-slice --resolution 16":
        ("85a6d22b90014b02a8eb568a103ec7c713615b1032f282ae2ecc4ff2134315c3", (200, 138, 62)),
    "nonconvex-slice --resolution 32":
        ("60d51ce4b9dd8eb88b101ac3530a7332e96362e87da397716e3c8a813ce23024", (592, 412, 180)),
    "nonconvex-slice --resolution 64":
        ("83da4a150b866a770c6abf7cf54e76e1f0a798c81542a178de378077ef91d91d", (2144, 1534, 610)),
}

# argv -> (detected in the scan's mode, inconclusive)
SCANS = {
    "scan --samples 20000 --seed 1": (237, 0),
    "scan --samples 20000 --seed 1 --scrambled true": (1, 0),
    "scan --samples 100000 --seed 314159265": (1272, 0),
    "scan --samples 100000 --seed 314159265 --scrambled true": (1, 0),
    "scan --samples 100000 --seed 107": (1232, 0),
    "scan --samples 100000 --seed 107 --scrambled true": (5, 0),
}


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _detect(capsys, path, *options) -> dict:
    return json.loads(_stdout(capsys, ["detect", "--in", str(path), *options]))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(SHA256))
def test_stdout_sha256_pin(capsys, argv):
    assert _sha256(_stdout(capsys, argv.split())) == SHA256[argv]


@pytest.mark.parametrize("argv", list(SLICES))
def test_nonconvex_slice_pin(capsys, argv):
    out = _stdout(capsys, argv.split())
    r = [row["possibly_separable"] for row in csv.DictReader(io.StringIO(out, newline=""))]
    digest, counts = SLICES[argv]
    assert (len(r), r.count("true"), r.count("false")) == counts
    assert _sha256(out) == digest


@pytest.mark.parametrize("argv", list(SCANS))
def test_scan_pin(capsys, argv):
    s = json.loads(_stdout(capsys, argv.split()))
    mode = "scrambled" if "--scrambled true" in argv else "unscrambled"
    assert (s[f"detected_{mode}"], s["inconclusive"]) == SCANS[argv], s


def test_robustness_q2_pin(capsys):
    assert _stdout(capsys, ["robustness", "--q", "2"]) == "0.0131079137313\n"


def test_star_convexity_ray_pins():
    lam = (star_convexity_ray(counterexample_mixture(), 2**20),
           star_convexity_ray(psi_t(3).density(), 2**20))
    assert lam == (0.857147216796875, 0.7500038146972656)


def test_detect_counterexample_data_pin(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"xx": COUNTEREXAMPLE, "zz": COUNTEREXAMPLE, "scrambled": True}))
    d = _detect(capsys, path)
    methods = {"sdp": "detected", "witness": "detected", "entropy": "not_detected"}
    assert (d["overall"], d["methods"]) == ("detected", methods), d
    bound = d["evidence"]["entropy"]["separable_bound"]
    assert abs(bound - 0.377117729227137) <= 1e-12, bound

    d = _detect(capsys, path, "--method", "sdp")
    e = d["evidence"]["sdp"]
    assert (d["overall"], e["statuses"], e["permutation"]) == \
        ("detected", ["infeasible"] * 18, None), d
    assert max(abs(v - 1 / 24) for v in e["residuals"]) <= 1e-12, e


def test_detect_psi3_entropy_pin(tmp_path, capsys):
    path = tmp_path / "psi3.json"
    fileio.write_state(path, psi_t(3).density())
    d = _detect(capsys, path, "--method", "entropy")
    assert (d["overall"], d["methods"]) == ("detected", {"entropy": "detected"}), d
    e = d["evidence"]["entropy"]
    # the grid detects psi_3, so its bound is the closed form at its own s_xx
    pins = {"s_xx": 0.41666666666666663, "s_zz": 0.4166666666666661,
            "separable_bound": 0.457954514144587}
    assert all(abs(e[k] - v) <= 1e-12 for k, v in pins.items()), e


def test_detect_zero_entropy_sign_pin(tmp_path, capsys):
    path = tmp_path / "zero.json"
    fileio.write_state(path, product_state(ProductStateParams(0, 0)).density())
    d = _detect(capsys, path, "--method", "entropy", "--entropy", "renyi", "--q", "3",
                "--qtilde", "3")
    e = d["evidence"]["entropy"]
    assert d["methods"] == {"entropy": "not_detected"}, d
    assert e["s_zz"] == 0.0 and math.copysign(1.0, e["s_zz"]) == 1.0, e
    assert abs(e["s_xx"] - 2.000000000000001) <= 1e-12 and abs(e["separable_bound"]) <= 1e-12, e


def test_detect_rho1_sdp_pin(tmp_path, capsys):
    path = tmp_path / "rho1.json"
    fileio.write_state(path, rho1())
    d = _detect(capsys, path, "--method", "sdp")
    e = d["evidence"]["sdp"]
    identity = {"pi_x": [0, 1, 2, 3], "pi_z": [0, 1, 2, 3]}
    assert (d["overall"], e["permutation"]) == ("possibly_separable", identity), d
    assert e["statuses"] == ["feasible" if i in (0, 2) else "infeasible" for i in range(18)], e
    assert all(math.copysign(1.0, v) == 1.0 for v in e["residuals"]), e


def test_detect_band_row_is_read_as_its_clipped_copy(tmp_path, capsys):
    z = [0.5, 0.0, 0.5, 0.0]
    band, clipped = tmp_path / "band.json", tmp_path / "band_clipped.json"
    band.write_text(json.dumps({"xx": [0.5, 0.5, -5e-10, 0.0], "zz": z}))
    clipped.write_text(json.dumps({"xx": [0.5, 0.5, 0.0, 0.0], "zz": z}))
    out = _stdout(capsys, ["detect", "--in", str(band), "--method", "sdp"])
    assert out == _stdout(capsys, ["detect", "--in", str(clipped), "--method", "sdp"])
    d = json.loads(out)
    assert (d["overall"], "state" in d["evidence"]["sdp"]) == ("possibly_separable", True), d


def test_detect_unnormalized_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps({"xx": [0.6, 0.6, 0.0, 0.0], "zz": [0.25] * 4}))
    assert main(["detect", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sums to" in err[0], err
    assert captured.out == ""


def test_every_subcommand_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    tests = [name for name in globals() if name.startswith("test_")]
    unpinned = [c for c in sub.choices
                if not any(argv.split()[0] == c for t in (SHA256, SLICES, SCANS) for argv in t)
                and not any(name.startswith(f"test_{c.replace('-', '_')}_") for name in tests)]
    assert not unpinned
