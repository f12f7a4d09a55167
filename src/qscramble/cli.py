"""Command-line front end.

Exit codes: 0 success, 2 usage or input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
# argparse translates its messages through gettext, which imports locale on
# its first call; importing it here keeps that 1-2 ms out of the first command
import locale  # noqa: F401
import sys
from pathlib import Path

import numpy as np

from . import detector, fileio, witness
from .entropy import EntropySpec, all_states_bound_vec, get_separable_boundary, robustness
from .errors import QScrambleError
from .measurement import XX, ZZ, probabilities, scramble_equivalent, scramble_state
from .quantum import plus_zero, singlet


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV to ``path``, or to stdout without one."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_table1(args) -> int:
    states = [("singlet |psi->", singlet().density()),
              ("product |+>|0>", plus_zero().density())]
    rows = []
    for name, rho in states:
        for label in (XX, ZZ):
            p = probabilities(rho, label).p
            rows.append((name, label, *[_fmt(v) for v in p]))
    print(f"{'state':<16}{'setting':<9}p1          p2          p3          p4")
    for row in rows:
        print(f"{row[0]:<16}{row[1]:<9}" + "  ".join(f"{v:<10}" for v in row[2:]))
    d1 = scramble_state(states[0][1])
    d2 = scramble_state(states[1][1])
    same = scramble_equivalent(d1, d2, 1e-12)
    print(f"scrambled data equivalent: {same}")
    return 0 if same else 3


def _cmd_robustness(args) -> int:
    print(_fmt(robustness(float(args.q))))  # float() reads "inf" and "infinity"
    return 0


def _cmd_detect(args) -> int:
    payload = fileio.read_json_object(args.infile)  # one read: the form tested is the form parsed
    if "rho_re" in payload:
        inp = fileio._state_from_payload(payload)
    else:
        inp = fileio._probabilities_from_payload(payload).data
    methods = ("sdp", "witness", "entropy") if args.method == "all" else (args.method,)
    spec_x = EntropySpec(args.entropy, args.qtilde)
    spec_z = EntropySpec(args.entropy, args.q)
    report = detector.detect(inp, methods, spec_x=spec_x, spec_z=spec_z)
    doc = {"overall": report.overall, "methods": dict(report.methods),
           "evidence": report.evidence}
    text = json.dumps(doc, indent=1, default=_json_default)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _cmd_scan(args) -> int:
    stats = detector.scan(args.samples, args.seed, args.scrambled == "true")
    text = json.dumps(stats.as_dict(), indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_entropy_curve(args) -> int:
    spec_x = EntropySpec(args.entropy, args.qtilde)
    spec_z = EntropySpec(args.entropy, args.q)
    # the whole curve is computed before the output is opened, so a failure
    # leaves no partial file behind
    grid, values = get_separable_boundary(spec_x, spec_z, n=args.resolution)
    if spec_x.bound_capable and spec_z.bound_capable:
        ball = [_fmt(v) for v in all_states_bound_vec(grid, spec_x, spec_z)]
    else:
        ball = [""] * len(grid)  # outside the proven regime of the all-states bound
    rows = [[_fmt(s), b, _fmt(v), _fmt(spec_z.parameter), _fmt(spec_x.parameter), spec_x.kind]
            for s, b, v in zip(grid, ball, values)]
    _write_csv(args.out, ["s_xx", "bound_all", "bound_sep", "q", "qtilde", "entropy_kind"], rows)
    return 0


def _cmd_witness_curve(args) -> int:
    curve = witness.optimize_params(args.beta, num=args.resolution)
    _write_csv(args.out, ["beta", "alpha", "gamma"],
               ([_fmt(args.beta), _fmt(a), _fmt(g)] for a, g in curve))
    return 0


def _cmd_slice(args) -> int:
    points = detector.nonconvex_slice(args.resolution)
    _write_csv(args.out, ["p_pp", "p_pm", "possibly_separable"],
               ([_fmt(pt.p_pp), _fmt(pt.p_pm), "true" if pt.possibly_separable else "false"]
                for pt in points))
    return 0


def _cmd_verify(args) -> int:
    report = detector.verify_counterexample()
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        extra = f"  {c.detail}" if (c.detail and not c.passed) else ""
        print(f"[{mark}] {c.name:<{width}}{extra}")
    return 0 if report.all_passed else 3


_Q_HELP = "entropy parameter q of the ZZ (vertical) entropy"
_QTILDE_HELP = "entropy parameter q~ of the XX (horizontal) entropy"


def _entropy_options(p) -> None:
    p.add_argument("--q", type=float, default=2.0, help=_Q_HELP)
    p.add_argument("--qtilde", type=float, default=2.0, help=_QTILDE_HELP)
    p.add_argument("--entropy", choices=["shannon", "tsallis", "renyi"], default="tsallis")


def _detect_options(p) -> None:
    p.add_argument("--in", dest="infile", required=True,
                   help="state or probability JSON; a probability file's yy field is "
                        "accepted but not read (the witness family has beta = 0)")
    p.add_argument("--method", choices=["sdp", "witness", "entropy", "all"], default="all")
    _entropy_options(p)
    p.add_argument("--out", default=None)


def _scan_options(p) -> None:
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scrambled", choices=["true", "false"], default="false")
    p.add_argument("--out", default=None)


def _entropy_curve_options(p) -> None:
    _entropy_options(p)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", default=None)


def _witness_curve_options(p) -> None:
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--resolution", type=int, default=33)
    p.add_argument("--out", default=None)


def _slice_options(p) -> None:
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--out", default=None)


def _robustness_options(p) -> None:
    p.add_argument("--q", default="inf")


# name -> (help, options or None, handler), in the order the usage lists them
_COMMANDS = {
    "table1": ("print the singlet vs |+>|0> data table", None, _cmd_table1),
    "detect": ("run detection methods on a state or data file", _detect_options, _cmd_detect),
    "scan": ("Monte-Carlo detection scan over random states", _scan_options, _cmd_scan),
    "entropy-curve": ("emit the two entropy bounds on a grid", _entropy_curve_options,
                      _cmd_entropy_curve),
    "witness-curve": ("emit the tangent witness parameter curve", _witness_curve_options,
                      _cmd_witness_curve),
    "nonconvex-slice": ("classify the symmetric data slice", _slice_options, _cmd_slice),
    "robustness": ("maximal detectable white-noise weight", _robustness_options,
                   _cmd_robustness),
    "verify": ("check the paper's counterexample end to end", None, _cmd_verify),
}


def _parser(names) -> argparse.ArgumentParser:
    """The top-level parser with the subcommands ``names`` of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="qscramble",
        description="Two-qubit entanglement detection from scrambled measurement data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, options, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if options is not None:
            options(p)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named subcommand's
    parser where that one parses all of ``argv``.  Its errors and help are the
    full parser's, as that hands the same words to the same subparser; unknown
    words are reported by the full parser, whose usage lists every command."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _parser([argv[0]]).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][2](args)
    except (QScrambleError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
