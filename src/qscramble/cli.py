"""Command-line front end.

Exit codes: 0 success, 2 usage or input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import detector, fileio, witness
from .entropy import EntropySpec, all_states_bound_vec, get_separable_boundary, robustness
from .errors import QScrambleError
from .feasibility import MAX_CYCLES, TOL_FEASIBLE, TOL_INFEASIBLE
from .measurement import XX, ZZ, probabilities, scramble_equivalent, scramble_state
from .quantum import plus_zero, singlet


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _entropy_spec(kind: str, parameter: float) -> EntropySpec:
    return EntropySpec(kind, parameter)


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


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
    q = math.inf if str(args.q).lower() in ("inf", "infinity") else float(args.q)
    print(_fmt(robustness(q)))
    return 0


def _cmd_detect(args) -> int:
    payload = json.loads(Path(args.infile).read_text())
    if "rho_re" in payload:
        inp = fileio.read_state(args.infile)
    else:
        inp = fileio.read_probabilities(args.infile).data
    methods = ("sdp", "witness", "entropy") if args.method == "all" else (args.method,)
    spec_x = _entropy_spec(args.entropy, args.qtilde)
    spec_z = _entropy_spec(args.entropy, args.q)
    report = detector.detect(inp, methods, spec_x=spec_x, spec_z=spec_z,
                             tol_feasible=args.tol_feas, tol_infeasible=args.tol_infeas)
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
    stats = detector.scan(args.samples, args.seed, args.scrambled == "true",
                          max_cycles=args.max_cycles,
                          tol_feasible=args.tol_feas, tol_infeasible=args.tol_infeas)
    text = json.dumps(stats.as_dict(), indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_entropy_curve(args) -> int:
    spec_x = _entropy_spec(args.entropy, args.qtilde)
    spec_z = _entropy_spec(args.entropy, args.q)
    # the whole curve is computed before the output is opened, so a failure
    # leaves no partial file behind
    bound = get_separable_boundary(spec_x, spec_z, n=args.resolution, starts=64)
    if spec_x.bound_capable and spec_z.bound_capable:
        ball = [_fmt(v) for v in all_states_bound_vec(bound.grid, spec_x, spec_z)]
    else:
        ball = [""] * len(bound.grid)  # outside the proven regime of the all-states bound
    out = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(["s_xx", "bound_all", "bound_sep", "q", "qtilde", "entropy_kind"])
        writer.writerows([_fmt(s), b, _fmt(v), _fmt(spec_z.parameter),
                          _fmt(spec_x.parameter), spec_x.kind]
                         for s, b, v in zip(bound.grid, ball, bound.values))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_witness_curve(args) -> int:
    curve = witness.optimize_params(args.beta, num=args.resolution)
    out = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(["beta", "alpha", "gamma"])
        for a, g in curve:
            writer.writerow([_fmt(args.beta), _fmt(a), _fmt(g)])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_slice(args) -> int:
    kwargs = {}
    if args.tol_feas is not None:
        kwargs["tol_feasible"] = args.tol_feas
    if args.tol_infeas is not None:
        kwargs["tol_infeasible"] = args.tol_infeas
    points = detector.nonconvex_slice(args.resolution, **kwargs)
    out = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(["p_pp", "p_pm", "possibly_separable"])
        for pt in points:
            writer.writerow([_fmt(pt.p_pp), _fmt(pt.p_pm),
                             "true" if pt.possibly_separable else "false"])
    finally:
        if out is not sys.stdout:
            out.close()
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
_TOL_FEAS_HELP = f"largest row residual of a separable certificate state (default {TOL_FEASIBLE:g})"
_TOL_INFEAS_HELP = (f"least margin -Tr(W rho) a witness needs to prove a problem "
                    f"infeasible (default {TOL_INFEASIBLE:g})")
_MAX_CYCLES_HELP = f"Newton-step budget per feasibility problem (default {MAX_CYCLES})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscramble",
        description="Two-qubit entanglement detection from scrambled measurement data.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the singlet vs |+>|0> data table")

    p = sub.add_parser("detect", help="run detection methods on a state or data file")
    p.add_argument("--in", dest="infile", required=True, help="state or probability JSON")
    p.add_argument("--method", choices=["sdp", "witness", "entropy", "all"], default="all")
    p.add_argument("--q", type=float, default=2.0, help=_Q_HELP)
    p.add_argument("--qtilde", type=float, default=2.0, help=_QTILDE_HELP)
    p.add_argument("--entropy", choices=["shannon", "tsallis", "renyi"], default="tsallis")
    p.add_argument("--tol-feas", type=float, default=None, help=_TOL_FEAS_HELP)
    p.add_argument("--tol-infeas", type=float, default=None, help=_TOL_INFEAS_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="Monte-Carlo detection scan over random states")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scrambled", choices=["true", "false"], default="false")
    p.add_argument("--max-cycles", type=int, default=None, help=_MAX_CYCLES_HELP)
    p.add_argument("--tol-feas", type=float, default=None, help=_TOL_FEAS_HELP)
    p.add_argument("--tol-infeas", type=float, default=None, help=_TOL_INFEAS_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("entropy-curve", help="emit the two entropy bounds on a grid")
    p.add_argument("--q", type=float, default=2.0, help=_Q_HELP)
    p.add_argument("--qtilde", type=float, default=2.0, help=_QTILDE_HELP)
    p.add_argument("--entropy", choices=["shannon", "tsallis", "renyi"], default="tsallis")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", default=None)

    p = sub.add_parser("witness-curve", help="emit the tangent witness parameter curve")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--resolution", type=int, default=33)
    p.add_argument("--out", default=None)

    p = sub.add_parser("nonconvex-slice", help="classify the symmetric data slice")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--tol-feas", type=float, default=None, help=_TOL_FEAS_HELP)
    p.add_argument("--tol-infeas", type=float, default=None, help=_TOL_INFEAS_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("robustness", help="maximal detectable white-noise weight")
    p.add_argument("--q", default="inf")

    sub.add_parser("verify", help="check the paper's counterexample end to end")
    return parser


_DISPATCH = {
    "table1": _cmd_table1,
    "detect": _cmd_detect,
    "scan": _cmd_scan,
    "entropy-curve": _cmd_entropy_curve,
    "witness-curve": _cmd_witness_curve,
    "nonconvex-slice": _cmd_slice,
    "robustness": _cmd_robustness,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (QScrambleError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
