"""qscramble benchmark: one workload, timed from outside the package.

    python3 bench/run.py --workload {scan-hs,scan-scrambled,slice,detect}
                         --seed N --seconds S --trace {0,1}

The workload runs in a child process (``worker.py``).  Set-up time is the
median over that child and ``SETUPS - 1`` earlier children that only import
the package and build the inputs.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
DEADLINE_S = 170.0
START = perf_counter()


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []) + extra
    t0 = perf_counter()
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True), t0


def read_setup(proc: subprocess.Popen, t0: float) -> tuple[float, float]:
    """Seconds from starting the child to its READY line, raw and rescaled by
    the speed factor the child reports next."""
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
    scale = proc.stdout.readline().split()
    if len(scale) != 2 or scale[0] != "SCALE":
        raise RuntimeError(f"worker did not report its speed (exit {proc.wait()})")
    return setup, setup * float(scale[1])


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = []
    for _ in range(SETUPS - 1):
        proc, t0 = start_worker(args, ["--setup-only"])
        try:
            setups.append(read_setup(proc, t0))
            proc.communicate(timeout=30)
        finally:
            stop(proc)
    proc, t0 = start_worker(args, [])
    try:
        setups.append(read_setup(proc, t0))
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - START)))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    values = dict(result["end_to_end"], setup_s=statistics.median(s for _, s in setups))
    cold = "" if result["cold_s"] is None else \
        f"cold call {result['cold_s']['scaled']:.4g} s ({result['cold_s']['raw']:.4g} s unscaled), "
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, {cold}"
          + ", ".join(f"{k} {v:.6g}" for k, v in values.items())
          + f"; unscaled: call_ms {result['raw']['call_ms']:.6g}, "
          + f"setup_s {statistics.median(r for r, _ in setups):.6g}", file=sys.stderr)
    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["scan-hs", "scan-scrambled", "slice", "detect"],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args()
    if not (ROOT / "src" / "qscramble" / "__init__.py").is_file():
        print(f"error: no qscramble sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
