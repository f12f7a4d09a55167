"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced with ``--tiny``, and checks that each
prints one result line with every metric BENCHMARK.json names, in its unit,
and passes its output checks.  Then checks that the benchmark fails, without
printing a result, in a directory that holds only BENCHMARK.json and this
directory.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        bad.append(f"{where}: output checks failed\n{proc.stderr}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted
            and attempted >= 1):
        bad.append(f"{where}: attempted {attempted!r}, failed {failed!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        bad.append(f"{where}: metrics {sorted(metrics)} instead of {sorted(wanted)}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != wanted.get(name) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value < 0:
            bad.append(f"{where}: metric {name} = {m}")
    return bad


def check_bare() -> list[str]:
    """Without the package sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "scan-hs", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = check_bare()
    for w in spec["workloads"]:
        for trace in (0, 1):
            bad += check_result(spec, w["name"], trace)
    for b in bad:
        print(f"FAIL {b}", file=sys.stderr)
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
