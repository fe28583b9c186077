"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json ten times, on seeds 1 to 10, for its
``run_seconds``, and prints for every end-to-end metric its median and its
spread (the distance between the first and third quartile as a share of
the median) beside the metric's bound.  Then it runs each workload once
more per ``PYTHONHASHSEED`` in (0, 1), untraced and traced on the same
seed, and checks that ``rec_nodes`` and every per-layer ``.calls`` count
repeat exactly.  Exits 1 if a run fails or has a failed operation, a
spread reaches its bound, or a count does not repeat.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
RUNS = 10


def run_once(spec, workload: str, seed: int, seconds, trace: int, hash_seed=None) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"steady: {' '.join(cmd)} reported wrong output")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        results = [run_once(spec, name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"{name}: {RUNS} runs of {seconds} s, {failed} failed operations")
        if failed:
            ok = False
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            bound = metric["bound"]
            verdict = "ok" if s < bound / 3 else "within bound" if s < bound else "TOO WIDE"
            if s >= bound:
                ok = False
            print(f"  {metric['name']:14s} median {statistics.median(values):12.4f} "
                  f"{metric['unit']:6s} spread {s:7.2%}  bound {bound:5.0%}  {verdict}")
        counts = {}
        for hash_seed in (0, 1):
            plain = run_once(spec, name, 1, seconds, 0, hash_seed)
            traced = run_once(spec, name, 1, seconds, 1, hash_seed)
            found = {"rec_nodes": plain["metrics"]["rec_nodes"]["value"]}
            found.update({k: v["value"] for k, v in traced["metrics"].items()
                          if ".calls" in k})
            counts[hash_seed] = found
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        whole = all(float(v).is_integer() for v in counts[0].values())
        if differ or not whole:
            ok = False
        print(f"  counts across PYTHONHASHSEED 0 and 1: "
              f"{'differ in ' + ', '.join(differ) if differ else 'identical'}"
              f"{'' if whole else ' (some are not whole per round)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
