"""costrec end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed list of operations in whole rounds until the timed
operations add up to ``--seconds``, checks every output against its oracle,
and prints one JSON object as the last line of standard output.  Times
in the end-to-end metrics are scaled to a reference machine speed by a
calibration loop timed around each step (see perfbench/README.md).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it first
runs untraced rounds for half the time, then the same number of traced
rounds, and reports the per-layer metrics and the tracing overhead.  Spans
and per-operation latencies go to ``perfbench/out/``.

Exit codes: 0 when every output is correct, 1 when a check fails or an
operation raises, 2 when the benchmark cannot run (no costrec sources next
to it, or a bad argument).
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
CALIBRATION_WARMUPS = 5
# The speed of a shared virtual machine can move by half in phases of
# seconds, which moves whole runs by 10-15 %.  So every timed step is scaled
# by a calibration loop run just before and after it: a reported time is
# what the step would take on a machine where the loop takes this long
# (about its median on a shared 2-vCPU virtual machine, Python 3.11).
CALIBRATION_REF_S = 4.0e-3
CALIBRATION_LEAVES = 4096


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left, self.right, self.value = left, right, value


def calibration_s() -> float:
    """Time of a fixed pure-Python loop that builds a tree of small objects
    and walks it into a dict, like the program's own term traversals.  The
    collector is off, so no collection of the program's heap lands in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        level = [_Node(None, None, i) for i in range(CALIBRATION_LEAVES)]
        while len(level) > 1:
            level = [_Node(level[i], level[i + 1], i) for i in range(0, len(level), 2)]
        seen = {}
        stack = [level[0]]
        while stack:
            node = stack.pop()
            seen[id(node)] = node.value
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """(result, raw seconds, seconds at the reference machine speed)."""
    before = calibration_s()
    start = perf_counter()
    result = fn()
    took = perf_counter() - start
    after = calibration_s()
    return result, took, took * CALIBRATION_REF_S * 2 / (before + after)


def set_up(workload: str, seed: int):
    """Import costrec and the workloads afresh, then build the workload's
    inputs.  Imports come from the sources beside the benchmark, never from
    an installed copy.
    """
    for name in [n for n in sys.modules if n == "costrec" or n.startswith("costrec.")]:
        del sys.modules[name]
    sys.modules.pop("workloads", None)
    try:
        import costrec
    except ImportError as exc:
        print(f"perfbench: cannot import costrec from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(costrec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: costrec was imported from {costrec.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        sys.exit(2)
    return workloads, workloads.WORKLOADS[workload](seed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Timed results of the operations of one pass."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.seconds = 0.0  # raw
        self.scaled_s = 0.0  # at the reference speed
        self.log_ms: list[float] = []


def run_pass(workload, tally: Tally, rounds=None, seconds=None, tracer=None):
    """Whole rounds of the workload's operations: a fixed number, or until
    the timed operations reach ``seconds`` at the reference speed.
    """
    from workloads import CheckFailed

    while (tally.rounds < rounds) if rounds is not None else (
            tally.rounds == 0 or tally.scaled_s < seconds):
        for op in workload.ops:
            tally.attempted += 1
            run = (lambda op=op: tracer.run_op(op.label, op.run)) if tracer else op.run
            try:
                out, took, scaled = timed(run)
            except Exception as exc:
                # no operation of a workload may raise: one that does is a
                # fault of the program, and its missing time would read as
                # a speed-up, so it fails the run
                tally.failed += 1
                print(f"perfbench: {op.label} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return False
            tally.seconds += took
            tally.scaled_s += scaled
            tally.units += op.units
            tally.log_ms.append(math.log(scaled * 1e3))
            try:
                op.check(out)
            except CheckFailed as exc:
                print(f"perfbench: wrong output: {exc}", file=sys.stderr)
                return False
        tally.rounds += 1
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    for _ in range(CALIBRATION_WARMUPS):
        calibration_s()  # its first runs in a fresh process are slow
    setups = []
    for _ in range(SETUP_REPEATS):
        (workloads, workload), _, scaled = timed(lambda: set_up(args.workload, args.seed))
        setups.append(scaled)
    setup_s = statistics.median(setups)
    from tracer import Tracer

    untraced = Tally()
    if not args.trace:
        correct = run_pass(workload, untraced, seconds=args.seconds)
        if not untraced.log_ms:
            print("perfbench: no operation completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": (setup_s, "s"),
            "work_per_s": (untraced.units / untraced.scaled_s, "1/s"),
            "op_geomean_ms": (math.exp(statistics.fmean(untraced.log_ms)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "rec_nodes": (sum(workloads.tree_nodes(t) for t in workload.terms()), "count"),
        }
        attempted, failed = untraced.attempted, untraced.failed
    else:
        tracer = Tracer()
        correct = run_pass(workload, untraced, seconds=args.seconds / 2)
        traced = Tally()
        if correct:
            tracer.install()
            try:
                correct = run_pass(workload, traced, rounds=untraced.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
        rounds = max(traced.rounds, 1)
        metrics = tracer.metrics(rounds)
        metrics["trace.overhead_s"] = ((traced.scaled_s - untraced.scaled_s) / rounds, "s")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        tracer.write(OUT, f"{args.workload}-seed{args.seed}", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "untraced_s": untraced.seconds, "traced_s": traced.seconds,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
