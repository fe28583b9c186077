"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For each workload, makes one oracle deliberately wrong and requires the run
to report a wrong output (exit code 1); then requires an unaltered run to
pass.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import contextlib
import io
import sys

import oracles
import run

ARGS = ["--seed", "1", "--seconds", "0", "--trace", "0"]


def wrong_eval_cost(original):
    return lambda fn, inputs: original(fn, inputs) + (fn == "copy")


def wrong_analyze_expected(original):
    def wrong(fn, model, args):
        cost, pot = original(fn, model, args)
        return cost + (fn == "copy"), pot
    return wrong


def wrong_nested_cost(original):
    return lambda depth, length: original(depth, length) + (depth == 1)


# (workload, oracle, how to make it wrong); each wrong oracle hits the
# workload's first operation, so the run stops early
CASES = (
    ("bound-corpus", "eval_cost", wrong_eval_cost),
    ("analyze-ladder", "analyze_expected", wrong_analyze_expected),
    ("extract-nested", "nested_cost", wrong_nested_cost),
)


def exit_code(workload: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.main(["--workload", workload] + ARGS)


def main() -> int:
    ok = True
    for workload, attr, make_wrong in CASES:
        original = getattr(oracles, attr)
        setattr(oracles, attr, make_wrong(original))
        try:
            code = exit_code(workload)
        finally:
            setattr(oracles, attr, original)
        ok = ok and code == 1
        print(f"{workload} with a wrong {attr}: exit {code} "
              f"({'fails as it must' if code == 1 else 'NOT CAUGHT'})")
    code = exit_code("extract-nested")
    ok = ok and code == 0
    print(f"extract-nested with correct oracles: exit {code} "
          f"({'passes' if code == 0 else 'FAILS'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
