"""Golden outputs of the CLI on the corpus, and the script that rewrites them.

``analyze.json`` holds the exact standard output and exit code of
``costrec analyze ... --json`` for each query in ``ANALYZE``;
``verify_sha256.json`` holds the SHA-256 digest of ``costrec verify FILE
--fn FN --trials 40 --seed 3 --json`` for each function in ``VERIFY``, run
from the corpus directory as the file name is part of the report;
``frontend.json`` holds the exact standard output and exit code of
``costrec check``, ``extract`` and ``extract --simplify`` with ``--json`` on
every corpus file and on ``poly_let.src``.  Every command runs in-process
through ``costrec.cli.main``.  ``eval`` is left out: no corpus file has a
``main`` expression.

To rewrite the files and print a diff against the committed ones, run

    python tests/golden/regen.py

A change that should keep the output byte-identical must leave the diff
empty.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS_DIR = ROOT / "src" / "costrec" / "corpus"
ANALYZE_FILE = HERE / "analyze.json"
VERIFY_FILE = HERE / "verify_sha256.json"
FRONTEND_FILE = HERE / "frontend.json"

# (file, function, model, rungs): every rung of the analyze-ladder
# benchmark; revgo's accumulator and plus's addend are fixed at half the
# rung, and mem searches for an unknown key
LADDER = (
    ("copy.src", "copy", "size", (8, 16, 32)),
    ("copy.src", "copy", "height", (16, 32, 64)),
    ("copy.src", "copy", "allcons", (8, 12, 16)),
    ("rev.src", "rev", "merged", (4, 8, 10)),
    ("rev.src", "revgo", "merged", (4, 8, 10)),
    ("rev.src", "rev", "size", (4, 8, 10)),
    ("rev.src", "revgo", "size", (4, 8, 10)),
    ("mem.src", "mem", "height", (8, 16, 32)),
    ("plus.src", "plus", "size", (16, 32, 64)),
    ("map.src", "map_constf", "size", (16, 32, 64)),
    ("fusion.src", "map_composed", "lower", (16, 32, 64)),
)


def _ladder_at(fn: str, n: int) -> str:
    if fn in ("revgo", "plus"):
        return f"{n};{n // 2}"
    if fn == "mem":
        return f"{n};inf"
    return str(n)


# (file, function, model, --at)
ANALYZE = tuple(
    (file, fn, model, _ladder_at(fn, n))
    for file, fn, model, rungs in LADDER for n in rungs
) + (
    # the deep inputs of test_cli_analyze_deep_inputs_complete
    ("copy.src", "copy", "height", "90"),
    ("rev.src", "rev", "size", "100"),
    ("plus.src", "plus", "size", "160;160"),
    ("copy.src", "copy", "height", "1000"),
    ("mem.src", "mem", "height", "1000;inf"),
    ("rev.src", "rev", "merged", "256"),
    # wide fold tables
    ("copy.src", "copy", "size", "150"),
    ("copy.src", "copy", "allcons", "40"),
    ("mem.src", "mem", "height", "40;inf"),
    ("rev.src", "rev", "merged", "64"),
    # the lower model's minimal decompositions on trees, and its dest
    ("copy.src", "copy", "lower", "20"),
    ("copy.src", "copy", "lower", "40"),
    ("sumtree.src", "sumtree", "lower", "24"),
    ("tail.src", "tail", "lower", "40"),
)

# (file, function): the ten corpus functions
VERIFY = (
    ("copy.src", "copy"), ("copynat.src", "copynat"),
    ("fusion.src", "map_fused"), ("fusion.src", "map_composed"),
    ("map.src", "map_constf"), ("mem.src", "mem"), ("plus.src", "plus"),
    ("rev.src", "rev"), ("sumtree.src", "sumtree"), ("tail.src", "tail"),
)
VERIFY_ARGS = ("--trials", "40", "--seed", "3", "--json")

# (command, file): the front end on the nine corpus files, and on a local
# let that is generalized (no corpus file generalizes one)
FRONTEND_FILES = ("copy.src", "copynat.src", "fusion.src", "map.src", "mem.src",
                  "plus.src", "rev.src", "sumtree.src", "tail.src", "poly_let.src")
FRONTEND = tuple((command, file)
                 for file in FRONTEND_FILES
                 for command in ("check", "extract", "extract --simplify"))


def query_id(file: str, fn: str, model: str, at: str) -> str:
    return f"{file} {fn} {model} {at}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """The exit code and standard output of ``costrec ARGV``, in-process."""
    from costrec.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def analyze_output(file: str, fn: str, model: str, at: str) -> dict:
    code, out = run_cli(["analyze", str(CORPUS_DIR / file), "--model", model,
                         "--fn", fn, "--at", at, "--json"])
    return {"code": code, "stdout": out}


def verify_digest(file: str, fn: str) -> dict:
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        code, out = run_cli(["verify", file, "--fn", fn, *VERIFY_ARGS])
    finally:
        os.chdir(cwd)
    return {"code": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


def frontend_id(command: str, file: str) -> str:
    return f"{command} {file}"


def frontend_output(command: str, file: str) -> dict:
    """``costrec COMMAND FILE --json`` with the name counters restarted, as
    the names extraction makes up are numbered process-wide.
    """
    from costrec import rec_lang, source_ast

    rec_lang._fresh = itertools.count()
    source_ast._fresh_counter = itertools.count()
    path = HERE / file if file == "poly_let.src" else CORPUS_DIR / file
    code, out = run_cli([*command.split(), str(path), "--json"])
    return {"code": code, "stdout": out}


def generate() -> dict[Path, str]:
    analyze = {query_id(*q): analyze_output(*q) for q in ANALYZE}
    verify = {fn: verify_digest(file, fn) for file, fn in VERIFY}
    frontend = {frontend_id(*c): frontend_output(*c) for c in FRONTEND}
    return {
        ANALYZE_FILE: json.dumps(analyze, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        VERIFY_FILE: json.dumps(verify, indent=2, sort_keys=True) + "\n",
        FRONTEND_FILE: json.dumps(frontend, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    changed = False
    for path, text in generate().items():
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        diff = list(difflib.unified_diff(old.splitlines(keepends=True),
                                         text.splitlines(keepends=True),
                                         str(path.relative_to(ROOT)), "regenerated"))
        sys.stdout.writelines(diff)
        changed = changed or bool(diff)
        path.write_text(text, encoding="utf-8")
    print("golden files changed" if changed else "golden files unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
