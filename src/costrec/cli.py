"""Command line front door.

Subcommands: check | eval | extract | analyze | verify.  Exit codes: 0 on
success, 1 on an analysis failure or counterexample, 2 on usage errors.  An
analysis failure prints one line on stderr (a JSON error document under
``--json``), never a traceback.  Standard output closed by its reader ends
the command with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

from . import source_ast as S
from .cost_eval import EvalError, eval_expr, program_env
from .extract import ExtractError, extract_program, potential_type
from .harness import (
    DEFAULT_MODELS, HarnessError, TrialConfig, apply_bound, prepare, verify_bound,
)
from .models import (
    MODEL_NAMES, ModelError, galois_abs, galois_conc, support_datatypes, value_potential,
)
from .rec_lang import RInd, RecTypeError, pretty_rec, pretty_rec_type, simplify
from .semdom import INF, SMap, SNum, SizeMap, UnsupportedFeature, ext
from .typecheck import SrcTypeError, check_program

# failures of an analysis, reported with exit code 1 and no traceback
ANALYSIS_ERRORS = (
    ModelError, HarnessError, EvalError, ExtractError, RecTypeError,
    UnsupportedFeature, RecursionError,
)

# A function-valued fold (rev's accumulator) applies one table entry per unit
# of potential, and evaluation recurses once per constructor of a value, so
# commands run on a thread with room for deep inputs.  A call that re-enters
# the interpreter through C took about 750 bytes of stack on CPython 3.11
# (x86-64 Linux), so the frame limit stays well inside the stack.
_STACK_BYTES = 256 << 20
_MAX_FRAMES = 100_000

# CPython appends where the overflow happened ("... while calling a Python
# object"), which depends on the code path, not on the input
_TOO_DEEP = "maximum recursion depth exceeded"


class UsageError(Exception):
    """A malformed command-line argument, reported with exit code 2."""


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"costrec: cannot read {path}: {exc}")
    program = S.parse_program(text)
    return program, check_program(program)


def _scheme_str(scheme: S.TypeScheme) -> str:
    body = S.pretty_type(scheme.body)
    if scheme.bound:
        return f"forall {', '.join(scheme.bound)}. {body}"
    return body


def cmd_check(args) -> int:
    program, checked = _load(args.file)
    if args.json:
        doc = {name: _scheme_str(s) for name, s in checked.schemes.items()}
        if checked.main_type is not None:
            doc["main"] = S.pretty_type(checked.main_type)
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for name, scheme in checked.schemes.items():
            print(f"{name} : {_scheme_str(scheme)}")
        if checked.main_type is not None:
            print(f"main : {S.pretty_type(checked.main_type)}")
    return 0


def cmd_eval(args) -> int:
    program, checked = _load(args.file)
    env, _ = program_env(program)
    if args.main:
        expr = S.Var(args.main)
    elif program.main is not None:
        expr = program.main
    else:
        print("costrec: no main expression; use --main NAME", file=sys.stderr)
        return 2
    result = eval_expr(env, expr)
    if args.json:
        print(json.dumps({"value": S.pretty(result.value), "cost": result.cost},
                         sort_keys=True, indent=2))
    else:
        print(f"value: {S.pretty(result.value)}")
        print(f"cost:  {result.cost}")
    return 0


def cmd_extract(args) -> int:
    program, checked = _load(args.file)
    ex = extract_program(checked)
    doc = {}
    for name, binding in ex.bindings.items():
        term = binding.complexity
        if args.simplify:
            term = simplify(term)
        doc[name] = {
            "recurrence": pretty_rec(term),
            "type": pretty_rec_type(binding.complexity_ty),
        }
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for name, entry in doc.items():
            print(f"-- {name} : {entry['type']}")
            print(f"{name} = {entry['recurrence']}")
            print()
    return 0


def _parse_at(token: str, model, arg_src_ty, program) -> object:
    """An input potential: a plain natural or 'inf' for the counting models,
    a {name: n, ...} map for allcons, a source value literal for exact.
    """
    pot_ty = potential_type(arg_src_ty)
    token = token.strip()
    if model.name == "exact":
        expr = S.parse_expr(token, program.datatypes)
        try:
            value = eval_expr(S.EMPTY_ENV, expr).value
        except EvalError as exc:
            raise UsageError(f"--at expects a closed value for the exact model; "
                             f"got {token!r}: {exc}")
        return value_potential(model, value, arg_src_ty)
    if token in ("inf", "top"):
        return model.top(pot_ty)
    if token.startswith("{"):
        if model.name not in ("allcons", "merged"):
            raise UsageError(f"--at gives a map, which only the allcons and merged "
                             f"models take; got {token!r}")
        entries = {}
        body = token.strip("{}").strip()
        support = support_datatypes(pot_ty)
        if body:
            for item in body.split(","):
                key, _, num = item.partition(":")
                try:
                    key_ty = potential_type(S.parse_type(key.strip(), program.datatypes))
                except S.SourceError as exc:
                    raise UsageError(f"bad datatype {key.strip()!r} in --at: {exc.msg}")
                if key_ty not in support:
                    raise UsageError(
                        f"--at names {key.strip()!r}, which is not a datatype of "
                        f"the argument type {S.pretty_type(arg_src_ty)}")
                entries[key_ty] = INF if num.strip() in ("inf", "top") else _count(num)
        return SMap(SizeMap.of(entries))
    n = _count(token)
    if not isinstance(pot_ty, RInd):
        raise UsageError("numeric potential needs an inductive argument type")
    if model.name in ("allcons", "merged"):
        return galois_conc(pot_ty, SNum("size", n))
    return SNum("size", n)


def _count(token: str):
    """A natural number given on the command line."""
    try:
        n = int(token)
    except ValueError:
        n = -1
    if n < 0:
        raise UsageError(f"--at expects a natural number, 'inf' or a map; got {token.strip()!r}")
    return ext(n)


def _show_potential(model, pot, arg_ty) -> str:
    if model.name == "merged":
        pot_ty = potential_type(arg_ty)
        try:
            return f"{pot} (main count {galois_abs(pot_ty, pot)})"
        except Exception:
            return str(pot)
    return str(pot)


def cmd_analyze(args) -> int:
    program, checked = _load(args.file)
    inst = S.parse_type(args.inst, program.datatypes) if args.inst else None
    prepared = prepare(checked, args.fn, (args.model,), instantiate_at=inst)
    if args.model in prepared.skipped:
        print(f"costrec: model {args.model} rejects {args.fn}: "
              f"{prepared.skipped[args.model]}", file=sys.stderr)
        return 1
    model, base_cost, pot = prepared.denoted[args.model]
    tokens = []
    for chunk in args.at or []:
        tokens.extend(t for t in chunk.split(";") if t.strip())
    if len(tokens) != len(prepared.arg_types):
        print(f"costrec: {args.fn} takes {len(prepared.arg_types)} argument(s); "
              f"got {len(tokens)} via --at (separate multiple with ';')",
              file=sys.stderr)
        return 2
    arg_pots = [
        _parse_at(tok, model, ty, program)
        for tok, ty in zip(tokens, prepared.arg_types)
    ]
    cost, final = apply_bound(model, base_cost, pot, arg_pots)
    shown = _show_potential(model, final, prepared.result_type)
    if args.json:
        print(json.dumps({
            "fn": args.fn,
            "model": args.model,
            "at": tokens,
            "cost": str(cost),
            "potential": str(final),
        }, sort_keys=True, indent=2))
    else:
        print(f"{args.fn} in the {args.model} model at ({', '.join(tokens)}):")
        print(f"  cost bound: {cost}")
        print(f"  potential:  {shown}")
    return 0


def cmd_verify(args) -> int:
    program, checked = _load(args.file)
    fn = args.fn or (program.bindings[-1][0] if program.bindings else None)
    if fn is None:
        print("costrec: nothing to verify", file=sys.stderr)
        return 2
    models = tuple(args.model) if args.model else DEFAULT_MODELS
    cfg = TrialConfig(trials=args.trials, max_value_size=args.max_size,
                      models=models, seed=args.seed)
    report = verify_bound(checked, fn, cfg, program_name=args.file)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``, so that an
    out-of-range count is a usage error (exit 2) like any malformed one.
    """
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="costrec",
        description="Extract cost/size recurrences and verify them against the evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type check a program")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("eval", help="evaluate main (or a binding) and report cost")
    p.add_argument("file")
    p.add_argument("--main", help="name of the binding to evaluate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("extract", help="print the extracted recurrences")
    p.add_argument("file")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("analyze", help="denote a recurrence at given input potentials")
    p.add_argument("file")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--fn", required=True)
    p.add_argument("--at", action="append",
                   help="input potentials, one per argument (repeat or separate with ';')")
    p.add_argument("--inst", help="type to instantiate polymorphic functions at (default nat)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("verify", help="empirically check bounds on random inputs")
    p.add_argument("file")
    p.add_argument("--fn", help="binding to verify (default: last)")
    p.add_argument("--model", action="append", choices=MODEL_NAMES,
                   help="model(s) to check (default: all)")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=_at_least(0), default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = _on_deep_stack(args.handler, args)
        sys.stdout.flush()  # so that a closed pipe is reported here
        return code
    except BrokenPipeError:
        # the reader closed standard output early (`costrec verify ... | head
        # -1`): stop quietly, and send what is still buffered to devnull so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (S.SourceError, SrcTypeError) as exc:
        _report_error(args, str(exc), {"error": exc.msg, "line": exc.line, "column": exc.col})
        return 1
    except UsageError as exc:
        print(f"costrec: {exc}", file=sys.stderr)
        return 2
    except ANALYSIS_ERRORS as exc:
        kind = type(exc).__name__
        msg = " ".join(str(exc).split()) or kind
        if isinstance(exc, RecursionError) and msg.startswith(_TOO_DEEP):
            msg = _TOO_DEEP
        _report_error(args, f"{kind}: {msg}", {"error": msg, "kind": kind})
        return 1


def _on_deep_stack(command, args) -> int:
    """``command(args)`` on a thread with a large stack and recursion limit;
    whatever it raises is raised here.
    """
    outcome: dict = {}

    def run():
        try:
            outcome["code"] = command(args)
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    old_stack = threading.stack_size(_STACK_BYTES)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _MAX_FRAMES))
    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["code"]


def _report_error(args, line: str, doc: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True, indent=2), file=sys.stderr)
    else:
        print(f"costrec: {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
