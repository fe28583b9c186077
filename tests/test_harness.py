import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import weakref

import pytest

from conftest import CORPUS_DIR, corpus_checked, corpus_text
from costrec import cli
from costrec import harness, models
from costrec import source_ast
from costrec.cli import main as cli_main
from costrec.cost_eval import EvalError
from costrec.extract import ExtractError, extract_program
from costrec.harness import (
    HarnessError, TrialConfig, gen_value, prepare, run_trial, verify_bound,
)
from costrec.models import MODEL_NAMES, ModelError, make_model, value_potential
from costrec.rec_lang import RecTypeError
from costrec.semdom import SNum, UnsupportedFeature, ext
from costrec.source_ast import (
    VCons, VInj, VPair, VUnit, numeral_value, parse_program, parse_type, pretty,
)
from costrec.typecheck import check_program


def test_gen_value_unit():
    from reference import value_eq

    rng = random.Random(0)
    assert value_eq(gen_value(parse_type("unit"), 5, rng), VUnit())


def _parts(*types):
    """Every type and shape functor object inside the given types."""
    seen, stack = {}, list(types)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, f) for f in node.__dataclass_fields__
                         if f != "label")
    return seen


def _annotations(v):
    """The annotation object of every constructor in a value."""
    out, stack = [], [v]
    while stack:
        v = stack.pop()
        if isinstance(v, source_ast.VCons):
            out.append(v.annotation)
            stack.append(v.arg)
        elif isinstance(v, source_ast.VInj):
            stack.append(v.arg)
        elif isinstance(v, source_ast.VPair):
            stack += [v.left, v.right]
    return out


def test_gen_value_computes_generation_facts_once_per_type(monkeypatch):
    # fresh types, so no memo from an earlier test is reused
    checked = check_program(parse_program(corpus_text("mem.src")))
    prepared = prepare(checked, "mem", ("size",))
    computed = []
    least_ctors = harness._least_ctors

    def counting(ty):
        computed.append(ty)
        return least_ctors(ty)

    monkeypatch.setattr(harness, "_least_ctors", counting)
    rng = random.Random(5)
    values = [gen_value(ty, 12, rng) for _ in range(50) for ty in prepared.arg_types]
    assert computed
    assert len({id(ty) for ty in computed}) == len(computed)
    # generation takes the checked types as they are and never rebuilds
    # them: every constructor is annotated with a part of an argument type
    parts = _parts(*prepared.arg_types)
    annotations = [a for v in values for a in _annotations(v)]
    assert annotations
    assert all(id(a) in parts for a in annotations)


def test_printing_values_resolves_each_annotation_once(monkeypatch):
    # fresh types, so no memo from an earlier test is reused
    checked = check_program(parse_program(corpus_text("copy.src")))
    prepared = prepare(checked, "copy", ("size",))
    rng = random.Random(8)
    values = [gen_value(prepared.arg_types[0], 12, rng) for _ in range(50)]
    computed = []
    type_memo = source_ast.type_memo

    def counting(ty, slot, compute):
        if slot == "_print_facts" and slot not in ty.__dict__:
            computed.append(ty)
        return type_memo(ty, slot, compute)

    def no_decls():
        raise AssertionError("printing rebuilt the standard declarations")

    monkeypatch.setattr(source_ast, "type_memo", counting)
    monkeypatch.setattr(source_ast, "_std_decls", no_decls)
    first = [pretty(v) for v in values]
    assert any(s.startswith("node(") for s in first)
    # the printing facts are computed once per annotation object, not per
    # constructor
    calls = len(computed)
    assert 0 < calls < len(values)
    assert len({id(ty) for ty in computed}) == calls
    assert [pretty(v) for v in values] == first
    assert len(computed) == calls


def test_gen_value_nat_respects_budget():
    rng = random.Random(1)
    m = make_model("size")
    for _ in range(200):
        v = gen_value(parse_type("nat"), 4, rng)
        pot = value_potential(m, v, parse_type("nat"))
        assert pot.num <= ext(4)


def test_gen_value_tree_potential_within_budget():
    rng = random.Random(2)
    m = make_model("size")
    ty = parse_type("tree<nat>")
    for _ in range(200):
        v = gen_value(ty, 9, rng)
        pot = value_potential(m, v, ty)
        assert pot.num <= ext(9)


def test_gen_value_total_constructors_within_budget():
    rng = random.Random(3)
    m = make_model("allcons")
    ty = parse_type("tree<nat>")
    nat_pot = __import__("costrec.extract", fromlist=["potential_type"]).potential_type(parse_type("nat"))
    tree_pot = __import__("costrec.extract", fromlist=["potential_type"]).potential_type(ty)
    for _ in range(200):
        v = gen_value(ty, 10, rng)
        pot = value_potential(m, v, ty)
        # counting every constructor: trees plus the worst chain of labels
        total = pot.sizemap.get(tree_pot).value
        assert total <= 10


def test_gen_value_hits_boundary_shapes():
    # unit labels are free, so an 8-constructor budget admits length 7
    rng = random.Random(4)
    ty = parse_type("list<unit>")
    m = make_model("size")
    lengths = set()
    for _ in range(300):
        v = gen_value(ty, 8, rng)
        lengths.add(value_potential(m, v, ty).num.value)
    assert 1 in lengths  # empty list
    assert max(lengths) == 8  # full spines reached


def test_gen_value_deterministic_per_seed():
    ty = parse_type("tree<nat>")
    a = [pretty(gen_value(ty, 8, random.Random(99))) for _ in range(5)]
    b = [pretty(gen_value(ty, 8, random.Random(99))) for _ in range(5)]
    assert a == b


def test_gen_value_rejects_non_observable():
    with pytest.raises(HarnessError):
        gen_value(parse_type("nat -> nat"), 5, random.Random(0))


def test_verify_bound_copy_no_failures():
    checked = corpus_checked("copy.src")
    cfg = TrialConfig(trials=60, max_value_size=9, models=("size", "exact"), seed=11)
    report = verify_bound(checked, "copy", cfg)
    assert report.passed
    assert len(report.trials) == 60


def test_verify_report_is_deterministic():
    checked = corpus_checked("plus.src")
    cfg = TrialConfig(trials=25, models=("size", "allcons", "exact", "lower"), seed=5)
    r1 = verify_bound(checked, "plus", cfg).to_json()
    r2 = verify_bound(checked, "plus", cfg).to_json()
    assert r1 == r2


def test_verify_records_failures_with_replay_data():
    # a deliberately broken claim: verifying plus against copynat's recurrence
    # is not expressible through the public API, so instead check the report
    # structure on a passing run
    checked = corpus_checked("tail.src")
    cfg = TrialConfig(trials=10, models=("size",), seed=1)
    report = verify_bound(checked, "tail", cfg)
    doc = json.loads(report.to_json())
    assert doc["seed"] == 1
    assert len(doc["trials"]) == 10
    for t in doc["trials"]:
        assert set(t) == {"index", "inputs", "cost", "results", "ok"}


def test_run_trial_on_a_long_list_stays_below_the_recursion_limit():
    # in-process, on the default stack: the exact model's embedding of the
    # argument is hashed as a bound-cache key and the exact verdict compares
    # potentials with ==; neither may recurse once per element
    prepared = prepare(corpus_checked("tail.src"), "tail", MODEL_NAMES)
    ty = prepared.arg_types[0]
    xs = VCons(ty, VInj(0, VUnit()))
    for i in range(200):
        xs = VCons(ty, VInj(1, VPair(numeral_value(i % 3), xs)))
    trial = run_trial(prepared, [xs], 0, {})
    assert trial.ok
    assert sorted(trial.results) == sorted(MODEL_NAMES)
    assert all(r["status"] == "pass" for r in trial.results.values()), trial.results


def test_one_walk_embeds_a_trial_value_for_all_six_models(monkeypatch):
    # every model embeds the argument and the result, but each value is
    # walked once: the first model fills its slot and the others read it
    prepared = prepare(corpus_checked("tail.src"), "tail", MODEL_NAMES)
    ty = prepared.arg_types[0]
    xs = VCons(ty, VInj(0, VUnit()))
    for i in range(5):
        xs = VCons(ty, VInj(1, VPair(numeral_value(i), xs)))
    walked, embedded = [], []
    walk, embed = models._walk, models.value_potential
    monkeypatch.setattr(models, "_walk", lambda v, t: walked.append(v) or walk(v, t))
    monkeypatch.setattr(harness, "value_potential",
                        lambda m, v, t: embedded.append(m.name) or embed(m, v, t))
    assert run_trial(prepared, [xs], 0, {}).ok
    assert sorted(embedded) == sorted(MODEL_NAMES * 2)
    # the result of tail is the argument's own tail
    assert walked == [xs, xs.arg.arg.right]
    parts = xs._embedding
    assert parts.ty is ty
    by_name = {m.name: m for m, _, _ in prepared.denoted.values()}
    assert embed(by_name["size"], xs, ty) is embed(by_name["lower"], xs, ty) is parts.size
    assert embed(by_name["height"], xs, ty) is parts.height
    assert embed(by_name["allcons"], xs, ty) is embed(by_name["merged"], xs, ty) is parts.census
    assert embed(by_name["exact"], xs, ty) is parts.exact
    assert len(walked) == 2


def test_a_value_shared_at_two_types_embeds_at_each():
    # the top-level nil is one value, and f returns it at list<nat> and at
    # list<unit>: its slot keeps the first embedding, so the second type must
    # walk it again rather than read the slot
    checked = check_program(parse_program(
        "let n = nil[a];\n"
        "let g = fn (a: list<nat>) => fn (b: list<unit>) => (a, b);\n"
        "let f = fn (x: unit) => g n n;\n"))
    trial = run_trial(prepare(checked, "f", MODEL_NAMES), [VUnit()], 0, {})
    assert trial.ok, trial.results
    assert sorted(trial.results) == sorted(MODEL_NAMES)


def test_non_observable_function_rejected():
    checked = corpus_checked("map.src")
    with pytest.raises(HarnessError):
        prepare(checked, "mapf", ())  # takes a function argument


@pytest.mark.parametrize("file,fn", [("copy.src", "copy"), ("rev.src", "rev")])
def test_prepare_checks_the_extracted_term_once_for_every_model(monkeypatch, file, fn):
    # copy's complexity and rev's polymorphic potential: every model denotes
    # the same term, so one check serves them all
    checks = []
    check_rec = harness.check_rec
    monkeypatch.setattr(harness, "check_rec",
                        lambda *args: checks.append(args[1]) or check_rec(*args))
    prepared = prepare(corpus_checked(file), fn, MODEL_NAMES)
    assert len(checks) == 1
    assert sorted(prepared.denoted) == sorted(MODEL_NAMES)


def test_prepared_skips_models_that_reject():
    src = """
type fun1 = mu t. unit + (nat -> t);
let poke = fn (v: fun1) => fold[fun1] v with x => case x of u => #0 | g => force (g #0) : nat;
"""
    from costrec.source_ast import parse_program
    from costrec.typecheck import check_program

    checked = check_program(parse_program(src))
    with pytest.raises(HarnessError):
        # fun1 is not observable (arrow inside), so the harness refuses
        prepare(checked, "poke", ("size",))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check(capsys):
    code, out, _ = _run(capsys, "check", str(CORPUS_DIR / "rev.src"))
    assert code == 0
    assert "rev : forall a. list<a> -> list<a>" in out


def test_cli_eval_main(tmp_path, capsys):
    f = tmp_path / "p.src"
    f.write_text("let two = #2;\nmain = two;\n")
    code, out, _ = _run(capsys, "eval", str(f))
    assert code == 0
    assert "#2" in out and "cost:  0" in out


def test_cli_extract_simplify(capsys):
    code, out, _ = _run(capsys, "extract", str(CORPUS_DIR / "plus.src"), "--simplify")
    assert code == 0
    assert "plus" in out and "fold[nat]" in out


def test_cli_analyze_copy(capsys):
    code, out, _ = _run(capsys, "analyze", str(CORPUS_DIR / "copy.src"),
                        "--model", "size", "--fn", "copy", "--at", "5")
    assert code == 0
    assert "cost bound: 5" in out


def test_cli_analyze_map_fixture(capsys):
    # n(1 + c) with the fixture's constant c = 0
    code, out, _ = _run(capsys, "analyze", str(CORPUS_DIR / "map.src"),
                        "--model", "size", "--fn", "map_constf", "--at", "5")
    assert code == 0
    assert "cost bound: 5" in out


def test_cli_analyze_allcons_map_argument(capsys):
    code, out, _ = _run(capsys, "analyze", str(CORPUS_DIR / "sumtree.src"),
                        "--model", "allcons", "--fn", "sumtree",
                        "--at", "{nat: 3, tree<nat>: 5}")
    assert code == 0
    assert "cost bound:" in out


def test_cli_analyze_exact_value_literal(capsys):
    code, out, _ = _run(capsys, "analyze", str(CORPUS_DIR / "copy.src"),
                        "--model", "exact", "--fn", "copy",
                        "--at", "node(#0, emp[nat], emp[nat])")
    assert code == 0
    assert "cost bound: 3" in out


def test_cli_verify_deterministic_json(tmp_path, capsys):
    args = ["verify", str(CORPUS_DIR / "copy.src"), "--model", "size",
            "--trials", "20", "--seed", "7", "--json"]
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_verify_exit_zero_on_success(capsys):
    code, out, _ = _run(capsys, "verify", str(CORPUS_DIR / "copy.src"),
                        "--model", "size", "--trials", "10", "--seed", "3")
    assert code == 0
    assert "0 failure(s)" in out


def test_cli_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", str(CORPUS_DIR / "copy.src"), "--model", "bogus",
                  "--fn", "copy"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option,value,message", [
    ("--trials", "0", "argument --trials: must be at least 1, got 0"),
    ("--trials", "-3", "argument --trials: must be at least 1, got -3"),
    ("--trials", "many", "argument --trials: expected an integer, got 'many'"),
    ("--max-size", "-1", "argument --max-size: must be at least 0, got -1"),
])
def test_cli_verify_out_of_range_counts_are_usage_errors(capsys, option, value, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", str(CORPUS_DIR / "copy.src"), option, value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.rstrip().endswith(f"costrec verify: error: {message}")


def test_trial_config_still_rejects_no_trials():
    with pytest.raises(HarnessError):
        TrialConfig(trials=0)


def test_cli_type_error_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.src"
    f.write_text("let x = pi0 ();\n")
    code, _, err = _run(capsys, "check", str(f))
    assert code == 1
    assert "costrec" in err


def test_cli_check_local_let_of_an_unsolved_hole_exits_one(tmp_path, capsys):
    # the bound's hole is not a type variable: it is not generalized, and is
    # reported where the binding starts, as for a top-level `let n = nil;`
    f = tmp_path / "hole.src"
    f.write_text("let f = fn (x: unit) => let n = nil in n;\n")
    code, out, err = _run(capsys, "check", str(f))
    assert code == 1 and out == ""
    assert err == ("costrec: 1:9: ambiguous type instantiation "
                   "(annotate with x[ty] or a constructor type argument)\n")


def test_cli_superscript_digit_is_an_unexpected_character(tmp_path, capsys):
    # '\u00b2'.isdigit() holds but int() cannot read it: the lexer takes only
    # decimal digits, so it is reported like any other stray character
    f = tmp_path / "sup.src"
    f.write_text("let f = fn (x: nat) => #\u00b2;\n")
    code, out, err = _run(capsys, "check", str(f))
    assert code == 1 and out == ""
    assert err == "costrec: 1:25: unexpected character '\u00b2'\n"
    f.write_text("let f = fn (x: nat) => x;\nmain = f #\u00b2;\n")
    code, out, err = _run(capsys, "eval", str(f))
    assert code == 1 and out == ""
    assert err == "costrec: 2:11: unexpected character '\u00b2'\n"
    # a decimal digit of another script is still a digit
    f.write_text("let three = #\u0663;\n")
    code, out, _ = _run(capsys, "check", str(f))
    assert code == 0 and "three : nat" in out


def test_cli_analysis_errors_exit_one_without_traceback(capsys, monkeypatch):
    for exc_type in (ModelError, HarnessError, EvalError, ExtractError,
                     RecTypeError, UnsupportedFeature, RecursionError):
        def fail(args, exc_type=exc_type):
            raise exc_type("went\nwrong")

        monkeypatch.setattr(cli, "cmd_check", fail)
        code, out, err = _run(capsys, "check", str(CORPUS_DIR / "rev.src"))
        assert code == 1 and out == ""
        assert err == f"costrec: {exc_type.__name__}: went wrong\n"


def test_cli_analysis_error_as_json(capsys, monkeypatch):
    def fail(args):
        raise HarnessError("no top-level binding named nope")

    monkeypatch.setattr(cli, "cmd_check", fail)
    code, _, err = _run(capsys, "check", str(CORPUS_DIR / "rev.src"), "--json")
    assert code == 1
    assert json.loads(err) == {"error": "no top-level binding named nope",
                               "kind": "HarnessError"}


# closed forms of the cost and the printed potential: copy in the height
# model costs 2^n - 1, plus costs n with potential n + m - 1, and rev and mem
# cost n
@pytest.mark.parametrize("file,model,fn,at,cost,potential", [
    pytest.param("copy.src", "height", "copy", "90", 2 ** 90 - 1, "90",
                 id="copy-height-90"),
    pytest.param("rev.src", "size", "rev", "100", 100, "100", id="rev-size-100"),
    pytest.param("plus.src", "size", "plus", "160;160", 160, "319",
                 id="plus-size-160-160"),
    pytest.param("copy.src", "height", "copy", "1000", 2 ** 1000 - 1, "1000",
                 id="copy-height-1000"),
    pytest.param("mem.src", "height", "mem", "1000;inf", 1000, "{*}⊔{*}",
                 id="mem-height-1000-inf"),
    pytest.param("rev.src", "merged", "rev", "256", 256,
                 "{list<nat>: 256, nat: inf} (main count 256)", id="rev-merged-256"),
])
def test_cli_analyze_deep_inputs_complete(capsys, file, model, fn, at, cost, potential):
    # the abstract folds fill their tables bottom-up, and rev's function-valued
    # fold applies one entry per unit of potential on the CLI's deep stack
    code, out, err = _run(capsys, "analyze", str(CORPUS_DIR / file),
                          "--model", model, "--fn", fn, "--at", at)
    assert (code, err) == (0, "")
    assert f"  cost bound: {cost}\n" in out
    assert out.endswith(f"  potential:  {potential}\n")


def test_cli_recursion_error_message_does_not_depend_on_the_call_site(capsys, monkeypatch):
    def fail(args):
        raise RecursionError("maximum recursion depth exceeded while calling a Python object")

    monkeypatch.setattr(cli, "cmd_check", fail)
    code, _, err = _run(capsys, "check", str(CORPUS_DIR / "rev.src"))
    assert code == 1
    assert err == "costrec: RecursionError: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("file,model,fn,at,message", [
    ("copy.src", "size", "copy", "abc",
     "--at expects a natural number, 'inf' or a map; got 'abc'"),
    ("copy.src", "size", "copy", "-2",
     "--at expects a natural number, 'inf' or a map; got '-2'"),
    ("sumtree.src", "allcons", "sumtree", "{nat: x}",
     "--at expects a natural number, 'inf' or a map; got 'x'"),
    ("copy.src", "allcons", "copy", "{foo: 3}",
     "--at names 'foo', which is not a datatype of the argument type tree<nat>"),
    ("sumtree.src", "allcons", "sumtree", "{list<nat>: 3}",
     "--at names 'list<nat>', which is not a datatype of the argument type tree<nat>"),
    ("sumtree.src", "allcons", "sumtree", "{list: 3}",
     "bad datatype 'list' in --at: datatype list expects 1 argument(s), got 0"),
    ("copy.src", "size", "copy", "{tree<nat>: 3}",
     "--at gives a map, which only the allcons and merged models take; "
     "got '{tree<nat>: 3}'"),
    ("copy.src", "height", "copy", "{tree<nat>: 3}",
     "--at gives a map, which only the allcons and merged models take; "
     "got '{tree<nat>: 3}'"),
    ("plus.src", "lower", "plus", "{nat: 3};2",
     "--at gives a map, which only the allcons and merged models take; "
     "got '{nat: 3}'"),
    ("copy.src", "exact", "copy", "abc",
     "--at expects a closed value for the exact model; got 'abc': "
     "unbound variable abc at runtime"),
])
def test_cli_analyze_bad_at_token_is_a_usage_error(capsys, file, model, fn, at, message):
    code, out, err = _run(capsys, "analyze", str(CORPUS_DIR / file),
                          "--model", model, "--fn", fn, "--at", at)
    assert code == 2 and out == ""
    assert err == f"costrec: {message}\n"


@pytest.mark.parametrize("model", ["size", "allcons"])
def test_cli_analyze_numeric_potential_needs_a_datatype(tmp_path, capsys, model):
    f = tmp_path / "u.src"
    f.write_text("let f = fn (x: unit) => x;\n")
    code, out, err = _run(capsys, "analyze", str(f), "--model", model, "--fn", "f",
                          "--at", "3")
    assert code == 2 and out == ""
    assert err == "costrec: numeric potential needs an inductive argument type\n"


def test_python_dash_m_runs_the_cli():
    src = str(CORPUS_DIR.parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "costrec", "check", str(CORPUS_DIR / "rev.src")],
        check=True, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "rev : forall a. list<a> -> list<a>" in done.stdout


def test_cli_closed_stdout_pipe_exits_quietly():
    # the report (about 105 kB) outgrows the pipe's buffer (64 kB) and the
    # reader's (8 kB), so the write after the reader closes its end must fail
    src = str(CORPUS_DIR.parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "costrec", "verify", str(CORPUS_DIR / "rev.src"),
         "--fn", "revgo", "--trials", "150", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


# Digests of `costrec verify --json` (run from the corpus directory) before
# the generation memos and cached hashes: faster code must print the same.
VERIFY_DIGESTS = {
    "copy": "189b5a99febe4719cc85cc81bd3cd3de07486ba75cac4bd8c8d28cb10fd5dad4",
    "mem": "de1eab3d1475f429509e73380559dadd57e389f759d98bafb0072b3fd9819c37",
}


@pytest.mark.parametrize("fn", sorted(VERIFY_DIGESTS))
def test_cli_verify_json_is_byte_identical(capsys, monkeypatch, fn):
    monkeypatch.chdir(CORPUS_DIR)
    code, out, _ = _run(capsys, "verify", f"{fn}.src", "--fn", fn,
                        "--trials", "100", "--seed", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[fn]


def test_cli_analyze_unknown_function_fails_in_one_line(capsys):
    code, _, err = _run(capsys, "analyze", str(CORPUS_DIR / "rev.src"),
                        "--model", "size", "--fn", "nope", "--at", "3")
    assert code == 1
    assert err == "costrec: HarnessError: no top-level binding named nope\n"


def test_cli_analyze_rev_is_polynomial(capsys):
    # extraction shares each recursive call instead of copying it, so the
    # merged-model bound of rev no longer doubles its work per element
    started = time.monotonic()
    code, out, _ = _run(capsys, "analyze", str(CORPUS_DIR / "rev.src"),
                        "--model", "merged", "--fn", "rev", "--at", "64")
    assert code == 0
    assert "cost bound: 64" in out and "main count 64" in out
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def test_pipeline_keeps_no_type_alive():
    """Memos on types must die with them: after twenty rounds of parse,
    check, extract, prepare and embedding, a type from the first round is
    collected.
    """
    text = corpus_text("copy.src")
    first = []
    for _ in range(20):
        checked = check_program(parse_program(text))
        prepared = prepare(checked, "copy", ("size", "allcons"),
                           extracted=extract_program(checked))
        arg_ty = prepared.arg_types[0]
        value = gen_value(arg_ty, 6, random.Random(0))
        value_potential(prepared.denoted["allcons"][0], value, arg_ty)
        if not first:
            first = [weakref.ref(arg_ty), weakref.ref(checked.schemes["copy"].body)]
        del checked, prepared, arg_ty, value
    gc.collect()
    assert [ref() for ref in first] == [None, None]
