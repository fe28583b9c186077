import pytest

from conftest import CORPUS_FILES, CORPUS_FUNCTIONS, corpus_checked, corpus_text
from costrec.cost_eval import apply_function, eval_expr, program_env
from costrec.harness import gen_value
from costrec.source_ast import (
    BOOL, NAT_TYPE, EMPTY_ENV, MapV, FRec, TArrow, TProd, TSum, TSusp,
    TUnit, TVar, TypeScheme, Unit, Var, VUnit, numeral_value, parse_expr,
    parse_program, parse_type, pretty_type,
)
from costrec.typecheck import (
    Elab, SrcTypeError, TypeContext, check_program, check_value, fresh_meta,
    infer_expr, is_core, zonk,
)
import random


def infer(text, ctx=None):
    return infer_expr(TypeContext(ctx or {}), parse_expr(text))


def test_unit_axiom():
    assert infer("()") == TUnit()


def test_let_polymorphism_two_instances():
    e = "let id = fn (x: a) => x in (id[nat] #1, id[bool] true)"
    assert infer(e) == TProd(NAT_TYPE, BOOL)


def test_let_polymorphism_inferred_instances():
    e = "let id = fn (x: a) => x in (id #1, id true)"
    assert infer(e) == TProd(NAT_TYPE, BOOL)


def test_fold_binder_gets_shape_of_suspended_result():
    # the step binder x has type F[susp nat] = unit + susp nat
    e = "fold[nat] #2 with x => case x of y => #0 | y => force y : nat"
    assert infer(e) == NAT_TYPE


def test_fold_wrong_result_annotation_rejected():
    with pytest.raises(SrcTypeError):
        infer("fold[nat] #2 with x => case x of y => #0 | y => force y : bool")


def test_unbound_variable():
    with pytest.raises(SrcTypeError):
        infer("nope")


def test_case_branches_must_agree():
    with pytest.raises(SrcTypeError):
        infer("case inj0[nat + bool] #1 of x => x | y => y")


def test_cons_annotation_must_be_inductive():
    with pytest.raises(SrcTypeError):
        infer("cons[bool] true")


def test_ambiguous_instantiation_is_an_error():
    with pytest.raises(SrcTypeError):
        check_program(parse_program("let xs = nil;"))


def test_explicit_instantiation_arity_checked():
    with pytest.raises(SrcTypeError):
        infer("let id = fn (x: a) => x in id[nat, bool] #1")


def test_generalization_never_captures_ambient_variables():
    # `a` is fixed by the enclosing lambda, so the inner let must not
    # generalize it: using y at two different types is then an error
    src = """
let f = fn (x: a) => let y = fn (z: a) => z in (y x, y true);
"""
    with pytest.raises(SrcTypeError):
        check_program(parse_program(src))


def test_infer_is_deterministic():
    e = "let id = fn (x: a) => x in (id #1, id true)"
    assert infer(e) == infer(e)


def test_zonk_rebuilds_only_around_solved_holes():
    meta = fresh_meta()
    meta.cell.solution = NAT_TYPE
    kept = TSum(TUnit(), TVar("a"))
    out = zonk(TProd(kept, meta))
    assert out == TProd(kept, NAT_TYPE)
    assert out.left is kept and out.right is NAT_TYPE
    list_a = parse_type("list<a>")
    assert zonk(list_a) is list_a
    unsolved = fresh_meta()
    assert zonk(unsolved) is unsolved


def test_checking_zonks_each_entry_once(monkeypatch):
    # each binding finalizes only the entries it recorded, so the work per
    # binding does not grow with the bindings before it
    n = 40
    src = "".join(f"let f{i} = fn (x: nat) => cons(x, nil);\n" for i in range(n))
    finalized = []
    finalize = Elab._finalize

    def counting(self, pos=None):
        finalized.append([id(e) for e, _ in self._fresh])
        finalize(self, pos)

    monkeypatch.setattr(Elab, "_finalize", counting)
    checked = check_program(parse_program(src))
    assert len(finalized) == n
    assert len({len(batch) for batch in finalized}) == 1
    keys = [key for batch in finalized for key in batch]
    assert len(keys) == len(set(keys)) == len(checked.elab.types)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_checking_a_program_twice_gives_equal_schemes(name):
    # the first check writes solved constructor annotations back into the
    # program; the second must derive the same types from them
    program = parse_program(corpus_text(name))
    first = check_program(program)
    second = check_program(program)
    assert second.schemes == first.schemes
    assert second.main_type == first.main_type
    assert list(second.elab.types.values()) == list(first.elab.types.values())


def test_scheme_recorded_for_top_level_bindings():
    checked = corpus_checked("rev.src")
    assert checked.schemes["revgo"].bound == ("a",)
    assert checked.schemes["rev"].bound == ("a",)


def test_is_core():
    assert is_core(parse_expr("fn (x: unit) => x"))
    assert is_core(corpus_checked("copy.src").program.binding("copy"))
    mapv = MapV(FRec(), "y", VUnit(), VUnit())
    assert not is_core(mapv)


def test_map_not_typeable_in_core_mode():
    mapv = MapV(FRec(), "y", VUnit(), VUnit())
    with pytest.raises(SrcTypeError):
        infer_expr(TypeContext({}), mapv)


# ---------------------------------------------------------------------------
# Value typing
# ---------------------------------------------------------------------------


def test_check_value_unit():
    check_value(None, VUnit(), TUnit())


def test_check_value_numeral_one():
    check_value(None, numeral_value(1), NAT_TYPE)


def test_check_value_mismatch():
    with pytest.raises(SrcTypeError):
        check_value(None, numeral_value(1), TUnit())


def test_check_value_closure_instances():
    # a closure capturing y :: unit checks at nat -> unit but not nat -> nat
    prog = parse_program("let f = fn (y: unit) => fn (x: nat) => y;")
    checked = check_program(prog)
    env, _ = program_env(prog)
    clo = apply_function(env, "f", [VUnit()]).value
    check_value(checked, clo, parse_type("nat -> unit"))
    with pytest.raises(SrcTypeError):
        check_value(checked, clo, parse_type("nat -> nat"))


def test_check_value_missing_env_entry():
    prog = parse_program("let f = fn (y: unit) => fn (x: nat) => y;")
    checked = check_program(prog)
    lam = prog.binding("f").body
    from costrec.source_ast import VLamClo

    dangling = VLamClo(lam, EMPTY_ENV)
    with pytest.raises(SrcTypeError):
        check_value(checked, dangling, parse_type("nat -> unit"))


def test_suspension_value_checks_at_susp_type():
    prog = parse_program("let s = delay #1;")
    checked = check_program(prog)
    env, _ = program_env(prog)
    check_value(checked, env.lookup("s"), TSusp(NAT_TYPE))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_type_preservation_on_corpus(name):
    """Evaluation results of corpus functions check at their static types
    (the executable form of the preservation theorem, small sample; the
    acceptance suite runs the full count).
    """
    checked = corpus_checked(name)
    env, _ = program_env(checked.program)
    rng = random.Random(13)
    from costrec.harness import prepare

    for fn in CORPUS_FUNCTIONS[name]:
        prepared = prepare(checked, fn, ())
        for _ in range(25):
            args = [gen_value(t, 8, rng) for t in prepared.arg_types]
            result = apply_function(env, fn, args)
            check_value(checked, result.value, prepared.result_type)
