import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CORPUS_FILES, CORPUS_FUNCTIONS, corpus_checked, corpus_text, derived, holes,
)
from costrec.cost_eval import apply_function, program_env
from costrec.harness import gen_value, prepare
from costrec.source_ast import (
    BOOL, FConst, FProd, FRec, FSum, Inj, Lam, NAT_TYPE, SourceError, TInd,
    TProd, TSum, TUnit, TVar, Unit, Var, VCons, VInj, alpha_eq, free_tyvars,
    iter_subexprs, numeral, parse_expr, parse_program, parse_type, pretty,
    subst_shape, Cons,
)
from costrec.typecheck import check_program


def test_identity_function_parses():
    e = parse_expr("fn (x: unit) => x")
    assert isinstance(e, Lam)
    assert e.annotation == TUnit()
    assert isinstance(e.body, Var) and e.body.name == "x"


def test_numeral_desugars_to_nested_constructors():
    e = parse_expr("#2")
    # S (S Z): three nat constructors in total
    count = sum(1 for sub in iter_subexprs(e) if isinstance(sub, Cons))
    assert count == 3
    assert alpha_eq(e, numeral(2))


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_numeral_constructor_count(n):
    count = sum(1 for sub in iter_subexprs(numeral(n)) if isinstance(sub, Cons))
    assert count == n + 1


def test_fold_sugar_expands_to_fold_and_case():
    src = """
let f = fn (t: tree<a>) =>
  foldtree[a] t of emp => #0 | node(x, r0, r1) => force r0 : nat;
"""
    prog = parse_program(src)
    from costrec.source_ast import Case, Fold

    body = prog.binding("f").body
    assert isinstance(body, Fold)
    assert isinstance(body.body, Case)


def test_subst_shape_variable_case():
    assert subst_shape(FRec(), NAT_TYPE) == NAT_TYPE


def test_subst_shape_one_step():
    f = FSum(FConst(TUnit()), FRec())
    assert subst_shape(f, NAT_TYPE) == TSum(TUnit(), NAT_TYPE)


def test_subst_shape_list_unfolding():
    lst_a = parse_type("list<a>")
    assert isinstance(lst_a, TInd)
    unfolded = subst_shape(lst_a.functor, lst_a)
    assert unfolded == TSum(TUnit(), TProd(TVar("a"), lst_a))


@given(st.sampled_from(["nat", "list<b>", "tree<nat>", "b * c", "b + unit"]))
def test_subst_shape_never_captures(tyname):
    # free type variables of the substituted type stay free in the result
    ty = parse_type(tyname)
    f = FSum(FConst(TVar("a")), FProd(FRec(), FRec()))
    out = subst_shape(f, ty)
    assert free_tyvars(ty) <= free_tyvars(out)


def test_pretty_unit():
    assert pretty(Unit()) == "()"


def test_pretty_numeral_roundtrip():
    e = parse_expr("#3")
    assert alpha_eq(parse_expr(pretty(e)), e)


def test_pretty_tree_value_roundtrips_as_expr():
    from costrec.typecheck import TypeContext, infer_expr

    e = parse_expr("node(#1, node(#0, emp[nat], emp[nat]), emp[nat])")
    infer_expr(TypeContext({}), e)  # solve the constructor annotation holes
    again = parse_expr(pretty(e))
    assert alpha_eq(again, e)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_roundtrip(name):
    # use the checked parse: constructor annotation holes are solved there
    checked = corpus_checked(name)
    prog = checked.program
    for bname, expr in prog.bindings:
        printed = pretty(expr)
        assert alpha_eq(parse_expr(printed, prog.datatypes), expr), bname


def test_bool_is_noninductive_sum():
    assert parse_type("bool") == TSum(TUnit(), TUnit())
    t = parse_expr("true")
    assert isinstance(t, Inj) and t.index == 1 and t.annotation == BOOL


def test_named_datatype_declaration():
    src = """
type pairtree<a> = mu t. unit + (a * a) * t;
let f = fn (x: pairtree<nat>) => x;
"""
    prog = parse_program(src)
    decl = prog.datatypes["pairtree"]
    assert decl.params == ("a",)


def test_simultaneous_nesting_rejected():
    with pytest.raises(SourceError):
        parse_program("type bad = mu t. unit + (mu s. unit + s * t);")


def test_recursion_variable_in_arrow_domain_rejected():
    with pytest.raises(SourceError):
        parse_program("type bad = mu t. unit + (t -> t);")


def test_syntax_error_carries_position():
    try:
        parse_program("let x = ;")
    except SourceError as exc:
        assert exc.line == 1 and exc.col > 0
    else:
        pytest.fail("expected a syntax error")


def test_undeclared_datatype_rejected():
    with pytest.raises(SourceError):
        parse_type("rose<nat>")


def test_arrow_shape_functor_parses():
    ty = parse_type("mu t. unit + (nat -> t)")
    assert isinstance(ty, TInd)
    assert isinstance(ty.functor, FSum)


def test_explicit_instantiation_syntax():
    e = parse_expr("id[nat, bool]")
    assert isinstance(e, Var)
    assert e.inst is not None and len(e.inst) == 2


def test_value_pretty_uses_constructor_names():
    v = VCons(NAT_TYPE, VInj(1, VCons(NAT_TYPE, VInj(0, __import__("costrec.source_ast", fromlist=["VUnit"]).VUnit()))))
    assert pretty(v) == "#1"


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_no_hole_outlives_checking(name):
    # extraction, the models and printing read types as they are, so no
    # hole may survive in the types checking wrote onto the nodes, the
    # program's annotations, or the annotations of the values the program
    # computes
    checked = check_program(parse_program(corpus_text(name)))
    assert not holes(checked.schemes, checked.main_type)
    for bname, expr in checked.program.bindings:
        facts = derived(expr)
        assert facts[0]["ty"] is not None, bname
        assert not holes(expr, facts), bname
    env, _ = program_env(checked.program)
    rng = random.Random(29)
    for fn in CORPUS_FUNCTIONS[name]:
        prepared = prepare(checked, fn, ())
        for _ in range(10):
            args = [gen_value(t, 10, rng) for t in prepared.arg_types]
            result = apply_function(env, fn, args).value
            assert not holes(result), (fn, pretty(result))
