import pytest

from conftest import corpus_checked
from reference import value_eq
from costrec.cost_eval import (
    EvalError, apply_function, eval_expr, mapv_eval, program_env, subst_value,
)
from costrec.source_ast import (
    EMPTY_ENV, FConst, FProd, FRec, FSum, NAT_TYPE, TUnit, ValueEnv, VCons,
    VDelayClo, VInj, VLamClo, VPair, VUnit, Delay, Unit, numeral_value,
    parse_expr, parse_program, pretty,
)


def ev(text, env=EMPTY_ENV):
    return eval_expr(env, parse_expr(text))


def value_of(text):
    """Parse, check (solving constructor annotation holes), and evaluate."""
    from costrec.typecheck import TypeContext, infer_expr

    e = parse_expr(text)
    infer_expr(TypeContext({}), e)
    return eval_expr(EMPTY_ENV, e).value


def test_constructors_cost_nothing():
    r = ev("#2")
    assert value_eq(r.value, numeral_value(2))
    assert r.cost == 0


def test_copy_tree_costs_one_per_constructor():
    checked = corpus_checked("copy.src")
    env, _ = program_env(checked.program)
    arg = value_of("node(#0, emp[nat], emp[nat])")
    r = apply_function(env, "copy", [arg])
    assert r.cost == 3
    assert value_eq(r.value, arg)


def test_plus_unfolds_once_per_first_argument_constructor():
    checked = corpus_checked("plus.src")
    env, _ = program_env(checked.program)
    r = apply_function(env, "plus", [numeral_value(2), numeral_value(3)])
    assert value_eq(r.value, numeral_value(5))
    assert r.cost == 3  # m + 1 = 3 unfoldings


def test_member_on_right_spine_costs_height_not_size():
    # searching for `true` in a right-spine of `false` nodes forces only the
    # path: cost is the height, although left subtrees would add size
    spine_depth = 6
    src_tree = "emp[bool]"
    for _ in range(spine_depth):
        src_tree = f"node(false, emp[bool], {src_tree})"
    checked = corpus_checked("mem.src")
    env, _ = program_env(checked.program)
    tree = value_of(src_tree)
    true_v = VInj(1, VUnit())
    r = apply_function(env, "mem", [tree, true_v])
    assert r.cost == spine_depth + 1  # one unfolding per spine node plus emp


def test_cost_equals_instrumented_fold_count():
    # every fold-rule firing suspends its recursive call through a single
    # machine binder; counting those is an independent tally of fold rules
    import costrec.cost_eval as ce

    checked = corpus_checked("sumtree.src")
    env, _ = program_env(checked.program)
    arg = value_of("node(#2, node(#1, emp[nat], emp[nat]), node(#3, emp[nat], emp[nat]))")
    fired = [0]
    original = ce.gensym

    def counting(base="x"):
        if base == "y":
            fired[0] += 1
        return original(base)

    ce.gensym = counting
    try:
        r = apply_function(env, "sumtree", [arg])
    finally:
        ce.gensym = original
    assert r.cost == fired[0]


def test_eval_is_deterministic():
    checked = corpus_checked("sumtree.src")
    env, _ = program_env(checked.program)
    arg = value_of("node(#2, node(#1, emp[nat], emp[nat]), emp[nat])")
    r1 = apply_function(env, "sumtree", [arg])
    r2 = apply_function(env, "sumtree", [arg])
    assert r1.cost == r2.cost and value_eq(r1.value, r2.value)


def test_step_limit_guards_against_runaway_evaluation():
    with pytest.raises(EvalError):
        eval_expr(EMPTY_ENV, parse_expr("#3"), step_limit=2)


def test_stuck_term_reports_evaluator_error():
    with pytest.raises(EvalError):
        eval_expr(EMPTY_ENV, parse_expr("pi0 ()"))


# ---------------------------------------------------------------------------
# mapv
# ---------------------------------------------------------------------------


def test_mapv_constant_shape_returns_value():
    v = numeral_value(3)
    out = mapv_eval(FConst(NAT_TYPE), "y", VUnit(), v)
    assert value_eq(out, v)


def test_mapv_recursion_variable_substitutes():
    out = mapv_eval(FRec(), "y", VDelayClo(parse_expr("y"), EMPTY_ENV), numeral_value(1))
    assert isinstance(out, VDelayClo)
    assert value_eq(eval_expr(out.env, out.expr).value, numeral_value(1))


def test_mapv_sum_then_recursion():
    # mapv over unit + t pushes the suspension under the right injection
    susp = VDelayClo(parse_expr("#0"), EMPTY_ENV)
    f = FSum(FConst(TUnit()), FRec())
    out = mapv_eval(f, "y", susp, VInj(1, VUnit()))
    assert isinstance(out, VInj) and out.index == 1
    assert isinstance(out.arg, VDelayClo)
    # the binder is bound to the traversed value in the closure environment
    assert value_eq(out.arg.env.lookup("y"), VUnit())


def test_mapv_product_shape():
    f = FProd(FConst(NAT_TYPE), FRec())
    susp = VDelayClo(parse_expr("#0"), EMPTY_ENV)
    out = mapv_eval(f, "y", susp, VPair(numeral_value(2), VUnit()))
    assert isinstance(out, VPair)
    assert value_eq(out.left, numeral_value(2))
    assert isinstance(out.right, VDelayClo)


def test_mapv_arrow_shape_wraps_closure_in_map():
    lam = parse_expr("fn (x: nat) => x")
    clo = eval_expr(EMPTY_ENV, lam).value
    f = __import__("costrec.source_ast", fromlist=["FArrow"]).FArrow(NAT_TYPE, FRec())
    out = mapv_eval(f, "y", VUnit(), clo)
    assert isinstance(out, VLamClo)
    from costrec.source_ast import MapE

    assert isinstance(out.lam.body, MapE)


def test_fold_over_arrow_shape_functor_evaluates():
    # a datatype with a function inside: evaluation supports it even though
    # the abstract models later reject it
    src = """
type fun1 = mu t. unit + (nat -> t);
let depth = fn (v: fun1) =>
  fold[fun1] v with x =>
    case x of u => #0 | g => force (g #0)
  : nat;
main = depth (cons[fun1] (inj1[unit + (nat -> fun1)] (fn (n: nat) => cons[fun1] (inj0[unit + (nat -> fun1)] ()))));
"""
    prog = parse_program(src)
    from costrec.typecheck import check_program

    check_program(prog)
    env, _ = program_env(prog)
    r = eval_expr(env, prog.main)
    # note: g is the mapped suspended fold, applied at #0: S-free result
    assert r.cost >= 2


# ---------------------------------------------------------------------------
# subst_value
# ---------------------------------------------------------------------------


def test_subst_value_unit_unchanged():
    assert value_eq(subst_value(VUnit(), numeral_value(1), "y"), VUnit())


def test_subst_value_extends_closure_environment():
    lam = parse_expr("fn (x: nat) => x")
    clo = VLamClo(lam, EMPTY_ENV)
    out = subst_value(clo, numeral_value(2), "y")
    assert isinstance(out, VLamClo)
    assert value_eq(out.env.lookup("y"), numeral_value(2))


def test_subst_value_structural():
    susp, lam = parse_expr("y"), parse_expr("fn (x: nat) => y")
    v = VPair(VDelayClo(susp, EMPTY_ENV), VInj(0, VLamClo(lam, EMPTY_ENV)))
    out = subst_value(v, VUnit(), "y")
    bound = EMPTY_ENV.extend("y", VUnit())
    assert value_eq(out, VPair(VDelayClo(susp, bound), VInj(0, VLamClo(lam, bound))))
    assert not value_eq(out, v)
