import pytest

from conftest import CORPUS_FILES, CORPUS_FUNCTIONS, corpus_extracted
from reference import map_macro, rec_alpha_eq
from costrec.rec_lang import (
    RApp, RArrow, RC, RCase, RConsE, RDestE, RecElab, RecTypeError, RFold,
    RForall, RInd, RInj, RLam, RLet, ROne, RPair, RPlus, RProd, RProj, RSConst,
    RSRec, RSSum, RSum, RTVar, RTyApp, RTyLam, RUnit, RUnitE, RVar, RZero,
    check_rec, pretty_rec,
    rec_free_vars, simplify, subst_rec, subst_rec_shape, subst_rec_type_in_expr,
)

NAT_REC = RInd(RSSum(RSConst(RUnit()), RSRec()), "nat")


def test_cost_monoid_literals():
    assert check_rec({}, RPlus(RZero(), ROne())) == RC()


def test_polymorphic_identity():
    e = RTyLam("a", RLam("x", RTVar("a"), RVar("x")))
    assert check_rec({}, e) == RForall("a", RArrow(RTVar("a"), RTVar("a")))


def test_plus_only_at_cost_type():
    with pytest.raises(RecTypeError):
        check_rec({}, RPlus(RUnitE(), RZero()))


def test_fold_binder_annotation_must_be_shape_of_result():
    bad = RFold(NAT_REC, RVar("x"), "w", RUnit(), RZero())
    with pytest.raises(RecTypeError):
        check_rec({"x": NAT_REC}, bad)


def test_tyapp_requires_quantifier_free_argument():
    from costrec.rec_lang import RTyApp

    poly = RTyLam("a", RLam("x", RTVar("a"), RVar("x")))
    with pytest.raises(RecTypeError):
        check_rec({}, RTyApp(poly, RForall("b", RTVar("b"))))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_extractions_typecheck(name):
    ex = corpus_extracted(name)
    for bname, binding in ex.bindings.items():
        assert check_rec({}, binding.complexity) == binding.complexity_ty, bname


# ---------------------------------------------------------------------------
# The map macro
# ---------------------------------------------------------------------------


def test_map_macro_recursion_clause_substitutes():
    out = map_macro(RSRec(), NAT_REC, NAT_REC, "y", RVar("y"), RUnitE())
    assert rec_alpha_eq(out, RUnitE())


def test_map_macro_constant_clause_is_identity():
    out = map_macro(RSConst(RC()), NAT_REC, RC(), "y", RZero(), RVar("e"))
    assert rec_alpha_eq(out, RVar("e"))


def test_map_macro_sum_then_recursion():
    # unit + t: a case whose right branch applies the body to the component
    f = RSSum(RSConst(RUnit()), RSRec())
    out = map_macro(f, NAT_REC, RC(), "y", RZero(), RVar("e"))
    assert isinstance(out, RCase)
    assert isinstance(out.branch0, RInj) and out.branch0.index == 0
    assert isinstance(out.branch1, RInj) and out.branch1.index == 1
    assert rec_alpha_eq(out.branch1.arg, RZero())
    # and it typechecks at F[C]
    got = check_rec({"e": RSum(RUnit(), NAT_REC)}, out)
    assert got == RSum(RUnit(), RC())


def test_map_macro_product_projects():
    from costrec.rec_lang import RSProd

    f = RSProd(RSConst(RUnit()), RSRec())
    out = map_macro(f, NAT_REC, NAT_REC, "y", RVar("y"), RVar("e"))
    assert isinstance(out, RPair)
    assert rec_alpha_eq(out.left, RProj(0, RVar("e")))
    assert rec_alpha_eq(out.right, RProj(1, RVar("e")))


def test_map_macro_arrow_wraps_lambda():
    from costrec.rec_lang import RSArrow

    f = RSArrow(RC(), RSRec())
    out = map_macro(f, NAT_REC, NAT_REC, "y", RVar("y"), RVar("e"))
    assert isinstance(out, RLam)
    assert isinstance(out.body, RApp)


# ---------------------------------------------------------------------------
# The simplifier
# ---------------------------------------------------------------------------


def test_simplify_projection_beta():
    e = RProj(0, RPair(RZero(), ROne()))
    assert rec_alpha_eq(simplify(e), RZero())


def test_simplify_monoid_left_identity():
    e = RPlus(RZero(), RVar("e"))
    assert rec_alpha_eq(simplify(e), RVar("e"))


def test_simplify_monoid_right_identity_and_assoc():
    e = RPlus(RVar("a"), RPlus(RVar("b"), RPlus(RVar("c"), RZero())))
    out = simplify(e)
    assert rec_alpha_eq(out, RPlus(RPlus(RVar("a"), RVar("b")), RVar("c")))


def test_simplify_case_of_injection():
    e = RCase(
        RInj(0, RSum(RC(), RC()), ROne()),
        "x", RC(), RPlus(RVar("x"), RVar("x")),
        "x", RC(), RZero(),
    )
    assert rec_alpha_eq(simplify(e), RPlus(ROne(), ROne()))


def test_simplify_function_beta():
    e = RApp(RLam("x", RC(), RPlus(RVar("x"), RZero())), ROne())
    assert rec_alpha_eq(simplify(e), ROne())


def test_simplify_leaves_dest_of_cons_alone():
    # beta-delta is a strict inequality under size abstraction
    inner = RConsE(NAT_REC, RInj(0, subst_rec_shape(NAT_REC.functor, NAT_REC), RUnitE()))
    e = RDestE(NAT_REC, inner)
    out = simplify(e)
    assert isinstance(out, RDestE) and isinstance(out.arg, RConsE)


def test_simplify_leaves_tyapp_of_tylam_alone():
    from costrec.rec_lang import RTyApp

    e = RTyApp(RTyLam("a", RLam("x", RTVar("a"), RVar("x"))), RC())
    out = simplify(e)
    assert isinstance(out, RTyApp)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_subject_reduction_on_corpus(name):
    ex = corpus_extracted(name)
    for bname, binding in ex.bindings.items():
        reduced = simplify(binding.complexity)
        assert check_rec({}, reduced) == binding.complexity_ty, bname


def test_simplify_terminates_within_budget():
    # a long chain of redexes collapses without exhausting the budget
    e = RVar("z")
    for _ in range(200):
        e = RApp(RLam("x", RC(), RPlus(RVar("x"), RZero())), e)
    out = simplify(e)
    assert rec_alpha_eq(out, RVar("z"))


def test_substitution_capture_avoidance():
    # (fn y => x) with x := y must rename the binder
    body = RLam("y", RC(), RVar("x"))
    out = subst_rec(body, "x", RVar("y"))
    assert isinstance(out, RLam)
    assert out.binder != "y"
    assert rec_alpha_eq(out.body, RVar("y"), {out.binder: out.binder})


def test_pretty_rec_prints():
    e = RPlus(RZero(), ROne())
    assert pretty_rec(e) == "0 + 1"


# ---------------------------------------------------------------------------
# let
# ---------------------------------------------------------------------------


def _f_of(x):
    # an application: not an atom, so the simplifier does not copy it
    return RApp(RVar("f"), x)


F_CTX = {"f": RArrow(RC(), RC())}


def test_let_typing_extends_the_context():
    e = RLet("x", ROne(), RPlus(RVar("x"), RVar("x")))
    assert check_rec({}, e) == RC()


def test_let_binds_a_polymorphic_value():
    poly_id = RTyLam("a", RLam("x", RTVar("a"), RVar("x")))
    e = RLet("id", poly_id, RApp(RTyApp(RVar("id"), RC()), ROne()))
    assert check_rec({}, e) == RC()


def test_let_binder_scopes_over_the_body_only():
    with pytest.raises(RecTypeError):
        check_rec({}, RLet("x", RVar("x"), RZero()))
    with pytest.raises(RecTypeError):
        check_rec({}, RLet("x", ROne(), RPlus(RUnitE(), RVar("x"))))


def test_let_free_vars():
    e = RLet("x", RVar("y"), RPlus(RVar("x"), RVar("z")))
    assert rec_free_vars(e) == {"y", "z"}


def test_substitution_avoids_capture_under_let():
    # let y = 1 in x + y, with x := y, must rename the let binder
    e = RLet("y", ROne(), RPlus(RVar("x"), RVar("y")))
    out = subst_rec(e, "x", RVar("y"))
    assert isinstance(out, RLet) and out.binder != "y"
    assert rec_alpha_eq(out, RLet("z", ROne(), RPlus(RVar("y"), RVar("z"))))


def test_substitution_reaches_the_bound_but_not_a_shadowed_body():
    e = RLet("x", RVar("x"), RVar("x"))
    out = subst_rec(e, "x", ROne())
    assert rec_alpha_eq(out, RLet("x", ROne(), RVar("x")))


def test_type_substitution_reaches_both_parts_of_a_let():
    e = RLet("x", RLam("y", RTVar("a"), RVar("y")), RLam("z", RTVar("a"), RVar("z")))
    out = subst_rec_type_in_expr(e, {"a": RC()})
    assert check_rec({}, out) == RArrow(RC(), RC())


def test_simplify_drops_an_unused_let():
    e = RLet("x", _f_of(ROne()), RZero())
    assert rec_alpha_eq(simplify(e), RZero())


def test_simplify_inlines_a_let_used_once():
    e = RLet("x", _f_of(ROne()), RPlus(RVar("x"), ROne()))
    assert rec_alpha_eq(simplify(e), RPlus(_f_of(ROne()), ROne()))


def test_simplify_keeps_a_let_used_twice():
    e = RLet("x", _f_of(ROne()), RPlus(RVar("x"), RVar("x")))
    out = simplify(e)
    assert rec_alpha_eq(out, e)
    assert check_rec(F_CTX, out) == RC()


def test_simplify_inlines_atoms_however_often_they_occur():
    e = RLet("x", RVar("y"), RPlus(RVar("x"), RVar("x")))
    assert rec_alpha_eq(simplify(e), RPlus(RVar("y"), RVar("y")))


def test_simplify_function_beta_shares_its_argument():
    # (fn x => x + x) (f 1) binds f 1 once rather than copying it
    e = RApp(RLam("x", RC(), RPlus(RVar("x"), RVar("x"))), _f_of(ROne()))
    out = simplify(e)
    assert rec_alpha_eq(out, RLet("x", _f_of(ROne()), RPlus(RVar("x"), RVar("x"))))


def test_let_alpha_equivalence():
    a = RLet("x", ROne(), RVar("x"))
    assert rec_alpha_eq(a, RLet("y", ROne(), RVar("y")))
    assert not rec_alpha_eq(a, RLet("y", RZero(), RVar("y")))
    assert not rec_alpha_eq(a, RLet("y", ROne(), RVar("x")))


def test_pretty_rec_prints_let():
    e = RLet("x", ROne(), RPlus(RVar("x"), RVar("x")))
    assert pretty_rec(e) == "let x = 1 in x + x"
    assert pretty_rec(RProj(0, e)) == "pi0 (let x = 1 in x + x)"
