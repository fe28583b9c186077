"""Model-level checks: the worked examples' denotations, the semantic
operator laws in each model's order direction, the Galois connection, and
soundness of the size-order axioms.
"""

import gc
import random
import sys
import weakref
from collections import Counter

import pytest

from conftest import (
    CORPUS_FILES, CORPUS_FUNCTIONS, corpus_checked, corpus_extracted, corpus_text,
    holes,
)
from reference import denote_closed, map_macro
from costrec import harness, models
from costrec.cli import _parse_at
from costrec.extract import extract_program, potential_type
from costrec.cost_eval import apply_function, eval_expr
from costrec.harness import apply_bound, gen_value, prepare, run_trial
from costrec.models import (
    MODEL_NAMES, AllConsModel, ExactModel, LowerSizeModel, MergedModel,
    ModelError, SemEnv, SizeHeightModel, denote,
    galois_abs, galois_conc, make_model, observable, support_datatypes,
    value_potential,
)
from costrec.rec_lang import (
    RArrow, RC, RCase, RecElab, RecExpr, RInd, RInj, RPair, RProd, RProj, RSConst, RSProd,
    RSRec, RSSum, RSum, RUnit, RUnitE, RVar, RZero, ROne, check_rec,
    subst_rec_shape, RConsE, RDestE, RFold, RLam, RApp,
    RPlus, RForall, RLet, RTyApp, RTyLam, pretty_rec_type, rec_free_vars,
    subst_rtyvars,
)
from costrec.semdom import (
    INF, ONE, ZERO, SemError, SFun, SIdeal, SMap, SNum, SPair, SStar, SizeMap,
    UnsupportedFeature, XCons, antichain, canonical, ext, is_function_free, sem_leq,
)
from costrec.source_ast import (
    EMPTY_ENV, NAT_TYPE, TArrow, TInd, TProd, TSum, TUnit, VCons, VInj, VPair,
    VUnit, numeral_value, parse_expr, parse_type, pretty, pretty_type,
    parse_program, subst_shape, subst_tyvars, type_memo,
)
from costrec.typecheck import TypeContext, check_program, infer_expr

NAT = potential_type(NAT_TYPE)
LIST_NAT = potential_type(parse_type("list<nat>"))
TREE_NAT = potential_type(parse_type("tree<nat>"))
TREE_BOOL = potential_type(parse_type("tree<bool>"))


def size(n):
    return SNum("size", ext(n))


def cost(n):
    return SNum("cost", ext(n))


def phi_nat(n):
    return SMap(SizeMap.of({NAT: n}))


def phi_tree(n, k):
    return SMap(SizeMap.of({NAT: n, TREE_NAT: k}))


# ---------------------------------------------------------------------------
# Constructor size and height
# ---------------------------------------------------------------------------


def test_nil_has_size_one():
    m = SizeHeightModel("size")
    unfold = subst_rec_shape(LIST_NAT.functor, LIST_NAT)
    nil = m.cons(LIST_NAT, m.inj(0, SStar(), unfold))
    assert nil == size(1)


def test_cons_adds_one_to_the_tail():
    m = SizeHeightModel("size")
    unfold = subst_rec_shape(LIST_NAT.functor, LIST_NAT)
    v = m.cons(LIST_NAT, m.inj(1, SPair(size(7), size(4)), unfold))
    assert v == size(5)


def test_node_size_adds_and_height_maxes():
    data = SPair(SPair(size(9), size(2)), size(3))
    unfold = subst_rec_shape(TREE_NAT.functor, TREE_NAT)
    sz = SizeHeightModel("size").cons(TREE_NAT, SizeHeightModel("size").inj(1, data, unfold))
    hi = SizeHeightModel("height").cons(TREE_NAT, SizeHeightModel("height").inj(1, data, unfold))
    assert sz == size(6)  # 1 + 2 + 3
    assert hi == size(4)  # 1 + max(2, 3)


def test_constant_positions_contribute_nothing():
    m = SizeHeightModel("size")
    assert m.size_of(RSConst(NAT), size(99)) == ZERO


def test_list_dest_examples():
    m = SizeHeightModel("size")
    d1 = m.dest(LIST_NAT, size(1))
    assert d1 == SIdeal((SStar(),), ())  # a size-1 list must be nil
    d3 = m.dest(LIST_NAT, size(3))
    assert d3.left == (SStar(),)
    assert d3.right == (SPair(size(None), size(2)),)


def test_fold_at_infinity_returns_top():
    m = SizeHeightModel("size")
    step = SFun(lambda z: cost(1))
    out = m.fold(LIST_NAT, RC(), step, size(None))
    assert out == cost(None)


def test_nat_fold_identity_iteration():
    # step s(x) = case x of _ -> 1 | r -> 1 + r computes the identity
    m = SizeHeightModel("size")

    def step(z):
        return m.case(z, lambda _u: size(1),
                      lambda r: SNum("size", ONE + r.num), RInd(RSRec()))

    for n in range(1, 10):
        assert m.fold(NAT, RInd(RSRec()), step, size(n)) == size(n)


def test_copy_tree_denotation_matches_bruteforce_recurrence():
    ex = corpus_extracted("copy.src")
    cpx = denote_closed(SizeHeightModel("size"), ex.bindings["copy"].complexity)

    def oracle(n, memo={}):
        if n not in memo:
            if n == 1:
                memo[n] = 1
            else:
                best = 1  # the emp branch
                for n0 in range(1, n - 1):
                    for n1 in range(1, n - n0):
                        best = max(best, 1 + oracle(n0) + oracle(n1))
                memo[n] = best
        return memo[n]

    for n in range(1, 13):
        got = cpx.right(size(n))
        assert got.left == cost(oracle(n)), n


# ---------------------------------------------------------------------------
# All-constructors model
# ---------------------------------------------------------------------------


def test_successor_adds_one_nat_constructor():
    m = AllConsModel()
    unfold = subst_rec_shape(NAT.functor, NAT)
    succ = m.cons(NAT, m.inj(1, phi_nat(3), unfold))
    assert succ == phi_nat(4)


def test_numeral_denotes_phi():
    m = AllConsModel()
    for n in range(0, 8):
        got = value_potential(m, numeral_value(n), NAT_TYPE)
        assert got == phi_nat(n + 1), n


def test_emp_denotes_singleton_tree_map():
    m = AllConsModel()
    unfold = subst_rec_shape(TREE_NAT.functor, TREE_NAT)
    emp = m.cons(TREE_NAT, m.inj(0, SStar(), unfold))
    assert emp == SMap(SizeMap.of({TREE_NAT: 1}))


def test_node_composes_label_max_and_subtree_sum():
    m = AllConsModel()
    unfold = subst_rec_shape(TREE_NAT.functor, TREE_NAT)
    data = SPair(SPair(phi_nat(4), phi_tree(2, 3)), phi_tree(6, 1))
    node = m.cons(TREE_NAT, m.inj(1, data, unfold))
    assert node == phi_tree(6, 5)  # labels max, subtrees add plus one


def test_tree_potentials_track_labels_and_size():
    m = AllConsModel()
    t = VCons(parse_type("tree<nat>"), VInj(1, VPair(VPair(numeral_value(2),
        VCons(parse_type("tree<nat>"), VInj(0, VUnit()))),
        VCons(parse_type("tree<nat>"), VInj(0, VUnit())))))
    got = value_potential(m, t, parse_type("tree<nat>"))
    assert got == phi_tree(3, 3)  # max label size 3 = 2+1, three tree ctors


# ---------------------------------------------------------------------------
# Galois connection between allcons and size
# ---------------------------------------------------------------------------


def test_abs_projects_main_count():
    assert galois_abs(LIST_NAT, SMap(SizeMap.of({LIST_NAT: 4, NAT: 7}))) == size(4)


def test_conc_pads_with_infinity():
    got = galois_conc(LIST_NAT, size(4))
    assert got == SMap(SizeMap.of({LIST_NAT: 4, NAT: None}))


def test_abs_after_conc_is_identity():
    for n in [1, 4, None]:
        assert galois_abs(LIST_NAT, galois_conc(LIST_NAT, size(n))) == size(n)


_SAMPLE_TYPES = [NAT, LIST_NAT, TREE_NAT, RProd(RC(), NAT), RSum(RUnit(), NAT),
                 RProd(NAT, RSum(RUnit(), RUnit()))]


def _random_w_value(ty, rng, depth=0):
    m = AllConsModel()
    match ty:
        case RUnit():
            return SStar()
        case RC():
            return cost(rng.choice([0, 1, 2, 5, None]))
        case RInd(_, _):
            entries = {}
            for d in support_datatypes(ty):
                entries[d] = rng.choice([1, 2, 3, 7, None] if d == ty else [0, 1, 2, None])
            entries[ty] = entries[ty] or 1
            return SMap(SizeMap.of(entries))
        case RProd(l, r):
            return SPair(_random_w_value(l, rng, depth + 1), _random_w_value(r, rng, depth + 1))
        case RSum(l, r):
            gens_l = [_random_w_value(l, rng, depth + 1) for _ in range(rng.randrange(0, 3))]
            gens_r = [_random_w_value(r, rng, depth + 1) for _ in range(rng.randrange(0, 3))]
            return SIdeal(antichain(gens_l), antichain(gens_r))
    raise AssertionError(ty)


def _random_v_value(ty, rng, depth=0):
    match ty:
        case RUnit():
            return SStar()
        case RC():
            return cost(rng.choice([0, 1, 2, 5, None]))
        case RInd(_, _):
            return size(rng.choice([1, 2, 3, 7, None]))
        case RProd(l, r):
            return SPair(_random_v_value(l, rng, depth + 1), _random_v_value(r, rng, depth + 1))
        case RSum(l, r):
            gens_l = [_random_v_value(l, rng, depth + 1) for _ in range(rng.randrange(0, 3))]
            gens_r = [_random_v_value(r, rng, depth + 1) for _ in range(rng.randrange(0, 3))]
            return SIdeal(antichain(gens_l), antichain(gens_r))
    raise AssertionError(ty)


@pytest.mark.parametrize("ty", _SAMPLE_TYPES)
def test_galois_laws_randomized(ty):
    rng = random.Random(42)
    for _ in range(100):
        v = _random_v_value(ty, rng)
        assert galois_abs(ty, galois_conc(ty, v)) == v
        w = _random_w_value(ty, rng)
        assert sem_leq(w, galois_conc(ty, galois_abs(ty, w)))


# ---------------------------------------------------------------------------
# Lower-bound dual model
# ---------------------------------------------------------------------------


def test_lower_list_dest_uses_bottoms():
    m = LowerSizeModel()
    d = m.dest(LIST_NAT, size(4))
    assert d == SIdeal((), (SPair(size(1), size(3)),))


def test_lower_fold_base_is_bottom():
    m = LowerSizeModel()
    step = SFun(lambda z: cost(1))
    assert m.fold(LIST_NAT, RC(), step, size(1)) == cost(0)


def test_lower_bound_below_upper_bound_for_copy():
    ex = corpus_extracted("copy.src")
    up = denote_closed(SizeHeightModel("size"), ex.bindings["copy"].complexity)
    lo = denote_closed(LowerSizeModel(), ex.bindings["copy"].complexity)
    for n in range(1, 10):
        assert lo.right(size(n)).left.num <= up.right(size(n)).left.num


# ---------------------------------------------------------------------------
# Exact model
# ---------------------------------------------------------------------------


def test_exact_cost_equals_operational_cost_for_plus():
    from costrec.cost_eval import apply_function, program_env

    checked = corpus_checked("plus.src")
    ex = corpus_extracted("plus.src")
    env, _ = program_env(checked.program)
    m = ExactModel()
    cpx = denote_closed(m, ex.bindings["plus"].complexity)
    for a, b in [(0, 0), (2, 3), (4, 1)]:
        va, vb = numeral_value(a), numeral_value(b)
        r1 = cpx.right(value_potential(m, va, NAT_TYPE))
        r2 = r1.right(value_potential(m, vb, NAT_TYPE))
        model_cost = (r1.left.num + r2.left.num).value
        op = apply_function(env, "plus", [va, vb])
        assert model_cost == op.cost
        assert r2.right == value_potential(m, op.value, NAT_TYPE)


def test_exact_extraction_of_numeral_is_structural():
    from costrec.extract import extract_expr

    e = parse_expr("#2")
    infer_expr(TypeContext({}), e)
    cpx = denote_closed(ExactModel(), extract_expr(e))
    assert cpx.left == cost(0)
    assert cpx.right == value_potential(ExactModel(), numeral_value(2), NAT_TYPE)


def test_exact_model_validates_equality_axioms():
    # projection, case-of-injection, and function beta denote equal values
    m = ExactModel()
    e_pair = RProj(0, RPair(ROne(), RZero()))
    assert denote_closed(m, e_pair) == denote_closed(m, ROne())
    sum_cc = RSum(RC(), RC())
    e_case = RCase(RInj(1, sum_cc, ROne()), "x", RC(), RZero(), "x", RC(),
                   RPlus(RVar("x"), ROne()))
    assert denote_closed(m, e_case) == denote_closed(m, RPlus(ROne(), ROne()))
    e_beta = RApp(RLam("x", RC(), RPlus(RVar("x"), RVar("x"))), ROne())
    assert denote_closed(m, e_beta) == denote_closed(m, RPlus(ROne(), ROne()))


# ---------------------------------------------------------------------------
# Applicative-structure laws per model direction
# ---------------------------------------------------------------------------

_DATA_SAMPLES = {
    "list": [1, 2, 3, 5, 8],
    "tree": [1, 3, 5, 7],
}


@pytest.mark.parametrize("model_name", ["size", "height", "allcons"])
def test_dest_cons_retraction_upper(model_name):
    m = make_model(model_name)
    unfold = subst_rec_shape(LIST_NAT.functor, LIST_NAT)
    for tail in [1, 2, 4]:
        if model_name == "allcons":
            z = m.inj(1, SPair(phi_nat(2), SMap(SizeMap.of({LIST_NAT: tail, NAT: 2}))), unfold)
        else:
            z = m.inj(1, SPair(size(2) if model_name != "allcons" else phi_nat(2), size(tail)), unfold)
        back = m.dest(LIST_NAT, m.cons(LIST_NAT, z))
        assert sem_leq(z, back)


def test_dest_cons_retraction_reversed_in_lower_model():
    m = LowerSizeModel()
    unfold = subst_rec_shape(LIST_NAT.functor, LIST_NAT)
    z = m.inj(1, SPair(size(2), size(4)), unfold)
    back = m.dest(LIST_NAT, m.cons(LIST_NAT, z))
    assert sem_leq(back, z)  # dual order: dest(cons z) >=* z


@pytest.mark.parametrize("model_name", ["size", "height", "allcons", "merged"])
def test_case_of_injection_bounds_branch(model_name):
    m = make_model(model_name)
    sum_ty = RSum(RUnit(), RC())
    f0 = lambda _v: cost(1)
    f1 = lambda v: SNum("cost", v.num + ONE)
    for v in [cost(0), cost(3)]:
        got = m.case(m.inj(1, v, sum_ty), f0, f1, RC())
        assert sem_leq(f1(v), got)
    got0 = m.case(m.inj(0, SStar(), sum_ty), f0, f1, RC())
    assert sem_leq(f0(SStar()), got0)


@pytest.mark.parametrize("model_name", ["size", "height"])
def test_fold_cons_lax_initiality(model_name):
    # fold(step)(cons z) >= step(F-map(fold step)(z))
    m = make_model(model_name)
    unfold = subst_rec_shape(LIST_NAT.functor, LIST_NAT)

    def step(z):
        return m.case(z, lambda _u: cost(1),
                      lambda p: SNum("cost", p.right.num + ONE), RC())

    def fold_fn(x):
        return m.fold(LIST_NAT, RC(), step, x)

    for tail in [1, 2, 5]:
        z = m.inj(1, SPair(size(3), size(tail)), unfold)
        lhs = fold_fn(m.cons(LIST_NAT, z))
        rhs = step(m.map_shape(LIST_NAT.functor, SFun(fold_fn), z))
        assert sem_leq(rhs, lhs)


@pytest.mark.parametrize("model_name", ["size", "height", "allcons"])
def test_std_fold_monotone(model_name):
    m = make_model(model_name)

    def step(z):
        return m.case(z, lambda _u: cost(1),
                      lambda p: SNum("cost", p.right.num + ONE), RC())

    def arg(n):
        if model_name == "allcons":
            return SMap(SizeMap.of({LIST_NAT: n, NAT: 3}))
        return size(n)

    prev = None
    for n in [1, 2, 3, 5, 9, None]:
        cur = m.fold(LIST_NAT, RC(), step, arg(n))
        if prev is not None:
            assert sem_leq(prev, cur)
        prev = cur


def test_arrow_shape_rejected_by_abstract_models():
    arrow_ind = RInd(RSSum(RSConst(RUnit()), __import__("costrec.rec_lang", fromlist=["RSArrow"]).RSArrow(RC(), RSRec())), "fun1")
    m = SizeHeightModel("size")
    with pytest.raises(UnsupportedFeature):
        m.fold(arrow_ind, RC(), SFun(lambda z: cost(0)), size(3))


# ---------------------------------------------------------------------------
# Environment monotonicity and size-order soundness
# ---------------------------------------------------------------------------


def test_denotation_monotone_in_environment():
    # fold over a list variable: a <= a' implies den(e)[x:=a] <= den(e)[x:=a']
    ex = corpus_extracted("copy.src")
    cpx = denote_closed(SizeHeightModel("size"), ex.bindings["copy"].complexity)
    f = cpx.right
    for lo, hi in [(1, 2), (2, 5), (3, None)]:
        assert sem_leq(f(size(lo)), f(size(hi)))


def _axiom_instances():
    """Closed axiom instances at first-order types: (lhs, rhs) pairs with
    lhs <= rhs expected in every upper model.
    """
    nat_unfold = subst_rec_shape(NAT.functor, NAT)
    numeral2 = RConsE(NAT, RInj(1, nat_unfold, RConsE(NAT, RInj(0, nat_unfold, RUnitE()))))
    out = []
    # beta-times
    out.append((ROne(), RProj(0, RPair(ROne(), RZero()))))
    out.append((numeral2, RProj(1, RPair(RZero(), numeral2))))
    # beta-plus
    sum_cn = RSum(RC(), NAT)
    out.append((RZero(),
                RCase(RInj(0, sum_cn, RZero()), "x", RC(), RVar("x"), "y", NAT, RZero())))
    # beta-to
    out.append((RPlus(ROne(), ROne()),
                RApp(RLam("x", RC(), RPlus(RVar("x"), RVar("x"))), ROne())))
    # beta-delta
    out.append((RInj(1, nat_unfold, numeral2), RDestE(NAT, RConsE(NAT, RInj(1, nat_unfold, numeral2)))))
    # monoid equalities in both directions
    out.append((RPlus(RZero(), ROne()), ROne()))
    out.append((ROne(), RPlus(RZero(), ROne())))
    out.append((RPlus(ROne(), RPlus(ROne(), ROne())), RPlus(RPlus(ROne(), ROne()), ROne())))
    return out


@pytest.mark.parametrize("model_name", ["size", "height", "allcons", "merged"])
def test_size_order_axioms_sound_in_upper_models(model_name):
    m = make_model(model_name)
    for lhs, rhs in _axiom_instances():
        dl = denote_closed(m, lhs)
        dr = denote_closed(m, rhs)
        assert sem_leq(dl, dr), (model_name, lhs, rhs)


def test_beta_fold_axiom_sound():
    # e[map(...)/x] <= fold(cons e') per (the fold beta law), size model
    m = SizeHeightModel("size")
    nat_unfold = subst_rec_shape(NAT.functor, NAT)
    step_body = RCase(RVar("x"), "u", RUnit(), ROne(),
                      "r", RProd(RC(), RC()), RPlus(ROne(), RProj(0, RVar("r"))))
    # "x : F[C x C]": use pairs for the complexity-like recursive result
    # instead, keep it simple: step over F[C] with the recursive result a cost
    step_body = RCase(RVar("x"), "u", RUnit(), ROne(), "r", RC(),
                      RPlus(ROne(), RVar("r")))
    e_prime = RInj(1, nat_unfold, RConsE(NAT, RInj(0, nat_unfold, RUnitE())))
    fold_term = RFold(NAT, RConsE(NAT, e_prime), "x",
                      subst_rec_shape(NAT.functor, RC()), step_body)
    mapped = map_macro(NAT.functor, NAT, RC(), "y",
                             RFold(NAT, RVar("y"), "x",
                                   subst_rec_shape(NAT.functor, RC()), step_body),
                             e_prime)
    lhs_term = __import__("costrec.rec_lang", fromlist=["subst_rec"]).subst_rec(
        step_body, "x", mapped)
    assert sem_leq(denote_closed(m, lhs_term), denote_closed(m, fold_term))


# ---------------------------------------------------------------------------
# Merged-model polymorphism
# ---------------------------------------------------------------------------


def test_extracted_copy_denotes_like_the_display_recurrence():
    """The recurrence extracted from the sugared tree copy denotes, in every
    model, the same values as the hand-written fold with per-branch 1+
    charges: (1, emp) at the base and
    (1 + c0 + c1, node(x, p0, p1)) at nodes.
    """
    from costrec.extract import complexity_type
    from costrec.rec_lang import RConsE as C_, RFold as F_

    tree_src = parse_type("tree<nat>")
    TREE = potential_type(tree_src)
    cpx_tree = complexity_type(tree_src)
    unfold_pot = subst_rec_shape(TREE.functor, TREE)
    binder_ty = subst_rec_shape(TREE.functor, cpx_tree)
    assert isinstance(binder_ty, RSum)
    w, y, u = "w", "y", "u"

    def p0(e):
        return RProj(0, e)

    def p1(e):
        return RProj(1, e)

    yv = RVar(y)
    x_part = p0(p0(yv))
    r0, r1 = p1(p0(yv)), p1(yv)
    node_pot = RConsE(TREE, RInj(1, unfold_pot, RPair(RPair(x_part, p1(r0)), p1(r1))))
    emp_pot = RConsE(TREE, RInj(0, unfold_pot, RUnitE()))
    step = RCase(
        RVar(w), u, binder_ty.left, RPair(ROne(), emp_pot),
        y, binder_ty.right,
        RPair(RPlus(ROne(), RPlus(p0(r0), p0(r1))), node_pot),
    )
    hand = RLam("t", TREE, RPair(RFold(TREE, RVar("t"), w, binder_ty, step), RUnitE()))
    # wrap as a complexity so shapes line up with the extraction
    hand = RPair(RZero(), RLam("t", TREE, RFold(TREE, RVar("t"), w, binder_ty, step)))

    ex = corpus_extracted("copy.src")
    extracted = ex.bindings["copy"].complexity

    for model_name in ("size", "height", "lower"):
        m = make_model(model_name)
        d_hand = denote_closed(m, hand).right
        d_ext = denote_closed(m, extracted).right
        for n in range(1, 10):
            a, b = d_hand(size(n)), d_ext(size(n))
            assert a.left == b.left and a.right == b.right, (model_name, n)

    m = make_model("allcons")
    d_hand = denote_closed(m, hand).right
    d_ext = denote_closed(m, extracted).right
    for n, k in [(1, 1), (2, 3), (4, 5), (3, 7)]:
        a, b = d_hand(phi_tree(n, k)), d_ext(phi_tree(n, k))
        assert a == b, (n, k)

    m = make_model("exact")
    d_hand = denote_closed(m, hand).right
    d_ext = denote_closed(m, extracted).right
    t = VCons(parse_type("tree<nat>"), VInj(1, VPair(VPair(numeral_value(1),
        VCons(parse_type("tree<nat>"), VInj(0, VUnit()))),
        VCons(parse_type("tree<nat>"), VInj(0, VUnit())))))
    emb = value_potential(m, t, parse_type("tree<nat>"))
    assert d_hand(emb) == d_ext(emb)


def test_merged_rev_recurrences():
    ex = corpus_extracted("rev.src")
    m = MergedModel()
    b = ex.bindings["revgo"]
    poly = denote_closed(m, b.potential)
    ty = b.potential_ty
    inst = m.tyapp(poly, NAT, ty.var, ty.body)

    def conc_list(n):
        return galois_conc(LIST_NAT, size(n))

    # S(1, m) = m
    for mm in range(0, 6):
        r1 = inst(conc_list(1))
        r2 = r1.right(conc_list(mm))
        assert galois_abs(LIST_NAT, r2.right) == size(mm)
    # S(n, m) = S(n-1, m+1), solved: m + n - 1; cost n
    for n in range(1, 8):
        for mm in range(0, 8):
            r1 = inst(conc_list(n))
            r2 = r1.right(conc_list(mm))
            assert galois_abs(LIST_NAT, r2.right) == size(mm + n - 1)
            assert (r1.left.num + r2.left.num) == ext(n)


def test_merged_monomorphic_code_behaves_like_allcons():
    ex = corpus_extracted("plus.src")
    wm = AllConsModel()
    mm = MergedModel()
    cw = denote_closed(wm, ex.bindings["plus"].complexity)
    cm = denote_closed(mm, ex.bindings["plus"].complexity)
    for a, b in [(1, 1), (3, 2)]:
        rw = cw.right(phi_nat(a)).right(phi_nat(b))
        rm = cm.right(phi_nat(a)).right(phi_nat(b))
        assert rw == rm


def test_value_potential_rejects_non_observable():
    m = SizeHeightModel("size")
    from costrec.models import ModelError
    from costrec.source_ast import VLamClo

    with pytest.raises(ModelError):
        value_potential(m, VUnit(), parse_type("nat -> nat"))


def test_observable_classification():
    assert observable(parse_type("unit"))
    assert observable(parse_type("tree<nat> * bool"))
    assert not observable(parse_type("nat -> nat"))
    assert not observable(parse_type("susp nat"))
    assert not observable(parse_type("mu t. unit + (nat -> t)"))


# ---------------------------------------------------------------------------
# Embedding source values
# ---------------------------------------------------------------------------

EMBED_SEED = 6061


def _replay(model, v, ty):
    """The embedding by replaying the model's injection and constructor at
    every node of the value, one Python frame per node: the reference the
    direct walks of ``value_potential`` must match.
    """
    match (v, ty):
        case (VUnit(), TUnit()):
            return SStar()
        case (VPair(l, r), TProd(tl, tr)):
            return SPair(_replay(model, l, tl), _replay(model, r, tr))
        case (VInj(i, a), TSum(tl, tr)):
            sub = _replay(model, a, tl if i == 0 else tr)
            return model.inj(i, sub, potential_type(ty))
        case (VCons(_, a), TInd(f, _)):
            unfolded = type_memo(ty, "_unfolded", lambda t: subst_shape(t.functor, t))
            sub = _replay(model, a, unfolded)
            return model.cons(potential_type(ty), sub)
    raise ModelError(f"value {pretty(v)} does not inhabit {pretty_type(ty)}")


def _embedding_samples():
    """(where, type, value) for generated arguments and evaluated results of
    every corpus function, polymorphic ones also at list<nat> and tree<nat>.
    """
    rng = random.Random(EMBED_SEED)
    out = []
    for name, fns in sorted(CORPUS_FUNCTIONS.items()):
        for fn in fns:
            for at in ("nat", "list<nat>", "tree<nat>"):
                p = prepare(corpus_checked(name), fn, (), corpus_extracted(name),
                            instantiate_at=parse_type(at))
                for trial in range(25):
                    args = [gen_value(t, 12, rng) for t in p.arg_types]
                    res = apply_function(p.env, p.name, args)
                    where = (name, fn, at, trial)
                    out += [((*where, i), t, a) for i, (t, a)
                            in enumerate(zip(p.arg_types, args))]
                    out.append(((*where, "result"), p.result_type, res.value))
    return out


def test_value_potential_equals_the_constructor_replay():
    print(f"embedding seed {EMBED_SEED}")
    samples = _embedding_samples()
    datatypes = set()
    for model_name in MODEL_NAMES:
        m = make_model(model_name)
        for where, ty, v in samples:
            got = value_potential(m, v, ty)
            want = _replay(m, v, ty)
            assert got == want, (EMBED_SEED, model_name, where)
            assert str(got) == str(want), (EMBED_SEED, model_name, where)
            assert hash(got) == hash(want), (EMBED_SEED, model_name, where)
            datatypes |= support_datatypes(potential_type(ty))
    # rev instantiated at list<nat> and tree<nat> nests datatypes
    assert datatypes >= {potential_type(parse_type(t)) for t in (
        "nat", "list<nat>", "tree<nat>", "tree<bool>",
        "list<list<nat>>", "list<tree<nat>>")}


@pytest.mark.parametrize("text,ty", [
    ("node(#1, node(#0, emp[nat], emp[nat]), emp[nat])", "tree<nat>"),
    ("cons(node(#2, emp[nat], emp[nat]), cons(emp[nat], nil[tree<nat>]))",
     "list<tree<nat>>"),
    ("cons(cons(#1, nil), nil)", "list<list<nat>>"),
])
def test_values_of_unchecked_expressions_print_and_embed(text, ty):
    # constructor sugar without [T] leaves holes that only checking solves,
    # so a value built from an unchecked expression keeps them unsolved;
    # printing and embedding read the given type and the constructor index
    unchecked = eval_expr(EMPTY_ENV, parse_expr(text)).value
    assert holes(unchecked)
    assert all(h.cell.solution is None for h in holes(unchecked))
    e = parse_expr(text)
    infer_expr(TypeContext({}), e)
    checked = eval_expr(EMPTY_ENV, e).value
    assert pretty(unchecked) == pretty(checked)
    t = parse_type(ty)
    for model_name in MODEL_NAMES:
        m = make_model(model_name)
        got = value_potential(m, unchecked, t)
        assert got == value_potential(m, checked, t), model_name
        assert str(got) == str(value_potential(m, checked, t)), model_name


def _list_value(ty, items):
    """A list of the given values, a number standing for its numeral."""
    xs = VCons(ty, VInj(0, VUnit()))
    for x in reversed(items):
        xs = VCons(ty, VInj(1, VPair(numeral_value(x) if isinstance(x, int) else x, xs)))
    return xs


def _node(ty, left, label, right):
    return VCons(ty, VInj(1, VPair(VPair(label, left), right)))


def test_allcons_census_takes_the_max_across_elements():
    list_tree = parse_type("list<tree<nat>>")
    tree_nat = parse_type("tree<nat>")
    emp = VCons(tree_nat, VInj(0, VUnit()))
    small = _node(tree_nat, emp, numeral_value(6), emp)                   # 3 trees
    big = _node(tree_nat, small, numeral_value(1), _node(tree_nat, emp,   # 7 trees
                                                         numeral_value(2), emp))
    forest = _list_value(list_tree, [small, big, small])
    tree_list = parse_type("tree<list<nat>>")
    list_nat = parse_type("list<nat>")
    leaf = VCons(tree_list, VInj(0, VUnit()))
    lists = _node(tree_list, _node(tree_list, leaf, _list_value(list_nat, [4, 0]), leaf),
                  _list_value(list_nat, [1, 2, 3]), leaf)
    cases = [
        (forest, list_tree,
         {"list<tree<nat>>": 4, "tree<nat>": 7, "nat": 7}),
        (lists, tree_list,
         {"tree<list<nat>>": 5, "list<nat>": 4, "nat": 5}),
    ]
    for model_name in ("allcons", "merged"):
        m = make_model(model_name)
        for v, ty, counts in cases:
            got = value_potential(m, v, ty)
            assert {pretty_rec_type(k): n.value
                    for k, n in got.sizemap.entries} == counts
            assert got == _replay(m, v, ty)


def _long_list(n):
    """A list<nat> of n - 1 zeros: n main constructors."""
    ty = parse_type("list<nat>")
    zero = numeral_value(0)
    xs = VCons(ty, VInj(0, VUnit()))
    for _ in range(n - 1):
        xs = VCons(ty, VInj(1, VPair(zero, xs)))
    return ty, xs


def _left_spine_tree(nodes):
    """A tree<nat> of the given number of nodes, each the left child of the
    next: 2 * nodes + 1 main constructors, nested nodes + 1 deep.
    """
    ty = parse_type("tree<nat>")
    emp = VCons(ty, VInj(0, VUnit()))
    t = emp
    for _ in range(nodes):
        t = _node(ty, t, numeral_value(0), emp)
    return ty, t


@pytest.mark.parametrize("model_name", ["size", "height", "lower", "allcons", "merged"])
def test_long_values_embed_without_deep_recursion(model_name):
    assert sys.getrecursionlimit() < 10_000
    m = make_model(model_name)
    list_ty, xs = _long_list(10_000)
    tree_ty, t = _left_spine_tree(5_000)
    got_list = value_potential(m, xs, list_ty)
    got_tree = value_potential(m, t, tree_ty)
    if model_name in ("allcons", "merged"):
        list_nat, tree_nat = potential_type(list_ty), potential_type(tree_ty)
        assert got_list == SMap(SizeMap.of({list_nat: 10_000, NAT: 1}))
        assert got_tree == SMap(SizeMap.of({tree_nat: 10_001, NAT: 1}))
    else:
        assert got_list == size(10_000)
        assert got_tree == size(5_001 if model_name == "height" else 10_001)


def test_exact_embedding_of_a_long_list_is_built_iteratively():
    ty, xs = _long_list(10_000)
    emb = value_potential(ExactModel(), xs, ty)
    zero = value_potential(ExactModel(), numeral_value(0), NAT_TYPE)
    count, x = 0, emb
    while True:
        assert isinstance(x, XCons) and x.delta == LIST_NAT
        count += 1
        if x.arg.index == 0:
            assert x.arg.arg == SStar()
            break
        assert x.arg.arg.left == zero
        x = x.arg.arg.right
    assert count == 10_000


ILL_TYPED = [
    ("unit at a list", VUnit(), "list<nat>"),
    ("pair at nat", VPair(VUnit(), VUnit()), "nat"),
    ("unit in a tail", VCons(parse_type("list<nat>"),
                             VInj(1, VPair(numeral_value(0), VUnit()))), "list<nat>"),
    ("unit as a constructor's data", VCons(parse_type("list<nat>"), VUnit()), "list<nat>"),
    ("injection for a pair", VCons(parse_type("list<nat>"),
                                   VInj(1, VInj(0, VUnit()))), "list<nat>"),
    ("pair at a sum", VPair(VUnit(), VUnit()), "bool"),
    ("list at a pair", numeral_value(1), "nat * nat"),
]


@pytest.mark.parametrize("model_name", MODEL_NAMES)
@pytest.mark.parametrize("what,value,ty", ILL_TYPED, ids=[c[0] for c in ILL_TYPED])
def test_value_outside_its_type_is_a_model_error(model_name, what, value, ty):
    with pytest.raises(ModelError, match="does not inhabit"):
        value_potential(make_model(model_name), value, parse_type(ty))


@pytest.mark.parametrize("model_name", ["allcons", "merged", "exact"])
def test_value_outside_its_type_in_a_constant_is_a_model_error(model_name):
    """The census and exact walks visit constants, so an ill-typed element
    is found; the size and height walks never visit constants.
    """
    ty = parse_type("list<nat>")
    bad = VCons(ty, VInj(1, VPair(VPair(VUnit(), VUnit()), VCons(ty, VInj(0, VUnit())))))
    with pytest.raises(ModelError, match="does not inhabit"):
        value_potential(make_model(model_name), bad, ty)


# ---------------------------------------------------------------------------
# Decomposition enumerators and the tabulated fold
# ---------------------------------------------------------------------------

X = RSRec()
ONE_SHAPE = RSConst(RUnit())
BIT = RSSum(ONE_SHAPE, ONE_SHAPE)
HAND_SHAPES = {
    "x*(1+1)*x": RSProd(RSProd(X, BIT), X),
    "x*((1+1)*x)": RSProd(X, RSProd(BIT, X)),
    "1+x*(1+x)": RSSum(ONE_SHAPE, RSProd(X, RSSum(ONE_SHAPE, X))),
    "x*nat": RSProd(X, RSConst(NAT)),
    "(1+x*x)*x": RSProd(RSSum(ONE_SHAPE, RSProd(X, X)), X),
    "(1+x*x)*(1+1)": RSProd(RSSum(ONE_SHAPE, RSProd(X, X)), BIT),
}


def _enumerated_datatypes():
    out = {}
    for name, fns in CORPUS_FUNCTIONS.items():
        for fn in fns:
            p = prepare(corpus_checked(name), fn, (), corpus_extracted(name))
            for t in p.arg_types + [p.result_type]:
                for d in support_datatypes(potential_type(t)):
                    out[pretty_rec_type(d)] = d
    for label, shape in HAND_SHAPES.items():
        out[label] = RInd(shape, label)
    return out


DATATYPES = _enumerated_datatypes()


def _pruned_max(leaf, f, budget, height):
    """Maximal decompositions the slow way: products try every split of the
    budget (the whole budget on both sides in height mode) and prune.
    """
    match f:
        case RSSum(l, r):
            return [SIdeal(antichain(_pruned_max(leaf, l, budget, height)),
                           antichain(_pruned_max(leaf, r, budget, height)))]
        case RSProd(l, r):
            splits = [(budget, budget)] if height else [
                (bl, budget - bl) for bl in range(budget + 1)]
            return list(antichain(
                SPair(a, b) for bl, br in splits
                for a in _pruned_max(leaf, l, bl, height)
                for b in _pruned_max(leaf, r, br, height)))
    return leaf(f, budget)


def _order_free(v):
    """``v`` with the generators of every ideal in it as a multiset, so
    values that differ only in the order of generators compare equal.
    """
    match v:
        case SPair(l, r):
            return ("pair", _order_free(l), _order_free(r))
        case SIdeal(l, r):
            return ("ideal", _multiset(l), _multiset(r))
    return v


def _multiset(vs):
    return frozenset(Counter(_order_free(v) for v in vs).items())


def _assert_same_antichain(zs, pruned, budget):
    got = _multiset(zs)
    # the same elements as the slow way, with the same generators in every
    # ideal inside them
    assert got == _multiset(pruned), budget
    assert all(k == 1 for _, k in got), (budget, zs)  # no duplicates
    assert len(antichain(zs)) == len(zs), (budget, zs)  # pairwise incomparable


@pytest.mark.parametrize("label", sorted(DATATYPES))
@pytest.mark.parametrize("mode", ["size", "height"])
def test_size_enumeration_is_an_antichain_by_construction(label, mode):
    m = SizeHeightModel(mode)
    delta = DATATYPES[label]

    def leaf(f, budget):
        return m._enumerate_max(f, delta, None, budget)

    for budget in range(17):
        zs = leaf(delta.functor, budget)
        _assert_same_antichain(
            zs, _pruned_max(leaf, delta.functor, budget, mode == "height"), budget)


@pytest.mark.parametrize("label", sorted(DATATYPES))
@pytest.mark.parametrize("other", [0, 3, None])
def test_allcons_enumeration_is_an_antichain_by_construction(label, other):
    m = AllConsModel()
    delta = DATATYPES[label]
    phi = SizeMap.of({d: ext(other) for d in support_datatypes(delta) if d != delta})

    def leaf(f, budget):
        return m._enumerate_max(f, delta, phi, budget)

    for budget in range(17):
        zs = leaf(delta.functor, budget)
        _assert_same_antichain(zs, _pruned_max(leaf, delta.functor, budget, False), budget)


def _min_antichain(items):
    """The minimal elements of ``items`` by pairwise ``sem_leq``, sorted by
    ``str``: the reference pruning for the lower model's decompositions.
    """
    out = []
    for x in items:
        if any(sem_leq(y, x) for y in out):
            continue
        out = [y for y in out if not sem_leq(x, y)]
        out.append(x)
    return sorted(out, key=str)


def _pruned_min(m, f, budget):
    """Minimal decompositions the slow way: every split of the budget,
    pruned at every sum and product.
    """
    if budget <= 0:
        return [m.bottom(subst_rec_shape(f, RInd(RSRec())))]
    match f:
        case RSRec():
            return [size(budget)]
        case RSConst(_):
            return []
        case RSSum(l, r):
            return _min_antichain([SIdeal((g,), ()) for g in _pruned_min(m, l, budget)]
                                  + [SIdeal((), (g,)) for g in _pruned_min(m, r, budget)])
        case RSProd(l, r):
            return _min_antichain([SPair(a, b) for bl in range(budget + 1)
                                   for a in _pruned_min(m, l, bl)
                                   for b in _pruned_min(m, r, budget - bl)])


@pytest.mark.parametrize("label", sorted(DATATYPES))
def test_lower_enumeration_is_a_min_antichain(label):
    m = LowerSizeModel()
    f = DATATYPES[label].functor
    for budget in range(17):
        zs = m._enumerate_min(f, budget)
        minimal = _pruned_min(m, f, budget)
        # every minimal decomposition is there, and every other one lies
        # above one: together, _min_antichain(zs) == minimal, without its
        # quadratic pass over zs
        found = set(minimal)
        assert found <= set(zs), budget
        assert all(z in found or any(sem_leq(y, z) for y in minimal) for z in zs), budget


def test_lower_enumeration_makes_no_order_comparisons(monkeypatch):
    from costrec import semdom

    calls = []

    def counting(a, b, leq=semdom.sem_leq):
        calls.append(1)
        return leq(a, b)

    monkeypatch.setattr(semdom, "sem_leq", counting)
    monkeypatch.setattr(models, "sem_leq", counting, raising=False)
    assert LowerSizeModel()._enumerate_min(TREE_NAT.functor, 16)
    assert not calls


def _count_down(m):
    # the step of the fold that counts a numeral's successors
    return lambda z: m.case(z, lambda _u: cost(0),
                            lambda r: SNum("cost", r.num + ONE), RC())


@pytest.mark.parametrize("model_name", ["size", "height", "lower", "allcons", "merged"])
def test_fold_does_not_recurse_per_unit_of_potential(model_name):
    # one Python frame per unit of potential would overflow at this depth
    m = make_model(model_name)
    n = 3 * sys.getrecursionlimit()
    x = phi_nat(n) if model_name in ("allcons", "merged") else size(n)
    assert m.fold(NAT, RC(), _count_down(m), x) == cost(n - 1)


def test_fold_table_is_filled_once_per_cache_key():
    m = SizeHeightModel("size")
    calls = []
    count = _count_down(m)

    def step(z):
        calls.append(1)
        return count(z)

    assert m.fold(NAT, RC(), step, size(50), cache_key="k") == cost(49)
    assert len(calls) == 50  # main counts 1..50, one decomposition each
    assert m.fold(NAT, RC(), step, size(30), cache_key="k") == cost(29)
    assert len(calls) == 50
    assert m.fold(NAT, RC(), step, size(60), cache_key="k") == cost(59)
    assert len(calls) == 60


TREE_UNFOLDED = subst_rec_shape(TREE_NAT.functor, TREE_NAT)


def _unsorted_ideal():
    # the maximal decompositions of a size-13 tree come in the order the
    # products build them, not in the printed order antichain sorts by
    v = SizeHeightModel("size").dest(TREE_NAT, size(13))
    assert canonical(v) != v
    return v


def test_fold_table_entries_are_stored_canonical():
    m = SizeHeightModel("size")
    v = _unsorted_ideal()
    assert m.fold(NAT, TREE_UNFOLDED, lambda z: v, size(3), cache_key="k") == canonical(v)
    for entry in m._fold_cache["k"][None].values():
        assert entry == canonical(v) and canonical(entry) is entry


def test_fold_tables_are_keyed_by_canonical_free_values():
    # fold n with z => y: values of y that denote one ideal share one table
    term = RFold(NAT, RVar("n"), "z", subst_rec_shape(NAT.functor, TREE_UNFOLDED), RVar("y"))
    elab = RecElab()
    check_rec({"n": NAT, "y": TREE_UNFOLDED}, term, elab)
    m = SizeHeightModel("size")
    v = _unsorted_ideal()
    for y in (v, canonical(v)):
        assert denote(m, SemEnv(vals={"n": size(3), "y": y}), term, elab) == canonical(v)
    assert len(m._fold_cache) == 1


def test_apply_bound_returns_a_canonical_potential():
    v = _unsorted_ideal()
    pot = SFun(lambda a: SPair(cost(1), v))
    assert apply_bound(SizeHeightModel("size"), ext(0), pot, [size(1)]) == (ext(1), canonical(v))


class _PruningImages:
    """The fold with pruning on its hot path: every ideal ``map_shape``
    builds is pruned, the maximal decompositions come sorted, and the lower
    model's decompositions are pruned to the minimal ones and sorted at
    every sum and product.
    """

    def map_shape(self, f, g, x):
        out = super().map_shape(f, g, x)
        if isinstance(f, RSSum):
            return SIdeal(antichain(out.left), antichain(out.right))
        return out

    def _enumerate_max(self, *args):
        return sorted(super()._enumerate_max(*args), key=str)

    def _enumerate_min(self, f, budget):
        return _min_antichain(super()._enumerate_min(f, budget))


def _pruning_model(name):
    cls = type(make_model(name))
    sub = type(f"Pruning{cls.__name__}", (_PruningImages, cls), {})
    return sub(name) if name in ("size", "height") else sub()


def _filled_tables(monkeypatch, model, file, fn):
    """The fold tables ``model`` fills applying fn's bound at every argument
    count up to 16 (top at arguments that are not inductive), in the order
    it made them.
    """
    monkeypatch.setattr(harness, "make_model", lambda name: model)
    p = prepare(corpus_checked(file), fn, (model.name,), corpus_extracted(file))
    _, base, pot = p.denoted[model.name]
    for n in range(1, 17):
        pots = [_parse_at(str(n) if isinstance(potential_type(t), RInd) else "inf",
                          model, t, p.checked.program) for t in p.arg_types]
        apply_bound(model, base, pot, pots)
    return list(model._fold_cache.items())


def _probes(model, ty):
    if isinstance(ty, RInd):
        counts = [SNum("size", ext(k)) for k in (1, 2, 5, None)]
        if model.name in ("allcons", "merged"):
            return [galois_conc(ty, c) for c in counts]
        return counts
    return [model.bottom(ty), model.top(ty)]


def _same_after_canonical(model, a, b, ty):
    """a and b are equal after ``canonical``; functions are compared on
    probe arguments.
    """
    match ty:
        case RArrow(d, c):
            return all(_same_after_canonical(model, a(p), b(p), c)
                       for p in _probes(model, d))
        case RProd(l, r):
            return (_same_after_canonical(model, a.left, b.left, l)
                    and _same_after_canonical(model, a.right, b.right, r))
    return canonical(a) == canonical(b)


def _key_shape(key):
    # functions in the step's free variables are compared by identity
    fold, tyvars, free = key
    return fold, tyvars, tuple((n, v if is_function_free(v) else "<fun>") for n, v in free)


@pytest.mark.parametrize("file,fn", [(f, fn) for f, fns in CORPUS_FUNCTIONS.items()
                                     for fn in fns])
@pytest.mark.parametrize("model_name", ["size", "height", "allcons", "merged", "lower"])
def test_fold_tables_match_the_tables_pruned_per_image(monkeypatch, file, fn, model_name):
    new = _filled_tables(monkeypatch, make_model(model_name), file, fn)
    old = _filled_tables(monkeypatch, _pruning_model(model_name), file, fn)
    assert [_key_shape(k) for k, _ in new] == [_key_shape(k) for k, _ in old]
    binding = corpus_extracted(file).bindings[fn]
    term = binding.potential if corpus_checked(file).schemes[fn].bound else binding.complexity
    elab = RecElab()
    check_rec({}, term, elab)
    model = make_model(model_name)
    for (key, tables), (_, old_tables) in zip(new, old):
        ty = subst_rtyvars(elab.type_of(key[0]), dict(key[1]))
        assert tables.keys() == old_tables.keys()
        for fixed, table in tables.items():
            assert table.keys() == old_tables[fixed].keys()
            for i, entry in table.items():
                assert canonical(entry) is entry
                assert _same_after_canonical(model, entry, old_tables[fixed][i], ty), (
                    pretty_rec_type(ty), fixed, i)


# ---------------------------------------------------------------------------
# The compiled denotation
# ---------------------------------------------------------------------------


def _interpret(model, env, e, elab):
    """The clause-per-clause interpretation, walking ``e`` at every call:
    the reference the closures of ``denote`` must match.
    """
    match e:
        case RVar(n):
            if n not in env.vals:
                raise ModelError(f"unbound semantic variable {n}")
            return env.vals[n]
        case RZero():
            return SNum("cost", ZERO)
        case ROne():
            return SNum("cost", ONE)
        case RPlus(l, r):
            a = _interpret(model, env, l, elab)
            b = _interpret(model, env, r, elab)
            if not isinstance(a, SNum) or not isinstance(b, SNum):
                raise ModelError("+ expects costs")
            return SNum("cost", a.num + b.num)
        case RUnitE():
            return SStar()
        case RPair(l, r):
            return SPair(_interpret(model, env, l, elab), _interpret(model, env, r, elab))
        case RProj(i, a):
            v = _interpret(model, env, a, elab)
            if not isinstance(v, SPair):
                raise ModelError("projection from a non-pair")
            return v.left if i == 0 else v.right
        case RInj(i, ann, a):
            return model.inj(i, _interpret(model, env, a, elab), env.close(ann))
        case RCase(s, x0, _, b0, x1, _, b1):
            scrut = _interpret(model, env, s, elab)
            result_ty = env.close(elab.type_of(e))
            f0 = lambda v: _interpret(model, env.with_val(x0, v), b0, elab)
            f1 = lambda v: _interpret(model, env.with_val(x1, v), b1, elab)
            return model.case(scrut, f0, f1, result_ty)
        case RLam(x, _, b):
            return SFun(lambda v: _interpret(model, env.with_val(x, v), b, elab))
        case RApp(f, a):
            vf = _interpret(model, env, f, elab)
            va = _interpret(model, env, a, elab)
            if not isinstance(vf, SFun):
                raise ModelError("application of a non-function")
            return vf(va)
        case RTyLam(a, b):
            body_ty = elab.type_of(b)

            def instantiate(sigma, a=a, b=b):
                return _interpret(model, env.with_tyvar(a, sigma), b, elab)

            return model.tyabs(instantiate, a, subst_rtyvars(body_ty, {
                v: t for v, t in env.tyvars.items() if v != a}))
        case RTyApp(f, t):
            vf = _interpret(model, env, f, elab)
            fn_ty = env.close(elab.type_of(f))
            if not isinstance(fn_ty, RForall):
                raise ModelError("type application of a non-quantified type")
            return model.tyapp(vf, env.close(t), fn_ty.var, fn_ty.body)
        case RConsE(ann, a):
            return model.cons(env.close(ann), _interpret(model, env, a, elab))
        case RDestE(ann, a):
            return model.dest(env.close(ann), _interpret(model, env, a, elab))
        case RFold(ann, s, x, _, b):
            delta = env.close(ann)
            result_ty = env.close(elab.type_of(e))
            scrut = _interpret(model, env, s, elab)
            step = lambda v: _interpret(model, env.with_val(x, v), b, elab)
            free = sorted(rec_free_vars(b) - {x})
            key = (id(e), frozenset(env.tyvars.items()),
                   tuple((n, env.vals[n]) for n in free if n in env.vals))
            return model.fold(delta, result_ty, step, scrut, cache_key=key)
        case RLet(x, a, b):
            return _interpret(model, env.with_val(x, _interpret(model, env, a, elab)), b, elab)
    raise ModelError(f"not a recurrence expression: {e!r}")


def _bound_term(checked, extracted, fn):
    """The term prepare denotes for fn, its checked types, and fn's type
    with every quantified variable at nat.
    """
    scheme, binding = checked.schemes[fn], extracted.bindings[fn]
    term = binding.potential if scheme.bound else binding.complexity
    elab = RecElab()
    check_rec({}, term, elab)
    mono = subst_tyvars(scheme.body, {a: NAT_TYPE for a in scheme.bound})
    return term, elab, mono


def _instantiated(model, value, checked, extracted, fn):
    """A denotation of the term of ``_bound_term`` as a complexity: the
    potential at nat paired with cost 0 when fn is polymorphic.
    """
    scheme, binding = checked.schemes[fn], extracted.bindings[fn]
    if not scheme.bound:
        return value
    ty = binding.potential_ty
    for _ in scheme.bound:
        value = model.tyapp(value, NAT, ty.var, ty.body)
        ty = ty.body
    return SPair(cost(0), value)


def _arg_potentials(model, ty, program, rng):
    """Input potentials at source type ty: main counts 0..8, and the top
    where the model has one, at an inductive type; generated values at any
    other first-order type; at nat -> nat the identity charging 1, and the
    bottom and top functions where the model has them.
    """
    pot_ty = potential_type(ty)
    if isinstance(ty, TArrow):
        out = [SFun(lambda p: SPair(cost(1), p))]
        return out if model.name == "exact" else out + [model.bottom(pot_ty), model.top(pot_ty)]
    if isinstance(ty, TInd) and model.name != "exact":
        return [_parse_at(str(n), model, ty, program) for n in range(9)] + [model.top(pot_ty)]
    return [value_potential(model, gen_value(ty, 8, rng), ty) for _ in range(9)]


COMPILE_SEED = 8088


def _outcome(thunk):
    try:
        return thunk()
    except (SemError, RecursionError) as exc:
        return exc


def _assert_agree(got, want, ty, model, program, rng, where):
    """got and want, potentials at source type ty (or the exceptions their
    computation raised), are equal with equal strings; at an arrow type,
    at each potential of the domain, so are the complexities they return.
    """
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), where
        return
    if not isinstance(ty, TArrow):
        assert got == want, where
        assert str(got) == str(want), where
        return
    for i, p in enumerate(_arg_potentials(model, ty.dom, program, rng)):
        out_got, out_want = _outcome(lambda: got(p)), _outcome(lambda: want(p))
        if isinstance(out_got, SPair) and isinstance(out_want, SPair):
            assert out_got.left == out_want.left, (*where, i)
            assert str(out_got.left) == str(out_want.left), (*where, i)
            out_got, out_want = out_got.right, out_want.right
        _assert_agree(out_got, out_want, ty.cod, model, program, rng, (*where, i))


def test_compiled_denotation_equals_the_clause_interpreter():
    print(f"compile seed {COMPILE_SEED}")
    for name in CORPUS_FILES:
        checked, extracted = corpus_checked(name), corpus_extracted(name)
        for fn in checked.schemes:
            term, elab, mono = _bound_term(checked, extracted, fn)
            for model_name in MODEL_NAMES:
                where = (COMPILE_SEED, name, fn, model_name)
                # separate instances: neither side reads the other's fold tables
                compiled, reference = make_model(model_name), make_model(model_name)
                got = _outcome(lambda: _instantiated(
                    compiled, denote(compiled, SemEnv(), term, elab), checked, extracted, fn))
                want = _outcome(lambda: _instantiated(
                    reference, _interpret(reference, SemEnv(), term, elab),
                    checked, extracted, fn))
                assert isinstance(got, SPair) and isinstance(want, SPair), where
                assert got.left == want.left and str(got.left) == str(want.left), where
                _assert_agree(got.right, want.right, mono, compiled, checked.program,
                              random.Random(COMPILE_SEED), where)


def _term_nodes(e):
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(v for v in vars(node).values() if isinstance(v, RecExpr))
    return out


@pytest.mark.parametrize("name,fn", [(n, f) for n, fns in sorted(CORPUS_FUNCTIONS.items())
                                     for f in fns])
def test_prepare_compiles_each_node_once_per_model(name, fn, monkeypatch):
    compiled = []
    compile_node = models._compile

    def counting(model, e, elab):
        compiled.append((model.name, e))
        return compile_node(model, e, elab)

    monkeypatch.setattr(models, "_compile", counting)
    checked, extracted = corpus_checked(name), corpus_extracted(name)
    p = prepare(checked, fn, MODEL_NAMES, extracted)
    term, _, _ = _bound_term(checked, extracted, fn)
    nodes = sorted(map(id, _term_nodes(term)))
    for model_name in MODEL_NAMES:
        assert sorted(id(e) for m, e in compiled if m == model_name) == nodes
    done = len(compiled)
    rng = random.Random(COMPILE_SEED)
    cache: dict = {}
    for index in range(50):
        run_trial(p, [gen_value(t, 12, rng) for t in p.arg_types], index, cache)
    for model_name, (model, base_cost, pot) in p.denoted.items():
        for n in range(1, 11):
            args = [_parse_at(str(n), model, t, checked.program) if isinstance(t, TInd)
                    and model_name != "exact" else value_potential(model, gen_value(t, n, rng), t)
                    for t in p.arg_types]
            apply_bound(model, base_cost, pot, args)
    assert len(compiled) == done


FOLD_KEY_FUNCTIONS = sorted((n, f) for n, fns in CORPUS_FUNCTIONS.items() for f in fns)


def test_a_model_reused_across_fresh_terms_gives_fresh_bounds():
    # every term is dropped before the next is extracted, so a table keyed
    # by a node's address could be found again by a new fold at that address
    shared = {m: make_model(m) for m in MODEL_NAMES}
    folds = []
    rng = random.Random(COMPILE_SEED)
    print(f"compile seed {COMPILE_SEED}")
    for i in range(200):
        name, fn = FOLD_KEY_FUNCTIONS[rng.randrange(len(FOLD_KEY_FUNCTIONS))]
        checked = check_program(parse_program(corpus_text(name)))
        extracted = extract_program(checked)
        term, elab, mono = _bound_term(checked, extracted, fn)
        arg_types = []
        while isinstance(mono, TArrow):
            arg_types.append(mono.dom)
            mono = mono.cod
        n = rng.randint(1, 8)
        values = [gen_value(t, n, random.Random(i)) for t in arg_types]
        for model_name in MODEL_NAMES:
            bounds = []
            for model in (shared[model_name], make_model(model_name)):
                cpx = _instantiated(model, denote(model, SemEnv(), term, elab),
                                    checked, extracted, fn)
                args = [_parse_at(str(n), model, t, checked.program)
                        if isinstance(t, TInd) and model_name != "exact"
                        else value_potential(model, v, t) for t, v in zip(arg_types, values)]
                cost_bound, pot = apply_bound(model, cpx.left.num, cpx.right, args)
                bounds.append((str(cost_bound), str(pot)))
            assert bounds[0] == bounds[1], (COMPILE_SEED, i, name, fn, model_name)
        folds += [weakref.ref(e) for e in _term_nodes(term) if isinstance(e, RFold)]
        del checked, extracted, term, elab
    gc.collect()
    # the tables are keyed by the fold nodes themselves, which they keep alive
    keys = [key for m in shared.values() for key in m._fold_cache]
    assert keys and all(isinstance(key[0], RFold) for key in keys)
    assert {id(key[0]) for key in keys} <= {id(r()) for r in folds if r() is not None}
