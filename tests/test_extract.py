import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_FILES, corpus_extracted, corpus_text
from reference import denote_closed, free_vars, rec_alpha_eq
from costrec import extract, rec_lang
from costrec.cost_eval import eval_expr
from costrec.extract import (
    add_cost, complexity_type, extract_expr, extract_program, potential_type,
)
from costrec.models import ExactModel, value_potential
from costrec.rec_lang import (
    RApp, RArrow, RC, RCase, RecExpr, RFold, RInd, RLam, RLet, ROne, RPair, RPlus,
    RProd, RProj, RSum, RTVar, RTyApp, RTyLam, RUnit, RUnitE, RVar, RZero, check_rec,
    rec_free_vars, simplify, subst_rtyvars,
)
from costrec.semdom import SNum, ext
from costrec.source_ast import (
    EMPTY_ENV, NAT_TYPE, TArrow, TProd, TSum, TSusp, TUnit, TVar,
    numeral_value, parse_expr, parse_program, parse_type, subst_tyvars,
)
from costrec.typecheck import TypeContext, check_program, infer_expr


def extract_of(text):
    e = parse_expr(text)
    infer_expr(TypeContext({}), e)
    return extract_expr(e)


def test_unit_extracts_to_zero_cost_star():
    out = extract_of("()")
    assert rec_alpha_eq(out, RPair(RZero(), RUnitE()))


def test_lambda_extracts_to_zero_cost_abstraction():
    out = extract_of("fn (x: unit) => x")
    assert isinstance(out, RPair)
    assert isinstance(out.left, RZero)
    assert isinstance(out.right, RLam)
    assert rec_alpha_eq(out.right.body, RPair(RZero(), RVar("x")), {"x": "x"})


def test_extraction_is_always_a_pair():
    for text in ["()", "#3", "fn (x: nat) => x", "pi0 (#1, #2)", "force (delay #1)"]:
        assert isinstance(extract_of(text), RPair)


def _let_tail(e):
    while isinstance(e, RLet):
        e = e.body
    return e


def test_fold_charges_inside_the_step():
    text = "fold[nat] #1 with x => case x of y => #0 | y => force y : nat"
    out = extract_of(text)
    # the fold is bound once by a let, and its step is a chain of lets that
    # ends in a pair whose cost is 1 + the extracted branch
    assert isinstance(out, RLet) and isinstance(out.bound, RFold)
    step_cost = _let_tail(out.bound.body).left
    assert isinstance(step_cost, ROne) or (
        isinstance(step_cost, RPlus) and isinstance(step_cost.left, ROne))
    # one charge per unfolding: #1 unfolds twice, as the evaluator counts
    assert eval_expr(EMPTY_ENV, parse_expr(text)).cost == 2
    assert denote_closed(ExactModel(), out).left == SNum("cost", ext(2))


# ---------------------------------------------------------------------------
# Type translations
# ---------------------------------------------------------------------------


def test_potential_of_unit():
    assert potential_type(TUnit()) == RUnit()


def test_potential_of_list_commutes_with_instantiation():
    lst_nat = parse_type("list<nat>")
    lst_a = parse_type("list<a>")
    direct = potential_type(lst_nat)
    substituted = subst_rtyvars(potential_type(lst_a), {"a": potential_type(NAT_TYPE)})
    assert direct == substituted


def test_complexity_of_nat_to_nat():
    got = complexity_type(parse_type("nat -> nat"))
    nat_pot = potential_type(NAT_TYPE)
    assert got == RProd(RC(), RArrow(nat_pot, RProd(RC(), nat_pot)))


def test_susp_potential_is_a_complexity():
    assert potential_type(TSusp(NAT_TYPE)) == complexity_type(NAT_TYPE)


_tys = st.deferred(lambda: st.one_of(
    st.just(TUnit()),
    st.sampled_from([TVar("a"), TVar("b")]),
    st.just(NAT_TYPE),
    st.just(parse_type("list<a>")),
    st.builds(TProd, _tys, _tys),
    st.builds(TSum, _tys, _tys),
    st.builds(TArrow, _tys, _tys),
    st.builds(TSusp, _tys),
))


@settings(max_examples=120, deadline=None)
@given(_tys, st.sampled_from([TUnit(), NAT_TYPE, parse_type("bool"), parse_type("list<nat>")]))
def test_potential_translation_commutes_with_substitution(ty, rho):
    # substitution commutation: <<ty[rho/a]>> == <<ty>>[<<rho>>/a]
    lhs = potential_type(subst_tyvars(ty, {"a": rho}))
    rhs = subst_rtyvars(potential_type(ty), {"a": potential_type(rho)})
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Typeability of extracted recurrences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_extracted_recurrences_typeable(name):
    ex = corpus_extracted(name)
    for bname, binding in ex.bindings.items():
        got = check_rec({}, binding.complexity)
        assert got == binding.complexity_ty, bname


@pytest.mark.parametrize(
    "text,src_ty",
    [
        ("fn (x: nat) => x", "nat -> nat"),
        ("fn (p: nat * bool) => pi0 p", "nat * bool -> nat"),
        ("fn (x: nat + unit) => case x of y => inj0[nat + unit] y | z => inj1[nat + unit] z",
         "nat + unit -> nat + unit"),
        ("fn (s: susp nat) => force s", "susp nat -> nat"),
        ("let d = fn (x: a) => (x, x) in d[nat] #1", "nat * nat"),
    ],
)
def test_typeability_on_handwritten_terms(text, src_ty):
    out = extract_of(text)
    assert check_rec({}, out) == complexity_type(parse_type(src_ty))


def _subterms(e):
    yield e
    for f in dataclasses.fields(e):
        sub = getattr(e, f.name)
        if isinstance(sub, RecExpr):
            yield from _subterms(sub)


def test_let_substitutes_generalized_potential():
    # the let-bound name is bound once, to the generalized potential, and
    # each occurrence is a type application of that variable
    out = extract_of("let id = fn (x: a) => x in id[nat] #1")
    assert not rec_free_vars(out)
    bound = {e.binder: e.bound for e in _subterms(out) if isinstance(e, RLet)}
    applied = [e.fn.name for e in _subterms(out)
               if isinstance(e, RTyApp) and isinstance(e.fn, RVar)]
    assert applied, "expected a type application of the let-bound potential"
    assert all(isinstance(bound.get(name), RTyLam) for name in applied)
    # and the term denotes what substituting the potential would: id #1
    cpx = denote_closed(ExactModel(), out)
    assert cpx.left == SNum("cost", ext(0))
    assert cpx.right == value_potential(ExactModel(), numeral_value(1), NAT_TYPE)


def test_add_cost_macro_on_pairs_and_neutral_zero():
    e = RPair(RZero(), RUnitE())
    out = add_cost(ROne(), e)
    assert rec_alpha_eq(out, RPair(ROne(), RUnitE()))


def test_add_cost_binds_a_non_pair_instead_of_copying_it():
    f = RLam("x", RC(), RPair(RVar("x"), RUnitE()))
    out = add_cost(ROne(), RApp(f, ROne()))
    assert isinstance(out, RLet) and isinstance(out.bound, RApp)
    v = out.binder
    assert rec_alpha_eq(out.body, RPair(RPlus(ROne(), RProj(0, RVar(v))), RProj(1, RVar(v))))
    assert check_rec({}, out) == RProd(RC(), RUnit())


def test_add_cost_charges_the_pair_that_ends_a_let_chain():
    chain = RLet("y", ROne(), RPair(RVar("y"), RUnitE()))
    out = add_cost(ROne(), chain)
    assert rec_alpha_eq(out, RLet("y", ROne(), RPair(RPlus(ROne(), RVar("y")), RUnitE())))


def test_non_core_input_rejected():
    from costrec.extract import ExtractError
    from costrec.source_ast import FRec, MapE, Unit, VUnit

    with pytest.raises(ExtractError):
        extract_expr(MapE(FRec(), "y", VUnit(), Unit()))


# ---------------------------------------------------------------------------
# Term size: sharing instead of copying
# ---------------------------------------------------------------------------


def tree_nodes(term) -> int:
    """Dataclass nodes of a term or program, each occurrence counted, types
    included.
    """
    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        count += 1
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if dataclasses.is_dataclass(child):
                stack.append(child)
            elif isinstance(child, tuple):
                stack.extend(c for c in child if dataclasses.is_dataclass(c))
    return count


def nested_maps(depth: int) -> str:
    """``c_d = c_(d-1) . c_(d-1)`` over the corpus map, ``c_0 = map_constf``."""
    lines = [corpus_text("map.src")]
    prev = "map_constf"
    for d in range(1, depth + 1):
        lines.append(f"let c{d} = fn (xs: list<nat>) => {prev} ({prev} xs);")
        prev = f"c{d}"
    return "\n".join(lines) + "\n"


def test_nested_maps_stay_small():
    # copying made c_3 219,870 nodes; sharing keeps it linear in the source
    ex = extract_program(check_program(parse_program(nested_maps(3))))
    term = ex.bindings["c3"].complexity
    assert tree_nodes(term) < 1000
    assert tree_nodes(simplify(term)) < 1000


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_complexity_within_ten_times_its_source(name):
    # source: the binding plus every earlier binding it uses, transitively
    program = parse_program(corpus_text(name))
    ex = corpus_extracted(name)
    defs = list(program.bindings)
    for i, (bname, expr) in enumerate(defs):
        needed, source = free_vars(expr), tree_nodes(expr)
        for prev, prev_expr in reversed(defs[:i]):
            if prev in needed:
                needed = (needed - {prev}) | free_vars(prev_expr)
                source += tree_nodes(prev_expr)
        assert tree_nodes(ex.bindings[bname].complexity) <= 10 * source, bname


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_extracted_terms_are_closed(name):
    for bname, binding in corpus_extracted(name).bindings.items():
        assert not rec_free_vars(binding.complexity), bname
        assert not rec_free_vars(binding.potential), bname


def _free_var_calls_per_binding(monkeypatch, n, chained):
    """rec_free_vars calls (with their recursive calls) per top-level binding
    while extracting n one-lambda bindings; chained, each one calls the one
    before it, so its terms close over all the earlier bindings.
    """
    if chained:
        lines = ["let f0 = fn (x: nat) => cons(x, nil);"] + [
            f"let f{i} = fn (x: nat) => f{i - 1} x;" for i in range(1, n)]
    else:
        lines = [f"let f{i} = fn (x: nat) => cons(x, nil);" for i in range(n)]
    checked = check_program(parse_program("\n".join(lines)))
    calls = 0
    counted = rec_lang.rec_free_vars

    def counting(e):
        nonlocal calls
        calls += 1
        return counted(e)

    monkeypatch.setattr(rec_lang, "rec_free_vars", counting)
    monkeypatch.setattr(extract, "rec_free_vars", counting)
    extract_program(checked)
    monkeypatch.undo()
    return calls / n


@pytest.mark.parametrize("chained,small,large", [(False, 250, 1000), (True, 50, 200)])
def test_top_level_free_variables_are_found_once_per_binding(
        monkeypatch, chained, small, large):
    # each earlier binding's free variables are kept, and closing a term
    # visits only the bindings it uses
    per_small = _free_var_calls_per_binding(monkeypatch, small, chained)
    assert _free_var_calls_per_binding(monkeypatch, large, chained) <= per_small
