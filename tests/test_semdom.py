import pytest
from hypothesis import given, settings, strategies as st

import costrec.semdom as semdom

from costrec.semdom import (
    INF, ONE, ZERO, ExtNat, SFun, SIdeal, SMap, SNum, SPair, SStar, SemError,
    SizeMap, antichain, canonical, ext, ideal_join, ideal_meet, is_function_free,
    sem_join_vals, sem_leq, sem_meet_vals,
)
from costrec.rec_lang import RInd, RSConst, RSRec, RSSum, RUnit

from costrec.rec_lang import RSProd

NAT = RInd(RSSum(RSConst(RUnit()), RSRec()), "nat")
LST = RInd(RSSum(RSConst(RUnit()), RSProd(RSConst(RUnit()), RSRec())), "list")


def size(n):
    return SNum("size", ext(n))


def cost(n):
    return SNum("cost", ext(n))


# ---------------------------------------------------------------------------
# Extended naturals
# ---------------------------------------------------------------------------


def test_infinity_saturates_addition():
    assert ext(3) + INF == INF
    assert INF + ext(3) == INF
    assert ext(2) + ext(2) == ext(4)


def test_everything_below_infinity():
    assert ext(3) <= INF
    assert not INF <= ext(3)
    assert INF <= INF


def test_join_of_extnats_is_max():
    assert sem_join_vals([size(3), size(5), size(None)]) == size(None)


# ---------------------------------------------------------------------------
# The preorder
# ---------------------------------------------------------------------------


def test_leq_examples():
    assert sem_leq(size(3), size(None))
    assert sem_leq(SPair(size(2), cost(5)), SPair(size(2), cost(5)))


def test_ideal_generator_domination():
    a = SIdeal((), antichain([SPair(size(None), size(1))]))
    b = SIdeal((), antichain([SPair(size(None), size(2))]))
    assert sem_leq(a, b)
    assert not sem_leq(b, a)


def test_function_comparison_rejected():
    with pytest.raises(SemError):
        sem_leq(SFun(lambda x: x), SFun(lambda x: x))


_vals = st.deferred(lambda: st.one_of(
    st.just(SStar()),
    st.integers(min_value=0, max_value=6).map(size),
    st.just(size(None)),
    st.integers(min_value=0, max_value=6).map(cost),
    st.builds(SPair, _vals, _vals),
))


@settings(max_examples=150, deadline=None)
@given(_vals)
def test_leq_reflexive(v):
    assert sem_leq(v, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_leq_transitive_on_pairs(a, b, c):
    xs = sorted([a, b, c])
    v0, v1, v2 = (SPair(size(x), cost(x)) for x in xs)
    assert sem_leq(v0, v1) and sem_leq(v1, v2)
    assert sem_leq(v0, v2)


@settings(max_examples=150, deadline=None)
@given(st.lists(_vals.filter(lambda v: isinstance(v, SPair)), min_size=1, max_size=5))
def test_join_is_an_upper_bound(vs):
    vs = [v for v in vs if isinstance(v, SPair)]
    if not vs:
        return
    # only join compatible shapes
    shape = str(type(vs[0].left)) + str(type(vs[0].right))
    vs = [v for v in vs if str(type(v.left)) + str(type(v.right)) == shape
          and getattr(v.left, "kind", None) == getattr(vs[0].left, "kind", None)
          and getattr(v.right, "kind", None) == getattr(vs[0].right, "kind", None)]
    try:
        j = sem_join_vals(vs)
    except SemError:
        return
    for v in vs:
        assert sem_leq(v, j)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=6))
def test_antichain_canonicity(pairs):
    gens = antichain(SPair(size(a), size(b)) for a, b in pairs)
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            if i != j:
                assert not sem_leq(x, y)


def test_canonical_prunes_every_ideal_inside_a_value():
    inner = SIdeal((size(1), size(3), size(2)), ())
    v = SPair(cost(4), SIdeal((SPair(inner, size(5)), SPair(inner, size(2))), (SStar(),)))
    pruned = SIdeal((SPair(SIdeal((size(3),), ()), size(5)),), (SStar(),))
    assert canonical(v) == SPair(cost(4), pruned)
    assert canonical(canonical(v)) == canonical(v)
    # canonical values, and values with no ideal in them, come back as they are
    for w in (canonical(v), pruned, SPair(cost(1), size(2)), SFun(lambda z: z)):
        assert canonical(w) is w


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=6))
def test_canonical_form_depends_only_on_the_ideal(pairs):
    gens = [SPair(size(a), size(b)) for a, b in pairs]
    a = SIdeal(tuple(gens), ())
    b = SIdeal(tuple(reversed(gens)) + tuple(gens), ())
    assert canonical(a) == canonical(b) == SIdeal(antichain(gens), ())


def test_join_of_ideals_prunes_dominated_generators():
    a = SIdeal((size(1),), ())
    b = SIdeal((size(3),), ())
    assert ideal_join([a, b]) == SIdeal((size(3),), ())


def test_meet_of_ideals_is_intersection():
    a = SIdeal((), (SPair(size(2), size(5)),))
    b = SIdeal((SStar(),), (SPair(size(4), size(3)),))
    m = ideal_meet(a, b)
    assert m == SIdeal((), (SPair(size(2), size(3)),))


def test_meet_of_numbers_is_min():
    assert sem_meet_vals([cost(4), cost(2), cost(9)]) == cost(2)


def test_empty_ideal_sides_are_representable():
    d = SIdeal((SStar(),), ())
    assert d.right == ()
    assert sem_leq(d, SIdeal((SStar(),), (SStar(),)))


# ---------------------------------------------------------------------------
# Size maps
# ---------------------------------------------------------------------------


def test_sizemap_defaults_to_zero():
    sm = SizeMap.of({NAT: 3})
    assert sm.get(LST) == ZERO
    assert sm.get(NAT) == ext(3)


def test_sizemap_canonical_equality_drops_zeros():
    assert SizeMap.of({NAT: 3, LST: 0}) == SizeMap.of({NAT: 3})


def test_sizemap_pointwise_order_and_ops():
    a = SizeMap.of({NAT: 2})
    b = SizeMap.of({NAT: 3, LST: 1})
    assert a.leq(b)
    assert not b.leq(a)
    assert a.join(b) == SizeMap.of({NAT: 3, LST: 1})
    assert a.add(b) == SizeMap.of({NAT: 5, LST: 1})
    assert a.meet(b) == SizeMap.of({NAT: 2})


def test_sizemap_display():
    sm = SizeMap.of({NAT: 3})
    assert str(sm) == "{nat: 3}"


def test_function_freeness():
    assert is_function_free(SPair(size(1), SStar()))
    assert not is_function_free(SPair(size(1), SFun(lambda x: x)))


def test_lazy_function_join_is_pointwise():
    f = SFun(lambda v: cost(2))
    g = SFun(lambda v: cost(5))
    j = sem_join_vals([f, g])
    assert j(SStar()) == cost(5)


# ---------------------------------------------------------------------------
# Ideal elimination
# ---------------------------------------------------------------------------


def test_ideal_case_of_injection_applies_branch():
    from costrec.semdom import ideal_case, ideal_inj

    f0 = lambda _v: cost(1)
    f1 = lambda v: SNum("cost", v.num + ONE)
    got = ideal_case(ideal_inj(1, size(3)), f0, f1, cost(0))
    assert got == cost(4)


def test_ideal_case_one_sided_and_empty_join():
    from costrec.semdom import ideal_case

    x = SIdeal((), (size(2),))
    got = ideal_case(x, lambda _v: cost(9), lambda v: SNum("cost", v.num), cost(0))
    assert got == cost(2)
    assert ideal_case(SIdeal((), ()), lambda v: v, lambda v: v, cost(0)) == cost(0)


def test_ideal_case_joins_both_sides():
    from costrec.semdom import ideal_case

    x = SIdeal((SStar(),), (size(5),))
    got = ideal_case(x, lambda _v: cost(1), lambda v: SNum("cost", v.num), cost(0))
    assert got == cost(5)


def test_ideal_case_monotone_in_scrutinee():
    from costrec.semdom import ideal_case

    f0 = lambda _v: cost(1)
    f1 = lambda v: SNum("cost", v.num)
    small = SIdeal((), (size(2),))
    big = SIdeal((SStar(),), (size(4),))
    assert sem_leq(small, big)
    assert sem_leq(ideal_case(small, f0, f1, cost(0)),
                   ideal_case(big, f0, f1, cost(0)))


@pytest.mark.parametrize("items", [
    (),
    (SNum("size", ext(3)),),
    (SMap(SizeMap.of({NAT: 2})),),
    (SPair(SFun(lambda v: v), SStar()),),
])
def test_antichain_returns_short_inputs_unchanged(items, monkeypatch):
    import costrec.semdom as semdom

    def walked(v):
        raise AssertionError("a 0- or 1-item antichain needs no pruning")

    monkeypatch.setattr(semdom, "is_function_free", walked)
    assert antichain(items) is items
    out = antichain(list(items))
    assert out == items and all(a is b for a, b in zip(out, items))


def _pairwise_antichain(items):
    # the pruning pass alone, without dropping copies first
    out = []
    for x in items:
        if any(sem_leq(x, y) for y in out):
            continue
        out = [y for y in out if not sem_leq(y, x)]
        out.append(x)
    return tuple(sorted(out, key=str))


def test_antichain_drops_copies_first_without_changing_the_result(monkeypatch):
    a, b, c = SPair(size(1), size(3)), SPair(size(3), size(1)), SPair(size(1), size(1))
    items = [a, b, a, c, b, a, c]
    assert antichain(items) == _pairwise_antichain(items) == (a, b)
    # of two equal-ordered generators the first wins, copies or not
    mixed = [cost(2), size(2), cost(2), size(2)]
    assert antichain(mixed) == _pairwise_antichain(mixed) == (cost(2),)
    # copies of one generator cost no comparisons
    calls = []
    real = semdom.sem_leq
    monkeypatch.setattr(semdom, "sem_leq", lambda x, y: calls.append(1) or real(x, y))
    assert antichain([a] * 5) == (a,)
    assert calls == []
