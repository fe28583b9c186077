"""Acceptance suite: every criterion runs at its stated tolerance (exact
equality throughout) and prints one pass/fail line.

Oracles are computed here, independently of the code under test: recurrences
are brute-forced by direct enumeration over decompositions, operational
counts come from the evaluator, and closed forms are unrolled by hand.
"""

import random
import time
import zlib

import pytest

from conftest import CORPUS_FILES, CORPUS_FUNCTIONS, corpus_checked, corpus_extracted
from reference import check_value, denote_closed
from costrec.cost_eval import apply_function, eval_expr, program_env
from costrec.extract import potential_type
from costrec.harness import TrialConfig, gen_value, prepare, run_trial, verify_bound
from costrec.models import (
    SemEnv, denote, galois_abs, galois_conc, make_model,
    support_datatypes, value_potential,
)
from costrec.rec_lang import RecElab, check_rec
from costrec.semdom import (
    INF, SIdeal, SMap, SNum, SPair, SStar, SizeMap, ext, sem_leq,
)
from costrec.source_ast import (
    EMPTY_ENV, NAT_TYPE, VCons, VInj, VPair, VUnit, numeral_value,
    parse_expr, parse_type, pretty,
)

NAT_POT = potential_type(NAT_TYPE)
LIST_NAT_POT = potential_type(parse_type("list<nat>"))
TREE_NAT = parse_type("tree<nat>")
TREE_BOOL = parse_type("tree<bool>")


def size(n):
    return SNum("size", ext(n))


def _report(num, name, started):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s")


def _count_ctors(v, ty):
    """Internal nodes / length / constructor counts by direct traversal."""
    match v:
        case VCons(_, arg):
            return 1 + _count_ctors(arg, ty)
        case VPair(l, r):
            return _count_ctors(l, ty) + _count_ctors(r, ty)
        case VInj(_, a):
            return _count_ctors(a, ty)
        case _:
            return 0


def _size_potential_oracle(v):
    """Main-constructor count of a value, counting only the outermost
    datatype's constructors.
    """
    def go(val, depth_ty):
        match val:
            case VCons(ann, arg) if ann == depth_ty:
                return 1 + go_shape(arg, depth_ty)
            case _:
                return 0

    def go_shape(val, depth_ty):
        match val:
            case VPair(l, r):
                return go_shape(l, depth_ty) + go_shape(r, depth_ty)
            case VInj(_, a):
                return go_shape(a, depth_ty)
            case VCons(ann, arg):
                return go(val, depth_ty)
            case _:
                return 0

    assert isinstance(v, VCons)
    return go(v, v.annotation)


def test_acceptance_1_tree_copy_recurrence():
    """Size-model copy reproduces T(n) = sup{1+T(n0)+T(n1) : n0+n1 < n},
    T(1) = 1; the solution is n at every achievable tree potential (odd n),
    and the operational cost of 100 random trees equals the bound at their
    potential.
    """
    started = time.monotonic()
    checked = corpus_checked("copy.src")
    ex = corpus_extracted("copy.src")
    model = make_model("size")
    cpx = denote_closed(model, ex.bindings["copy"].complexity)

    def oracle(n, memo={1: 1}):
        if n not in memo:
            best = 1  # the emp branch of the fold
            for n0 in range(1, n - 1):
                for n1 in range(1, n - n0):
                    best = max(best, 1 + oracle(n0) + oracle(n1))
            memo[n] = best
        return memo[n]

    for n in range(1, 13):
        got = cpx.right(size(n))
        assert got.left == SNum("cost", ext(oracle(n))), f"T({n})"
        if n % 2 == 1:  # achievable tree potentials are odd: T(n) = n exactly
            assert oracle(n) == n and got.left.num == ext(n)

    env, _ = program_env(checked.program)
    rng = random.Random(101)
    for _ in range(100):
        t = gen_value(TREE_NAT, 13, rng)
        pot = value_potential(model, t, TREE_NAT)
        res = apply_function(env, "copy", [t])
        bound = cpx.right(pot)
        assert ext(res.cost) == bound.left.num  # equality at the potential

    assert time.monotonic() - started < 5.0
    _report(1, "tree-copy recurrence", started)


def test_acceptance_2_bst_membership():
    """Height-model membership bound at height h equals h for h = 1..10;
    random trees never exceed it and left spines attain it.
    """
    started = time.monotonic()
    checked = corpus_checked("mem.src")
    ex = corpus_extracted("mem.src")
    model = make_model("height")
    cpx = denote_closed(model, ex.bindings["mem"].complexity)
    bool_top = model.top(potential_type(parse_type("bool")))

    def bound_at(h):
        r1 = cpx.right(size(h))
        r2 = r1.right(bool_top)
        return (r1.left.num + r2.left.num).value

    for h in range(1, 11):
        assert bound_at(h) == h, f"T({h})"

    env, _ = program_env(checked.program)
    rng = random.Random(202)
    false_v, true_v = VInj(0, VUnit()), VInj(1, VUnit())
    for _ in range(100):
        t = gen_value(TREE_BOOL, 12, rng)
        h = value_potential(model, t, TREE_BOOL).num.value
        x = rng.choice([false_v, true_v])
        res = apply_function(env, "mem", [t, x])
        assert res.cost <= bound_at(h)

    # left spines of `true` nodes, searched for `false`: every comparison
    # says LT, so the fold walks the whole spine and attains the bound
    spine = "emp[bool]"
    for h in range(1, 11):
        t = eval_expr(EMPTY_ENV, parse_expr(spine)).value
        res = apply_function(env, "mem", [t, false_v])
        assert res.cost == h, f"spine at height {h}"
        spine = f"node(true, {spine}, emp[bool])"

    assert time.monotonic() - started < 5.0
    _report(2, "BST membership height bound", started)


def test_acceptance_3_potentials():
    """Size-model tree potentials are 2*(internal nodes)+1, list potentials
    length+1, and the all-constructors numeral potential is the map sending
    nat to n+1.
    """
    started = time.monotonic()
    size_model = make_model("size")
    rng = random.Random(303)
    for _ in range(50):
        t = gen_value(TREE_NAT, 13, rng)
        internal = _size_potential_oracle(t)  # counts node and emp ctors
        pot = value_potential(size_model, t, TREE_NAT)
        # main-constructor count = internal + leaves = 2*(internal nodes)+1
        nodes = (internal - 1) // 2
        assert pot.num == ext(2 * nodes + 1)

    list_nat = parse_type("list<nat>")
    for _ in range(50):
        xs = gen_value(list_nat, 10, rng)
        length = _size_potential_oracle(xs) - 1
        assert value_potential(size_model, xs, list_nat).num == ext(length + 1)

    allcons = make_model("allcons")
    for n in range(0, 21):
        got = value_potential(allcons, numeral_value(n), NAT_TYPE)
        assert got == SMap(SizeMap.of({NAT_POT: n + 1})), n

    assert time.monotonic() - started < 2.0
    _report(3, "canonical potentials", started)


def test_acceptance_4_plus_recurrences():
    """All-constructors plus: cost at (phi_m, phi_n) is m and the potential
    is phi_{m+n-1}, matching the hand-solved recurrences T(1,n)=1,
    T(m,n)=1+T(m-1,n) and S(1,n)=n, S(m,n)=1+S(m-1,n).
    """
    started = time.monotonic()
    ex = corpus_extracted("plus.src")
    model = make_model("allcons")
    cpx = denote_closed(model, ex.bindings["plus"].complexity)

    def phi(k):
        return SMap(SizeMap.of({NAT_POT: k}))

    def oracle_cost(m, n):
        return 1 if m == 1 else 1 + oracle_cost(m - 1, n)

    def oracle_size(m, n):
        return n if m == 1 else 1 + oracle_size(m - 1, n)

    for m in range(1, 9):
        for n in range(1, 9):
            r1 = cpx.right(phi(m))
            r2 = r1.right(phi(n))
            total = r1.left.num + r2.left.num
            assert total == ext(oracle_cost(m, n)) == ext(m), (m, n)
            assert r2.right == phi(oracle_size(m, n)) == phi(m + n - 1), (m, n)

    assert time.monotonic() - started < 5.0
    _report(4, "plus recurrences in the all-constructors model", started)


def test_acceptance_5_rev_merged_model():
    """Merged-model reversal: the instantiated helper's potential solves
    S(1,m)=m, S(n,m)=S(n-1,m+1), i.e. m+n-1, and the cost is n.
    """
    started = time.monotonic()
    ex = corpus_extracted("rev.src")
    model = make_model("merged")
    binding = ex.bindings["revgo"]
    poly = denote_closed(model, binding.potential)
    ty = binding.potential_ty
    inst = model.tyapp(poly, NAT_POT, ty.var, ty.body)

    def oracle_S(n, m):
        return m if n == 1 else oracle_S(n - 1, m + 1)

    def conc_list(n):
        return galois_conc(LIST_NAT_POT, size(n))

    for n in range(1, 9):
        for m in range(0, 9):
            r1 = inst(conc_list(n))
            r2 = r1.right(conc_list(m))
            pot = galois_abs(LIST_NAT_POT, r2.right)
            assert pot == size(oracle_S(n, m)) == size(m + n - 1), (n, m)
            assert r1.left.num + r2.left.num == ext(n), (n, m)

    assert time.monotonic() - started < 5.0
    _report(5, "list reverse in the merged model", started)


def test_acceptance_6_map_fusion():
    """With constant-cost f and g: the fused map's upper bound is
    n(1+c_g+c_f') at potential n, the composed maps' lower bound is
    2n(1+c_g+c_f) at a length-n list, and the lower bound of the composition
    dominates the upper bound of the fused map at every length 1..10.
    """
    started = time.monotonic()
    ex = corpus_extracted("fusion.src")
    upper = make_model("size")
    lower = make_model("lower")

    # the fixtures' constants, computed from the model
    g_pot = denote_closed(upper, ex.bindings["g"].complexity).right
    f_pot = denote_closed(upper, ex.bindings["f"].complexity).right
    g_inf = g_pot(size(None))
    c_g = g_inf.left.num.value or 0
    assert g_inf.left.num == ext(0)
    f_at = f_pot(g_inf.right)
    c_f_fused = f_at.left.num.value or 0  # (f (g inf)_p)_c
    g_bot = denote_closed(lower, ex.bindings["g"].complexity).right(size(1))
    f_bot = denote_closed(lower, ex.bindings["f"].complexity).right(size(1))
    c_g_low, c_f_low = g_bot.left.num.value, f_bot.left.num.value

    fused = denote_closed(upper, ex.bindings["map_fused"].complexity).right
    composed_lower = denote_closed(lower, ex.bindings["map_composed"].complexity).right
    fused_upper_at_len = denote_closed(upper, ex.bindings["map_fused"].complexity).right

    for n in range(1, 11):
        up = fused(size(n)).left.num
        assert up == ext(n * (1 + c_g + c_f_fused)), f"fused upper at potential {n}"
        lo = composed_lower(size(n + 1)).left.num  # a length-n list
        assert lo == ext(2 * n * (1 + c_g_low + c_f_low)), f"composed lower at length {n}"
        up_len = fused_upper_at_len(size(n + 1)).left.num
        assert up_len <= lo, f"fusion dominance at length {n}"

    assert time.monotonic() - started < 2.0
    _report(6, "map fusion bounds", started)


def test_acceptance_7_bounding_theorem_suite():
    """Over the full corpus, at least 1000 random inputs per function: no
    violation of the cost/potential upper bounds in the size, height,
    all-constructors, and merged models; no violation of the reversed cost
    inequality in the lower model; exact-model cost and potential equal the
    operational results on every trial.
    """
    started = time.monotonic()
    assert len(CORPUS_FILES) >= 8
    total_failures = 0
    total_trials = 0
    for name in CORPUS_FILES:
        checked = corpus_checked(name)
        for fn in CORPUS_FUNCTIONS[name]:
            # crc32, unlike hash(), is the same in every process
            seed = 7000 + zlib.crc32(fn.encode()) % 1000
            cfg = TrialConfig(trials=1000, max_value_size=12,
                              models=("exact", "size", "height", "allcons",
                                      "merged", "lower"),
                              seed=seed)
            report = verify_bound(checked, fn, cfg, program_name=name)
            assert not report.skipped_models, (name, fn, seed, report.skipped_models)
            total_failures += len(report.failures)
            total_trials += len(report.trials)
            assert report.passed, f"{name} {fn} seed {seed}: {report.summary()}"
    assert total_trials >= 8 * 1000
    assert total_failures == 0
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report(7, f"bounding theorem on {total_trials} trials", started)


def test_acceptance_8_metatheory_suites():
    """Type preservation on every trial result; typeability of every
    extracted recurrence; the simplifier preserves denotations in every
    model; and the Galois laws hold on 500 sampled values per sampled type.
    """
    started = time.monotonic()

    # -- type preservation: evaluation results check at their static types
    trials = 0
    rng = random.Random(808)
    for name in CORPUS_FILES:
        checked = corpus_checked(name)
        env, _ = program_env(checked.program)
        for fn in CORPUS_FUNCTIONS[name]:
            prepared = prepare(checked, fn, ())
            for _ in range(120):
                args = [gen_value(t, 10, rng) for t in prepared.arg_types]
                res = apply_function(env, fn, args)
                check_value(checked, res.value, prepared.result_type)
                trials += 1
    assert trials >= 1000

    # -- typeability of every extracted recurrence (Prop 4.1 as a test)
    for name in CORPUS_FILES:
        ex = corpus_extracted(name)
        for bname, binding in ex.bindings.items():
            assert check_rec({}, binding.complexity) == binding.complexity_ty, bname

    # -- the simplifier's rewrites leave denotations unchanged in all models
    from costrec.rec_lang import simplify

    sample_args = {
        "size": [size(1), size(3), size(6)],
        "height": [size(1), size(2), size(4)],
        "lower": [size(1), size(3), size(6)],
        "allcons": None,  # built per argument type below
        "merged": None,
        "exact": None,
    }
    for name in CORPUS_FILES:
        checked = corpus_checked(name)
        ex = corpus_extracted(name)
        for fn in CORPUS_FUNCTIONS[name]:
            binding = ex.bindings[fn]
            simplified = simplify(binding.complexity)
            for model_name in ("size", "height", "allcons", "merged", "lower", "exact"):
                prepared = prepare(checked, fn, ())
                model = make_model(model_name)
                try:
                    d1 = denote_closed(model, binding.complexity if not binding.scheme.bound else binding.potential)
                    d2 = denote_closed(model, simplify(binding.complexity) if not binding.scheme.bound else simplify(binding.potential))
                except Exception:
                    continue
                rng2 = random.Random(11)
                for _ in range(5):
                    args = [gen_value(t, 6, rng2) for t in prepared.arg_types]
                    pots = [value_potential(model, v, t)
                            for v, t in zip(args, prepared.arg_types)]
                    v1, v2 = d1, d2
                    if binding.scheme.bound:
                        ty = binding.potential_ty
                        for _b in binding.scheme.bound:
                            v1 = model.tyapp(v1, NAT_POT, ty.var, ty.body)
                            v2 = model.tyapp(v2, NAT_POT, ty.var, ty.body)
                            ty = ty.body
                        c1 = c2 = ext(0)
                    else:
                        c1, v1 = v1.left.num, v1.right
                        c2, v2 = v2.left.num, v2.right
                    for p in pots:
                        r1, r2 = v1(p), v2(p)
                        c1, v1 = c1 + r1.left.num, r1.right
                        c2, v2 = c2 + r2.left.num, r2.right
                    assert c1 == c2, (name, fn, model_name)
                    if model.direction == "exact":
                        assert v1 == v2, (name, fn, model_name)
                    else:
                        assert sem_leq(v1, v2) and sem_leq(v2, v1), (name, fn, model_name)

    # -- Galois laws: abs . conc = id, conc . abs >= id, 500 values per type
    from test_models import _SAMPLE_TYPES, _random_v_value, _random_w_value

    rng3 = random.Random(909)
    for ty in _SAMPLE_TYPES:
        for _ in range(500):
            v = _random_v_value(ty, rng3)
            assert galois_abs(ty, galois_conc(ty, v)) == v
            w = _random_w_value(ty, rng3)
            assert sem_leq(w, galois_conc(ty, galois_abs(ty, w)))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(8, "metatheory property suites", started)
