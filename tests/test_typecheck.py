import pytest

from conftest import (
    CORPUS_DIR, CORPUS_FILES, CORPUS_FUNCTIONS, POLY_LET, corpus_checked, corpus_text,
    derived, holes,
)
from reference import check_value, is_core
from costrec.cost_eval import apply_function, eval_expr, program_env
from costrec.harness import gen_value
from costrec.source_ast import (
    BOOL, NAT_TYPE, EMPTY_ENV, Cons, Inj, Let, MapE, FRec, Lam, Program, TArrow,
    TProd, TSum, TSusp, TUnit, TVar, TypeScheme, Unit, Var, VUnit, iter_subexprs,
    numeral_value, parse_expr, parse_program, parse_type, pretty_type,
)
from costrec import typecheck
from costrec.typecheck import (
    Elab, SrcTypeError, TypeContext, check_program, fresh_meta, infer_expr,
    zonk,
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


def test_a_local_let_keeping_an_unsolved_hole_is_ambiguous():
    for src in ("let f = fn (x: unit) => let n = nil in n;",
                "let f = fn (u: unit) => let n = nil in let g = fn (y: a) => (y, n) in g u;"):
        with pytest.raises(SrcTypeError, match="ambiguous"):
            check_program(parse_program(src))


def test_a_local_let_hole_solved_after_a_polymorphic_use():
    # g is generalized over a but not over n's hole, which the last line
    # solves after g has been instantiated
    src = ("let f = fn (u: unit) => let n = nil in let g = fn (y: a) => (y, n) in "
           "let p = g u in cons(#1, n);")
    checked = check_program(parse_program(src))
    assert checked.schemes["f"].body == TArrow(TUnit(), parse_type("list<nat>"))
    lets = [e for e in iter_subexprs(checked.program.bindings[0][1]) if isinstance(e, Let)]
    assert [e.generalized for e in lets] == [(), ("a",), ()]
    assert not holes(*map(derived, (e for _, e in checked.program.bindings)))


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
        finalized.append([e for e, _ in self.pending])
        finalize(self, pos)

    monkeypatch.setattr(Elab, "_finalize", counting)
    checked = check_program(parse_program(src))
    assert len(finalized) == n
    assert len({len(batch) for batch in finalized}) == 1
    nodes = [e for batch in finalized for e in batch]
    finalized_ids = {id(e) for e in nodes}
    assert len(finalized_ids) == len(nodes)  # each node once
    assert finalized_ids == {id(e) for _, expr in checked.program.bindings
                             for e in iter_subexprs(expr)}  # and every node


def test_zonks_per_binding_do_not_grow_with_the_bindings_before_it(monkeypatch):
    # top-level schemes are closed and hole-free, so generalizing a binding
    # zonks none of the earlier ones
    calls = []
    monkeypatch.setattr(typecheck, "zonk", lambda ty, zonk=zonk: calls.append(1) or zonk(ty))
    per_binding = []
    for n in (100, 400):
        program = parse_program(
            "".join(f"let f{i} = fn (x: nat) => cons(x, nil);\n" for i in range(n)))
        calls.clear()
        check_program(program)
        per_binding.append(len(calls) / n)
    assert per_binding[0] == per_binding[1]


def test_checker_state_is_linear_in_the_bindings():
    # checking writes a fixed number of attributes onto each node, and no
    # copy of the context, so what it keeps per binding does not grow with
    # the program
    def attributes(checked):
        return sum(len(vars(node)) + sum(len(v) for v in facts.values() if isinstance(v, tuple))
                   for _, expr in checked.program.bindings
                   for node, facts in zip(iter_subexprs(expr), derived(expr)))

    per_binding = []
    for n in (100, 400):
        checked = check_program(parse_program(
            "".join(f"let f{i} = fn (x: nat) => cons(x, nil);\n" for i in range(n))))
        per_binding.append(attributes(checked) / n)
    assert per_binding[0] == per_binding[1]


def test_monomorphic_lets_do_not_rescan_the_context(monkeypatch):
    # a bound with no type variables generalizes nothing, so a let chain
    # inside one lambda zonks none of the enclosing lets' schemes again
    calls = []
    monkeypatch.setattr(typecheck, "zonk", lambda ty, zonk=zonk: calls.append(1) or zonk(ty))

    def zonks(k):
        chain = "".join(f"let y{i} = S(y{i - 1}) in\n" for i in range(1, k + 1))
        program = parse_program(f"let f = fn (y0: nat) =>\n{chain}y{k};\n")
        calls.clear()
        check_program(program)
        return len(calls)

    base = zonks(0)
    per_let = [(zonks(k) - base) / k for k in (100, 400)]
    assert per_let[0] == per_let[1]


def test_given_and_local_schemes_take_part_in_generalization():
    # only the top-level schemes check_program makes are known to be closed
    ctx = TypeContext({"f": TypeScheme((), TVar("a"))})
    assert ctx.free_tyvars() == {"a"}
    assert ctx.extend("z", TypeScheme((), TVar("b"))).free_tyvars() == {"a", "b"}


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_checking_a_program_twice_gives_equal_schemes(name):
    # the first check writes solved constructor annotations back into the
    # program; the second must derive the same types from them
    program = parse_program(corpus_text(name))
    first = check_program(program)
    facts = [derived(expr) for _, expr in program.bindings]
    second = check_program(program)
    assert second.schemes == first.schemes
    assert second.main_type == first.main_type
    assert [derived(expr) for _, expr in program.bindings] == facts


@pytest.mark.parametrize("path", [CORPUS_DIR / n for n in CORPUS_FILES] + [POLY_LET],
                         ids=lambda p: p.name)
def test_checking_writes_the_derivation_onto_every_node(path):
    checked = check_program(parse_program(path.read_text()))
    for name, expr in checked.program.bindings:
        assert expr.ty == checked.schemes[name].body
        for node in iter_subexprs(expr):
            assert not holes(node.ty), (name, node)
            if isinstance(node, Var):
                assert not holes(node.instantiation), (name, node)
            if isinstance(node, Let):
                assert isinstance(node.generalized, tuple), (name, node)
            if isinstance(node, (Cons, Inj)):
                assert node.ty is node.annotation


def test_generalized_local_let_is_written_onto_its_nodes():
    checked = check_program(parse_program(POLY_LET.read_text()))
    lets = {n.binder: n for _, expr in checked.program.bindings
            for n in iter_subexprs(expr) if isinstance(n, Let)}
    assert lets["d"].generalized == ("a",)
    assert lets["e"].generalized == ()  # b is free in the context
    uses = [n for n in iter_subexprs(lets["d"].body) if isinstance(n, Var) and n.name == "d"]
    assert [u.instantiation for u in uses] == [(NAT_TYPE,), (TUnit(),)]
    assert [u.ty for u in uses] == [TArrow(NAT_TYPE, TProd(NAT_TYPE, NAT_TYPE)),
                                    TArrow(TUnit(), TProd(TUnit(), TUnit()))]


def test_scheme_recorded_for_top_level_bindings():
    checked = corpus_checked("rev.src")
    assert checked.schemes["revgo"].bound == ("a",)
    assert checked.schemes["rev"].bound == ("a",)


def test_is_core():
    assert is_core(parse_expr("fn (x: unit) => x"))
    assert is_core(corpus_checked("copy.src").program.binding("copy"))
    mapv = MapE(FRec(), "y", VUnit(), Unit())
    assert not is_core(mapv)


def test_map_not_typeable_in_core_mode():
    mapv = MapE(FRec(), "y", VUnit(), Unit())
    with pytest.raises(SrcTypeError):
        infer_expr(TypeContext({}), mapv)
    # the parser never builds map nodes, but checking rejects a program
    # that holds one, at any depth
    for expr in (mapv, Lam("x", TUnit(), mapv)):
        with pytest.raises(SrcTypeError):
            check_program(Program({}, [("f", expr)]))


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
