"""The structural facts kept on syntax nodes: a type's free type variables
(``_ftv``) and whether it holds a hole (``_meta_free``), and a recurrence
term's free variables (``_fv``) and occurrence counts (``_occ``).  Each must
equal a fresh recursive walk (``tests/reference.py``) wherever it is read,
none may be kept where a hole's later solution could change it, and each
is computed at most once per node.
"""

import dataclasses
import random

import pytest

from conftest import CORPUS_DIR, CORPUS_FILES, POLY_LET, corpus_checked, corpus_extracted
from reference import (
    recursive_contains_meta, recursive_free_tyvars, recursive_occurrences,
    recursive_rec_free_vars,
)
from costrec import rec_lang, typecheck
from costrec.extract import extract_program
from costrec.rec_lang import RecExpr, rec_free_vars, simplify
from costrec.source_ast import (
    NAT_TYPE, FArrow, FConst, FProd, FRec, FSum, TArrow, TProd, TUnit, TVar,
    free_tyvars, iter_subexprs, parse_program, parse_type, subst_tyvars,
    type_parts,
)
from costrec.typecheck import _meta_free, check_program, fresh_meta, zonk


def _subterms(e: RecExpr):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if isinstance(child, RecExpr):
                stack.append(child)


def _subtypes(ty):
    """A type and every type and shape functor below it."""
    stack = [ty]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(type_parts(node))


def _checked_types(program):
    for _, expr in program.bindings:
        for node in iter_subexprs(expr):
            yield node.ty
            yield from getattr(node, "instantiation", None) or ()


def _check_term_facts(term: RecExpr, where) -> None:
    for node in _subterms(term):
        free = recursive_rec_free_vars(node)
        assert rec_free_vars(node) == free, where
        assert rec_lang._occ(node) == {x: recursive_occurrences(node, x) for x in free}, where


def _check_type_facts(program, where) -> None:
    for ty in _checked_types(program):
        assert _meta_free(ty) and not recursive_contains_meta(ty), where
        for node in _subtypes(ty):
            if not isinstance(node, (FRec, FConst, FProd, FSum, FArrow)):
                assert free_tyvars(node) == recursive_free_tyvars(node), where


def _check_program_facts(checked, extracted, where) -> None:
    _check_type_facts(checked.program, where)
    for name, binding in extracted.bindings.items():
        for what in ("complexity", "potential"):
            term = getattr(binding, what)
            _check_term_facts(term, (where, name, what))
            _check_term_facts(simplify(term), (where, name, what, "simplified"))


@pytest.mark.parametrize("name", CORPUS_FILES + ["poly_let.src"])
def test_memoized_facts_equal_their_oracles_on_the_corpus(name):
    if name == "poly_let.src":
        checked = check_program(parse_program(POLY_LET.read_text()))
        extracted = extract_program(checked)
    else:
        checked, extracted = corpus_checked(name), corpus_extracted(name)
    _check_program_facts(checked, extracted, name)


# ---------------------------------------------------------------------------
# Random well-typed programs
# ---------------------------------------------------------------------------


_TYPES = ("nat", "list<nat>", "bool", "nat * nat")


class _Programs:
    """Random well-typed programs over nat, lists, booleans and pairs: lets,
    beta redexes, generalized local lets used at two types, local lets of
    an unannotated ``nil``, folds over nat and lists, and calls of earlier
    top-level bindings.  Every compound expression is parenthesized.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.names = 0

    def fresh(self, base: str) -> str:
        self.names += 1
        return f"{base}{self.names}"

    def program(self, bindings: int = 3, depth: int = 3) -> str:
        env = [("x", "nat"), ("l", "list<nat>")]
        lines = []
        for i in range(bindings):
            ty = self.rng.choice(_TYPES)
            lines.append(f"let g{i} = fn (x: nat) => fn (l: list<nat>) => "
                         f"{self.expr(ty, env, depth)};")
            env = env + [(f"(g{i} x l)", ty)]
        return "\n".join(lines) + "\n"

    def expr(self, ty: str, env, depth: int) -> str:
        leaves = [text for text, t in env if t == ty]
        if depth == 0 or self.rng.random() < 0.2:
            return self.rng.choice(leaves + [self.literal(ty)])
        forms = [self.let, self.beta, self.poly_let, self.project, self.cond,
                 self.fold_nat, self.fold_list]
        if ty == "nat":
            forms.append(lambda ty, env, d: f"S({self.expr('nat', env, d)})")
        elif ty == "list<nat>":
            forms.append(lambda ty, env, d:
                         f"cons({self.expr('nat', env, d)}, {self.expr(ty, env, d)})")
            forms.append(self.hole_let)
        elif ty == "nat * nat":
            forms.append(lambda ty, env, d:
                         f"({self.expr('nat', env, d)}, {self.expr('nat', env, d)})")
        return self.rng.choice(forms)(ty, env, depth - 1)

    def literal(self, ty: str) -> str:
        k = self.rng.randint(0, 2)
        return {"nat": f"#{k}", "list<nat>": self.rng.choice(["nil[nat]", f"cons(#{k}, nil)"]),
                "bool": self.rng.choice(["true", "false"]), "nat * nat": f"(#{k}, #0)"}[ty]

    def let(self, ty, env, d):
        v, t2 = self.fresh("v"), self.rng.choice(_TYPES)
        return f"(let {v} = {self.expr(t2, env, d)} in {self.expr(ty, env + [(v, t2)], d)})"

    def beta(self, ty, env, d):
        v, t2 = self.fresh("v"), self.rng.choice(_TYPES)
        return f"((fn ({v}: {t2}) => {self.expr(ty, env + [(v, t2)], d)}) {self.expr(t2, env, d)})"

    def poly_let(self, ty, env, d):
        p, t2 = self.fresh("p"), self.rng.choice(_TYPES)
        return (f"(let {p} = fn (z: a) => (z, z) in "
                f"pi0 (pi1 (pi0 ({p} {self.expr(t2, env, d)}), {p} {self.expr(ty, env, d)})))")

    def hole_let(self, ty, env, d):
        n = self.fresh("n")
        return f"(let {n} = nil in cons({self.expr('nat', env, d)}, {n}))"

    def project(self, ty, env, d):
        t2 = self.rng.choice(_TYPES)
        return f"(pi0 ({self.expr(ty, env, d)}, {self.expr(t2, env, d)}))"

    def cond(self, ty, env, d):
        return (f"(if {self.expr('bool', env, d)} then {self.expr(ty, env, d)} "
                f"else {self.expr(ty, env, d)})")

    def fold_nat(self, ty, env, d):
        r = self.fresh("r")
        step = self.expr(ty, env + [(f"(force {r})", ty)], d)
        return f"(foldnat {self.expr('nat', env, d)} of Z => {self.expr(ty, env, d)} | S({r}) => {step} : {ty})"

    def fold_list(self, ty, env, d):
        y, r = self.fresh("y"), self.fresh("r")
        step = self.expr(ty, env + [(y, "nat"), (f"(force {r})", ty)], d)
        return (f"(foldlist[nat] {self.expr('list<nat>', env, d)} of nil => "
                f"{self.expr(ty, env, d)} | cons({y}, {r}) => {step} : {ty})")


@pytest.mark.parametrize("seed", range(12))
def test_memoized_facts_equal_their_oracles_on_random_programs(seed):
    text = _Programs(seed).program()
    checked = check_program(parse_program(text))
    _check_program_facts(checked, extract_program(checked), (seed, text))


# ---------------------------------------------------------------------------
# Holes, and nodes returned untouched
# ---------------------------------------------------------------------------


def test_a_type_holding_a_hole_keeps_no_free_variable_memo():
    meta = fresh_meta()
    inner = TProd(meta, TUnit())
    ty = TArrow(TVar("a"), inner)
    assert free_tyvars(ty) == {"a"}
    assert "_ftv" not in vars(ty) and "_ftv" not in vars(inner) and "_ftv" not in vars(meta)
    assert vars(ty.dom)["_ftv"] == {"a"}
    # whether a node holds a hole is a fact of the tree, kept either way
    assert not _meta_free(ty) and vars(ty)["_meta_free"] is False
    meta.cell.solution = parse_type("list<b>")
    assert free_tyvars(ty) == {"a", "b"}
    assert not _meta_free(ty)
    solved = zonk(ty)
    assert _meta_free(solved)
    assert free_tyvars(solved) == recursive_free_tyvars(solved) == {"a", "b"}
    assert vars(solved)["_ftv"] == {"a", "b"}


def test_a_hole_free_type_keeps_its_memos():
    ty = parse_type("list<a> -> nat * b")
    assert not recursive_contains_meta(ty) and _meta_free(ty)
    assert free_tyvars(ty) == recursive_free_tyvars(ty)
    for node in _subtypes(ty):
        assert "_ftv" in vars(node) and vars(node)["_meta_free"] is True, node


def test_zonk_and_substitution_return_untouched_nodes():
    ty = parse_type("list<a> * (nat -> b)")
    assert zonk(ty) is ty
    assert subst_tyvars(ty, {"c": NAT_TYPE}) is ty
    out = subst_tyvars(ty, {"b": NAT_TYPE})
    assert out == parse_type("list<a> * (nat -> nat)")
    assert out.left is ty.left and out.right.dom is ty.right.dom
    # an unsolved hole is no type variable, and substitution leaves it be
    hole = fresh_meta()
    with_hole = TProd(TVar("a"), hole)
    assert zonk(with_hole) is with_hole
    assert subst_tyvars(with_hole, {"b": NAT_TYPE}) is with_hole
    assert subst_tyvars(with_hole, {"a": NAT_TYPE}).right is hole
    # a solved hole stands for its solution
    hole.cell.solution = TVar("a")
    assert subst_tyvars(with_hole, {"a": NAT_TYPE}) == TProd(NAT_TYPE, NAT_TYPE)


# ---------------------------------------------------------------------------
# Each fact is computed once per node
# ---------------------------------------------------------------------------


def _composed_maps(depth: int) -> str:
    """map.src and c_d = c_(d-1) . c_(d-1), c_0 = map_constf: the extracted
    terms grow fivefold per level.
    """
    lines = [(CORPUS_DIR / "map.src").read_text()]
    prev = "map_constf"
    for d in range(1, depth + 1):
        lines.append(f"let c{d} = fn (xs: list<nat>) => {prev} ({prev} xs);")
        prev = f"c{d}"
    return "\n".join(lines) + "\n"


def _computations_per_node(monkeypatch, depth: int) -> dict[str, float]:
    """Calls of each fact's compute function while checking, extracting and
    simplifying, per distinct node it was computed for.
    """
    seen: dict[str, dict] = {"_occ": {}, "_meta_free": {}}
    calls = dict.fromkeys(seen, 0)

    def counting(fact, compute):
        def counted(node):
            calls[fact] += 1
            seen[fact][id(node)] = node  # held, so no id is reused
            return compute(node)
        return counted

    monkeypatch.setattr(rec_lang, "_count_occurrences",
                        counting("_occ", rec_lang._count_occurrences))
    monkeypatch.setattr(typecheck, "_no_meta_below",
                        counting("_meta_free", typecheck._no_meta_below))
    checked = check_program(parse_program(_composed_maps(depth)))
    for binding in extract_program(checked).bindings.values():
        simplify(binding.complexity)
    monkeypatch.undo()
    return {fact: calls[fact] / len(seen[fact]) for fact in seen}


def test_fact_computations_per_node_do_not_grow(monkeypatch):
    small = _computations_per_node(monkeypatch, 2)
    large = _computations_per_node(monkeypatch, 4)
    for fact in small:
        assert large[fact] <= small[fact], (fact, small, large)
