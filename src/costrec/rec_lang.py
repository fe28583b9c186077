"""The recurrence language: a predicatively polymorphic lambda calculus with
a cost type C (a monoid with 0, 1, +), inductive types with a typed fold
term former, explicit type abstraction/application, and the structural map
macro used by the fold beta law.

``let x = a in b`` binds the value of ``a`` once; every model denotes it as
``b`` in the environment extended with ``a``'s denotation, so it is equal to
the substitution ``b[a/x]`` but shares ``a`` instead of copying it.  The
simplifier rewrites only the size-order axioms that every shipped model
interprets as equalities (projection, case-of-injection and function beta,
monoid identities and associativity, and let inlining); the datatype and
quantifier beta laws are genuine inequalities under size abstraction and
are never rewritten.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .source_ast import hash_once, type_memo


class RecTypeError(Exception):
    pass


_fresh = itertools.count()


def rec_gensym(base: str = "v") -> str:
    return f"{base}.{next(_fresh)}"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class RTVar:
    name: str


@hash_once
@dataclass(frozen=True)
class RC:
    pass


@hash_once
@dataclass(frozen=True)
class RUnit:
    pass


@hash_once
@dataclass(frozen=True)
class RProd:
    left: "RecType"
    right: "RecType"


@hash_once
@dataclass(frozen=True)
class RSum:
    left: "RecType"
    right: "RecType"


@hash_once
@dataclass(frozen=True)
class RArrow:
    dom: "RecType"
    cod: "RecType"


@hash_once
@dataclass(frozen=True)
class RInd:
    functor: "RecShape"
    label: Optional[str] = field(default=None, compare=False, hash=False)


@hash_once
@dataclass(frozen=True)
class RForall:
    var: str
    body: "RecType"


RecType = Union[RTVar, RC, RUnit, RProd, RSum, RArrow, RInd, RForall]


@hash_once
@dataclass(frozen=True)
class RSRec:
    pass


@hash_once
@dataclass(frozen=True)
class RSConst:
    type: RecType


@hash_once
@dataclass(frozen=True)
class RSProd:
    left: "RecShape"
    right: "RecShape"


@hash_once
@dataclass(frozen=True)
class RSSum:
    left: "RecShape"
    right: "RecShape"


@hash_once
@dataclass(frozen=True)
class RSArrow:
    dom: RecType
    body: "RecShape"


RecShape = Union[RSRec, RSConst, RSProd, RSSum, RSArrow]


def subst_rec_shape(f: RecShape, ty: RecType) -> RecType:
    """``F[ty]`` read as a type."""
    match f:
        case RSRec():
            return ty
        case RSConst(t):
            return t
        case RSProd(l, r):
            return RProd(subst_rec_shape(l, ty), subst_rec_shape(r, ty))
        case RSSum(l, r):
            return RSum(subst_rec_shape(l, ty), subst_rec_shape(r, ty))
        case RSArrow(d, b):
            return RArrow(d, subst_rec_shape(b, ty))
    raise RecTypeError(f"not a recurrence shape functor: {f!r}")


def subst_rtyvars(ty: RecType, mapping: dict[str, RecType]) -> RecType:
    if not mapping:
        return ty
    match ty:
        case RTVar(a):
            return mapping.get(a, ty)
        case RC() | RUnit():
            return ty
        case RProd(l, r):
            return RProd(subst_rtyvars(l, mapping), subst_rtyvars(r, mapping))
        case RSum(l, r):
            return RSum(subst_rtyvars(l, mapping), subst_rtyvars(r, mapping))
        case RArrow(d, c):
            return RArrow(subst_rtyvars(d, mapping), subst_rtyvars(c, mapping))
        case RInd(f, label):
            f2 = subst_rshape_tyvars(f, mapping)
            return RInd(f2, label if f2 == f else None)  # label may go stale
        case RForall(a, body):
            inner = {k: v for k, v in mapping.items() if k != a}
            return RForall(a, subst_rtyvars(body, inner))
    raise RecTypeError(f"not a recurrence type: {ty!r}")


def subst_rshape_tyvars(f: RecShape, mapping: dict[str, RecType]) -> RecShape:
    match f:
        case RSRec():
            return f
        case RSConst(t):
            return RSConst(subst_rtyvars(t, mapping))
        case RSProd(l, r):
            return RSProd(subst_rshape_tyvars(l, mapping), subst_rshape_tyvars(r, mapping))
        case RSSum(l, r):
            return RSSum(subst_rshape_tyvars(l, mapping), subst_rshape_tyvars(r, mapping))
        case RSArrow(d, b):
            return RSArrow(subst_rtyvars(d, mapping), subst_rshape_tyvars(b, mapping))
    raise RecTypeError(f"not a recurrence shape functor: {f!r}")


def rec_free_tyvars(ty: RecType) -> set[str]:
    match ty:
        case RTVar(a):
            return {a}
        case RC() | RUnit():
            return set()
        case RProd(l, r) | RSum(l, r):
            return rec_free_tyvars(l) | rec_free_tyvars(r)
        case RArrow(d, c):
            return rec_free_tyvars(d) | rec_free_tyvars(c)
        case RInd(f, _):
            return _shape_ftv(f)
        case RForall(a, body):
            return rec_free_tyvars(body) - {a}
    raise RecTypeError(f"not a recurrence type: {ty!r}")


def _shape_ftv(f: RecShape) -> set[str]:
    match f:
        case RSRec():
            return set()
        case RSConst(t):
            return rec_free_tyvars(t)
        case RSProd(l, r) | RSSum(l, r):
            return _shape_ftv(l) | _shape_ftv(r)
        case RSArrow(d, b):
            return rec_free_tyvars(d) | _shape_ftv(b)
    raise RecTypeError(f"not a recurrence shape functor: {f!r}")


def quantifier_free(ty: RecType) -> bool:
    return not isinstance(ty, RForall)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RecExpr:
    pass


@dataclass(frozen=True, eq=False)
class RVar(RecExpr):
    name: str


@dataclass(frozen=True, eq=False)
class RZero(RecExpr):
    pass


@dataclass(frozen=True, eq=False)
class ROne(RecExpr):
    pass


@dataclass(frozen=True, eq=False)
class RPlus(RecExpr):
    left: RecExpr
    right: RecExpr


@dataclass(frozen=True, eq=False)
class RUnitE(RecExpr):
    pass


@dataclass(frozen=True, eq=False)
class RPair(RecExpr):
    left: RecExpr
    right: RecExpr


@dataclass(frozen=True, eq=False)
class RProj(RecExpr):
    index: int
    arg: RecExpr


@dataclass(frozen=True, eq=False)
class RInj(RecExpr):
    index: int
    annotation: RecType  # the sum type
    arg: RecExpr


@dataclass(frozen=True, eq=False)
class RCase(RecExpr):
    scrutinee: RecExpr
    binder0: str
    type0: RecType
    branch0: RecExpr
    binder1: str
    type1: RecType
    branch1: RecExpr


@dataclass(frozen=True, eq=False)
class RLam(RecExpr):
    binder: str
    annotation: RecType
    body: RecExpr


@dataclass(frozen=True, eq=False)
class RApp(RecExpr):
    fn: RecExpr
    arg: RecExpr


@dataclass(frozen=True, eq=False)
class RTyLam(RecExpr):
    var: str
    body: RecExpr


@dataclass(frozen=True, eq=False)
class RTyApp(RecExpr):
    fn: RecExpr
    type_arg: RecType


@dataclass(frozen=True, eq=False)
class RConsE(RecExpr):
    annotation: RInd
    arg: RecExpr


@dataclass(frozen=True, eq=False)
class RDestE(RecExpr):
    annotation: RInd
    arg: RecExpr


@dataclass(frozen=True, eq=False)
class RFold(RecExpr):
    annotation: RInd
    scrutinee: RecExpr
    binder: str
    binder_annotation: RecType  # F[sigma] for the declared result sigma
    body: RecExpr


@dataclass(frozen=True, eq=False)
class RLet(RecExpr):
    binder: str
    bound: RecExpr
    body: RecExpr


def rec_free_vars(e: RecExpr) -> frozenset[str]:
    """The free variables of a term, kept on it under ``_fv``."""
    return type_memo(e, "_fv", _free_vars)


def _free_vars(e: RecExpr) -> frozenset[str]:
    match e:
        case RVar(n):
            return frozenset((n,))
        case RZero() | ROne() | RUnitE():
            return frozenset()
        case RPlus(l, r) | RPair(l, r) | RApp(l, r):
            return rec_free_vars(l) | rec_free_vars(r)
        case RProj(_, a) | RInj(_, _, a) | RConsE(_, a) | RDestE(_, a) | RTyApp(a, _) | RTyLam(_, a):
            return rec_free_vars(a)
        case RCase(s, x0, _, b0, x1, _, b1):
            return rec_free_vars(s) | (rec_free_vars(b0) - {x0}) | (rec_free_vars(b1) - {x1})
        case RLam(x, _, b):
            return rec_free_vars(b) - {x}
        case RFold(_, s, x, _, b) | RLet(x, s, b):
            return rec_free_vars(s) | (rec_free_vars(b) - {x})
    raise RecTypeError(f"not a recurrence expression: {e!r}")


def subst_rec(e: RecExpr, name: str, value: RecExpr) -> RecExpr:
    """Capture-avoiding substitution of ``value`` for ``name`` in ``e``."""
    fv = rec_free_vars(value)

    def go(e: RecExpr, name: str, value: RecExpr) -> RecExpr:
        match e:
            case RVar(n):
                return value if n == name else e
            case RZero() | ROne() | RUnitE():
                return e
            case RPlus(l, r):
                return RPlus(go(l, name, value), go(r, name, value))
            case RPair(l, r):
                return RPair(go(l, name, value), go(r, name, value))
            case RProj(i, a):
                return RProj(i, go(a, name, value))
            case RInj(i, t, a):
                return RInj(i, t, go(a, name, value))
            case RCase(s, x0, t0, b0, x1, t1, b1):
                s2 = go(s, name, value)
                x0b, b0b = _under(x0, b0, name, value, fv)
                x1b, b1b = _under(x1, b1, name, value, fv)
                return RCase(s2, x0b, t0, b0b, x1b, t1, b1b)
            case RLam(x, t, b):
                xb, bb = _under(x, b, name, value, fv)
                return RLam(xb, t, bb)
            case RApp(f, a):
                return RApp(go(f, name, value), go(a, name, value))
            case RTyLam(a, b):
                return RTyLam(a, go(b, name, value))
            case RTyApp(f, t):
                return RTyApp(go(f, name, value), t)
            case RConsE(t, a):
                return RConsE(t, go(a, name, value))
            case RDestE(t, a):
                return RDestE(t, go(a, name, value))
            case RFold(t, s, x, xt, b):
                s2 = go(s, name, value)
                xb, bb = _under(x, b, name, value, fv)
                return RFold(t, s2, xb, xt, bb)
            case RLet(x, a, b):
                a2 = go(a, name, value)
                xb, bb = _under(x, b, name, value, fv)
                return RLet(xb, a2, bb)
        raise RecTypeError(f"not a recurrence expression: {e!r}")

    def _under(binder: str, body: RecExpr, name: str, value: RecExpr, fv: set[str]):
        if binder == name:
            return binder, body
        if binder in fv:
            fresh = rec_gensym(binder.split(".")[0])
            body = go(body, binder, RVar(fresh))
            binder = fresh
        return binder, go(body, name, value)

    return go(e, name, value)


def subst_rec_type_in_expr(e: RecExpr, mapping: dict[str, RecType]) -> RecExpr:
    """Substitute types for type variables throughout an expression."""
    if not mapping:
        return e
    st = lambda t: subst_rtyvars(t, mapping)
    match e:
        case RVar() | RZero() | ROne() | RUnitE():
            return e
        case RPlus(l, r):
            return RPlus(subst_rec_type_in_expr(l, mapping), subst_rec_type_in_expr(r, mapping))
        case RPair(l, r):
            return RPair(subst_rec_type_in_expr(l, mapping), subst_rec_type_in_expr(r, mapping))
        case RProj(i, a):
            return RProj(i, subst_rec_type_in_expr(a, mapping))
        case RInj(i, t, a):
            return RInj(i, st(t), subst_rec_type_in_expr(a, mapping))
        case RCase(s, x0, t0, b0, x1, t1, b1):
            return RCase(
                subst_rec_type_in_expr(s, mapping),
                x0, st(t0), subst_rec_type_in_expr(b0, mapping),
                x1, st(t1), subst_rec_type_in_expr(b1, mapping),
            )
        case RLam(x, t, b):
            return RLam(x, st(t), subst_rec_type_in_expr(b, mapping))
        case RApp(f, a):
            return RApp(subst_rec_type_in_expr(f, mapping), subst_rec_type_in_expr(a, mapping))
        case RTyLam(a, b):
            inner = {k: v for k, v in mapping.items() if k != a}
            return RTyLam(a, subst_rec_type_in_expr(b, inner))
        case RTyApp(f, t):
            return RTyApp(subst_rec_type_in_expr(f, mapping), st(t))
        case RConsE(t, a):
            return RConsE(st(t), subst_rec_type_in_expr(a, mapping))
        case RDestE(t, a):
            return RDestE(st(t), subst_rec_type_in_expr(a, mapping))
        case RFold(t, s, x, xt, b):
            return RFold(st(t), subst_rec_type_in_expr(s, mapping), x, st(xt),
                         subst_rec_type_in_expr(b, mapping))
        case RLet(x, a, b):
            return RLet(x, subst_rec_type_in_expr(a, mapping), subst_rec_type_in_expr(b, mapping))
    raise RecTypeError(f"not a recurrence expression: {e!r}")


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


@dataclass
class RecElab:
    """Per-node types from a checking run, keyed by node identity.  The
    denotation function reads them when it compiles a term (for the result
    types of case and fold nodes and the quantified types of type
    applications), never while running it.  The table is valid while the
    checked term is alive; the caller keeps it.
    """

    types: dict[int, RecType] = field(default_factory=dict)

    def type_of(self, e: RecExpr) -> RecType:
        return self.types[id(e)]


def check_rec(ctx: dict[str, RecType], e: RecExpr,
              elab: Optional[RecElab] = None) -> RecType:
    """Derive the type of ``e``; context entries may be quantified.  Raises
    RecTypeError on failure.
    """
    elab = elab if elab is not None else RecElab()
    return _check(dict(ctx), e, elab)


def _check(ctx: dict[str, RecType], e: RecExpr, elab: RecElab) -> RecType:
    ty = _check_node(ctx, e, elab)
    elab.types[id(e)] = ty
    return ty


def _expect(ty: RecType, want, what: str) -> RecType:
    if not isinstance(ty, want):
        raise RecTypeError(f"expected {what}, found {pretty_rec_type(ty)}")
    return ty


def _check_node(ctx: dict[str, RecType], e: RecExpr, elab: RecElab) -> RecType:
    match e:
        case RVar(n):
            if n not in ctx:
                raise RecTypeError(f"unbound recurrence variable {n}")
            return ctx[n]
        case RZero() | ROne():
            return RC()
        case RPlus(l, r):
            if not isinstance(_check(ctx, l, elab), RC) or not isinstance(_check(ctx, r, elab), RC):
                raise RecTypeError("+ applies only at the cost type")
            return RC()
        case RUnitE():
            return RUnit()
        case RPair(l, r):
            return RProd(_check(ctx, l, elab), _check(ctx, r, elab))
        case RProj(i, a):
            ta = _expect(_check(ctx, a, elab), RProd, "a product")
            return ta.left if i == 0 else ta.right
        case RInj(i, ann, a):
            ann_ok = _expect(ann, RSum, "a sum annotation")
            ta = _check(ctx, a, elab)
            want = ann_ok.left if i == 0 else ann_ok.right
            if ta != want:
                raise RecTypeError(
                    f"injection argument has type {pretty_rec_type(ta)}, annotation wants {pretty_rec_type(want)}"
                )
            return ann
        case RCase(s, x0, t0, b0, x1, t1, b1):
            ts = _expect(_check(ctx, s, elab), RSum, "a sum scrutinee")
            if ts.left != t0 or ts.right != t1:
                raise RecTypeError("case binder annotations do not match the scrutinee")
            r0 = _check({**ctx, x0: t0}, b0, elab)
            r1 = _check({**ctx, x1: t1}, b1, elab)
            if r0 != r1:
                raise RecTypeError(
                    f"case branches disagree: {pretty_rec_type(r0)} vs {pretty_rec_type(r1)}"
                )
            return r0
        case RLam(x, t, b):
            return RArrow(t, _check({**ctx, x: t}, b, elab))
        case RApp(f, a):
            tf = _expect(_check(ctx, f, elab), RArrow, "a function")
            ta = _check(ctx, a, elab)
            if ta != tf.dom:
                raise RecTypeError(
                    f"argument type {pretty_rec_type(ta)} does not match domain {pretty_rec_type(tf.dom)}"
                )
            return tf.cod
        case RTyLam(a, b):
            for ty in ctx.values():
                if a in rec_free_tyvars(ty):
                    raise RecTypeError(f"type variable {a} escapes into the context")
            return RForall(a, _check(ctx, b, elab))
        case RTyApp(f, t):
            tf = _expect(_check(ctx, f, elab), RForall, "a quantified type")
            if not quantifier_free(t):
                raise RecTypeError("type application argument must be quantifier free")
            return subst_rtyvars(tf.body, {tf.var: t})
        case RConsE(ann, a):
            ta = _check(ctx, a, elab)
            want = subst_rec_shape(ann.functor, ann)
            if ta != want:
                raise RecTypeError(
                    f"constructor argument has type {pretty_rec_type(ta)}, expected {pretty_rec_type(want)}"
                )
            return ann
        case RDestE(ann, a):
            ta = _check(ctx, a, elab)
            if ta != ann:
                raise RecTypeError("destructor argument does not match its annotation")
            return subst_rec_shape(ann.functor, ann)
        case RFold(ann, s, x, xt, b):
            ts = _check(ctx, s, elab)
            if ts != ann:
                raise RecTypeError("fold scrutinee does not match its annotation")
            tb = _check({**ctx, x: xt}, b, elab)
            if subst_rec_shape(ann.functor, tb) != xt:
                raise RecTypeError(
                    "fold binder annotation is not F[sigma] for the body's result type"
                )
            return tb
        case RLet(x, a, b):
            return _check({**ctx, x: _check(ctx, a, elab)}, b, elab)
    raise RecTypeError(f"not a recurrence expression: {e!r}")


# ---------------------------------------------------------------------------
# Simplifier
# ---------------------------------------------------------------------------

SIMPLIFY_BUDGET = 200_000


def simplify(e: RecExpr, _budget: Optional[list[int]] = None) -> RecExpr:
    """Normal form under the directed rewrites that are equalities in every
    shipped model: projection beta, case-of-injection beta, function beta,
    the cost-monoid identity and associativity laws, and let inlining.  The
    datatype and quantifier laws are strict inequalities under abstraction
    and are left alone.

    The beta laws bind their argument with ``let`` rather than substituting
    it, and a ``let`` is inlined only when its variable occurs at most once
    or its bound term is a variable or literal, so no rewrite copies a term.
    """
    budget = _budget if _budget is not None else [SIMPLIFY_BUDGET]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise RecTypeError("simplifier rewrite budget exceeded (divergent rewrite?)")

    def norm(e: RecExpr) -> RecExpr:
        match e:
            case RVar() | RZero() | ROne() | RUnitE():
                return e
            case RPlus(l, r):
                return _plus(norm(l), norm(r), spend)
            case RPair(l, r):
                return RPair(norm(l), norm(r))
            case RProj(i, a):
                a2 = norm(a)
                if isinstance(a2, RPair):  # beta-times
                    spend()
                    return a2.left if i == 0 else a2.right
                return RProj(i, a2)
            case RInj(i, t, a):
                return RInj(i, t, norm(a))
            case RCase(s, x0, t0, b0, x1, t1, b1):
                s2 = norm(s)
                if isinstance(s2, RInj):  # beta-plus
                    spend()
                    x, b = (x0, b0) if s2.index == 0 else (x1, b1)
                    return let(x, s2.arg, norm(b))
                return RCase(s2, x0, t0, norm(b0), x1, t1, norm(b1))
            case RLam(x, t, b):
                return RLam(x, t, norm(b))
            case RApp(f, a):
                f2, a2 = norm(f), norm(a)
                if isinstance(f2, RLam):  # beta-to
                    spend()
                    return let(f2.binder, a2, f2.body)
                return RApp(f2, a2)
            case RTyLam(v, b):
                return RTyLam(v, norm(b))
            case RTyApp(f, t):
                return RTyApp(norm(f), t)  # beta-all is a strict inequality
            case RConsE(t, a):
                return RConsE(t, norm(a))
            case RDestE(t, a):
                return RDestE(t, norm(a))  # beta-delta is a strict inequality
            case RFold(t, s, x, xt, b):
                return RFold(t, norm(s), x, xt, norm(b))  # beta-fold likewise
            case RLet(x, a, b):
                return let(x, norm(a), norm(b))
        raise RecTypeError(f"not a recurrence expression: {e!r}")

    def let(x: str, a: RecExpr, b: RecExpr) -> RecExpr:
        # a and b are in normal form
        uses = _occurrences(b, x)
        if uses == 0:
            spend()
            return b
        if uses == 1 or isinstance(a, (RVar, RZero, ROne, RUnitE)):
            spend()
            return norm(subst_rec(b, x, a))
        return RLet(x, a, b)

    return norm(e)


def _occurrences(e: RecExpr, name: str) -> int:
    """Free occurrences of a variable."""
    return _occ(e).get(name, 0)


def _occ(e: RecExpr) -> dict[str, int]:
    """Each free variable of a term with its number of free occurrences,
    kept on the term under ``_occ``.  Maps are shared between nodes, so
    none is changed once built.
    """
    return type_memo(e, "_occ", _count_occurrences)


def _count_occurrences(e: RecExpr) -> dict[str, int]:
    match e:
        case RVar(n):
            return {n: 1}
        case RZero() | ROne() | RUnitE():
            return {}
        case RPlus(l, r) | RPair(l, r) | RApp(l, r):
            return _add_counts(_occ(l), _occ(r))
        case RProj(_, a) | RInj(_, _, a) | RConsE(_, a) | RDestE(_, a) | RTyApp(a, _) | RTyLam(_, a):
            return _occ(a)
        case RCase(s, x0, _, b0, x1, _, b1):
            return _add_counts(_occ(s), _add_counts(_occ_under(x0, b0), _occ_under(x1, b1)))
        case RLam(x, _, b):
            return _occ_under(x, b)
        case RFold(_, s, x, _, b) | RLet(x, s, b):
            return _add_counts(_occ(s), _occ_under(x, b))
    raise RecTypeError(f"not a recurrence expression: {e!r}")


def _occ_under(binder: str, body: RecExpr) -> dict[str, int]:
    occ = _occ(body)
    if binder not in occ:
        return occ
    return {x: n for x, n in occ.items() if x != binder}


def _add_counts(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for x, n in b.items():
        out[x] = out.get(x, 0) + n
    return out


def _plus(l: RecExpr, r: RecExpr, spend) -> RecExpr:
    if isinstance(l, RZero):  # idl
        spend()
        return r
    if isinstance(r, RZero):  # idr
        spend()
        return l
    if isinstance(r, RPlus):  # assoc, reassociating to the left
        spend()
        return _plus(_plus(l, r.left, spend), r.right, spend)
    return RPlus(l, r)


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def pretty_rec_type(ty: RecType) -> str:
    return _prt(ty, 0)


def _prt(ty: RecType, prec: int) -> str:
    match ty:
        case RTVar(a):
            return a
        case RC():
            return "C"
        case RUnit():
            return "unit"
        case RProd(l, r):
            s = f"{_prt(l, 2)} * {_prt(r, 3)}"
            return f"({s})" if prec > 2 else s
        case RSum(l, r):
            s = f"{_prt(l, 1)} + {_prt(r, 2)}"
            return f"({s})" if prec > 1 else s
        case RArrow(d, c):
            s = f"{_prt(d, 1)} -> {_prt(c, 0)}"
            return f"({s})" if prec > 0 else s
        case RInd(f, label):
            if label:
                return label
            derived = _derive_label(f)
            if derived:
                return derived
            return f"(mu t. {_prshape(f)})"
        case RForall(a, b):
            s = f"forall {a}. {_prt(b, 0)}"
            return f"({s})" if prec > 0 else s
    raise RecTypeError(f"not a recurrence type: {ty!r}")


def _derive_label(f: RecShape) -> Optional[str]:
    """Recognize the standard nat/list/tree shapes so instantiated types
    display by name even when their declaration label went stale.
    """
    match f:
        case RSSum(RSConst(RUnit()), RSRec()):
            return "nat"
        case RSSum(RSConst(RUnit()), RSProd(RSConst(elem), RSRec())):
            return f"list<{_prt(elem, 0)}>"
        case RSSum(RSConst(RUnit()), RSProd(RSProd(RSConst(elem), RSRec()), RSRec())):
            return f"tree<{_prt(elem, 0)}>"
    return None


def _prshape(f: RecShape, prec: int = 0) -> str:
    match f:
        case RSRec():
            return "t"
        case RSConst(t):
            return _prt(t, 3)
        case RSProd(l, r):
            s = f"{_prshape(l, 2)} * {_prshape(r, 3)}"
            return f"({s})" if prec > 2 else s
        case RSSum(l, r):
            s = f"{_prshape(l, 1)} + {_prshape(r, 2)}"
            return f"({s})" if prec > 1 else s
        case RSArrow(d, b):
            s = f"{_prt(d, 1)} -> {_prshape(b, 0)}"
            return f"({s})" if prec > 0 else s
    raise RecTypeError(f"not a recurrence shape functor: {f!r}")


def pretty_rec(e: RecExpr) -> str:
    return _pre(e, 0)


def _clean(name: str) -> str:
    return name.replace(".", "_")


def _pre(e: RecExpr, prec: int) -> str:
    match e:
        case RVar(n):
            return _clean(n)
        case RZero():
            return "0"
        case ROne():
            return "1"
        case RPlus(l, r):
            s = f"{_pre(l, 1)} + {_pre(r, 2)}"
            return f"({s})" if prec > 1 else s
        case RUnitE():
            return "()"
        case RPair(l, r):
            return f"({_pre(l, 0)}, {_pre(r, 0)})"
        case RProj(i, a):
            s = f"pi{i} {_pre(a, 3)}"
            return f"({s})" if prec > 2 else s
        case RInj(i, _, a):
            s = f"inj{i} {_pre(a, 3)}"
            return f"({s})" if prec > 2 else s
        case RCase(s0, x0, _, b0, x1, _, b1):
            s = (
                f"case {_pre(s0, 0)} of {_clean(x0)} => {_pre(b0, 0)}"
                f" | {_clean(x1)} => {_pre(b1, 0)}"
            )
            return f"({s})" if prec > 0 else s
        case RLam(x, t, b):
            s = f"fn ({_clean(x)}: {pretty_rec_type(t)}) => {_pre(b, 0)}"
            return f"({s})" if prec > 0 else s
        case RApp(f, a):
            s = f"{_pre(f, 2)} {_pre(a, 3)}"
            return f"({s})" if prec > 2 else s
        case RTyLam(a, b):
            s = f"tfn {a} => {_pre(b, 0)}"
            return f"({s})" if prec > 0 else s
        case RTyApp(f, t):
            s = f"{_pre(f, 2)}[{pretty_rec_type(t)}]"
            return f"({s})" if prec > 2 else s
        case RConsE(t, a):
            s = f"cons[{pretty_rec_type(t)}] {_pre(a, 3)}"
            return f"({s})" if prec > 2 else s
        case RDestE(t, a):
            s = f"dest[{pretty_rec_type(t)}] {_pre(a, 3)}"
            return f"({s})" if prec > 2 else s
        case RFold(t, s0, x, _, b):
            s = f"fold[{pretty_rec_type(t)}] {_pre(s0, 3)} with {_clean(x)} => {_pre(b, 0)}"
            return f"({s})" if prec > 0 else s
        case RLet(x, a, b):
            s = f"let {_clean(x)} = {_pre(a, 0)} in {_pre(b, 0)}"
            return f"({s})" if prec > 0 else s
    raise RecTypeError(f"not a recurrence expression: {e!r}")
