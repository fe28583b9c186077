"""Recurrence extraction: the call-by-value monadic translation from the
source language into the recurrence language's writer monad over the cost
type.

Every extracted term is a complexity: a pair whose first component bounds
evaluation cost and whose second component (the potential) bounds the value.
Extraction is in A-normal form: a subterm whose cost and potential are both
needed is bound once with ``let`` instead of being copied, so an extracted
term is a chain of lets that ends in a literal pair.  Extraction is
derivation-directed: it reads the types, instantiations and generalized let
variables that the typechecker wrote onto the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import source_ast as S
from . import typecheck as T
from .rec_lang import (
    RApp, RArrow, RC, RCase, RConsE, RDestE, RecExpr, RecShape, RecType,
    RFold, RInd, RInj, RLam, RLet, ROne, RPair, RPlus, RProd, RProj, RSArrow,
    RSConst, RSProd, RSRec, RSSum, RSum, RTVar, RTyApp, RTyLam, RUnit,
    RUnitE, RVar, RZero, RForall, rec_free_vars, rec_gensym,
    subst_rec_shape, subst_rec_type_in_expr,
)


class ExtractError(Exception):
    pass


# ---------------------------------------------------------------------------
# Type translations
# ---------------------------------------------------------------------------


def potential_type(ty: S.SrcType) -> RecType:
    """The potential translation: sizes of source values of this type."""
    return S.type_memo(ty, "_potential", _potential_type)


def _potential_type(ty: S.SrcType) -> RecType:
    match ty:
        case S.TVar(a):
            return RTVar(a)
        case S.TUnit():
            return RUnit()
        case S.TProd(l, r):
            return RProd(potential_type(l), potential_type(r))
        case S.TSum(l, r):
            return RSum(potential_type(l), potential_type(r))
        case S.TArrow(d, c):
            return RArrow(potential_type(d), complexity_type(c))
        case S.TSusp(b):
            return complexity_type(b)
        case S.TInd(f, label):
            return RInd(potential_shape(f), label)
    raise ExtractError(f"not a source type: {ty!r}")


def potential_shape(f: S.ShapeFunctor) -> RecShape:
    match f:
        case S.FRec():
            return RSRec()
        case S.FConst(t):
            return RSConst(potential_type(t))
        case S.FProd(l, r):
            return RSProd(potential_shape(l), potential_shape(r))
        case S.FSum(l, r):
            return RSSum(potential_shape(l), potential_shape(r))
        case S.FArrow(d, b):
            return RSArrow(potential_type(d), potential_shape(b))
    raise ExtractError(f"not a shape functor: {f!r}")


def complexity_type(ty: S.SrcType) -> RecType:
    """C x potential: the type of extracted expressions."""
    return RProd(RC(), potential_type(ty))


def scheme_potential(scheme: S.TypeScheme) -> RecType:
    out = potential_type(scheme.body)
    for a in reversed(scheme.bound):
        out = RForall(a, out)
    return out


# ---------------------------------------------------------------------------
# The "adding cost" macro and let-floating
# ---------------------------------------------------------------------------


Bindings = list[tuple[str, RecExpr]]  # let binders in scope order, outermost first


def _plus(a: RecExpr, b: RecExpr) -> RecExpr:
    if isinstance(a, RZero):
        return b
    if isinstance(b, RZero):
        return a
    return RPlus(a, b)


def _charge(c: RecExpr, e: RecExpr, binds: Bindings) -> RPair:
    """``c +c E`` = (c + E_c, E_p).  A literal pair gives its components
    directly (the projection beta law, an equality in every model); any
    other E but a variable is bound to a fresh one, so it is not copied.
    """
    if isinstance(e, RPair):
        return RPair(_plus(c, e.left), e.right)
    if isinstance(e, RVar):
        v = e.name
    else:
        v = rec_gensym("v")
        binds.append((v, e))
    return RPair(_plus(c, RProj(0, RVar(v))), RProj(1, RVar(v)))


def add_cost(c: RecExpr, e: RecExpr) -> RecExpr:
    """``c +c E`` on a complexity term.  The cost is added in the pair that
    ends E's chain of lets.
    """
    binds: Bindings = []
    while isinstance(e, RLet):
        binds.append((e.binder, e.bound))
        e = e.body
    return _close(binds, _charge(c, e, binds))


def _close(binds: Bindings, body: RecExpr) -> RecExpr:
    """Wrap ``body`` in the lets it uses, directly or through other lets.
    A later binder shadows an earlier one of the same name.
    """
    needed = rec_free_vars(body)
    used: Bindings = []
    for x, bound in reversed(binds):
        if x in needed:
            needed = (needed - {x}) | rec_free_vars(bound)
            used.append((x, bound))
    for x, bound in used:
        body = RLet(x, bound, body)
    return body


# ---------------------------------------------------------------------------
# Expression extraction
# ---------------------------------------------------------------------------


def extract_expr(e: S.SrcExpr) -> RecExpr:
    """Extract the complexity of a core, checked expression.  The result is
    a chain of lets that ends in a literal pair.
    """
    return _scoped(e, {})


def _scoped(e: S.SrcExpr, ren: dict[str, str]) -> RecExpr:
    """Extract ``e`` as a scope of its own: the lets of its operands float up
    to here and no further.  Lambda bodies, case branches, fold steps and
    delayed bodies are scopes, so no let leaves a binder or moves work
    across a suspension.
    """
    binds: Bindings = []
    return _close(binds, _extract(e, ren, binds))


def _shadow(ren: dict[str, str], x: str) -> dict[str, str]:
    if x not in ren:
        return ren
    return {k: v for k, v in ren.items() if k != x}


def _extract(e: S.SrcExpr, ren: dict[str, str], binds: Bindings) -> RPair:
    """The complexity of ``e`` as a literal pair, appending the lets it needs
    to ``binds``.  ``ren`` maps source let variables to the recurrence
    variables bound for them; every let binder is fresh, so floating a let
    outward cannot capture a variable.
    """
    match e:
        case S.Var(name, _):
            pot: RecExpr = RVar(ren.get(name, name))
            for ty in e.instantiation:
                pot = RTyApp(pot, potential_type(ty))
            return RPair(RZero(), pot)
        case S.Unit():
            return RPair(RZero(), RUnitE())
        case S.Pair(l, r):
            el = _extract(l, ren, binds)
            er = _extract(r, ren, binds)
            return RPair(_plus(el.left, er.left), RPair(el.right, er.right))
        case S.Proj(i, a):
            ea = _extract(a, ren, binds)
            return RPair(ea.left, RProj(i, ea.right))
        case S.Inj(i, ann, a):
            ea = _extract(a, ren, binds)
            return RPair(ea.left, RInj(i, potential_type(e.ty), ea.right))
        case S.Case(scrut, x0, b0, x1, b1):
            es = _extract(scrut, ren, binds)
            scrut_ty = scrut.ty
            if not isinstance(scrut_ty, S.TSum):
                raise ExtractError("case scrutinee is not a sum")
            case_e = RCase(
                es.right,
                x0, potential_type(scrut_ty.left), _scoped(b0, _shadow(ren, x0)),
                x1, potential_type(scrut_ty.right), _scoped(b1, _shadow(ren, x1)),
            )
            return _charge(es.left, case_e, binds)
        case S.Lam(x, ann, body):
            return RPair(RZero(), RLam(x, potential_type(ann),
                                       _scoped(body, _shadow(ren, x))))
        case S.App(f, a):
            ef = _extract(f, ren, binds)
            ea = _extract(a, ren, binds)
            return _charge(_plus(ef.left, ea.left), RApp(ef.right, ea.right), binds)
        case S.Delay(body):
            return RPair(RZero(), _scoped(body, ren))
        case S.Force(a):
            ea = _extract(a, ren, binds)
            return _charge(ea.left, ea.right, binds)
        case S.Cons(ann, a):
            ea = _extract(a, ren, binds)
            delta = potential_type(e.ty)
            assert isinstance(delta, RInd)
            return RPair(ea.left, RConsE(delta, ea.right))
        case S.Dest(ann, a):
            ea = _extract(a, ren, binds)
            delta = potential_type(a.ty)
            assert isinstance(delta, RInd)
            return RPair(ea.left, RDestE(delta, ea.right))
        case S.Fold(ann, scrut, x, body, res):
            es = _extract(scrut, ren, binds)
            if not isinstance(scrut.ty, S.TInd):
                raise ExtractError("fold scrutinee is not an inductive type")
            delta = potential_type(scrut.ty)
            assert isinstance(delta, RInd)
            res_cpx = complexity_type(e.ty)
            binder_ann = subst_rec_shape(delta.functor, res_cpx)
            step = add_cost(ROne(), _scoped(body, _shadow(ren, x)))
            return _charge(es.left, RFold(delta, es.right, x, binder_ann, step), binds)
        case S.Let(x, bound, body):
            if e.generalized:
                # the bound's lets mention the generalized type variables, so
                # the potential keeps its own copy of them inside the type
                # abstraction; the copy left outside pays the bound's cost
                inner: Bindings = []
                eb = _extract(bound, ren, inner)
                pot = _generalize(_close(inner, eb.right), e.generalized)
                binds.extend(inner)
            else:
                eb = _extract(bound, ren, binds)
                pot = eb.right
            x2 = rec_gensym(x)
            binds.append((x2, pot))
            ebody = _extract(body, {**ren, x: x2}, binds)
            return RPair(_plus(eb.left, ebody.left), ebody.right)
        case S.MapE():
            raise ExtractError("extraction is defined only for the core language")
    raise ExtractError(f"not an expression: {e!r}")


def _generalize(pot: RecExpr, gen: tuple[str, ...]) -> RecExpr:
    """Wrap a potential in type lambdas over the generalized variables,
    freshening their names so the result can be used under binders that
    mention same-named type variables.
    """
    if not gen:
        return pot
    fresh = {a: RTVar(rec_gensym(a)) for a in gen}
    pot = subst_rec_type_in_expr(pot, fresh)
    for a in reversed(gen):
        pot = RTyLam(fresh[a].name, pot)
    return pot


# ---------------------------------------------------------------------------
# Program extraction
# ---------------------------------------------------------------------------


@dataclass
class ExtractedBinding:
    name: str
    scheme: S.TypeScheme
    complexity: RecExpr  # closed: the earlier bindings it uses are let-bound around it
    complexity_ty: RecType  # C x potential of the scheme body (scheme vars free)
    potential: RecExpr  # closed, tylam-wrapped potential
    potential_ty: RecType  # forall-quantified potential type


@dataclass
class ExtractedProgram:
    bindings: dict[str, ExtractedBinding]
    main: RecExpr | None = None


def extract_program(checked: T.CheckedProgram) -> ExtractedProgram:
    """Extract every top-level binding.  Bindings are treated as nested lets:
    each extracted term is closed by let-binding the potentials of the
    earlier bindings it uses, directly or through one another.
    """
    out: dict[str, ExtractedBinding] = {}
    earlier = _TopLevel()
    for name, expr in checked.program.bindings:
        binds: Bindings = []
        tail = _extract(expr, {}, binds)
        scheme = checked.schemes[name]
        pot = _generalize(_close(binds, tail.right), scheme.bound)
        out[name] = ExtractedBinding(
            name=name,
            scheme=scheme,
            complexity=earlier.close(_close(binds, tail)),
            complexity_ty=RProd(RC(), potential_type(scheme.body)),
            potential=earlier.close(pot),
            potential_ty=scheme_potential(scheme),
        )
        earlier.add(name, pot)
    main = None
    if checked.program.main is not None:
        main = earlier.close(extract_expr(checked.program.main))
    return ExtractedProgram(out, main)


class _TopLevel:
    """The potentials of the top-level bindings extracted so far.  Each one
    keeps the indices of the earlier bindings its free variables name (the
    latest of each name before it), found once when it is added, so closing
    a term visits only the bindings it uses.
    """

    def __init__(self):
        self.pots: Bindings = []
        self.deps: list[tuple[int, ...]] = []
        self.latest: dict[str, int] = {}

    def _indices(self, e: RecExpr) -> list[int]:
        return [self.latest[x] for x in rec_free_vars(e) if x in self.latest]

    def add(self, name: str, pot: RecExpr) -> None:
        self.deps.append(tuple(self._indices(pot)))
        self.latest[name] = len(self.pots)
        self.pots.append((name, pot))

    def close(self, body: RecExpr) -> RecExpr:
        """Wrap ``body`` in the lets of the bindings it uses, directly or
        through one another, the earliest outermost.
        """
        todo = self._indices(body)
        used = set(todo)
        while todo:
            for j in self.deps[todo.pop()]:
                if j not in used:
                    used.add(j)
                    todo.append(j)
        for i in sorted(used, reverse=True):
            body = RLet(*self.pots[i], body)
        return body
