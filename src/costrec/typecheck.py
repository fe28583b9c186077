"""Syntax-directed typing for the source language.

Binder annotations make checking syntax directed; the only inference is the
instantiation of let-bound polymorphic identifiers, which is recovered by
first-order unification against the use site.  Unification variables that
survive to the end of a top-level binding are reported as ambiguous, never
guessed.

Checking writes the derivation onto the nodes, as attributes that are not
dataclass fields: each node's type ``ty``, each ``Var``'s ``instantiation``
and each ``Let``'s ``generalized`` type variables, none holding a hole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .source_ast import (
    App, Case, Cons, Delay, Dest, FArrow, FConst, Fold, Force, FProd, FRec,
    FSum, Inj, Lam, Let, MapE, Pair, Program, Proj, ShapeFunctor,
    SourceError, SrcExpr, SrcType, TArrow, TInd, TProd, TSum, TSusp, TUnit,
    TVar, TypeScheme, Unit, Var, free_tyvars, pretty_type, subst_shape,
    subst_tyvars, type_memo, type_parts,
)


class SrcTypeError(SourceError):
    """A typing error, carrying the offending position when available."""


_meta_counter = itertools.count()


class _MetaCell:
    __slots__ = ("ident", "solution")

    def __init__(self):
        self.ident = next(_meta_counter)
        self.solution: Optional[SrcType] = None


@dataclass(frozen=True, eq=False)
class TMeta:
    """A unification variable standing for an omitted type instantiation."""

    cell: _MetaCell

    def __repr__(self):
        return f"TMeta(?{self.cell.ident})"


def fresh_meta() -> TMeta:
    return TMeta(_MetaCell())


def _shorten(ty: SrcType) -> SrcType:
    while isinstance(ty, TMeta) and ty.cell.solution is not None:
        ty = ty.cell.solution
    return ty


def _meta_free(ty) -> bool:
    """Whether a type or shape functor holds no ``TMeta`` node, solved or
    not.  A fact of the tree, so it is kept on the node whatever holes are
    solved later.
    """
    return not isinstance(ty, TMeta) and type_memo(ty, "_meta_free", _no_meta_below)


def _no_meta_below(ty) -> bool:
    return all(map(_meta_free, type_parts(ty)))


def zonk(ty: SrcType) -> SrcType:
    """Replace solved metavariables by their solutions, everywhere.  A part
    that holds no solved metavariable is returned itself, not rebuilt.
    """
    if _meta_free(ty):
        return ty
    ty = _shorten(ty)
    match ty:
        case TProd(l, r) | TSum(l, r) | TArrow(l, r):
            zl, zr = zonk(l), zonk(r)
            return ty if zl is l and zr is r else type(ty)(zl, zr)
        case TSusp(b):
            zb = zonk(b)
            return ty if zb is b else TSusp(zb)
        case TInd(f, label):
            zf = _zonk_shape(f)
            return ty if zf is f else TInd(zf, label)
        case TMeta() | TVar() | TUnit():
            return ty
    raise TypeError(f"not a type: {ty!r}")


def _zonk_shape(f: ShapeFunctor) -> ShapeFunctor:
    if _meta_free(f):
        return f
    match f:
        case FConst(t):
            zt = zonk(t)
            return f if zt is t else FConst(zt)
        case FProd(l, r) | FSum(l, r):
            zl, zr = _zonk_shape(l), _zonk_shape(r)
            return f if zl is l and zr is r else type(f)(zl, zr)
        case FArrow(d, b):
            zd, zb = zonk(d), _zonk_shape(b)
            return f if zd is d and zb is b else FArrow(zd, zb)
    raise TypeError(f"not a shape functor: {f!r}")


def _occurs(cell: _MetaCell, ty) -> bool:
    ty = _shorten(ty)
    if isinstance(ty, TMeta):
        return ty.cell is cell
    return not _meta_free(ty) and any(_occurs(cell, p) for p in type_parts(ty))


def unify(a: SrcType, b: SrcType, pos=None) -> None:
    a, b = _shorten(a), _shorten(b)
    if a is b:
        return
    if isinstance(a, TMeta):
        if isinstance(b, TMeta) and b.cell is a.cell:
            return
        if _occurs(a.cell, b):
            raise SrcTypeError("cannot construct an infinite type", *(pos or (0, 0)))
        a.cell.solution = b
        return
    if isinstance(b, TMeta):
        unify(b, a, pos)
        return
    match (a, b):
        case (TVar(x), TVar(y)) if x == y:
            return
        case (TUnit(), TUnit()):
            return
        case (TProd(l1, r1), TProd(l2, r2)) | (TSum(l1, r1), TSum(l2, r2)):
            unify(l1, l2, pos)
            unify(r1, r2, pos)
            return
        case (TArrow(d1, c1), TArrow(d2, c2)):
            unify(d1, d2, pos)
            unify(c1, c2, pos)
            return
        case (TSusp(x), TSusp(y)):
            unify(x, y, pos)
            return
        case (TInd(f1, _), TInd(f2, _)):
            _unify_functor(f1, f2, pos)
            return
    raise SrcTypeError(
        f"type mismatch: {pretty_type(zonk(a))} vs {pretty_type(zonk(b))}", *(pos or (0, 0))
    )


def _unify_functor(f1, f2, pos) -> None:
    match (f1, f2):
        case (FRec(), FRec()):
            return
        case (FConst(t1), FConst(t2)):
            unify(t1, t2, pos)
            return
        case (FProd(l1, r1), FProd(l2, r2)) | (FSum(l1, r1), FSum(l2, r2)):
            _unify_functor(l1, l2, pos)
            _unify_functor(r1, r2, pos)
            return
        case (FArrow(d1, b1), FArrow(d2, b2)):
            unify(d1, d2, pos)
            _unify_functor(b1, b2, pos)
            return
    raise SrcTypeError("shape functor mismatch", *(pos or (0, 0)))


# ---------------------------------------------------------------------------
# Contexts and elaboration
# ---------------------------------------------------------------------------


@dataclass
class TypeContext:
    vars: dict[str, TypeScheme]
    # the names whose schemes may hold holes or free type variables (all of
    # them when not given); ``check_program`` leaves its closed, hole-free
    # top-level schemes out, so generalizing skips them
    open: Optional[frozenset] = None

    def __post_init__(self):
        if self.open is None:
            self.open = frozenset(self.vars)

    def extend(self, name: str, scheme: TypeScheme) -> "TypeContext":
        out = dict(self.vars)
        out[name] = scheme
        return TypeContext(out, self.open | {name})

    def free_tyvars(self) -> set[str]:
        out: set[str] = set()
        for name in self.open:
            s = self.vars[name]
            out |= free_tyvars(s.body) - set(s.bound)
        return out


class Elab:
    """The (node, type) pairs inferred since the last ``_finalize``."""

    def __init__(self):
        self.pending: list[tuple[SrcExpr, SrcType]] = []

    def _finalize(self, pos=None) -> None:
        """Zonk each pending type and ``Var`` instantiation once, reject the
        unsolved holes, and write them, and each constructor annotation whose
        holes were solved, onto their nodes, so no hole outlives checking.
        """
        pending, self.pending = self.pending, []
        for e, ty in pending:
            z = zonk(ty)
            if not _meta_free(z):
                raise SrcTypeError(
                    "ambiguous type instantiation (annotate with x[ty] or a constructor type argument)",
                    *(pos or (0, 0)),
                )
            object.__setattr__(e, "ty", z)
            # a Cons or Inj node's type is its annotation
            if isinstance(e, (Cons, Inj)) and e.annotation is not z:
                object.__setattr__(e, "annotation", z)
        for e, _ in pending:
            if isinstance(e, Var):
                zs = tuple(zonk(t) for t in e.instantiation)
                if not all(map(_meta_free, zs)):
                    raise SrcTypeError(
                        "ambiguous type instantiation (annotate with x[ty])", *(pos or (0, 0))
                    )
                object.__setattr__(e, "instantiation", zs)


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------


def infer_expr(ctx: TypeContext, e: SrcExpr) -> SrcType:
    """Derive the type of ``e`` under ``ctx``; on success the unique derivable
    type, with no hole left, is written onto every subexpression.
    """
    elab = Elab()
    _infer(ctx, e, elab)
    elab._finalize(getattr(e, "pos", None))
    return e.ty


def _pos(e: SrcExpr):
    return getattr(e, "pos", None) or (0, 0)


def _infer(ctx: TypeContext, e: SrcExpr, elab: Elab) -> SrcType:
    ty = _infer_node(ctx, e, elab)
    elab.pending.append((e, ty))
    return ty


def _infer_node(ctx: TypeContext, e: SrcExpr, elab: Elab) -> SrcType:
    match e:
        case Var(name, inst):
            if name not in ctx.vars:
                raise SrcTypeError(f"unbound variable {name}", *_pos(e))
            scheme = ctx.vars[name]
            if inst is not None:
                if len(inst) != len(scheme.bound):
                    raise SrcTypeError(
                        f"{name} expects {len(scheme.bound)} type argument(s)", *_pos(e)
                    )
                args = tuple(inst)
            else:
                args = tuple(fresh_meta() for _ in scheme.bound)
            object.__setattr__(e, "instantiation", args)  # zonked by _finalize
            return subst_tyvars(scheme.body, dict(zip(scheme.bound, args)))
        case Unit():
            return TUnit()
        case Pair(l, r):
            return TProd(_infer(ctx, l, elab), _infer(ctx, r, elab))
        case Proj(i, a):
            ta = _shorten(_infer(ctx, a, elab))
            if isinstance(ta, TMeta):
                lt, rt = fresh_meta(), fresh_meta()
                unify(ta, TProd(lt, rt), _pos(e))
                ta = TProd(lt, rt)
            if not isinstance(ta, TProd):
                raise SrcTypeError(f"projection from non-product {pretty_type(zonk(ta))}", *_pos(e))
            return ta.left if i == 0 else ta.right
        case Inj(i, ann, a):
            ann_s = _shorten(ann)
            if not isinstance(ann_s, TSum):
                raise SrcTypeError("injection annotation must be a sum type", *_pos(e))
            ta = _infer(ctx, a, elab)
            unify(ta, ann_s.left if i == 0 else ann_s.right, _pos(e))
            return ann_s
        case Case(scrut, x0, b0, x1, b1):
            ts = _shorten(_infer(ctx, scrut, elab))
            if isinstance(ts, TMeta):
                lt, rt = fresh_meta(), fresh_meta()
                unify(ts, TSum(lt, rt), _pos(e))
                ts = TSum(lt, rt)
            if not isinstance(ts, TSum):
                raise SrcTypeError(f"case on non-sum {pretty_type(zonk(ts))}", *_pos(e))
            t0 = _infer(ctx.extend(x0, TypeScheme((), ts.left)), b0, elab)
            t1 = _infer(ctx.extend(x1, TypeScheme((), ts.right)), b1, elab)
            unify(t0, t1, _pos(e))
            return t0
        case Lam(x, ann, body):
            tb = _infer(ctx.extend(x, TypeScheme((), ann)), body, elab)
            return TArrow(ann, tb)
        case App(f, a):
            tf = _shorten(_infer(ctx, f, elab))
            ta = _infer(ctx, a, elab)
            if isinstance(tf, TMeta):
                cod = fresh_meta()
                unify(tf, TArrow(ta, cod), _pos(e))
                return cod
            if not isinstance(tf, TArrow):
                raise SrcTypeError(
                    f"application of non-function {pretty_type(zonk(tf))}", *_pos(e)
                )
            unify(ta, tf.dom, _pos(e))
            return tf.cod
        case Delay(body):
            return TSusp(_infer(ctx, body, elab))
        case Force(a):
            ta = _shorten(_infer(ctx, a, elab))
            if isinstance(ta, TMeta):
                inner = fresh_meta()
                unify(ta, TSusp(inner), _pos(e))
                return inner
            if not isinstance(ta, TSusp):
                raise SrcTypeError(f"force of non-suspension {pretty_type(zonk(ta))}", *_pos(e))
            return ta.body
        case Cons(ann, a):
            ann_s = _shorten(ann)
            if not isinstance(ann_s, TInd):
                raise SrcTypeError("constructor annotation must be an inductive type", *_pos(e))
            ta = _infer(ctx, a, elab)
            unify(ta, subst_shape(ann_s.functor, ann_s), _pos(e))
            return ann_s
        case Dest(ann, a):
            ann_s = _shorten(ann)
            if not isinstance(ann_s, TInd):
                raise SrcTypeError("destructor annotation must be an inductive type", *_pos(e))
            ta = _infer(ctx, a, elab)
            unify(ta, ann_s, _pos(e))
            return subst_shape(ann_s.functor, ann_s)
        case Fold(ann, scrut, x, body, res):
            ann_s = _shorten(ann)
            if not isinstance(ann_s, TInd):
                raise SrcTypeError("fold annotation must be an inductive type", *_pos(e))
            ts = _infer(ctx, scrut, elab)
            unify(ts, ann_s, _pos(e))
            binder_ty = subst_shape(ann_s.functor, TSusp(res))
            tb = _infer(ctx.extend(x, TypeScheme((), binder_ty)), body, elab)
            unify(tb, res, _pos(e))
            return res
        case Let(x, bound, body):
            tb = zonk(_infer(ctx, bound, elab))
            # a bound with no type variables generalizes nothing, whatever
            # the context holds, so only a polymorphic one scans it; an
            # unsolved hole is no type variable, and ``_finalize`` reports it
            tvs = free_tyvars(tb)
            gen = tuple(sorted(tvs - ctx.free_tyvars())) if tvs else ()
            object.__setattr__(e, "generalized", gen)
            scheme = TypeScheme(gen, tb)
            return _infer(ctx.extend(x, scheme), body, elab)
        case MapE():
            raise SrcTypeError("map is not part of the core language", *_pos(e))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Program checking
# ---------------------------------------------------------------------------


@dataclass
class CheckedProgram:
    program: Program
    schemes: dict[str, TypeScheme]  # top-level binding name -> generalized scheme
    main_type: Optional[SrcType] = None


def check_program(program: Program) -> CheckedProgram:
    """Check all top-level bindings in order, generalizing each like a
    let; unsolved instantiation variables inside a binding are an error.
    """
    ctx = TypeContext({})
    schemes: dict[str, TypeScheme] = {}
    for name, expr in program.bindings:
        ty = infer_expr(ctx, expr)
        # every earlier scheme is closed, so no type variable is free in the
        # context and generalization binds all of them; the scheme is
        # closed and hole-free, so it stays out of ``ctx.open``
        scheme = TypeScheme(tuple(sorted(free_tyvars(ty))), ty)
        schemes[name] = scheme
        ctx.vars[name] = scheme
    main_type = None
    if program.main is not None:
        main_type = infer_expr(ctx, program.main)
        if free_tyvars(main_type):
            raise SrcTypeError("main must have a closed monomorphic type")
    return CheckedProgram(program, schemes, main_type)
