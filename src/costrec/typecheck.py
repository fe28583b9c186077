"""Syntax-directed typing for the source language.

Binder annotations make checking syntax directed; the only inference is the
instantiation of let-bound polymorphic identifiers, which is recovered by
first-order unification against the use site.  Unification variables that
survive to the end of a top-level binding are reported as ambiguous, never
guessed.

The checker also produces an elaboration (per-node types, recorded
instantiations, generalized variables) that recurrence extraction and value
checking consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .source_ast import (
    App, Case, Cons, Delay, Dest, FArrow, FConst, Fold, Force, FProd, FRec,
    FSum, Inj, Lam, Let, MapE, MapV, Pair, Program, Proj, ShapeFunctor,
    SourceError, SrcExpr, SrcType, TArrow, TInd, TProd, TSum, TSusp, TUnit,
    TVar, TypeScheme, Unit, Value, ValueEnv, Var, VCons, VDelayClo, VInj,
    VLamClo, VPair, VUnit, VVar, free_tyvars, free_vars, iter_subexprs,
    pretty, pretty_type, subst_shape, subst_tyvars,
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


def zonk(ty: SrcType) -> SrcType:
    """Replace solved metavariables by their solutions, everywhere.  A part
    that holds no solved metavariable is returned itself, not rebuilt.
    """
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
        case FRec():
            return f
    raise TypeError(f"not a shape functor: {f!r}")


def _contains_meta(ty: SrcType) -> bool:
    ty = _shorten(ty)
    if isinstance(ty, TMeta):
        return True
    match ty:
        case TVar() | TUnit():
            return False
        case TProd(l, r) | TSum(l, r):
            return _contains_meta(l) or _contains_meta(r)
        case TArrow(d, c):
            return _contains_meta(d) or _contains_meta(c)
        case TSusp(b):
            return _contains_meta(b)
        case TInd(_, _):
            return _contains_meta(subst_shape(ty.functor, TUnit()))  # scan constants
    raise TypeError(f"not a type: {ty!r}")


def _occurs(cell: _MetaCell, ty: SrcType) -> bool:
    ty = _shorten(ty)
    if isinstance(ty, TMeta):
        return ty.cell is cell
    match ty:
        case TVar() | TUnit():
            return False
        case TProd(l, r) | TSum(l, r):
            return _occurs(cell, l) or _occurs(cell, r)
        case TArrow(d, c):
            return _occurs(cell, d) or _occurs(cell, c)
        case TSusp(b):
            return _occurs(cell, b)
        case TInd(f, _):
            return _occurs(cell, subst_shape(f, TUnit()))
    raise TypeError(f"not a type: {ty!r}")


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

    def extend(self, name: str, scheme: TypeScheme) -> "TypeContext":
        out = dict(self.vars)
        out[name] = scheme
        return TypeContext(out)

    def free_tyvars(self) -> set[str]:
        out: set[str] = set()
        for s in self.vars.values():
            out |= free_tyvars(zonk(s.body)) - set(s.bound)
        return out


@dataclass
class Elab:
    """Typing-derivation data keyed by AST node identity.  The tables are
    valid while the checked expression they were recorded for is alive; the
    caller keeps it.  After checking, no type in them holds a hole.
    """

    types: dict[int, SrcType] = field(default_factory=dict)
    instantiations: dict[int, tuple[SrcType, ...]] = field(default_factory=dict)
    schemes: dict[int, TypeScheme] = field(default_factory=dict)  # var -> used scheme
    let_generalized: dict[int, tuple[str, ...]] = field(default_factory=dict)
    contexts: dict[int, dict[str, TypeScheme]] = field(default_factory=dict)
    # (node, type) inferred since the last _finalize, not yet in ``types``
    _fresh: list = field(default_factory=list)

    def type_of(self, e: SrcExpr) -> SrcType:
        return self.types[id(e)]

    def _finalize(self, pos=None) -> None:
        """Zonk each entry recorded since the last call, once; reject the
        unsolved holes; and write each constructor annotation whose holes
        were solved back onto its node, so no hole outlives checking.
        """
        fresh, self._fresh = self._fresh, []
        for e, ty in fresh:
            z = zonk(ty)
            if _contains_meta(z):
                raise SrcTypeError(
                    "ambiguous type instantiation (annotate with x[ty] or a constructor type argument)",
                    *(pos or (0, 0)),
                )
            self.types[id(e)] = z
            # a Cons or Inj node's type is its annotation
            if isinstance(e, (Cons, Inj)) and e.annotation is not z:
                object.__setattr__(e, "annotation", z)
        for e, _ in fresh:
            key = id(e)
            if key in self.instantiations:
                zs = tuple(zonk(t) for t in self.instantiations[key])
                if any(_contains_meta(z) for z in zs):
                    raise SrcTypeError(
                        "ambiguous type instantiation (annotate with x[ty])", *(pos or (0, 0))
                    )
                self.instantiations[key] = zs
            if key in self.schemes:
                self.schemes[key] = _zonk_scheme(self.schemes[key])
            if key in self.contexts:
                self.contexts[key] = {n: _zonk_scheme(s) for n, s in self.contexts[key].items()}


def _zonk_scheme(scheme: TypeScheme) -> TypeScheme:
    body = zonk(scheme.body)
    return scheme if body is scheme.body else TypeScheme(scheme.bound, body)


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------


def infer_expr(ctx: TypeContext, e: SrcExpr, elab: Optional[Elab] = None) -> SrcType:
    """Derive the type of ``e`` under ``ctx``; on success the unique derivable
    type, with no hole left, is recorded in ``elab`` (when given) for every
    subexpression.
    """
    elab = elab if elab is not None else Elab()
    _infer(ctx, e, elab)
    elab._finalize(getattr(e, "pos", None))
    return elab.type_of(e)


def _pos(e: SrcExpr):
    return getattr(e, "pos", None) or (0, 0)


def _infer(ctx: TypeContext, e: SrcExpr, elab: Elab) -> SrcType:
    ty = _infer_node(ctx, e, elab)
    elab._fresh.append((e, ty))
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
            elab.instantiations[id(e)] = args
            elab.schemes[id(e)] = scheme
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
            elab.contexts[id(e)] = dict(ctx.vars)
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
            elab.contexts[id(e)] = dict(ctx.vars)
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
            gen = tuple(sorted(free_tyvars(tb) - ctx.free_tyvars()))
            elab.let_generalized[id(e)] = gen
            scheme = TypeScheme(gen, tb)
            return _infer(ctx.extend(x, scheme), body, elab)
        case MapE() | MapV():
            raise SrcTypeError("map/mapv are not part of the core language", *_pos(e))
    raise TypeError(f"not an expression: {e!r}")


def is_core(e: SrcExpr) -> bool:
    """True iff no map/mapv node occurs (Defn of the core language)."""
    return not any(isinstance(sub, (MapE, MapV)) for sub in iter_subexprs(e))


# ---------------------------------------------------------------------------
# Program checking
# ---------------------------------------------------------------------------


@dataclass
class CheckedProgram:
    program: Program
    elab: Elab
    schemes: dict[str, TypeScheme]  # top-level binding name -> generalized scheme
    main_type: Optional[SrcType] = None


def check_program(program: Program) -> CheckedProgram:
    """Check all top-level bindings in order, generalizing each like a
    let; unsolved instantiation variables inside a binding are an error.
    """
    elab = Elab()
    ctx = TypeContext({})
    schemes: dict[str, TypeScheme] = {}
    for name, expr in program.bindings:
        if not is_core(expr):
            raise SrcTypeError(f"binding {name} is not in the core language")
        _infer(ctx, expr, elab)
        elab._finalize(getattr(expr, "pos", None))
        ty = elab.type_of(expr)  # _finalize has rejected any hole left in it
        gen = tuple(sorted(free_tyvars(ty) - ctx.free_tyvars()))
        scheme = TypeScheme(gen, ty)
        schemes[name] = scheme
        ctx = ctx.extend(name, scheme)
    main_type = None
    if program.main is not None:
        if not is_core(program.main):
            raise SrcTypeError("main is not in the core language")
        _infer(ctx, program.main, elab)
        elab._finalize(getattr(program.main, "pos", None))
        main_type = elab.type_of(program.main)
        if free_tyvars(main_type):
            raise SrcTypeError("main must have a closed monomorphic type")
    return CheckedProgram(program, elab, schemes, main_type)


# ---------------------------------------------------------------------------
# Value typing (values, closures, environments)
# ---------------------------------------------------------------------------


def check_value(checked: Optional[CheckedProgram], v: Value, ty: SrcType,
                ctx: Optional[dict[str, TypeScheme]] = None) -> None:
    """Check ``v`` against ``ty`` per the value and closure typing rules.

    The environment condition on closures quantifies over all instances of
    each scheme; we check each environment entry at the instances actually
    demanded by the use sites recorded in the elaboration, which is the
    sound, checkable fragment.  Raises SrcTypeError on mismatch.
    """
    _check_value(checked, v, ty, ctx or {})


def _check_value(checked, v: Value, ty: SrcType, ctx: dict[str, TypeScheme]) -> None:
    match (v, ty):
        case (VVar(n), _):
            if n not in ctx:
                raise SrcTypeError(f"unbound value variable {n}")
            scheme = ctx[n]
            if scheme.bound:
                raise SrcTypeError(f"value variable {n} used at a scheme type")
            if scheme.body != ty:
                raise SrcTypeError(
                    f"variable {n}: expected {pretty_type(ty)}, has {pretty_type(scheme.body)}"
                )
            return
        case (VUnit(), TUnit()):
            return
        case (VPair(l, r), TProd(tl, tr)):
            _check_value(checked, l, tl, ctx)
            _check_value(checked, r, tr, ctx)
            return
        case (VInj(i, a), TSum(tl, tr)):
            _check_value(checked, a, tl if i == 0 else tr, ctx)
            return
        case (VCons(ann, a), TInd(functor, _)):
            # values built inside polymorphic code carry open annotations,
            # which must match the checked (closed) instance up to grounding
            if ann != ty:
                if not (free_tyvars(ann) and _grounds_to(ann, ty)):
                    raise SrcTypeError(
                        f"constructor annotation {pretty_type(ann)} does not match {pretty_type(ty)}"
                    )
            _check_value(checked, a, subst_shape(functor, ty), ctx)
            return
        case (VLamClo(lam, env), TArrow(dom, cod)):
            static = _static_type(checked, lam)
            grounding = _match_ground(static, ty)
            _check_closure_env(checked, lam, env, grounding)
            return
        case (VDelayClo(expr, env), TSusp(body_ty)):
            static = _static_type(checked, expr)
            grounding = _match_ground(TSusp(static) if static is not None else None, ty)
            _check_closure_env(checked, expr, env, grounding)
            return
    raise SrcTypeError(f"value {pretty(v)} does not check at {pretty_type(ty)}")


def _grounds_to(open_ty: SrcType, closed_ty: SrcType) -> bool:
    """True when some substitution for the free type variables of the first
    type yields the second (first-order matching).
    """
    try:
        _match_ground(open_ty, closed_ty)
        return True
    except SrcTypeError:
        return False


def _static_type(checked, e: SrcExpr) -> Optional[SrcType]:
    if checked is not None and id(e) in checked.elab.types:
        return checked.elab.types[id(e)]
    return None


def _match_ground(static: Optional[SrcType], actual: SrcType) -> dict[str, SrcType]:
    """Match the (possibly open) static type of a closure body against the
    closed type it is being checked at, yielding a grounding substitution.
    """
    out: dict[str, SrcType] = {}
    if static is None:
        return out

    def go(s: SrcType, a: SrcType) -> None:
        match s:
            case TVar(name):
                prev = out.setdefault(name, a)
                if prev != a:
                    raise SrcTypeError(f"inconsistent grounding for type variable {name}")
                return
            case TUnit() if isinstance(a, TUnit):
                return
            case TProd(l, r) if isinstance(a, TProd):
                go(l, a.left); go(r, a.right); return
            case TSum(l, r) if isinstance(a, TSum):
                go(l, a.left); go(r, a.right); return
            case TArrow(d, c) if isinstance(a, TArrow):
                go(d, a.dom); go(c, a.cod); return
            case TSusp(b) if isinstance(a, TSusp):
                go(b, a.body); return
            case TInd(_, _) if isinstance(a, TInd):
                if free_tyvars(s):
                    _match_functor(s, a, out)
                elif s != a:
                    raise SrcTypeError("closure type mismatch at an inductive type")
                return
        raise SrcTypeError(
            f"closure static type {pretty_type(s)} does not match {pretty_type(a)}"
        )

    go(static, actual)
    return out


def _match_functor(s: TInd, a: TInd, out: dict[str, SrcType]) -> None:
    def gof(fs, fa):
        match (fs, fa):
            case (FRec(), FRec()):
                return
            case (FConst(ts), FConst(ta)):
                got(ts, ta)
                return
            case (FProd(l1, r1), FProd(l2, r2)) | (FSum(l1, r1), FSum(l2, r2)):
                gof(l1, l2); gof(r1, r2); return
            case (FArrow(d1, b1), FArrow(d2, b2)):
                got(d1, d2); gof(b1, b2); return
        raise SrcTypeError("closure type mismatch at an inductive type")

    def got(ts, ta):
        if isinstance(ts, TVar):
            prev = out.setdefault(ts.name, ta)
            if prev != ta:
                raise SrcTypeError(f"inconsistent grounding for type variable {ts.name}")
            return
        match (ts, ta):
            case (TUnit(), TUnit()):
                return
            case (TProd(l1, r1), TProd(l2, r2)) | (TSum(l1, r1), TSum(l2, r2)):
                got(l1, l2); got(r1, r2); return
            case (TArrow(d1, c1), TArrow(d2, c2)):
                got(d1, d2); got(c1, c2); return
            case (TSusp(b1), TSusp(b2)):
                got(b1, b2); return
            case (TInd(f1, _), TInd(f2, _)):
                gof(f1, f2); return
        raise SrcTypeError("closure type mismatch")

    gof(s.functor, a.functor)


def _check_closure_env(checked, e: SrcExpr, env: ValueEnv,
                       grounding: dict[str, SrcType]) -> None:
    """Check each environment entry at every instance demanded inside the
    closure body (lazily, per the recorded variable instantiations).
    """
    if checked is None:
        return  # nothing recorded; body well-typedness was never established
    elab = checked.elab
    static_ctx = elab.contexts.get(id(e))
    needed = free_vars(e)
    binder = e.binder if isinstance(e, Lam) else None
    for name in needed:
        if name == binder:
            continue
        try:
            val = env.lookup(name)
        except KeyError:
            raise SrcTypeError(f"closure environment is missing {name}") from None
        demanded = _demanded_instances(elab, e, name, grounding)
        if not demanded and static_ctx and name in static_ctx:
            scheme = static_ctx[name]
            if not scheme.bound:
                demanded = [subst_tyvars(scheme.body, grounding)]
        for inst_ty in demanded:
            if free_tyvars(inst_ty):
                continue  # non-ground instance: outside the checkable fragment
            _check_value(checked, val, inst_ty, {})


def _demanded_instances(elab: Elab, e: SrcExpr, name: str,
                        grounding: dict[str, SrcType]) -> list[SrcType]:
    out = []
    for sub in iter_subexprs(e):
        if isinstance(sub, Var) and sub.name == name and id(sub) in elab.schemes:
            scheme = elab.schemes[id(sub)]
            args = elab.instantiations.get(id(sub), ())
            mapping = dict(zip(scheme.bound, (subst_tyvars(t, grounding) for t in args)))
            out.append(subst_tyvars(subst_tyvars(scheme.body, mapping), grounding))
    return out
