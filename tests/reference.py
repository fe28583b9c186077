"""Reference implementations that only the tests use.

* ``check_value``: the value and closure typing rules, the executable form
  of the type preservation theorem;
* ``is_core``: no ``map`` node occurs (the definition of the core language);
* ``map_macro``: the structural map macro on recurrence terms, which the
  models apply semantically through ``Model.map_shape``;
* ``denote_closed``: type check a closed recurrence and denote it.
"""

from __future__ import annotations

from typing import Optional

from costrec.models import Model, SemEnv, denote
from costrec.rec_lang import (
    RApp, RCase, RecElab, RecExpr, RecShape, RecType, RecTypeError, RInj,
    RLam, RPair, RProj, RSArrow, RSConst, RSProd, RSRec, RSSum, RVar,
    check_rec, rec_gensym, subst_rec, subst_rec_shape,
)
from costrec.semdom import SemValue
from costrec.source_ast import (
    FArrow, FConst, FProd, FRec, FSum, MapE, SrcExpr, SrcType, TArrow, TInd,
    TProd, TSum, TSusp, TUnit, TVar, Value, ValueEnv, Var, VCons, VDelayClo,
    VInj, VLamClo, VPair, VUnit, free_tyvars, free_vars, iter_subexprs,
    pretty, pretty_type, subst_shape, subst_tyvars,
)
from costrec.typecheck import CheckedProgram, SrcTypeError


# ---------------------------------------------------------------------------
# Value typing (values, closures, environments)
# ---------------------------------------------------------------------------


def check_value(checked: Optional[CheckedProgram], v: Value, ty: SrcType) -> None:
    """Check ``v`` against ``ty`` per the value and closure typing rules.

    The environment condition on closures quantifies over all instances of
    each scheme; we check each environment entry at the instances actually
    demanded by the checked use sites in the closure body, which is the
    sound, checkable fragment.  ``checked`` is None when no program was
    checked; closures then check at any arrow or suspension type.  Raises
    SrcTypeError on mismatch.
    """
    _check_value(checked, v, ty)


def _check_value(checked, v: Value, ty: SrcType) -> None:
    match (v, ty):
        case (VUnit(), TUnit()):
            return
        case (VPair(l, r), TProd(tl, tr)):
            _check_value(checked, l, tl)
            _check_value(checked, r, tr)
            return
        case (VInj(i, a), TSum(tl, tr)):
            _check_value(checked, a, tl if i == 0 else tr)
            return
        case (VCons(ann, a), TInd(functor, _)):
            # values built inside polymorphic code carry open annotations,
            # which must match the checked (closed) instance up to grounding
            if ann != ty:
                if not (free_tyvars(ann) and _grounds_to(ann, ty)):
                    raise SrcTypeError(
                        f"constructor annotation {pretty_type(ann)} does not match {pretty_type(ty)}"
                    )
            _check_value(checked, a, subst_shape(functor, ty))
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
    # the type checking wrote onto the node, if it was checked
    return getattr(e, "ty", None) if checked is not None else None


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
    closure body (lazily, per the checked variable instantiations).
    """
    if checked is None:
        return  # body well-typedness was never established
    for name in free_vars(e):
        try:
            val = env.lookup(name)
        except KeyError:
            raise SrcTypeError(f"closure environment is missing {name}") from None
        for inst_ty in _demanded_instances(e, name, grounding):
            if free_tyvars(inst_ty):
                continue  # non-ground instance: outside the checkable fragment
            _check_value(checked, val, inst_ty)


def _demanded_instances(e: SrcExpr, name: str,
                        grounding: dict[str, SrcType]) -> list[SrcType]:
    # each checked use's type is its scheme at its instantiation, and the
    # grounding is ground, so grounding it yields the demanded instance
    return [subst_tyvars(sub.ty, grounding) for sub in iter_subexprs(e)
            if isinstance(sub, Var) and sub.name == name and hasattr(sub, "ty")]


def is_core(e: SrcExpr) -> bool:
    """True iff no map node occurs (Defn of the core language)."""
    return not any(isinstance(sub, MapE) for sub in iter_subexprs(e))


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------


def map_macro(f: RecShape, rho: RecType, target: RecType, binder: str,
              fn_body: RecExpr, arg: RecExpr) -> RecExpr:
    """``F[rho; y.e', e]`` at the target type ``F[target]``: substitution at
    the recursion variable, identity at constants, case at sums, pair of
    projections at products, and eta-wrapping at arrows.  The injections at
    a sum ``F0 + F1`` are annotated ``(F0 + F1)[target]``.
    """
    match f:
        case RSRec():
            return subst_rec(fn_body, binder, arg)
        case RSConst(_):
            return arg
        case RSSum(f0, f1):
            x = rec_gensym("x")
            want = subst_rec_shape(f, target)
            b0 = map_macro(f0, rho, target, binder, fn_body, RVar(x))
            b1 = map_macro(f1, rho, target, binder, fn_body, RVar(x))
            return RCase(arg, x, subst_rec_shape(f0, rho), RInj(0, want, b0),
                         x, subst_rec_shape(f1, rho), RInj(1, want, b1))
        case RSProd(f0, f1):
            return RPair(
                map_macro(f0, rho, target, binder, fn_body, RProj(0, arg)),
                map_macro(f1, rho, target, binder, fn_body, RProj(1, arg)),
            )
        case RSArrow(dom, body):
            x = rec_gensym("x")
            return RLam(x, dom, map_macro(body, rho, target, binder, fn_body, RApp(arg, RVar(x))))
    raise RecTypeError(f"not a recurrence shape functor: {f!r}")


def denote_closed(model: Model, e: RecExpr) -> SemValue:
    """Type check a closed term and denote it."""
    elab = RecElab()
    check_rec({}, e, elab)
    return denote(model, SemEnv(), e, elab)
