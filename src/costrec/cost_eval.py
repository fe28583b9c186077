"""Environment-based big-step operational cost semantics.

Cost accounting is fixed: one unit per unfolding of a fold, zero for every
other rule.  Evaluating a fold suspends the recursive call (wrapping it in a
delayed closure) before mapping over the unfolded value, so functions that do
not force every recursive result do not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .source_ast import (
    App, Case, Cons, Delay, Dest, Fold, Force, FRec, Inj, Lam, Let, MapE,
    Pair, Proj, ShapeFunctor, SrcExpr, Unit, Value, ValueEnv, Var,
    VCons, VDelayClo, VInj, VLamClo, VPair, VUnit, FArrow, FConst,
    FProd, FSum, Program, EMPTY_ENV, gensym, pretty,
)


class EvalError(Exception):
    """A stuck term or resource overrun.  Stuck terms signal a typechecker
    bug: evaluation is only defined on well-typed closures.
    """


DEFAULT_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class EvalResult:
    value: Value
    cost: int


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise EvalError("evaluation step limit exceeded (non-termination bug?)")


@dataclass(frozen=True, eq=False)
class Lit(SrcExpr):
    """An internal expression wrapping a pre-built value (cost 0).  Used by
    the harness to apply corpus functions to generated inputs; never parsed
    and never extracted.
    """

    value: Value


def eval_expr(env: ValueEnv, e: SrcExpr, step_limit: int = DEFAULT_STEP_LIMIT) -> EvalResult:
    """Evaluate a well-typed closure, returning its value and cost."""
    budget = _Budget(step_limit)
    value, cost = _eval(env, e, budget)
    return EvalResult(value, cost)


def _eval(env: ValueEnv, e: SrcExpr, budget: _Budget) -> tuple[Value, int]:
    budget.tick()
    match e:
        case Lit(value):
            return value, 0
        case Var(name, _):
            try:
                return env.lookup(name), 0
            except KeyError:
                raise EvalError(f"unbound variable {name} at runtime") from None
        case Unit():
            return VUnit(), 0
        case Pair(l, r):
            v0, n0 = _eval(env, l, budget)
            v1, n1 = _eval(env, r, budget)
            return VPair(v0, v1), n0 + n1
        case Proj(i, a):
            v, n = _eval(env, a, budget)
            if not isinstance(v, VPair):
                raise EvalError(f"projection from non-pair {pretty(v)}")
            return (v.left if i == 0 else v.right), n
        case Inj(i, _, a):
            v, n = _eval(env, a, budget)
            return VInj(i, v), n
        case Case(scrut, x0, b0, x1, b1):
            v, n = _eval(env, scrut, budget)
            if not isinstance(v, VInj):
                raise EvalError(f"case on non-injection {pretty(v)}")
            x, b = (x0, b0) if v.index == 0 else (x1, b1)
            w, m = _eval(env.extend(x, v.arg), b, budget)
            return w, n + m
        case Lam():
            return VLamClo(e, env), 0
        case App(f, a):
            vf, n0 = _eval(env, f, budget)
            va, n1 = _eval(env, a, budget)
            if not isinstance(vf, VLamClo):
                raise EvalError(f"application of non-function {pretty(vf)}")
            v, n = _eval(vf.env.extend(vf.lam.binder, va), vf.lam.body, budget)
            return v, n0 + n1 + n
        case Delay(body):
            return VDelayClo(body, env), 0
        case Force(a):
            v, n = _eval(env, a, budget)
            if not isinstance(v, VDelayClo):
                raise EvalError(f"force of non-suspension {pretty(v)}")
            w, m = _eval(v.env, v.expr, budget)
            return w, n + m
        case Cons(ann, a):
            v, n = _eval(env, a, budget)
            return VCons(ann, v), n
        case Dest(_, a):
            v, n = _eval(env, a, budget)
            if not isinstance(v, VCons):
                raise EvalError(f"destructing non-constructor {pretty(v)}")
            return v.arg, n
        case Fold(ann, scrut, x, body, res):
            vs, n_scrut = _eval(env, scrut, budget)
            if not isinstance(vs, VCons):
                raise EvalError(f"fold on non-constructor {pretty(vs)}")
            y = gensym("y")
            recur = VDelayClo(Fold(ann, Var(y), x, body, res), env)
            unfolded = mapv_eval(ann.functor, y, recur, vs.arg, budget)
            v, n_body = _eval(env.extend(x, unfolded), body, budget)
            return v, n_scrut + n_body + 1
        case Let(x, bound, body):
            v0, n0 = _eval(env, bound, budget)
            v, n = _eval(env.extend(x, v0), body, budget)
            return v, n0 + n
        case MapE(functor, y, fn_value, arg):
            v_arg, n = _eval(env, arg, budget)
            return mapv_eval(functor, y, fn_value, v_arg, budget), n
    raise EvalError(f"cannot evaluate {e!r}")


def mapv_eval(functor: ShapeFunctor, binder: str, fn_value: Value, v: Value,
              budget: _Budget | None = None) -> Value:
    """Structural traversal witnessing functoriality of shape functors:
    substitute at the recursion variable, pass constants through, recurse
    through sums and products, and wrap closure bodies in a map at arrows.
    """
    budget = budget or _Budget(DEFAULT_STEP_LIMIT)
    budget.tick()
    match functor:
        case FRec():
            return subst_value(fn_value, v, binder)
        case FConst(_):
            return v
        case FProd(f0, f1):
            if not isinstance(v, VPair):
                raise EvalError("mapv: product shape expects a pair value")
            return VPair(
                mapv_eval(f0, binder, fn_value, v.left, budget),
                mapv_eval(f1, binder, fn_value, v.right, budget),
            )
        case FSum(f0, f1):
            if not isinstance(v, VInj):
                raise EvalError("mapv: sum shape expects an injection value")
            f = f0 if v.index == 0 else f1
            return VInj(v.index, mapv_eval(f, binder, fn_value, v.arg, budget))
        case FArrow(_, body):
            if not isinstance(v, VLamClo):
                raise EvalError("mapv: arrow shape expects a function closure")
            lam = v.lam
            wrapped = Lam(lam.binder, lam.annotation,
                          MapE(body, binder, fn_value, lam.body))
            return VLamClo(wrapped, v.env)
    raise EvalError(f"not a shape functor: {functor!r}")


def subst_value(target: Value, v: Value, y: str) -> Value:
    """Substitute ``v`` for the identifier ``y`` inside the value ``target``.
    Values hold no variables, so this binds ``y`` in the environment of
    every closure inside ``target``.
    """
    match target:
        case VUnit():
            return target
        case VPair(l, r):
            return VPair(subst_value(l, v, y), subst_value(r, v, y))
        case VInj(i, a):
            return VInj(i, subst_value(a, v, y))
        case VLamClo(lam, env):
            return VLamClo(lam, env.extend(y, v))
        case VDelayClo(e, env):
            return VDelayClo(e, env.extend(y, v))
        case VCons(ann, a):
            return VCons(ann, subst_value(a, v, y))
    raise EvalError(f"not a value: {target!r}")


# ---------------------------------------------------------------------------
# Program-level helpers
# ---------------------------------------------------------------------------


def program_env(program: Program, step_limit: int = DEFAULT_STEP_LIMIT) -> tuple[ValueEnv, int]:
    """Evaluate the top-level bindings in order; returns the final environment
    and the total definition-time cost.
    """
    env = EMPTY_ENV
    total = 0
    budget = _Budget(step_limit)
    for name, expr in program.bindings:
        v, n = _eval(env, expr, budget)
        env = env.extend(name, v)
        total += n
    return env, total


def apply_function(program_environment: ValueEnv, fn_name: str, args: list[Value],
                   step_limit: int = DEFAULT_STEP_LIMIT) -> EvalResult:
    """Evaluate ``fn a1 .. ak`` where the arguments are pre-built values."""
    spine: SrcExpr = Var(fn_name)
    for a in args:
        spine = App(spine, Lit(a))
    return eval_expr(program_environment, spine, step_limit)
