"""Random input generation and empirical verification that denoted
recurrences bound operational cost.

For a function whose (possibly instantiated) type is observable-to-
observable, each trial generates random argument values, runs the evaluator,
and checks per model:

* upper models: evaluation cost <= denoted cost bound, and the canonical
  potential of the result <= the denoted potential;
* lower model: evaluation cost >= denoted cost;
* exact model: both are equalities.

A model that rejects a program (non-polynomial shape functor) is recorded as
skipped, not failed.  Reports are deterministic given the seed and have a
stable JSON form.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from . import source_ast as S
from . import typecheck as T
from .cost_eval import apply_function, program_env
from .extract import ExtractedProgram, extract_program, potential_type
from .models import (
    Model, SemEnv, denote, make_model, observable, value_potential,
)
from .rec_lang import RecElab, RForall, check_rec
from .semdom import (
    SFun, SPair, SemValue, UnsupportedFeature, canonical, ext, sem_leq,
)


class HarnessError(Exception):
    pass


DEFAULT_MODELS = ("exact", "size", "height", "allcons", "merged", "lower")


@dataclass(frozen=True)
class TrialConfig:
    trials: int = 200
    max_value_size: int = 12
    models: tuple[str, ...] = DEFAULT_MODELS
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise HarnessError("trials must be at least 1")


@dataclass
class TrialRecord:
    index: int
    inputs: list[str]
    cost: int
    results: dict  # model -> {"cost_bound": str, "status": pass|fail|skipped, ...}
    ok: bool


@dataclass
class Report:
    program: str
    fn: str
    seed: int
    trials: list[TrialRecord] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    skipped_models: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        doc = {
            "program": self.program,
            "fn": self.fn,
            "seed": self.seed,
            "trials": [
                {
                    "index": t.index,
                    "inputs": t.inputs,
                    "cost": t.cost,
                    "results": t.results,
                    "ok": t.ok,
                }
                for t in self.trials
            ],
            "failures": self.failures,
            "skipped_models": self.skipped_models,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def summary(self) -> str:
        n_fail = len(self.failures)
        lines = [
            f"verify {self.fn}: {len(self.trials)} trials, "
            f"{n_fail} failure(s), seed {self.seed}"
        ]
        for m, why in sorted(self.skipped_models.items()):
            lines.append(f"  model {m} skipped: {why}")
        for f in self.failures[:5]:
            lines.append(f"  counterexample (trial {f['index']}, model {f['model']}): "
                         f"inputs {f['inputs']}, cost {f['cost']}, bound {f['bound']}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Random value generation
# ---------------------------------------------------------------------------


def _min_ctors_type(ty: S.SrcType) -> float:
    """Fewest constructors any value of this (hole-free) type can contain,
    computed once per type.
    """
    return S.type_memo(ty, "_min_ctors", _least_ctors)


def _least_ctors(ty: S.SrcType) -> float:
    match ty:
        case S.TUnit():
            return 0
        case S.TProd(l, r):
            return _min_ctors_type(l) + _min_ctors_type(r)
        case S.TSum(l, r):
            return min(_min_ctors_type(l), _min_ctors_type(r))
        case S.TInd(f, _):
            # a recursive position inside the type's own definition counts
            # as unboundedly expensive, so a well-founded datatype gets the
            # cost of its cheapest base branch
            return 1 + _shape_ctors(f, float("inf"))
    raise HarnessError(f"cannot generate values at {S.pretty_type(ty)}")


def _shape_ctors(f: S.ShapeFunctor, rec: float) -> float:
    """Fewest constructors in the layer ``f``, a recursive position
    costing ``rec``.  Constant types never mention the enclosing datatype
    (they are strict subterms of it), so their minimum is context-free.
    """
    match f:
        case S.FRec():
            return rec
        case S.FConst(t):
            return _min_ctors_type(t)
        case S.FProd(l, r):
            return _shape_ctors(l, rec) + _shape_ctors(r, rec)
        case S.FSum(l, r):
            return min(_shape_ctors(l, rec), _shape_ctors(r, rec))
        case S.FArrow(_, _):
            raise HarnessError("cannot generate values for arrow shape functors")
    raise HarnessError(f"not a shape functor: {f!r}")


def _min_ctors_shape(f: S.ShapeFunctor, delta: S.TInd) -> float:
    """Fewest constructors in a layer ``f`` of ``delta``'s definition,
    computed once per layer and kept on ``delta``.
    """
    memo = S.type_memo(delta, "_layer_ctors", lambda _: {})
    if f not in memo:
        memo[f] = _shape_ctors(f, _min_ctors_type(delta))
    return memo[f]


class _Pool:
    """A shared constructor budget; generation never exceeds it."""

    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise HarnessError("generator exceeded its constructor budget")

    def carve(self, amount: int) -> "_Pool":
        amount = min(amount, self.left)
        self.left -= amount
        return _Pool(amount)

    def merge(self, other: "_Pool"):
        self.left += other.left


def gen_value(ty: S.SrcType, size_budget: int, rng: random.Random) -> S.Value:
    """A well-typed value with total constructor count at most the budget.
    The style draw forces minimum frequencies for boundary shapes: minimal
    values, spines, and balanced trees.
    """
    if not observable(ty):
        raise HarnessError(f"cannot generate values at {S.pretty_type(ty)}")
    roll = rng.random()
    style = ("minimal" if roll < 0.08 else
             "spine" if roll < 0.25 else
             "balanced" if roll < 0.40 else "random")
    least = _min_ctors_type(ty)
    if least == float("inf"):
        raise HarnessError(f"type {S.pretty_type(ty)} has no finite values")
    pool = _Pool(max(size_budget, int(least)))
    return _gen(ty, pool, rng, style)


def _gen(ty: S.SrcType, pool: _Pool, rng: random.Random, style: str) -> S.Value:
    match ty:
        case S.TUnit():
            return S.VUnit()
        case S.TProd(l, r):
            reserve = int(_min_ctors_type(r))
            sub = pool.carve(max(pool.left - reserve, int(_min_ctors_type(l))))
            vl = _gen(l, sub, rng, style)
            pool.merge(sub)
            return S.VPair(vl, _gen(r, pool, rng, style))
        case S.TSum(l, r):
            sides = [(i, t) for i, t in ((0, l), (1, r))
                     if _min_ctors_type(t) <= pool.left]
            if not sides:
                raise HarnessError("budget too small for any value of this sum type")
            i, t = rng.choice(sides)
            return S.VInj(i, _gen(t, pool, rng, style))
        case S.TInd(f, _):
            pool.spend()
            return S.VCons(ty, _gen_shape(f, ty, pool, rng, style))
    raise HarnessError(f"cannot generate values at {S.pretty_type(ty)}")


def _gen_shape(f: S.ShapeFunctor, delta: S.TInd, pool: _Pool,
               rng: random.Random, style: str) -> S.Value:
    match f:
        case S.FRec():
            return _gen(delta, pool, rng, style)
        case S.FConst(t):
            return _gen(t, pool, rng, style)
        case S.FProd(l, r):
            # carve a sub-budget for the left side, always reserving the
            # right side's minimum; the split choice makes spines and
            # balanced trees reachable
            need_l = int(_min_ctors_shape(l, delta))
            need_r = int(_min_ctors_shape(r, delta))
            avail = max(pool.left - need_r, need_l)
            both_rec = _count_recs(l) and _count_recs(r)
            if not both_rec:
                if _count_recs(l) or not _count_recs(r):
                    bl = avail  # all slack to the only recursive side
                else:
                    # a label position: usually small, occasionally large
                    slack = avail - need_l
                    if rng.random() < 0.15:
                        bl = need_l + rng.randint(0, slack) if slack > 0 else need_l
                    else:
                        bl = need_l + rng.randint(0, min(slack, 4)) if slack > 0 else need_l
            elif style == "spine":
                bl = need_l if rng.random() < 0.5 else avail
            elif style == "balanced":
                bl = max(need_l, (avail + need_l) // 2)
            else:
                bl = rng.randint(need_l, avail)
            sub = pool.carve(bl)
            vl = _gen_shape(l, delta, sub, rng, style)
            pool.merge(sub)
            return S.VPair(vl, _gen_shape(r, delta, pool, rng, style))
        case S.FSum(l, r):
            sides = [(i, g) for i, g in ((0, l), (1, r))
                     if _min_ctors_shape(g, delta) <= pool.left]
            if not sides:
                raise HarnessError("budget too small for any value of this shape")
            rec_sides = [(i, g) for i, g in sides if _count_recs(g) > 0]
            base_sides = [(i, g) for i, g in sides if _count_recs(g) == 0]
            if style == "minimal" or not rec_sides:
                chosen = base_sides or sides
            elif rng.random() < 0.85:
                chosen = rec_sides
            else:
                chosen = base_sides or rec_sides
            i, g = rng.choice(chosen)
            return S.VInj(i, _gen_shape(g, delta, pool, rng, style))
        case S.FArrow(_, _):
            raise HarnessError("cannot generate values for arrow shape functors")
    raise HarnessError(f"not a shape functor: {f!r}")


def _count_recs(f: S.ShapeFunctor) -> int:
    """Recursive positions in a layer, counted once per layer."""
    return S.type_memo(f, "_recs", _recs_in)


def _recs_in(f: S.ShapeFunctor) -> int:
    match f:
        case S.FRec():
            return 1
        case S.FConst(_):
            return 0
        case S.FProd(l, r) | S.FSum(l, r):
            return _count_recs(l) + _count_recs(r)
        case S.FArrow(_, _):
            return 0
    return 0


# ---------------------------------------------------------------------------
# Denoted bounds
# ---------------------------------------------------------------------------


@dataclass
class PreparedFn:
    """A corpus function made ready for trials: instantiated argument and
    result types, plus per-model denoted potentials.
    """

    name: str
    arg_types: list[S.SrcType]
    result_type: S.SrcType
    checked: T.CheckedProgram
    extracted: ExtractedProgram
    env: S.ValueEnv
    denoted: dict = field(default_factory=dict)  # model name -> (model, base_cost, potential)
    skipped: dict = field(default_factory=dict)


def prepare(checked: T.CheckedProgram, fn: str, model_names: tuple[str, ...],
            extracted: Optional[ExtractedProgram] = None,
            instantiate_at: Optional[S.SrcType] = None) -> PreparedFn:
    """Type-check, extract, evaluate bindings, and denote the target
    function in each requested model.  Polymorphic functions are
    instantiated at ``instantiate_at`` (default nat) in every bound
    variable.
    """
    program = checked.program
    if fn not in checked.schemes:
        raise HarnessError(f"no top-level binding named {fn}")
    extracted = extracted or extract_program(checked)
    scheme = checked.schemes[fn]
    inst = instantiate_at or S.NAT_TYPE
    mono = S.subst_tyvars(scheme.body, {a: inst for a in scheme.bound})
    arg_types = []
    cursor = mono
    while isinstance(cursor, S.TArrow):
        arg_types.append(cursor.dom)
        cursor = cursor.cod
    result_type = cursor
    for t in arg_types + [result_type]:
        if not observable(t):
            raise HarnessError(
                f"{fn} is not observable-to-observable (offending type {S.pretty_type(t)})"
            )
    env, _ = program_env(program)
    prepared = PreparedFn(fn, arg_types, result_type, checked, extracted, env)
    binding = extracted.bindings[fn]
    # every model denotes the same term, checked once
    term = binding.potential if scheme.bound else binding.complexity
    elab = RecElab()
    check_rec({}, term, elab)
    for name in model_names:
        model = make_model(name)
        try:
            meaning = denote(model, SemEnv(), term, elab)
            if scheme.bound:
                pot, ty = meaning, binding.potential_ty
                for _ in scheme.bound:
                    assert isinstance(ty, RForall)
                    pot = model.tyapp(pot, potential_type(inst), ty.var, ty.body)
                    ty = ty.body  # nested quantifiers instantiate one by one
                base_cost = ext(0)
            else:
                if not isinstance(meaning, SPair):
                    raise HarnessError("extracted complexity did not denote a pair")
                base_cost, pot = meaning.left.num, meaning.right
            prepared.denoted[name] = (model, base_cost, pot)
        except UnsupportedFeature as exc:
            prepared.skipped[name] = str(exc)
    return prepared


def apply_bound(model: Model, base_cost, pot: SemValue,
                arg_potentials: list[SemValue]):
    """Apply a denoted potential to argument potentials, accumulating the
    cost components of each application; the resulting potential is
    ``canonical``.
    """
    total = base_cost
    cur = pot
    for p in arg_potentials:
        if not isinstance(cur, SFun):
            raise HarnessError("applied a non-function potential")
        out = cur(p)
        if not isinstance(out, SPair):
            raise HarnessError("application did not produce a complexity")
        total = total + out.left.num
        cur = out.right
    return total, canonical(cur)


# ---------------------------------------------------------------------------
# The bounding verdicts
# ---------------------------------------------------------------------------


def verify_bound(checked: T.CheckedProgram, fn: str, cfg: TrialConfig,
                 program_name: str = "<program>") -> Report:
    """Empirical instantiation of the bounding theorem at observable types."""
    prepared = prepare(checked, fn, tuple(cfg.models))
    report = Report(program=program_name, fn=fn, seed=cfg.seed)
    report.skipped_models = dict(prepared.skipped)
    rng = random.Random(cfg.seed)
    bound_cache: dict = {}
    for index in range(cfg.trials):
        args = [gen_value(t, cfg.max_value_size, rng) for t in prepared.arg_types]
        record = run_trial(prepared, args, index, bound_cache)
        report.trials.append(record)
        if not record.ok:
            for model_name, res in record.results.items():
                if res.get("status") == "fail":
                    report.failures.append({
                        "index": index,
                        "model": model_name,
                        "inputs": record.inputs,
                        "cost": record.cost,
                        "bound": res.get("cost_bound"),
                        "reason": res.get("reason", ""),
                        "seed": cfg.seed,
                    })
    return report


def run_trial(prepared: PreparedFn, args: list[S.Value], index: int,
              bound_cache: Optional[dict] = None) -> TrialRecord:
    if bound_cache is None:
        bound_cache = {}
    res = apply_function(prepared.env, prepared.name, args)
    cost = res.cost
    results: dict = {}
    ok = True
    cost_by_model: dict[str, object] = {}
    for name, (model, base_cost, pot) in prepared.denoted.items():
        try:
            arg_pots = [value_potential(model, v, t) for v, t in zip(args, prepared.arg_types)]
            key = (name, tuple(arg_pots))
            if key not in bound_cache:
                bound_cache[key] = apply_bound(model, base_cost, pot, arg_pots)
            bound_cost, bound_pot = bound_cache[key]
            result_pot = value_potential(model, res.value, prepared.result_type)
            entry = {"cost_bound": str(bound_cost)}
            if model.direction == "upper":
                cost_ok = ext(cost) <= bound_cost
                pot_ok = sem_leq(result_pot, bound_pot)
                reason = ("" if cost_ok else "cost exceeds bound; ") + (
                    "" if pot_ok else "result potential exceeds bound")
            elif model.direction == "lower":
                cost_ok = bound_cost <= ext(cost)
                pot_ok = True
                reason = "" if cost_ok else "cost below claimed lower bound"
            else:  # exact
                cost_ok = bound_cost == ext(cost)
                pot_ok = result_pot == bound_pot
                reason = ("" if cost_ok else "exact cost mismatch; ") + (
                    "" if pot_ok else "exact potential mismatch")
            good = cost_ok and pot_ok
            entry["status"] = "pass" if good else "fail"
            if reason:
                entry["reason"] = reason.strip("; ")
            results[name] = entry
            cost_by_model[name] = bound_cost
            ok = ok and good
        except UnsupportedFeature as exc:
            results[name] = {"status": "skipped", "reason": str(exc)}
    # cross-model ordering: lower <= exact <= each upper bound
    if "exact" in cost_by_model:
        exact_cost = cost_by_model["exact"]
        for name, (model, _, _) in prepared.denoted.items():
            if name not in cost_by_model:
                continue
            if model.direction == "upper" and not exact_cost <= cost_by_model[name]:
                results[name]["status"] = "fail"
                results[name]["reason"] = "upper bound below exact cost"
                ok = False
            if model.direction == "lower" and not cost_by_model[name] <= exact_cost:
                results[name]["status"] = "fail"
                results[name]["reason"] = "lower bound above exact cost"
                ok = False
    return TrialRecord(
        index=index,
        inputs=[S.pretty(a) for a in args],
        cost=cost,
        results=results,
        ok=ok,
    )
