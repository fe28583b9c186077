"""Denotational models of the recurrence language over the standard type
frame (semantic types are closed recurrence types).

Six models ship:

* ``exact``   — set-theoretic, order is equality; folds are structural
                recursion.  Costs and potentials are exact.
* ``size``    — inductive values interpreted by their main-constructor
                count (list length + 1, tree size 2n+1, numeral n+1).
* ``height``  — like ``size`` but products of recursive positions take
                maxima, so trees are measured by constructor depth.
* ``allcons`` — inductive values interpreted by a map from every datatype
                to a constructor count.
* ``merged``  — the all-constructors model with polymorphic values routed
                through abstraction/concretization to the size model, so
                instantiating a polymorphic recurrence sees only main
                constructor counts.
* ``lower``   — the size model with the cost order reversed: destructors
                and folds take meets over decompositions, yielding lower
                bounds.

Folds in the abstract models follow the least-upper-bound recipe: the value
at ``x`` is the join of the step function over the maximal decompositions
``z`` with ``cons z <= x`` (meet over minimal decompositions with
``cons z >= x`` in the lower model).  Only polynomial shape functors (sums,
products, constants, the recursion variable) are enumerable; arrow shapes
raise ``UnsupportedFeature`` except in the exact model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import source_ast as S
from .extract import potential_type
from .rec_lang import (
    RApp, RArrow, RC, RCase, RConsE, RDestE, RecElab, RecExpr, RecShape,
    RecType, RFold, RForall, RInd, RInj, RLam, RLet, ROne, RPair, RPlus, RProd,
    RProj, RSArrow, RSConst, RSProd, RSRec, RSSum, RSum, RTVar, RTyApp,
    RTyLam, RUnit, RUnitE, RVar, RZero, check_rec, pretty_rec_type,
    rec_free_vars, subst_rec_shape, subst_rtyvars, quantifier_free,
)
from .semdom import (
    INF, ONE, ZERO, ExtNat, SFun, SIdeal, SMap, SNum, SPair, SPoly, SStar,
    SemError, SemValue, SizeMap, UnsupportedFeature, XCons, XInj, antichain,
    ideal_case, sem_join_vals, sem_leq, sem_meet_vals,
)


class ModelError(SemError):
    pass


# ---------------------------------------------------------------------------
# Closed-type utilities
# ---------------------------------------------------------------------------


def support_datatypes(ty: RecType) -> frozenset:
    """All closed inductive types occurring syntactically in ``ty``
    (including itself), the index set for size maps.
    """
    return S.type_memo(ty, "_support", _support_datatypes)


def _support_datatypes(ty: RecType) -> frozenset:
    out: set = set()

    def go_ty(t: RecType):
        match t:
            case RTVar(_) | RC() | RUnit():
                return
            case RProd(l, r) | RSum(l, r):
                go_ty(l)
                go_ty(r)
            case RArrow(d, c):
                go_ty(d)
                go_ty(c)
            case RInd(f, _):
                if t not in out:
                    out.add(t)
                    go_shape(f)
            case RForall(_, b):
                go_ty(b)

    def go_shape(f: RecShape):
        match f:
            case RSRec():
                return
            case RSConst(t):
                go_ty(t)
            case RSProd(l, r) | RSSum(l, r):
                go_shape(l)
                go_shape(r)
            case RSArrow(d, b):
                go_ty(d)
                go_shape(b)

    go_ty(ty)
    return frozenset(out)


def shape_is_polynomial(f: RecShape) -> bool:
    match f:
        case RSRec():
            return True
        case RSConst(_):
            return True
        case RSProd(l, r) | RSSum(l, r):
            return shape_is_polynomial(l) and shape_is_polynomial(r)
        case RSArrow(_, _):
            return False
    return False


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


@dataclass
class SemEnv:
    """Type variables map to closed recurrence types, term variables to
    semantic values.
    """

    tyvars: dict[str, RecType] = field(default_factory=dict)
    vals: dict[str, SemValue] = field(default_factory=dict)

    def with_val(self, name: str, v: SemValue) -> "SemEnv":
        out = dict(self.vals)
        out[name] = v
        return SemEnv(self.tyvars, out)

    def with_tyvar(self, name: str, ty: RecType) -> "SemEnv":
        out = dict(self.tyvars)
        out[name] = ty
        return SemEnv(out, self.vals)

    def close(self, ty: RecType) -> RecType:
        return subst_rtyvars(ty, self.tyvars)


# ---------------------------------------------------------------------------
# Abstract models (size / height / allcons and the lower dual)
# ---------------------------------------------------------------------------


class Model:
    """A table of semantic operators indexed by closed recurrence types."""

    name: str = "?"
    direction: str = "upper"  # 'upper' | 'lower' | 'exact'

    def __init__(self):
        self._fold_cache: dict = {}

    # -- lattice structure ---------------------------------------------------

    def bottom(self, ty: RecType) -> SemValue:
        match ty:
            case RC():
                return SNum("cost", ZERO)
            case RUnit():
                return SStar()
            case RProd(l, r):
                return SPair(self.bottom(l), self.bottom(r))
            case RSum(_, _):
                return SIdeal((), ())
            case RArrow(_, c):
                return SFun(lambda _a, t=c: self.bottom(t))
            case RInd(_, _):
                return self.ind_bottom(ty)
            case RForall(a, b):
                return SPoly(lambda sigma: self.bottom(subst_rtyvars(b, {a: sigma})))
        raise ModelError(f"no bottom at type {pretty_rec_type(ty)}")

    def top(self, ty: RecType) -> SemValue:
        match ty:
            case RC():
                return SNum("cost", INF)
            case RUnit():
                return SStar()
            case RProd(l, r):
                return SPair(self.top(l), self.top(r))
            case RSum(l, r):
                return SIdeal(antichain([self.top(l)]), antichain([self.top(r)]))
            case RArrow(_, c):
                return SFun(lambda _a, t=c: self.top(t))
            case RInd(_, _):
                return self.ind_top(ty)
            case RForall(a, b):
                return SPoly(lambda sigma: self.top(subst_rtyvars(b, {a: sigma})))
        raise ModelError(f"no top at type {pretty_rec_type(ty)}")

    def join(self, vals: list[SemValue], ty: RecType) -> SemValue:
        if not vals:
            return self.bottom(ty)
        return sem_join_vals(vals)

    def meet(self, vals: list[SemValue], ty: RecType) -> SemValue:
        if not vals:
            return self.top(ty)
        return sem_meet_vals(vals)

    # -- structural operators --------------------------------------------------

    def inj(self, index: int, v: SemValue, sum_ty: RecType) -> SemValue:
        if index == 0:
            return SIdeal(antichain([v]), ())
        return SIdeal((), antichain([v]))

    def case(self, scrut: SemValue, f0, f1, result_ty: RecType) -> SemValue:
        if not isinstance(scrut, SIdeal):
            raise ModelError(f"case scrutinee is not an ideal: {scrut}")
        return ideal_case(scrut, f0, f1, self.bottom(result_ty))

    # -- inductive types (model specific) --------------------------------------

    def ind_bottom(self, delta: RInd) -> SemValue:
        raise NotImplementedError

    def ind_top(self, delta: RInd) -> SemValue:
        raise NotImplementedError

    def cons(self, delta: RInd, z: SemValue) -> SemValue:
        raise NotImplementedError

    def dest(self, delta: RInd, x: SemValue) -> SemValue:
        raise NotImplementedError

    def fold(self, delta: RInd, result_ty: RecType, step, x: SemValue,
             cache_key=None) -> SemValue:
        raise NotImplementedError

    def embed_inductive(self, v: S.Value, ty: S.TInd) -> SemValue:
        """The canonical potential of a source value of inductive type ty
        (see ``value_potential``): what replaying ``cons`` at each of its
        constructors would give.
        """
        raise NotImplementedError

    def _tabulated_fold(self, delta: RInd, result_ty: RecType, step, n: ExtNat,
                        cache_key, decompose, count, fixed=None) -> SemValue:
        """The abstract fold at main constructor count ``n``: the join (the
        meet in the lower model) of the step over ``decompose(i)``, the
        decompositions at main count ``i``, or the bottom where that is None.

        A decomposition's recursive positions have main counts from 1 to
        ``i - 1`` (``count`` reads one), so the table of results fills
        bottom-up and a large ``n`` never deepens the Python stack.  Tables
        live in ``_fold_cache[cache_key]``, one per ``fixed``: the size-map
        entries other than the main count, which recursive positions inherit.
        """
        if not shape_is_polynomial(delta.functor):
            raise UnsupportedFeature("fold over a non-polynomial shape functor")
        lower = self.direction == "lower"
        if n.is_inf:
            return self.bottom(result_ty) if lower else self.top(result_ty)
        tables = self._fold_cache.setdefault(cache_key, {}) if cache_key else {}
        table = tables.setdefault(fixed, {})
        if n.value not in table:
            combine = self.meet if lower else self.join
            rec = SFun(lambda m: table[count(m)])
            for i in range(min(n.value, 1), n.value + 1):
                if i in table:
                    continue
                zs = decompose(i)
                table[i] = self.bottom(result_ty) if zs is None else combine(
                    [step(self.map_shape(delta.functor, rec, z)) for z in zs], result_ty)
        return table[n.value]

    # -- polymorphism -----------------------------------------------------------

    def tyabs(self, fn: Callable[[RecType], SemValue], var: str,
              body_ty: RecType) -> SemValue:
        return SPoly(fn)

    def tyapp(self, v: SemValue, sigma: RecType, var: str, body_ty: RecType) -> SemValue:
        if not isinstance(v, SPoly):
            raise ModelError("type application of a non-polymorphic value")
        return v.at(sigma)

    # -- functorial action -------------------------------------------------------

    def map_shape(self, f: RecShape, g: Callable[[SemValue], SemValue],
                  x: SemValue) -> SemValue:
        """The action of a shape functor on a semantic function."""
        match f:
            case RSRec():
                return g(x)
            case RSConst(_):
                return x
            case RSProd(l, r):
                if not isinstance(x, SPair):
                    raise ModelError("product shape expects a pair")
                return SPair(self.map_shape(l, g, x.left), self.map_shape(r, g, x.right))
            case RSSum(l, r):
                if not isinstance(x, SIdeal):
                    raise ModelError("sum shape expects an ideal")
                return SIdeal(
                    antichain(self.map_shape(l, g, v) for v in x.left),
                    antichain(self.map_shape(r, g, v) for v in x.right),
                )
            case RSArrow(_, b):
                if not isinstance(x, SFun):
                    raise ModelError("arrow shape expects a function")
                return SFun(lambda y, b=b, x=x: self.map_shape(b, g, x(y)))
        raise ModelError(f"not a shape functor: {f!r}")


def _shape_sizes(f: RecShape) -> tuple[bool, Optional[int]]:
    """The sizes that maximal values of shape ``f`` take, products summing
    their sides, as ``(zero, least)``: 0 when ``zero`` holds, and every size
    from ``least`` up when it is not None.  Sums and products keep sets of
    this form.  Constants count as inhabited; one that is not (an allcons
    constant clipped away) leaves every product around it empty, whatever
    the split.
    """
    match f:
        case RSRec():
            return False, 1
        case RSConst(_):
            return True, None
        case RSSum(l, r):
            bounds = [m for _, m in (_shape_sizes(l), _shape_sizes(r)) if m is not None]
            return True, min(bounds, default=None)
        case RSProd(l, r):
            (zl, ml), (zr, mr) = _shape_sizes(l), _shape_sizes(r)
            bounds = []
            if ml is not None and mr is not None:
                bounds.append(ml + mr)
            if ml is not None and zr:
                bounds.append(ml)
            if mr is not None and zl:
                bounds.append(mr)
            return zl and zr, min(bounds, default=None)
        case RSArrow(_, _):
            raise UnsupportedFeature(
                "arrow shape functors cannot be enumerated under size abstraction"
            )
    raise ModelError(f"not a shape functor: {f!r}")


def _has_size(sizes: tuple[bool, Optional[int]], s: int) -> bool:
    zero, least = sizes
    return (s == 0 and zero) or (least is not None and s >= least)


def _size_splits(l: RecShape, r: RecShape, budget: int) -> list[tuple[int, int]]:
    """The splits (bl, br) for the maximal pairs of shape ``l * r`` with
    size at most ``budget``: every split both sides can fill exactly, of the
    largest total that has one.  Splits of one total are pairwise
    incomparable, so pairs drawn from antichains at distinct splits are too.
    """
    left, right = _shape_sizes(l), _shape_sizes(r)
    for total in range(budget, -1, -1):
        splits = [(bl, total - bl) for bl in range(total + 1)
                  if _has_size(left, bl) and _has_size(right, total - bl)]
        if splits:
            return splits
    return []


class SizeHeightModel(Model):
    """Main-constructor counting: sizes are extended naturals at least 1.
    mode='size' sums recursive positions across products, mode='height'
    takes their maximum.
    """

    def __init__(self, mode: str = "size"):
        super().__init__()
        self.mode = mode
        self.name = mode

    def ind_bottom(self, delta: RInd) -> SemValue:
        return SNum("size", ONE)

    def ind_top(self, delta: RInd) -> SemValue:
        return SNum("size", INF)

    # size_F: the size of the inductive value built from data z
    def size_of(self, f: RecShape, z: SemValue) -> ExtNat:
        match f:
            case RSRec():
                if not isinstance(z, SNum):
                    raise ModelError("recursive position expects a size")
                return z.num
            case RSConst(_):
                return ZERO
            case RSSum(l, r):
                if not isinstance(z, SIdeal):
                    raise ModelError("sum shape expects an ideal")
                best = ZERO
                for g in z.left:
                    best = best.max(self.size_of(l, g))
                for g in z.right:
                    best = best.max(self.size_of(r, g))
                return best
            case RSProd(l, r):
                if not isinstance(z, SPair):
                    raise ModelError("product shape expects a pair")
                a, b = self.size_of(l, z.left), self.size_of(r, z.right)
                return a.max(b) if self.mode == "height" else a + b
            case RSArrow(_, _):
                raise UnsupportedFeature(
                    "arrow shape functors are not supported under size abstraction"
                )
        raise ModelError(f"not a shape functor: {f!r}")

    def cons(self, delta: RInd, z: SemValue) -> SemValue:
        return SNum("size", ONE + self.size_of(delta.functor, z))

    def embed_inductive(self, v: S.Value, ty: S.TInd) -> SemValue:
        return SNum("size", ExtNat(_main_constructors(v, ty, self.mode == "height")))

    def _enumerate_max(self, f: RecShape, budget: int) -> list[SemValue]:
        """Maximal z with size_F(z) <= budget: an antichain by construction,
        in the canonical order of ``antichain``.
        """
        match f:
            case RSRec():
                return [SNum("size", ExtNat(budget))] if budget >= 1 else []
            case RSConst(t):
                return [self.top(t)]
            case RSSum(l, r):
                return [SIdeal(tuple(self._enumerate_max(l, budget)),
                               tuple(self._enumerate_max(r, budget)))]
            case RSProd(l, r):
                # height: a product of antichains is one; size: see _size_splits
                splits = ([(budget, budget)] if self.mode == "height"
                          else _size_splits(l, r, budget))
                return sorted((SPair(a, b) for bl, br in splits
                               for a in self._enumerate_max(l, bl)
                               for b in self._enumerate_max(r, br)), key=str)
            case RSArrow(_, _):
                raise UnsupportedFeature(
                    "arrow shape functors are not supported under size abstraction"
                )
        raise ModelError(f"not a shape functor: {f!r}")

    def dest(self, delta: RInd, x: SemValue) -> SemValue:
        if not isinstance(x, SNum):
            raise ModelError("destructing a non-size")
        unfold_ty = subst_rec_shape(delta.functor, delta)
        if x.num.is_inf:
            return self.top(unfold_ty)
        zs = self._enumerate_max(delta.functor, x.num.value - 1)
        return self.join(zs, unfold_ty)

    def _decompose(self, f: RecShape, n: int) -> Optional[list[SemValue]]:
        return self._enumerate_max(f, n - 1)

    def fold(self, delta: RInd, result_ty: RecType, step, x: SemValue,
             cache_key=None) -> SemValue:
        if not isinstance(x, SNum):
            raise ModelError("folding a non-size")
        return self._tabulated_fold(
            delta, result_ty, step, x.num, cache_key,
            lambda n: self._decompose(delta.functor, n), lambda m: m.num.value)


class LowerSizeModel(SizeHeightModel):
    """The dual of the size model: same carriers, cost order reversed.
    Destructor and fold take meets over minimal decompositions, so every
    computed cost is a lower bound.
    """

    direction = "lower"

    def __init__(self):
        super().__init__("size")
        self.name = "lower"

    # case, injections, pairs, and functions are interpreted exactly as in
    # the size model; only the datatype operators change.

    def _enumerate_min(self, f: RecShape, budget: int) -> list[SemValue]:
        """Minimal z with size_F(z) >= budget."""
        if budget <= 0:
            return [self.bottom(_shape_value_type(f))]
        match f:
            case RSRec():
                return [SNum("size", ExtNat(max(budget, 1)))]
            case RSConst(t):
                return []  # constants have size 0 < budget
            case RSSum(l, r):
                out: list[SemValue] = []
                for g in self._enumerate_min(l, budget):
                    out.append(SIdeal(antichain([g]), ()))
                for g in self._enumerate_min(r, budget):
                    out.append(SIdeal((), antichain([g])))
                return _min_antichain(out)
            case RSProd(l, r):
                out = []
                for bl in range(0, budget + 1):
                    for a in self._enumerate_min(l, bl):
                        for b in self._enumerate_min(r, budget - bl):
                            out.append(SPair(a, b))
                return _min_antichain(out)
            case RSArrow(_, _):
                raise UnsupportedFeature(
                    "arrow shape functors are not supported under size abstraction"
                )
        raise ModelError(f"not a shape functor: {f!r}")

    def dest(self, delta: RInd, x: SemValue) -> SemValue:
        if not isinstance(x, SNum):
            raise ModelError("destructing a non-size")
        unfold_ty = subst_rec_shape(delta.functor, delta)
        if x.num.is_inf:
            return self.bottom(unfold_ty)
        zs = self._enumerate_min(delta.functor, x.num.value - 1)
        return self.meet(zs, unfold_ty)

    def _decompose(self, f: RecShape, n: int) -> Optional[list[SemValue]]:
        # the empty ideal decomposition qualifies up to main count 1, so the
        # meet there is the bottom of the codomain
        return None if n <= 1 else self._enumerate_min(f, n - 1)


def _shape_value_type(f: RecShape) -> RecType:
    # the type of values of this shape with a size at recursive positions;
    # only used to build bottoms, where the recursive position is a size
    return subst_rec_shape(f, RInd(RSRec()))


def _min_antichain(items: list[SemValue]) -> list[SemValue]:
    out: list[SemValue] = []
    for x in items:
        if any(sem_leq(y, x) for y in out):
            continue
        out = [y for y in out if not sem_leq(x, y)]
        out.append(x)
    return sorted(out, key=str)


class AllConsModel(Model):
    """Counting every datatype's constructors: an inductive value denotes a
    map from each closed datatype to a count; products add at the main
    datatype and take maxima elsewhere.
    """

    name = "allcons"

    def ind_bottom(self, delta: RInd) -> SemValue:
        return SMap(SizeMap.of({delta: ONE}))

    def ind_top(self, delta: RInd) -> SemValue:
        return SMap(SizeMap.of({d: INF for d in support_datatypes(delta)}))

    # -- the size function, tracking the main datatype --------------------------

    def size_all(self, f: RecShape, delta: RInd, z: SemValue) -> SizeMap:
        match f:
            case RSRec():
                if not isinstance(z, SMap):
                    raise ModelError("recursive position expects a size map")
                return z.sizemap
            case RSConst(t):
                return self._const_contrib(t, z, delta)
            case RSSum(l, r):
                if not isinstance(z, SIdeal):
                    raise ModelError("sum shape expects an ideal")
                out = SizeMap.of({})
                for g in z.left:
                    out = out.join(self.size_all(l, delta, g))
                for g in z.right:
                    out = out.join(self.size_all(r, delta, g))
                return out
            case RSProd(l, r):
                if not isinstance(z, SPair):
                    raise ModelError("product shape expects a pair")
                a = self.size_all(l, delta, z.left)
                b = self.size_all(r, delta, z.right)
                joined = a.join(b)
                return joined.set(delta, a.get(delta) + b.get(delta))
            case RSArrow(_, _):
                raise UnsupportedFeature(
                    "arrow shape functors are not supported under size abstraction"
                )
        raise ModelError(f"not a shape functor: {f!r}")

    def _const_contrib(self, ty: RecType, z: SemValue, delta: RInd) -> SizeMap:
        """Constructor counts inside a constant position, decomposed
        structurally (the alternative functor grammar that spells out the
        closed-type production).  The main datatype cannot occur inside a
        constant of its own functor, so products inside constants never add
        at the main entry.
        """
        match ty:
            case RC() | RUnit():
                return SizeMap.of({})
            case RInd(_, _):
                if not isinstance(z, SMap):
                    raise ModelError("inductive constant expects a size map")
                return z.sizemap
            case RProd(l, r):
                if not isinstance(z, SPair):
                    raise ModelError("product constant expects a pair")
                a = self._const_contrib(l, z.left, delta)
                b = self._const_contrib(r, z.right, delta)
                joined = a.join(b)
                return joined.set(delta, a.get(delta) + b.get(delta))
            case RSum(l, r):
                if not isinstance(z, SIdeal):
                    raise ModelError("sum constant expects an ideal")
                out = SizeMap.of({})
                for g in z.left:
                    out = out.join(self._const_contrib(l, g, delta))
                for g in z.right:
                    out = out.join(self._const_contrib(r, g, delta))
                return out
            case RArrow(_, _):
                raise UnsupportedFeature(
                    "arrow types inside datatypes are not supported under size abstraction"
                )
        raise ModelError(f"cannot measure constants of type {pretty_rec_type(ty)}")

    def cons(self, delta: RInd, z: SemValue) -> SemValue:
        sm = self.size_all(delta.functor, delta, z)
        return SMap(sm.set(delta, sm.get(delta) + ONE))

    def embed_inductive(self, v: S.Value, ty: S.TInd) -> SemValue:
        return SMap(_census(v, ty))

    # -- decomposition ------------------------------------------------------------

    def _clip_top(self, ty: RecType, phi: SizeMap) -> Optional[SemValue]:
        """The greatest value of a constant type whose constructor counts
        stay within phi; None when no value fits.
        """
        match ty:
            case RC():
                return SNum("cost", INF)
            case RUnit():
                return SStar()
            case RInd(_, _):
                if phi.get(ty) < ONE:
                    return None  # a value needs at least one own constructor
                entries = {d: phi.get(d) for d in support_datatypes(ty)}
                return SMap(SizeMap.of(entries))
            case RProd(l, r):
                a, b = self._clip_top(l, phi), self._clip_top(r, phi)
                if a is None or b is None:
                    return None
                return SPair(a, b)
            case RSum(l, r):
                a, b = self._clip_top(l, phi), self._clip_top(r, phi)
                return SIdeal(
                    antichain([a] if a is not None else []),
                    antichain([b] if b is not None else []),
                )
            case RArrow(_, _):
                raise UnsupportedFeature(
                    "arrow types inside datatypes are not supported under size abstraction"
                )
        raise ModelError(f"cannot clip type {pretty_rec_type(ty)}")

    def _enumerate_max(self, f: RecShape, delta: RInd, phi: SizeMap,
                       budget: int) -> list[SemValue]:
        """Maximal z with cons-counts within phi and main count <= budget."""
        match f:
            case RSRec():
                if budget < 1:
                    return []
                entries = {d: phi.get(d) for d in support_datatypes(delta)}
                entries[delta] = ExtNat(budget)
                return [SMap(SizeMap.of(entries))]
            case RSConst(t):
                v = self._clip_top(t, phi)
                return [v] if v is not None else []
            case RSSum(l, r):
                return [SIdeal(tuple(self._enumerate_max(l, delta, phi, budget)),
                               tuple(self._enumerate_max(r, delta, phi, budget)))]
            case RSProd(l, r):
                # an antichain by construction, as in the size model
                return sorted((SPair(a, b) for bl, br in _size_splits(l, r, budget)
                               for a in self._enumerate_max(l, delta, phi, bl)
                               for b in self._enumerate_max(r, delta, phi, br)), key=str)
            case RSArrow(_, _):
                raise UnsupportedFeature(
                    "arrow shape functors are not supported under size abstraction"
                )
        raise ModelError(f"not a shape functor: {f!r}")

    def dest(self, delta: RInd, x: SemValue) -> SemValue:
        if not isinstance(x, SMap):
            raise ModelError("destructing a non-size-map")
        unfold_ty = subst_rec_shape(delta.functor, delta)
        main = x.sizemap.get(delta)
        if main.is_inf:
            return self.top(unfold_ty)
        zs = self._enumerate_max(delta.functor, delta, x.sizemap, main.value - 1)
        return self.join(zs, unfold_ty)

    def fold(self, delta: RInd, result_ty: RecType, step, x: SemValue,
             cache_key=None) -> SemValue:
        if not isinstance(x, SMap):
            raise ModelError("folding a non-size-map")
        phi = x.sizemap
        # recursive positions carry the argument's other entries in the
        # support of delta; only the main count varies
        fixed = SizeMap.of({d: phi.get(d) for d in support_datatypes(delta) if d != delta})
        return self._tabulated_fold(
            delta, result_ty, step, phi.get(delta), cache_key,
            lambda n: self._enumerate_max(delta.functor, delta, fixed, n - 1),
            lambda m: m.sizemap.get(delta).value, fixed)


# ---------------------------------------------------------------------------
# Abstraction / concretization between allcons (W) and size (V)
# ---------------------------------------------------------------------------


def galois_abs(ty: RecType, w: SemValue) -> SemValue:
    """Project an all-constructors value to a main-constructor-count value."""
    match ty:
        case RUnit():
            return SStar()
        case RC():
            return w
        case RInd(_, _):
            if not isinstance(w, SMap):
                raise ModelError("abs at an inductive type expects a size map")
            return SNum("size", w.sizemap.get(ty))
        case RSum(l, r):
            if not isinstance(w, SIdeal):
                raise ModelError("abs at a sum expects an ideal")
            return SIdeal(
                antichain(galois_abs(l, g) for g in w.left),
                antichain(galois_abs(r, g) for g in w.right),
            )
        case RProd(l, r):
            if not isinstance(w, SPair):
                raise ModelError("abs at a product expects a pair")
            return SPair(galois_abs(l, w.left), galois_abs(r, w.right))
        case RArrow(d, c):
            if not isinstance(w, SFun):
                raise ModelError("abs at an arrow expects a function")
            return SFun(lambda v, d=d, c=c, w=w: galois_abs(c, w(galois_conc(d, v))))
    raise ModelError(f"no abstraction at type {pretty_rec_type(ty)}")


def galois_conc(ty: RecType, v: SemValue) -> SemValue:
    """Embed a main-constructor-count value as an all-constructors value,
    padding the other datatypes with infinity.
    """
    match ty:
        case RUnit():
            return SStar()
        case RC():
            return v
        case RInd(_, _):
            if not isinstance(v, SNum):
                raise ModelError("conc at an inductive type expects a size")
            entries = {d: INF for d in support_datatypes(ty)}
            entries[ty] = v.num
            return SMap(SizeMap.of(entries))
        case RSum(l, r):
            if not isinstance(v, SIdeal):
                raise ModelError("conc at a sum expects an ideal")
            return SIdeal(
                antichain(galois_conc(l, g) for g in v.left),
                antichain(galois_conc(r, g) for g in v.right),
            )
        case RProd(l, r):
            if not isinstance(v, SPair):
                raise ModelError("conc at a product expects a pair")
            return SPair(galois_conc(l, v.left), galois_conc(r, v.right))
        case RArrow(d, c):
            if not isinstance(v, SFun):
                raise ModelError("conc at an arrow expects a function")
            return SFun(lambda w, d=d, c=c, v=v: galois_conc(c, v(galois_abs(d, w))))
    raise ModelError(f"no concretization at type {pretty_rec_type(ty)}")


class MergedModel(AllConsModel):
    """The polymorphic abstraction of the all-constructors model relative to
    the size model: monomorphic values live in the all-constructors world,
    but type abstractions at quantifier-free bodies store the size-model
    abstraction of each instance, and instantiation concretizes back.  The
    net effect is that a polymorphic recurrence is analyzed in terms of main
    constructor counts only.
    """

    name = "merged"

    def tyabs(self, fn: Callable[[RecType], SemValue], var: str,
              body_ty: RecType) -> SemValue:
        if quantifier_free(body_ty):
            return SPoly(lambda sigma: galois_abs(
                subst_rtyvars(body_ty, {var: sigma}), fn(sigma)
            ))
        return SPoly(fn)

    def tyapp(self, v: SemValue, sigma: RecType, var: str, body_ty: RecType) -> SemValue:
        if not isinstance(v, SPoly):
            raise ModelError("type application of a non-polymorphic value")
        inst = v.at(sigma)
        if quantifier_free(body_ty):
            return galois_conc(subst_rtyvars(body_ty, {var: sigma}), inst)
        return inst


# ---------------------------------------------------------------------------
# The exact (standard) model
# ---------------------------------------------------------------------------


class ExactModel(Model):
    """Set-theoretic interpretation: no size abstraction, the order is
    equality, and folds are structural recursion.  Arrow shapes are fine.
    """

    name = "exact"
    direction = "exact"

    def inj(self, index: int, v: SemValue, sum_ty: RecType) -> SemValue:
        return XInj(index, v)

    def case(self, scrut: SemValue, f0, f1, result_ty: RecType) -> SemValue:
        if not isinstance(scrut, XInj):
            raise ModelError("exact case expects an injection")
        return (f0 if scrut.index == 0 else f1)(scrut.arg)

    def cons(self, delta: RInd, z: SemValue) -> SemValue:
        return XCons(delta, z)

    def embed_inductive(self, v: S.Value, ty: S.TInd) -> SemValue:
        return _exact_value(v, ty)

    def dest(self, delta: RInd, x: SemValue) -> SemValue:
        if not isinstance(x, XCons):
            raise ModelError("exact dest expects a constructor value")
        return x.arg

    def fold(self, delta: RInd, result_ty: RecType, step, x: SemValue,
             cache_key=None) -> SemValue:
        def go(v: SemValue) -> SemValue:
            if not isinstance(v, XCons):
                raise ModelError("exact fold expects a constructor value")
            rec = SFun(go)
            return step(self.map_shape(delta.functor, rec, v.arg))

        return go(x)

    def map_shape(self, f: RecShape, g, x: SemValue) -> SemValue:
        match f:
            case RSRec():
                return g(x)
            case RSConst(_):
                return x
            case RSProd(l, r):
                if not isinstance(x, SPair):
                    raise ModelError("product shape expects a pair")
                return SPair(self.map_shape(l, g, x.left), self.map_shape(r, g, x.right))
            case RSSum(l, r):
                if not isinstance(x, XInj):
                    raise ModelError("exact sum shape expects an injection")
                sub = l if x.index == 0 else r
                return XInj(x.index, self.map_shape(sub, g, x.arg))
            case RSArrow(_, b):
                if not isinstance(x, SFun):
                    raise ModelError("arrow shape expects a function")
                return SFun(lambda y, b=b, x=x: self.map_shape(b, g, x(y)))
        raise ModelError(f"not a shape functor: {f!r}")

    def bottom(self, ty: RecType) -> SemValue:
        raise ModelError("the exact model has no lattice structure")

    def top(self, ty: RecType) -> SemValue:
        raise ModelError("the exact model has no lattice structure")

    def join(self, vals: list[SemValue], ty: RecType) -> SemValue:
        if len(vals) != 1:
            raise ModelError("the exact model only joins singletons")
        return vals[0]


# ---------------------------------------------------------------------------
# The denotation function
# ---------------------------------------------------------------------------


def denote(model: Model, env: SemEnv, e: RecExpr, elab: RecElab) -> SemValue:
    """Clause-per-clause interpretation into the model's applicative
    structure.  ``elab`` must come from a check_rec run over ``e``.
    """
    match e:
        case RVar(n):
            if n not in env.vals:
                raise ModelError(f"unbound semantic variable {n}")
            return env.vals[n]
        case RZero():
            return SNum("cost", ZERO)
        case ROne():
            return SNum("cost", ONE)
        case RPlus(l, r):
            a = denote(model, env, l, elab)
            b = denote(model, env, r, elab)
            if not isinstance(a, SNum) or not isinstance(b, SNum):
                raise ModelError("+ expects costs")
            return SNum("cost", a.num + b.num)
        case RUnitE():
            return SStar()
        case RPair(l, r):
            return SPair(denote(model, env, l, elab), denote(model, env, r, elab))
        case RProj(i, a):
            v = denote(model, env, a, elab)
            if not isinstance(v, SPair):
                raise ModelError("projection from a non-pair")
            return v.left if i == 0 else v.right
        case RInj(i, ann, a):
            return model.inj(i, denote(model, env, a, elab), env.close(ann))
        case RCase(s, x0, _, b0, x1, _, b1):
            scrut = denote(model, env, s, elab)
            result_ty = env.close(elab.type_of(e))
            f0 = lambda v: denote(model, env.with_val(x0, v), b0, elab)
            f1 = lambda v: denote(model, env.with_val(x1, v), b1, elab)
            return model.case(scrut, f0, f1, result_ty)
        case RLam(x, _, b):
            return SFun(lambda v: denote(model, env.with_val(x, v), b, elab))
        case RApp(f, a):
            vf = denote(model, env, f, elab)
            va = denote(model, env, a, elab)
            if not isinstance(vf, SFun):
                raise ModelError("application of a non-function")
            return vf(va)
        case RTyLam(a, b):
            body_ty = elab.type_of(b)

            def instantiate(sigma: RecType, a=a, b=b):
                return denote(model, env.with_tyvar(a, sigma), b, elab)

            return model.tyabs(instantiate, a, subst_rtyvars(body_ty, {
                v: t for v, t in env.tyvars.items() if v != a
            }))
        case RTyApp(f, t):
            vf = denote(model, env, f, elab)
            fn_ty = env.close(elab.type_of(f))
            if not isinstance(fn_ty, RForall):
                raise ModelError("type application of a non-quantified type")
            return model.tyapp(vf, env.close(t), fn_ty.var, fn_ty.body)
        case RConsE(ann, a):
            delta = env.close(ann)
            assert isinstance(delta, RInd)
            return model.cons(delta, denote(model, env, a, elab))
        case RDestE(ann, a):
            delta = env.close(ann)
            assert isinstance(delta, RInd)
            return model.dest(delta, denote(model, env, a, elab))
        case RFold(ann, s, x, _, b):
            delta = env.close(ann)
            assert isinstance(delta, RInd)
            result_ty = env.close(elab.type_of(e))
            scrut = denote(model, env, s, elab)
            step = lambda v: denote(model, env.with_val(x, v), b, elab)
            key = (id(e), frozenset(env.tyvars.items()),
                   _env_fingerprint(env, _step_free_vars(e)))
            return model.fold(delta, result_ty, step, scrut, cache_key=key)
        case RLet(x, a, b):
            return denote(model, env.with_val(x, denote(model, env, a, elab)), b, elab)
    raise ModelError(f"not a recurrence expression: {e!r}")


def _step_free_vars(e: RFold) -> tuple[str, ...]:
    """The free variables of a fold's step, sorted, once per fold node."""
    return S.type_memo(e, "_step_free",
                       lambda f: tuple(sorted(rec_free_vars(f.body) - {f.binder})))


def _env_fingerprint(env: SemEnv, names: tuple[str, ...]):
    return tuple((n, env.vals[n]) for n in names if n in env.vals)


def denote_closed(model: Model, e: RecExpr) -> SemValue:
    """Type check a closed term and denote it."""
    elab = RecElab()
    check_rec({}, e, elab)
    return denote(model, SemEnv(), e, elab)


# ---------------------------------------------------------------------------
# Canonical potentials of source values
# ---------------------------------------------------------------------------


def observable(ty: S.SrcType) -> bool:
    """First-order types at which bounding can be checked mechanically."""
    return S.type_memo(ty, "_observable", _observable)


def _observable(ty: S.SrcType) -> bool:
    match ty:
        case S.TUnit():
            return True
        case S.TProd(l, r) | S.TSum(l, r):
            return _observable(l) and _observable(r)
        case S.TInd(f, _):
            return _observable_shape(f)
        case _:
            return False


def _observable_shape(f: S.ShapeFunctor) -> bool:
    match f:
        case S.FRec():
            return True
        case S.FConst(t):
            return _observable(t)
        case S.FProd(l, r) | S.FSum(l, r):
            return _observable_shape(l) and _observable_shape(r)
        case S.FArrow(_, _):
            return False
    return False


def value_potential(model: Model, v: S.Value, ty: S.SrcType) -> SemValue:
    """The least potential bounding a concrete first-order value: unit,
    pairs and injections above the first inductive type go to star, pairs
    and the model's injection, and a value of inductive type is measured by
    the model's ``embed_inductive`` in one iterative walk.
    """
    if not observable(ty):
        raise ModelError(f"type {S.pretty_type(ty)} is not observable")
    return _embed(model, v, ty)


def _embed(model: Model, v: S.Value, ty: S.SrcType) -> SemValue:
    # recursion follows the type here, not the value
    match ty:
        case S.TInd():
            return model.embed_inductive(v, ty)
        case S.TUnit() if isinstance(v, S.VUnit):
            return SStar()
        case S.TProd(tl, tr) if isinstance(v, S.VPair):
            return SPair(_embed(model, v.left, tl), _embed(model, v.right, tr))
        case S.TSum(tl, tr) if isinstance(v, S.VInj):
            sub = _embed(model, v.arg, tl if v.index == 0 else tr)
            return model.inj(v.index, sub, potential_type(ty))
    raise _uninhabited(v, ty, None)


def _uninhabited(v: S.Value, node, ind: Optional[S.TInd]) -> ModelError:
    """The error for a value found at a type, or at a position of ind's
    functor, that it does not inhabit.
    """
    ty = S.subst_shape(node, ind) if isinstance(node, S.ShapeFunctor) else node
    return ModelError(f"value {S.pretty(v)} does not inhabit {S.pretty_type(ty)}")


# The walks below keep a stack of (value, node) where a node is a type or a
# position in the functor of the datatype being walked; _REC stands for a
# main constructor of that datatype.
_REC = S.FRec()


def _main_constructors(v: S.Value, ty: S.TInd, height: bool) -> int:
    """The main constructors of a value of inductive type ty, following only
    the recursive positions of ty's functor: how many there are, or with
    ``height`` how deeply they nest.  Constants hold none of them.
    """
    functor = ty.functor
    best = 0
    stack = [(v, _REC, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        v, f, depth = pop()
        cls = type(f)
        if cls is S.FRec:
            if not isinstance(v, S.VCons):
                raise _uninhabited(v, f, ty)
            best = max(best, depth) if height else best + 1
            push((v.arg, functor, depth + 1))
        elif cls is S.FSum:
            if not isinstance(v, S.VInj):
                raise _uninhabited(v, f, ty)
            push((v.arg, f.left if v.index == 0 else f.right, depth))
        elif cls is S.FProd:
            if not isinstance(v, S.VPair):
                raise _uninhabited(v, f, ty)
            push((v.left, f.left, depth))
            push((v.right, f.right, depth))
    return best


def _census(v: S.Value, ty: S.TInd) -> SizeMap:
    """Constructor counts of a value of inductive type ty: its main
    constructors at ty, and at every other datatype the most that any one
    value of it at a constant position holds, as the size maps' join takes.
    Nested datatypes are closed, so ty never occurs inside its own
    constants and the two kinds of entry never meet.
    """
    counts: dict = {}
    roots = [(v, ty)]
    while roots:
        root, ind = roots.pop()
        functor = ind.functor
        n = 0
        stack = [(root, _REC)]
        pop, push = stack.pop, stack.append
        while stack:
            v, node = pop()
            cls = type(node)
            if cls is S.FRec:
                if not isinstance(v, S.VCons):
                    raise _uninhabited(v, node, ind)
                n += 1
                push((v.arg, functor))
            elif cls is S.FSum or cls is S.TSum:
                if not isinstance(v, S.VInj):
                    raise _uninhabited(v, node, ind)
                push((v.arg, node.left if v.index == 0 else node.right))
            elif cls is S.FProd or cls is S.TProd:
                if not isinstance(v, S.VPair):
                    raise _uninhabited(v, node, ind)
                push((v.left, node.left))
                push((v.right, node.right))
            elif cls is S.FConst:
                push((v, node.type))
            elif cls is S.TInd:
                roots.append((v, node))
            elif not isinstance(v, S.VUnit):
                raise _uninhabited(v, node, ind)
        delta = potential_type(ind)
        counts[delta] = max(counts.get(delta, 0), n)
    return SizeMap.of(counts)


# markers on the exact walk's stack: build from the results just made
_MK_PAIR, _MK_INJ, _MK_CONS = object(), object(), object()


def _exact_value(v: S.Value, ty: S.TInd) -> SemValue:
    """A value of inductive type ty as the exact model's XCons, XInj, SPair
    and SStar, built bottom-up from an explicit stack.
    """
    out: list = []
    stack = [(v, ty, ty)]  # (value, node, the datatype whose functor node is in)
    pop, push = stack.pop, stack.append
    while stack:
        v, node, ind = pop()
        if node is _MK_PAIR:
            right = out.pop()
            out[-1] = SPair(out[-1], right)
            continue
        if node is _MK_INJ:
            out[-1] = XInj(v, out[-1])
            continue
        if node is _MK_CONS:
            out[-1] = XCons(v, out[-1])
            continue
        cls = type(node)
        if cls is S.FRec or cls is S.TInd:
            if cls is S.TInd:
                ind = node
            if not isinstance(v, S.VCons):
                raise _uninhabited(v, node, ind)
            push((potential_type(ind), _MK_CONS, None))
            push((v.arg, ind.functor, ind))
        elif cls is S.FSum or cls is S.TSum:
            if not isinstance(v, S.VInj):
                raise _uninhabited(v, node, ind)
            push((v.index, _MK_INJ, None))
            push((v.arg, node.left if v.index == 0 else node.right, ind))
        elif cls is S.FProd or cls is S.TProd:
            if not isinstance(v, S.VPair):
                raise _uninhabited(v, node, ind)
            push((None, _MK_PAIR, None))
            push((v.right, node.right, ind))
            push((v.left, node.left, ind))
        elif cls is S.FConst:
            push((v, node.type, ind))
        elif isinstance(v, S.VUnit):
            out.append(SStar())
        else:
            raise _uninhabited(v, node, ind)
    return out[0]


MODEL_NAMES = ("exact", "size", "height", "allcons", "merged", "lower")


def make_model(name: str) -> Model:
    match name:
        case "exact":
            return ExactModel()
        case "size":
            return SizeHeightModel("size")
        case "height":
            return SizeHeightModel("height")
        case "allcons":
            return AllConsModel()
        case "merged":
            return MergedModel()
        case "lower":
            return LowerSizeModel()
    raise ModelError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
