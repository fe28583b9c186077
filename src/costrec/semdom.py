"""Semantic value domains shared by all models: extended naturals, size
maps, order ideals represented by antichains of maximal generators, pairs,
and (lazily joined) semantic functions.

Everything here is pure.  Values are slotted dataclasses, immutable by
convention: no code assigns a field after construction.  They are not
frozen because a frozen dataclass sets every field through
``object.__setattr__``: a two-field one takes about 0.8 us to build, 0.7 us
when also slotted, and 0.25 us when slotted alone (Python 3.11.7, 2-vCPU
Xeon virtual machine).  Each value compared by its fields keeps its hash in
a ``_hash`` slot (see ``value_class``).  Joins and meets on first-order data
are computed pointwise; joins and meets of functions are represented lazily.
Ideals store only function-free elements: the order on semantic functions is
not decidable, and the shipped models only place data inside sums.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional, Union


class SemError(Exception):
    pass


class UnsupportedFeature(SemError):
    """A construction the model cannot interpret (e.g. an arrow shape
    functor under size abstraction, or a function inside a sum).
    """


def value_class(cls):
    """``@dataclass(slots=True)`` for a value compared by its fields, with
    one more slot, ``_hash``, that keeps the value's hash once computed.
    The hash is ``hash`` of the tuple of compared fields, the one the
    generated dataclass hash gives, so set and dict order and every printed
    bound are those of a frozen dataclass.  A child's hash is itself kept,
    so hashing a tree visits each node once in its lifetime.  Sound only
    because no code assigns a compared field after construction.
    """
    cls.__annotations__["_hash"] = "Optional[int]"
    cls._hash = field(default=None, init=False, compare=False, repr=False)
    cls = dataclass(slots=True)(cls)
    names = [f.name for f in fields(cls) if f.compare]
    get = operator.attrgetter(*names)
    key = get if len(names) > 1 else lambda v: (get(v),)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(key(self))
        return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Extended naturals
# ---------------------------------------------------------------------------


@functools.total_ordering
@value_class
class ExtNat:
    """A natural number or infinity (value None means infinity)."""

    value: Optional[int]

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise SemError("extended naturals are non-negative")

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __add__(self, other: "ExtNat") -> "ExtNat":
        a, b = self.value, other.value
        if a is None or b is None:
            return INF
        return ExtNat(a + b)

    def __le__(self, other: "ExtNat") -> bool:
        b = other.value
        if b is None:
            return True
        a = self.value
        return a is not None and a <= b

    def max(self, other: "ExtNat") -> "ExtNat":
        return other if self <= other else self

    def min(self, other: "ExtNat") -> "ExtNat":
        return self if self <= other else other

    def __str__(self):
        return "inf" if self.is_inf else str(self.value)


INF = ExtNat(None)
ZERO = ExtNat(0)
ONE = ExtNat(1)


def ext(n: Union[int, ExtNat, None]) -> ExtNat:
    if isinstance(n, ExtNat):
        return n
    return ExtNat(n)


# ---------------------------------------------------------------------------
# Size maps (all-constructors potentials)
# ---------------------------------------------------------------------------


@value_class
class SizeMap:
    """A finite map from datatype identity (a closed inductive recurrence
    type) to an extended natural, defaulting to 0.  Zero entries are not
    stored, so equality is canonical.
    """

    entries: frozenset = frozenset()  # of (RecType, ExtNat) pairs
    # the entries as a dict, built on first lookup
    _dict: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def of(mapping: dict) -> "SizeMap":
        return SizeMap(frozenset((k, n) for k, v in mapping.items() if (n := ext(v)).value != 0))

    def _lookup(self) -> dict:
        d = self._dict
        if d is None:
            d = self._dict = dict(self.entries)
        return d

    def get(self, delta) -> ExtNat:
        return self._lookup().get(delta, ZERO)

    def set(self, delta, n: ExtNat) -> "SizeMap":
        d = dict(self._lookup())
        d[delta] = n
        return SizeMap.of(d)

    def pointwise(self, other: "SizeMap", op) -> "SizeMap":
        a, b = self._lookup(), other._lookup()
        return SizeMap.of({k: op(a.get(k, ZERO), b.get(k, ZERO)) for k in a.keys() | b.keys()})

    def join(self, other: "SizeMap") -> "SizeMap":
        return self.pointwise(other, lambda a, b: a.max(b))

    def meet(self, other: "SizeMap") -> "SizeMap":
        return self.pointwise(other, lambda a, b: a.min(b))

    def add(self, other: "SizeMap") -> "SizeMap":
        return self.pointwise(other, lambda a, b: a + b)

    def leq(self, other: "SizeMap") -> bool:
        # a key only the other map holds is 0 here, below anything
        b = other._lookup()
        return all(v <= b.get(k, ZERO) for k, v in self._lookup().items())

    def __str__(self):
        from .rec_lang import pretty_rec_type

        items = sorted(
            ((pretty_rec_type(k), str(v)) for k, v in self.entries), key=lambda p: p[0]
        )
        inner = ", ".join(f"{k}: {v}" for k, v in items)
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Semantic values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SStar:
    """The unit value."""

    def __str__(self):
        return "*"


@value_class
class SNum:
    """A number in a cost or size position; the kind fixes the bottom
    element (0 for costs, 1 for sizes).
    """

    kind: str  # 'cost' | 'size'
    num: ExtNat

    def __str__(self):
        return str(self.num)


@value_class
class SMap:
    sizemap: SizeMap

    def __str__(self):
        return str(self.sizemap)


@value_class
class SPair:
    left: "SemValue"
    right: "SemValue"

    def __str__(self):
        return f"({self.left}, {self.right})"


@value_class
class SIdeal:
    """An order ideal in O(A + B), represented by antichains of maximal
    generators for each side.  The denoted ideal is the downward closure.
    """

    left: tuple = ()
    right: tuple = ()

    def __str__(self):
        ls = ", ".join(str(v) for v in self.left)
        rs = ", ".join(str(v) for v in self.right)
        return "{" + ls + "}⊔{" + rs + "}"


@dataclass(slots=True, eq=False)
class SFun:
    """A monotone semantic function.  Compared by identity; joins and meets
    of functions are built lazily.
    """

    fn: Callable[["SemValue"], "SemValue"]

    def __call__(self, a: "SemValue") -> "SemValue":
        return self.fn(a)

    def __str__(self):
        return "<fun>"


@dataclass(slots=True, eq=False)
class SPoly:
    """A type-indexed family of semantic values (the denotation of a type
    abstraction); instantiation is memoized per closed type argument.
    """

    fn: Callable[[object], "SemValue"]
    _cache: dict = field(default_factory=dict, compare=False)

    def at(self, ty) -> "SemValue":
        if ty not in self._cache:
            self._cache[ty] = self.fn(ty)
        return self._cache[ty]

    def __str__(self):
        return "<polyfun>"


@value_class
class XCons:
    """Exact-model inductive value: a constructor applied to data."""

    delta: object  # closed inductive RecType
    arg: "SemValue"

    def __str__(self):
        return f"cons({self.arg})"


@value_class
class XInj:
    """Exact-model sum value."""

    index: int
    arg: "SemValue"

    def __str__(self):
        return f"inj{self.index} {self.arg}"


SemValue = Union[SStar, SNum, SMap, SPair, SIdeal, SFun, SPoly, XCons, XInj]


def is_function_free(v: SemValue) -> bool:
    match v:
        case SStar() | SNum() | SMap():
            return True
        case SPair(l, r):
            return is_function_free(l) and is_function_free(r)
        case SIdeal(l, r):
            return all(is_function_free(x) for x in l + r)
        case XCons(_, a) | XInj(_, a):
            return is_function_free(a)
        case SFun() | SPoly():
            return False
    raise SemError(f"not a semantic value: {v!r}")


# ---------------------------------------------------------------------------
# The preorder
# ---------------------------------------------------------------------------


def sem_leq(a: SemValue, b: SemValue) -> bool:
    """The size order on representable (function-free) values."""
    match (a, b):
        case (SStar(), SStar()):
            return True
        case (SNum(_, x), SNum(_, y)):
            return x <= y
        case (SMap(x), SMap(y)):
            return x.leq(y)
        case (SPair(l1, r1), SPair(l2, r2)):
            return sem_leq(l1, l2) and sem_leq(r1, r2)
        case (SIdeal(l1, r1), SIdeal(l2, r2)):
            return _gens_leq(l1, l2) and _gens_leq(r1, r2)
        case (XCons(d1, x), XCons(d2, y)):
            return d1 == d2 and sem_leq(x, y)  # exact order: equality
        case (XInj(i, x), XInj(j, y)):
            return i == j and sem_leq(x, y)
    if isinstance(a, (SFun, SPoly)) or isinstance(b, (SFun, SPoly)):
        raise UnsupportedFeature("the order on semantic functions is not decidable")
    raise SemError(f"incomparable semantic values: {a} vs {b}")


def _gens_leq(xs: tuple, ys: tuple) -> bool:
    return all(any(sem_leq(x, y) for y in ys) for x in xs)


# ---------------------------------------------------------------------------
# Antichains and ideals
# ---------------------------------------------------------------------------


def antichain(items: Iterable[SemValue]) -> tuple:
    """Prune dominated generators, keeping the maximal ones (first of any
    equal pair wins) sorted by their printed form.  Generators whose ideals
    are canonical (see ``canonical``) give the canonical antichain.

    Generators containing functions are kept unpruned: the order on
    functions is not decidable, and an unpruned generator set denotes the
    same ideal.
    """
    items = tuple(items)
    if len(items) < 2 or not all(is_function_free(x) for x in items):
        return items
    # a later copy of a generator is always dominated by what the pass below
    # has kept, so dropping copies first (keeping the first) changes nothing
    out: list[SemValue] = []
    for x in dict.fromkeys(items):
        if any(sem_leq(x, y) for y in out):
            continue
        out = [y for y in out if not sem_leq(y, x)]
        out.append(x)
    return tuple(sorted(out, key=str))


def canonical(v: SemValue) -> SemValue:
    """``v`` with every ideal inside its pairs and ideals pruned to the
    antichain of its maximal generators, in ``antichain``'s order.  Values
    that denote the same ideals get the same canonical form, so it is taken
    where a value is stored, keyed or printed; everywhere else dominated
    generators are harmless.  Returns ``v`` itself when it is canonical.
    """
    match v:
        case SPair(l, r):
            cl, cr = canonical(l), canonical(r)
            return v if cl is l and cr is r else SPair(cl, cr)
        case SIdeal(l, r):
            cl, cr = _canonical_gens(l), _canonical_gens(r)
            return v if cl is l and cr is r else SIdeal(cl, cr)
    return v


def _canonical_gens(gens: tuple) -> tuple:
    out = antichain(canonical(g) for g in gens)
    return gens if out == gens else out


def ideal_inj(index: int, v: SemValue) -> SIdeal:
    return SIdeal((v,), ()) if index == 0 else SIdeal((), (v,))


def ideal_join(ideals: Iterable[SIdeal]) -> SIdeal:
    ls: list[SemValue] = []
    rs: list[SemValue] = []
    for i in ideals:
        ls.extend(i.left)
        rs.extend(i.right)
    return SIdeal(antichain(ls), antichain(rs))


def ideal_meet(a: SIdeal, b: SIdeal) -> SIdeal:
    """Intersection of downward closures: pairwise meets of generators."""
    ls = [sem_meet_val(x, y) for x in a.left for y in b.left]
    rs = [sem_meet_val(x, y) for x in a.right for y in b.right]
    return SIdeal(antichain(ls), antichain(rs))


def ideal_case(x: SIdeal, f0, f1, empty: SemValue) -> SemValue:
    """Eliminate a sum ideal: the join of the branch functions over the
    generators of each side.  Valid for monotone branches, where the
    supremum over a downward-closed set is attained on its generators; the
    empty join is the supplied bottom element.
    """
    images = [f0(g) for g in x.left] + [f1(g) for g in x.right]
    if not images:
        return empty
    return sem_join_vals(images)


# ---------------------------------------------------------------------------
# Joins and meets
# ---------------------------------------------------------------------------


def sem_join_vals(vals: list[SemValue]) -> SemValue:
    """Least upper bound of a non-empty list of values of one semantic
    type.  Function joins are lazy (pointwise).
    """
    if not vals:
        raise SemError("empty join needs a type to supply the bottom element")
    out = vals[0]
    for v in vals[1:]:
        out = _join2(out, v)
    return out


def _join2(a: SemValue, b: SemValue) -> SemValue:
    match (a, b):
        case (SStar(), SStar()):
            return a
        case (SNum(k, x), SNum(_, y)):
            return SNum(k, x.max(y))
        case (SMap(x), SMap(y)):
            return SMap(x.join(y))
        case (SPair(l1, r1), SPair(l2, r2)):
            return SPair(_join2(l1, l2), _join2(r1, r2))
        case (SIdeal(), SIdeal()):
            return ideal_join([a, b])
        case (SFun(), SFun()):
            return SFun(lambda z, f=a, g=b: _join2(f(z), g(z)))
        case (SPoly(), SPoly()):
            return SPoly(lambda ty, f=a, g=b: _join2(f.at(ty), g.at(ty)))
    raise SemError(f"cannot join {a} with {b}")


def sem_meet_val(a: SemValue, b: SemValue) -> SemValue:
    match (a, b):
        case (SStar(), SStar()):
            return a
        case (SNum(k, x), SNum(_, y)):
            return SNum(k, x.min(y))
        case (SMap(x), SMap(y)):
            return SMap(x.meet(y))
        case (SPair(l1, r1), SPair(l2, r2)):
            return SPair(sem_meet_val(l1, l2), sem_meet_val(r1, r2))
        case (SIdeal(), SIdeal()):
            return ideal_meet(a, b)
        case (SFun(), SFun()):
            return SFun(lambda z, f=a, g=b: sem_meet_val(f(z), g(z)))
        case (SPoly(), SPoly()):
            return SPoly(lambda ty, f=a, g=b: sem_meet_val(f.at(ty), g.at(ty)))
    raise SemError(f"cannot meet {a} with {b}")


def sem_meet_vals(vals: list[SemValue]) -> SemValue:
    if not vals:
        raise SemError("empty meet needs a type to supply the top element")
    out = vals[0]
    for v in vals[1:]:
        out = sem_meet_val(out, v)
    return out
