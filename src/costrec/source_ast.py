"""Abstract syntax, concrete syntax, and type-level substitution for the
source language: a higher-order functional language with let polymorphism,
inductive datatypes, structural fold, and suspensions.

The surface syntax (``.src`` files) is keyword based:

* ``--`` starts a line comment.
* ``type NAME<vars> = mu t. F;`` declares a datatype.  ``F`` is either a raw
  shape functor (``unit + a * t``) or a sum of named constructors
  (``nil | cons(a, t)``).
* ``let NAME = e;`` binds a top-level definition, ``main = e;`` is optional.
* Sugar: numerals ``#3``, ``true``/``false``, ``LT``/``EQ``/``GT``,
  ``if``/``caseorder``, constructor application ``node(x, l, r)``, and
  per-datatype folds ``foldtree[a] e of emp => e0 | node(x,r0,r1) => e1 : T``.

All sugar is desugared at parse time; the AST below is the core language
(plus ``map``/``mapv``, which only the evaluator constructs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

_fresh_counter = itertools.count()


def gensym(base: str = "x") -> str:
    """A name that cannot clash with surface identifiers (no dots there)."""
    return f"{base}.{next(_fresh_counter)}"


class SourceError(Exception):
    """Syntax or scoping error in a source program, with a position."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Memos kept on the objects they describe
# ---------------------------------------------------------------------------


def type_memo(ty, slot: str, compute):
    """``compute(ty)``, remembered in ``ty``'s own ``__dict__`` (as
    ``functools.cached_property`` does), so the memo dies with the type (or
    other immutable node: a shape functor, a recurrence term).  Frozen
    dataclasses allow this: the slot is not a field, so it takes no part in
    equality, hashing or printing.

    A fact of the tree itself is sound to keep whatever happens to the
    unification holes: the checker's ``_meta_free`` (no ``TMeta`` node
    below), and a recurrence term's free variables (``_fv``) and occurrence
    counts (``_occ``), which hold no holes.  A fact that reads through a
    hole's solution is sound only once the holes cannot change: every type
    after checking holds none, and ``free_tyvars`` keeps its ``_ftv`` only on
    a type without holes.

    The simplifier keeps one fact the same way without ``type_memo``: it
    marks each normal form it returns with ``_normal``, so a marked subterm
    that a substitution or rewrite hands back untouched is not walked again.
    The mark is a flag, not a pointer to the normal form: a memo that held
    a node would make the tree a graph (a normal form pointing to itself),
    and a walk over a node's ``__dict__`` would not end.
    """
    memo = ty.__dict__
    if slot not in memo:
        memo[slot] = compute(ty)
    return memo[slot]


def hash_once(cls):
    """Class decorator for the frozen dataclasses of types, shape functors
    and recurrence terms, which are hashed often: the generated structural
    hash, computed once per instance and kept with ``type_memo``.  Equality
    and the hash values are unchanged; a child's hash is itself cached, so
    hashing a tree visits each node once in its lifetime.  (Semantic values
    keep theirs in a slot: see ``semdom.value_class``.)
    """
    structural = cls.__hash__

    def __hash__(self):
        return type_memo(self, "_hash", structural)

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Types and shape functors
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class TVar:
    name: str


@hash_once
@dataclass(frozen=True)
class TUnit:
    pass


@hash_once
@dataclass(frozen=True)
class TProd:
    left: "SrcType"
    right: "SrcType"


@hash_once
@dataclass(frozen=True)
class TSum:
    left: "SrcType"
    right: "SrcType"


@hash_once
@dataclass(frozen=True)
class TArrow:
    dom: "SrcType"
    cod: "SrcType"


@hash_once
@dataclass(frozen=True)
class TSusp:
    body: "SrcType"


@hash_once
@dataclass(frozen=True)
class TInd:
    """An inductive type ``mu t. F``.

    ``label`` is a display hint (e.g. ``list<nat>``) and does not take part
    in equality: inductive types are compared structurally.
    """

    functor: "ShapeFunctor"
    label: Optional[str] = field(default=None, compare=False, hash=False)


SrcType = Union[TVar, TUnit, TProd, TSum, TArrow, TSusp, TInd]


@hash_once
@dataclass(frozen=True)
class FRec:
    """The distinguished recursion variable ``t`` of a shape functor."""


@hash_once
@dataclass(frozen=True)
class FConst:
    type: SrcType


@hash_once
@dataclass(frozen=True)
class FProd:
    left: "ShapeFunctor"
    right: "ShapeFunctor"


@hash_once
@dataclass(frozen=True)
class FSum:
    left: "ShapeFunctor"
    right: "ShapeFunctor"


@hash_once
@dataclass(frozen=True)
class FArrow:
    dom: SrcType  # the recursion variable may not occur in the domain
    body: "ShapeFunctor"


ShapeFunctor = Union[FRec, FConst, FProd, FSum, FArrow]


@dataclass(frozen=True)
class TypeScheme:
    bound: tuple[str, ...]
    body: SrcType


def subst_shape(f: ShapeFunctor, ty: SrcType) -> SrcType:
    """``F[ty]``: substitute ``ty`` for the recursion variable and read the
    functor as a type.  Capture is impossible: ``t`` is not a type variable.
    """
    match f:
        case FRec():
            return ty
        case FConst(t):
            return t
        case FProd(l, r):
            return TProd(subst_shape(l, ty), subst_shape(r, ty))
        case FSum(l, r):
            return TSum(subst_shape(l, ty), subst_shape(r, ty))
        case FArrow(dom, body):
            return TArrow(dom, subst_shape(body, ty))
    raise TypeError(f"not a shape functor: {f!r}")


def type_parts(x) -> tuple:
    """The child types and shape functors of a type or shape functor."""
    match x:
        case TProd(l, r) | TSum(l, r) | TArrow(l, r) | FProd(l, r) | FSum(l, r) | FArrow(l, r):
            return (l, r)
        case TInd(b, _) | FConst(b) | TSusp(b):
            return (b,)
        case TVar() | TUnit() | FRec():
            return ()
    raise TypeError(f"not a type or shape functor: {x!r}")


def subst_tyvars(ty: SrcType, mapping: dict[str, SrcType]) -> SrcType:
    """Substitute for free type variables.  Types have no variable binders
    (schemes are kept separate), so no renaming is needed.  A part that holds
    none of the mapped variables is returned itself, with its memos.
    """
    if mapping.keys().isdisjoint(free_tyvars(ty)):
        return ty
    match ty:
        case TVar(a):
            return mapping[a]
        case TProd(l, r):
            return TProd(subst_tyvars(l, mapping), subst_tyvars(r, mapping))
        case TSum(l, r):
            return TSum(subst_tyvars(l, mapping), subst_tyvars(r, mapping))
        case TArrow(d, c):
            return TArrow(subst_tyvars(d, mapping), subst_tyvars(c, mapping))
        case TSusp(b):
            return TSusp(subst_tyvars(b, mapping))
        case TInd(f, label):
            return TInd(subst_shape_tyvars(f, mapping), label)
    # a solved hole (``typecheck.TMeta``) stands for its solution
    return subst_tyvars(ty.cell.solution, mapping)


def subst_shape_tyvars(f: ShapeFunctor, mapping: dict[str, SrcType]) -> ShapeFunctor:
    if mapping.keys().isdisjoint(free_tyvars(f)):
        return f
    match f:
        case FConst(t):
            return FConst(subst_tyvars(t, mapping))
        case FProd(l, r):
            return FProd(subst_shape_tyvars(l, mapping), subst_shape_tyvars(r, mapping))
        case FSum(l, r):
            return FSum(subst_shape_tyvars(l, mapping), subst_shape_tyvars(r, mapping))
        case FArrow(d, b):
            return FArrow(subst_tyvars(d, mapping), subst_shape_tyvars(b, mapping))
    raise TypeError(f"not a shape functor: {f!r}")


def free_tyvars(ty) -> frozenset[str]:
    """The type variables of a type or shape functor, kept on it under
    ``_ftv``.  A hole (``typecheck.TMeta``) stands for its solution, and an
    unsolved one holds none: holes are never generalized.  A solution can
    still change, so a type that holds a hole keeps no memo and is walked
    again each time.
    """
    memo = ty.__dict__.get("_ftv")
    if memo is not None:
        return memo
    if isinstance(ty, TVar):
        out = frozenset((ty.name,))
    elif hasattr(ty, "cell"):
        solution = ty.cell.solution
        return frozenset() if solution is None else free_tyvars(solution)
    else:
        parts = type_parts(ty)
        out = frozenset().union(*map(free_tyvars, parts))
        if not all("_ftv" in p.__dict__ for p in parts):
            return out  # a part holds a hole
    ty.__dict__["_ftv"] = out
    return out


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SrcExpr:
    """Base class; nodes compare by identity.
    Type checking sets attributes that are not fields: ``ty`` on each node,
    ``instantiation`` on a ``Var`` and ``generalized`` on a ``Let``.
    """

    def __post_init__(self):
        pass


def _pos_field():
    return field(default=None, compare=False, hash=False, repr=False)


@dataclass(frozen=True, eq=False)
class Var(SrcExpr):
    name: str
    inst: Optional[tuple[SrcType, ...]] = None  # explicit instantiation x[ty,..]
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Unit(SrcExpr):
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Pair(SrcExpr):
    left: SrcExpr
    right: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Proj(SrcExpr):
    index: int
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Inj(SrcExpr):
    index: int
    annotation: SrcType  # the full sum type
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Case(SrcExpr):
    scrutinee: SrcExpr
    binder0: str
    branch0: SrcExpr
    binder1: str
    branch1: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Lam(SrcExpr):
    binder: str
    annotation: SrcType
    body: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class App(SrcExpr):
    fn: SrcExpr
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Delay(SrcExpr):
    body: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Force(SrcExpr):
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Cons(SrcExpr):
    annotation: SrcType  # the inductive type being constructed
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Dest(SrcExpr):
    annotation: SrcType
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Fold(SrcExpr):
    annotation: SrcType  # the inductive type folded over
    scrutinee: SrcExpr
    binder: str
    body: SrcExpr
    result_annotation: SrcType
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class Let(SrcExpr):
    binder: str
    bound: SrcExpr
    body: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


@dataclass(frozen=True, eq=False)
class MapE(SrcExpr):
    """``map_F (y. v) e`` — machine generated, never written by users."""

    functor: ShapeFunctor
    binder: str
    fn_value: "Value"
    arg: SrcExpr
    pos: Optional[tuple[int, int]] = _pos_field()


# ---------------------------------------------------------------------------
# Values and value environments
# ---------------------------------------------------------------------------


class ValueEnv:
    """Persistent map from names to values (a linked chain of frames)."""

    __slots__ = ("frame", "parent")

    def __init__(self, frame: Optional[dict] = None, parent: Optional["ValueEnv"] = None):
        self.frame = frame or {}
        self.parent = parent

    def lookup(self, name: str) -> "Value":
        env: Optional[ValueEnv] = self
        while env is not None:
            if name in env.frame:
                return env.frame[name]
            env = env.parent
        raise KeyError(name)

    def extend(self, name: str, value: "Value") -> "ValueEnv":
        return ValueEnv({name: value}, self)

    def flatten(self) -> dict:
        out: dict = {}
        frames = []
        env: Optional[ValueEnv] = self
        while env is not None:
            frames.append(env.frame)
            env = env.parent
        for frame in reversed(frames):
            out.update(frame)
        return out

    def __repr__(self):
        return f"ValueEnv({self.flatten()!r})"


EMPTY_ENV = ValueEnv()


@dataclass(slots=True, eq=False)
class Value:
    pass


@dataclass(slots=True, eq=False)
class VUnit(Value):
    pass


@dataclass(slots=True, eq=False)
class VPair(Value):
    left: Value
    right: Value


@dataclass(slots=True, eq=False)
class VInj(Value):
    index: int
    arg: Value


@dataclass(slots=True, eq=False)
class VLamClo(Value):
    lam: Lam
    env: ValueEnv


@dataclass(slots=True, eq=False)
class VDelayClo(Value):
    expr: SrcExpr
    env: ValueEnv


@dataclass(slots=True, eq=False)
class VCons(Value):
    annotation: SrcType
    arg: Value
    # its potentials in the models, filled once by the first model that
    # embeds it (``models.value_potential``)
    _embedding: object = field(default=None, init=False, repr=False)


# ---------------------------------------------------------------------------
# Datatype declarations and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CtorInfo:
    name: str
    index: int  # 0 or 1: which injection of the top-level sum
    arg_functors: tuple[ShapeFunctor, ...]  # () for nullary constructors


@dataclass(frozen=True)
class DataDecl:
    name: str
    params: tuple[str, ...]
    functor: ShapeFunctor  # with params free as type variables
    ctors: tuple[CtorInfo, ...] = ()

    def instantiate(self, args: tuple[SrcType, ...]) -> TInd:
        if len(args) != len(self.params):
            raise SourceError(
                f"datatype {self.name} expects {len(self.params)} argument(s), got {len(args)}"
            )
        mapping = dict(zip(self.params, args))
        label = self.name
        if args:
            label += "<" + ", ".join(pretty_type(t) for t in args) + ">"
        return TInd(subst_shape_tyvars(self.functor, mapping), label)


def _std_decls() -> dict[str, DataDecl]:
    t = FRec()
    nat = DataDecl(
        "nat",
        (),
        FSum(FConst(TUnit()), t),
        (CtorInfo("Z", 0, ()), CtorInfo("S", 1, (t,))),
    )
    lst = DataDecl(
        "list",
        ("a",),
        FSum(FConst(TUnit()), FProd(FConst(TVar("a")), t)),
        (CtorInfo("nil", 0, ()), CtorInfo("cons", 1, (FConst(TVar("a")), t))),
    )
    tree = DataDecl(
        "tree",
        ("a",),
        FSum(FConst(TUnit()), FProd(FProd(FConst(TVar("a")), t), t)),
        (CtorInfo("emp", 0, ()), CtorInfo("node", 1, (FConst(TVar("a")), t, t))),
    )
    return {"nat": nat, "list": lst, "tree": tree}


BOOL = TSum(TUnit(), TUnit())  # false = inj0 (), true = inj1 ()
ORDER = TSum(TSum(TUnit(), TUnit()), TUnit())  # LT, EQ, GT

# the standard declarations that printing names constructors by; the parser
# takes a fresh copy of its own
_STD_DECLS = _std_decls()

NAT_TYPE = _STD_DECLS["nat"].instantiate(())


def numeral(n: int) -> SrcExpr:
    """The source numeral: n nested successors around zero."""
    f_nat = NAT_TYPE.functor
    unfolded = subst_shape(f_nat, NAT_TYPE)
    e: SrcExpr = Cons(NAT_TYPE, Inj(0, unfolded, Unit()))
    for _ in range(n):
        e = Cons(NAT_TYPE, Inj(1, unfolded, e))
    return e


def numeral_value(n: int) -> Value:
    v: Value = VCons(NAT_TYPE, VInj(0, VUnit()))
    for _ in range(n):
        v = VCons(NAT_TYPE, VInj(1, v))
    return v


@dataclass
class Program:
    datatypes: dict[str, DataDecl]
    bindings: list[tuple[str, SrcExpr]]
    main: Optional[SrcExpr] = None

    def binding(self, name: str) -> SrcExpr:
        for n, e in self.bindings:
            if n == name:
                return e
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "fn", "let", "in", "case", "of", "with", "type", "mu", "main",
    "delay", "force", "cons", "dest", "fold", "unit", "susp",
    "inj0", "inj1", "pi0", "pi1", "if", "then", "else",
    "true", "false", "LT", "EQ", "GT", "caseorder", "bool", "order",
}

_PUNCT = ["=>", "->", "--", "(", ")", "[", "]", "{", "}", "<", ">",
          ",", ";", ":", ".", "|", "*", "+", "=", "#"]


@dataclass
class Token:
    kind: str  # 'id', 'num', 'punct', 'eof'
    text: str
    line: int
    col: int


def _lex(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(Token("id", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():  # exactly the digits int() reads; not isdigit's '²'
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(Token("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i) and p != "--":
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise SourceError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, datatypes: Optional[dict[str, DataDecl]] = None):
        self.toks = _lex(text)
        self.pos = 0
        self.datatypes = dict(datatypes if datatypes is not None else _std_decls())
        self.ctors: dict[str, tuple[str, CtorInfo]] = {}
        self._mu_stack: list[str] = []
        for dname, decl in self.datatypes.items():
            for c in decl.ctors:
                self.ctors[c.name] = (dname, c)

    # -- token helpers -----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise SourceError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def at(self, text: str, k: int = 0) -> bool:
        return self.peek(k).text == text

    def err(self, msg: str) -> SourceError:
        t = self.peek()
        return SourceError(msg, t.line, t.col)

    # -- types --------------------------------------------------------------

    def parse_type(self, tvar: Optional[str] = None) -> SrcType:
        # tvar: name of the mu-bound recursion variable, when parsing a functor body
        left = self.parse_type_sum(tvar)
        if self.at("->"):
            self.next()
            right = self.parse_type(tvar)
            return TArrow(left, right)
        return left

    def parse_type_sum(self, tvar) -> SrcType:
        left = self.parse_type_prod(tvar)
        while self.at("+"):
            self.next()
            right = self.parse_type_prod(tvar)
            left = TSum(left, right)
        return left

    def parse_type_prod(self, tvar) -> SrcType:
        left = self.parse_type_atom(tvar)
        while self.at("*"):
            self.next()
            right = self.parse_type_atom(tvar)
            left = TProd(left, right)
        return left

    def parse_type_atom(self, tvar) -> SrcType:
        t = self.peek()
        if t.text == "(":
            self.next()
            ty = self.parse_type(tvar)
            self.expect(")")
            return ty
        if t.text == "unit":
            self.next()
            return TUnit()
        if t.text == "bool":
            self.next()
            return BOOL
        if t.text == "order":
            self.next()
            return ORDER
        if t.text == "susp":
            self.next()
            return TSusp(self.parse_type_atom(tvar))
        if t.text == "mu":
            self.next()
            var = self.next().text
            self.expect(".")
            outer = self._mu_stack
            self._mu_stack = outer + [var]
            try:
                f, _ = self.parse_functor_body(var)
            finally:
                self._mu_stack = outer
            return TInd(f)
        if t.kind == "id":
            self.next()
            if tvar is not None and t.text == tvar and self._mu_stack[-1:] == [tvar]:
                # only meaningful inside a functor body; callers re-wrap
                return TVar(f"~rec~{tvar}")
            if t.text in self._mu_stack[:-1] or (
                t.text in self._mu_stack and tvar != t.text
            ):
                raise SourceError(
                    "simultaneous nested datatype definitions are not allowed "
                    f"(recursion variable {t.text} crosses a nested mu)",
                    t.line, t.col,
                )
            if t.text in self.datatypes:
                decl = self.datatypes[t.text]
                args: tuple[SrcType, ...] = ()
                if self.at("<"):
                    self.next()
                    items = [self.parse_type(tvar)]
                    while self.at(","):
                        self.next()
                        items.append(self.parse_type(tvar))
                    self.expect(">")
                    args = tuple(items)
                try:
                    return decl.instantiate(args)
                except SourceError as exc:
                    raise SourceError(exc.msg, t.line, t.col) from None
            return TVar(t.text)
        raise SourceError(f"expected a type, found {t.text!r}", t.line, t.col)

    def parse_functor_body(self, tvar: str) -> tuple[ShapeFunctor, tuple[CtorInfo, ...]]:
        """Body of ``mu t. ...``: either named constructors or a raw functor."""
        # Constructor-sum form: ID ... '|' ID ... at this nesting level.
        save = self.pos
        if self.peek().kind == "id" and self._looks_like_ctors():
            return self.parse_ctor_sum(tvar)
        self.pos = save
        ty = self.parse_type(tvar)
        return _type_to_functor(ty, tvar), ()

    def _looks_like_ctors(self) -> bool:
        # Scan ahead at depth 0 for a '|' before the terminating ';' or eof.
        depth = 0
        k = 0
        while True:
            t = self.peek(k)
            if t.kind == "eof" or (depth == 0 and t.text in (";", ":")):
                return False
            if t.text in ("(", "[", "<"):
                depth += 1
            elif t.text in (")", "]", ">"):
                depth -= 1
            elif t.text == "|" and depth == 0:
                return True
            k += 1

    def parse_ctor_sum(self, tvar: str) -> tuple[ShapeFunctor, tuple[CtorInfo, ...]]:
        branches = [self.parse_ctor_branch(tvar)]
        while self.at("|"):
            self.next()
            branches.append(self.parse_ctor_branch(tvar))
        if len(branches) != 2:
            raise self.err("datatype declarations take exactly two constructors")
        ctors = []
        functors = []
        for i, (name, args) in enumerate(branches):
            ctors.append(CtorInfo(name, i, tuple(args)))
            if not args:
                functors.append(FConst(TUnit()))
            else:
                f = args[0]
                for a in args[1:]:
                    f = FProd(f, a)
                functors.append(f)
        return FSum(functors[0], functors[1]), tuple(ctors)

    def parse_ctor_branch(self, tvar: str) -> tuple[str, list[ShapeFunctor]]:
        name = self.next()
        if name.kind != "id":
            raise SourceError("expected a constructor name", name.line, name.col)
        args: list[ShapeFunctor] = []
        if self.at("("):
            self.next()
            args.append(_type_to_functor(self.parse_type(tvar), tvar))
            while self.at(","):
                self.next()
                args.append(_type_to_functor(self.parse_type(tvar), tvar))
            self.expect(")")
        return name.text, args

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> SrcExpr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.text == "fn":
            self.next()
            self.expect("(")
            x = self.next().text
            self.expect(":")
            ann = self.parse_type()
            self.expect(")")
            self.expect("=>")
            body = self.parse_expr()
            return Lam(x, ann, body, pos=pos)
        if t.text == "let":
            self.next()
            x = self.next().text
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(x, bound, body, pos=pos)
        if t.text == "case":
            self.next()
            scrut = self.parse_expr()
            self.expect("of")
            x0 = self.next().text
            self.expect("=>")
            b0 = self.parse_expr()
            self.expect("|")
            x1 = self.next().text
            self.expect("=>")
            b1 = self.parse_expr()
            return Case(scrut, x0, b0, x1, b1, pos=pos)
        if t.text == "caseorder":
            return self.parse_caseorder()
        if t.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            other = self.parse_expr()
            w = gensym("w")
            return Case(cond, w, other, w, then, pos=pos)
        if t.text == "fold":
            self.next()
            self.expect("[")
            ann = self.parse_type()
            self.expect("]")
            scrut = self.parse_expr()
            self.expect("with")
            x = self.next().text
            self.expect("=>")
            body = self.parse_expr()
            self.expect(":")
            res = self.parse_type()
            return Fold(ann, scrut, x, body, res, pos=pos)
        if t.kind == "id" and t.text.startswith("fold") and t.text[4:] in self.datatypes:
            return self.parse_fold_sugar(t.text[4:])
        return self.parse_app()

    def parse_caseorder(self) -> SrcExpr:
        pos = (self.peek().line, self.peek().col)
        self.next()
        scrut = self.parse_expr()
        self.expect("of")
        branches = {}
        for i, tag in enumerate(("LT", "EQ", "GT")):
            if i:
                self.expect("|")
            self.expect(tag)
            self.expect("=>")
            branches[tag] = self.parse_expr()
        w, u = gensym("w"), gensym("u")
        inner = Case(Var(w), u, branches["LT"], u, branches["EQ"])
        return Case(scrut, w, inner, w, branches["GT"], pos=pos)

    def parse_fold_sugar(self, dtname: str) -> SrcExpr:
        """``foldtree[a] e of emp => e0 | node(x,r0,r1) => e1 : T`` desugars to
        a fold whose body cases on the unfolded value and projects the
        constructor arguments (recursive positions arrive suspended).
        """
        decl = self.datatypes[dtname]
        tok = self.next()
        pos = (tok.line, tok.col)
        if not decl.ctors:
            raise SourceError(f"datatype {dtname} has no named constructors", *pos)
        args: tuple[SrcType, ...] = ()
        if self.at("["):
            self.next()
            items = [self.parse_type()]
            while self.at(","):
                self.next()
                items.append(self.parse_type())
            self.expect("]")
            args = tuple(items)
        delta = decl.instantiate(args)
        scrut = self.parse_expr()
        self.expect("of")
        branches: dict[str, tuple[list[str], SrcExpr]] = {}
        for i in range(2):
            if i:
                self.expect("|")
            cname = self.next().text
            binders: list[str] = []
            if self.at("("):
                self.next()
                binders.append(self.next().text)
                while self.at(","):
                    self.next()
                    binders.append(self.next().text)
                self.expect(")")
            self.expect("=>")
            branches[cname] = (binders, self.parse_expr())
        self.expect(":")
        res = self.parse_type()

        w = gensym("w")
        y = gensym("y")
        branch_exprs = []
        for ctor in decl.ctors:
            if ctor.name not in branches:
                raise SourceError(f"missing branch for constructor {ctor.name}", *pos)
            binders, body = branches[ctor.name]
            if len(binders) != len(ctor.arg_functors):
                raise SourceError(
                    f"constructor {ctor.name} takes {len(ctor.arg_functors)} argument(s)", *pos
                )
            # bind the constructor arguments via (left-nested) projections of y
            for j, b in enumerate(binders):
                body = Let(b, _project(Var(y), j, len(binders)), body)
            branch_exprs.append(body)  # a nullary branch leaves y unused
        case = Case(Var(w), y, branch_exprs[0], y, branch_exprs[1])
        return Fold(delta, scrut, w, case, res, pos=pos)

    def parse_app(self) -> SrcExpr:
        e = self.parse_atom()
        while self._starts_atom():
            arg = self.parse_atom()
            e = App(e, arg, pos=getattr(e, "pos", None))
        return e

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "num":
            return True
        if t.text in ("(", "#"):
            return True
        if t.kind == "id":
            return t.text not in (
                "of", "with", "in", "then", "else", "main", "type", "let",
            ) and not (t.text.startswith("fold") and t.text[4:] in self.datatypes) and t.text not in (
                "fn", "case", "caseorder", "if", "fold",
            )
        return False

    def parse_atom(self) -> SrcExpr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.text == "(":
            self.next()
            if self.at(")"):
                self.next()
                return Unit(pos=pos)
            e = self.parse_expr()
            while self.at(","):
                self.next()
                e2 = self.parse_expr()
                e = Pair(e, e2, pos=pos)
            self.expect(")")
            return e
        if t.text == "#":
            self.next()
            num = self.next()
            if num.kind != "num":
                raise SourceError("expected digits after '#'", num.line, num.col)
            return numeral(int(num.text))
        if t.text == "true":
            self.next()
            return Inj(1, BOOL, Unit(), pos=pos)
        if t.text == "false":
            self.next()
            return Inj(0, BOOL, Unit(), pos=pos)
        if t.text in ("LT", "EQ", "GT"):
            self.next()
            lt_eq = TSum(TUnit(), TUnit())
            if t.text == "LT":
                return Inj(0, ORDER, Inj(0, lt_eq, Unit()), pos=pos)
            if t.text == "EQ":
                return Inj(0, ORDER, Inj(1, lt_eq, Unit()), pos=pos)
            return Inj(1, ORDER, Unit(), pos=pos)
        if t.text in ("pi0", "pi1"):
            self.next()
            return Proj(int(t.text[-1]), self.parse_atom(), pos=pos)
        if t.text in ("inj0", "inj1"):
            self.next()
            self.expect("[")
            ann = self.parse_type()
            self.expect("]")
            return Inj(int(t.text[-1]), ann, self.parse_atom(), pos=pos)
        if t.text == "delay":
            self.next()
            return Delay(self.parse_atom(), pos=pos)
        if t.text == "force":
            self.next()
            return Force(self.parse_atom(), pos=pos)
        if t.text == "dest":
            self.next()
            self.expect("[")
            ann = self.parse_type()
            self.expect("]")
            return Dest(ann, self.parse_atom(), pos=pos)
        if t.text == "cons" and self.peek(1).text == "[":
            self.next()
            self.next()
            ann = self.parse_type()
            self.expect("]")
            return Cons(ann, self.parse_atom(), pos=pos)
        if t.kind == "id" and t.text in self.ctors:
            return self.parse_ctor_use()
        if t.kind == "id" and t.text not in _KEYWORDS:
            self.next()
            inst = None
            if self.at("["):
                self.next()
                items = [self.parse_type()]
                while self.at(","):
                    self.next()
                    items.append(self.parse_type())
                self.expect("]")
                inst = tuple(items)
            return Var(t.text, inst, pos=pos)
        raise SourceError(f"expected an expression, found {t.text or 'end of input'!r}", t.line, t.col)

    def parse_ctor_use(self) -> SrcExpr:
        from . import typecheck  # placeholder types are resolved there

        tok = self.next()
        pos = (tok.line, tok.col)
        dtname, ctor = self.ctors[tok.text]
        decl = self.datatypes[dtname]
        ty_args: Optional[tuple[SrcType, ...]] = None
        if self.at("["):
            self.next()
            items = [self.parse_type()]
            while self.at(","):
                self.next()
                items.append(self.parse_type())
            self.expect("]")
            ty_args = tuple(items)
        args: list[SrcExpr] = []
        if ctor.arg_functors:
            self.expect("(")
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
            self.expect(")")
            if len(args) != len(ctor.arg_functors):
                raise SourceError(
                    f"constructor {ctor.name} takes {len(ctor.arg_functors)} argument(s)",
                    *pos,
                )
        if ty_args is None:
            # Leave holes; the typechecker fills them in by unification.
            # The arguments are unknown until then, so the type has no label.
            holes = tuple(typecheck.fresh_meta() for _ in decl.params)
            delta = TInd(decl.instantiate(holes).functor)
        else:
            delta = decl.instantiate(ty_args)
        unfolded = subst_shape(delta.functor, delta)
        if not args:
            payload: SrcExpr = Unit(pos=pos)
        else:
            payload = args[0]
            for a in args[1:]:
                payload = Pair(payload, a, pos=pos)
        return Cons(delta, Inj(ctor.index, unfolded, payload, pos=pos), pos=pos)

    # -- programs -------------------------------------------------------------

    def parse_program(self) -> Program:
        bindings: list[tuple[str, SrcExpr]] = []
        main: Optional[SrcExpr] = None
        while not self.at(""):
            if self.peek().kind == "eof":
                break
            t = self.peek()
            if t.text == "type":
                self.next()
                name = self.next().text
                if name in self.datatypes:
                    raise SourceError(f"datatype {name} is already declared", t.line, t.col)
                params: tuple[str, ...] = ()
                if self.at("<"):
                    self.next()
                    items = [self.next().text]
                    while self.at(","):
                        self.next()
                        items.append(self.next().text)
                    self.expect(">")
                    params = tuple(items)
                self.expect("=")
                self.expect("mu")
                var = self.next().text
                self.expect(".")
                self._mu_stack = [var]
                try:
                    functor, ctors = self.parse_functor_body(var)
                finally:
                    self._mu_stack = []
                self.expect(";")
                decl = DataDecl(name, params, functor, ctors)
                self.datatypes[name] = decl
                for c in ctors:
                    if c.name in self.ctors:
                        raise SourceError(f"constructor {c.name} is already declared", t.line, t.col)
                    self.ctors[c.name] = (name, c)
            elif t.text == "let":
                self.next()
                name = self.next().text
                self.expect("=")
                e = self.parse_expr()
                self.expect(";")
                bindings.append((name, e))
            elif t.text == "main":
                self.next()
                self.expect("=")
                main = self.parse_expr()
                self.expect(";")
            else:
                raise SourceError(
                    f"expected a declaration, found {t.text!r}", t.line, t.col
                )
        return Program(self.datatypes, bindings, main)


def _project(e: SrcExpr, j: int, n: int) -> SrcExpr:
    """j-th component of a left-nested n-tuple value."""
    if n == 1:
        return e
    if j == n - 1:
        return Proj(1, e)
    return _project(Proj(0, e), j, n - 1)


def _type_to_functor(ty: SrcType, tvar: str) -> ShapeFunctor:
    """Re-read a type parsed inside ``mu tvar. ...`` as a shape functor.

    The recursion variable came back as the marker ``TVar('~rec~tvar')``.
    The marker may not occur in arrow domains or under a nested ``mu``.
    """
    marker = f"~rec~{tvar}"

    def has_rec(t: SrcType) -> bool:
        return marker in free_tyvars(t)

    def go(t: SrcType) -> ShapeFunctor:
        if not has_rec(t):
            return FConst(t)
        match t:
            case TVar(a) if a == marker:
                return FRec()
            case TProd(l, r):
                return FProd(go(l), go(r))
            case TSum(l, r):
                return FSum(go(l), go(r))
            case TArrow(d, c):
                if has_rec(d):
                    raise SourceError("recursion variable may not occur in an arrow domain")
                return FArrow(d, go(c))
            case TSusp(_):
                raise SourceError("recursion variable may not occur under susp")
            case TInd(_, _):
                raise SourceError("nested datatypes must be closed (no simultaneous nesting)")
        raise SourceError(f"bad functor body: {pretty_type(t)}")

    return go(ty)


def parse_program(text: str) -> Program:
    """Parse a ``.src`` program; raises SourceError with line/column."""
    return _Parser(text).parse_program()


def parse_expr(text: str, datatypes: Optional[dict[str, DataDecl]] = None) -> SrcExpr:
    p = _Parser(text, datatypes)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise p.err("trailing input after expression")
    return e


def parse_type(text: str, datatypes: Optional[dict[str, DataDecl]] = None) -> SrcType:
    p = _Parser(text, datatypes)
    ty = p.parse_type()
    if p.peek().kind != "eof":
        raise p.err("trailing input after type")
    return ty


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def pretty_type(ty: SrcType) -> str:
    return _pty(ty, 0)


def _pty(ty: SrcType, prec: int) -> str:
    # prec: 0 arrow, 1 sum, 2 prod, 3 atom
    cell = getattr(ty, "cell", None)
    while cell is not None and cell.solution is not None:  # solved metavariable
        ty = cell.solution
        cell = getattr(ty, "cell", None)
    match ty:
        case TVar(a):
            return a.replace("~rec~", "")
        case TUnit():
            return "unit"
        case TProd(l, r):
            s = f"{_pty(l, 2)} * {_pty(r, 3)}"
            return f"({s})" if prec > 2 else s
        case TSum(l, r):
            if ty == BOOL:
                return "bool"
            if ty == ORDER:
                return "order"
            s = f"{_pty(l, 1)} + {_pty(r, 2)}"
            return f"({s})" if prec > 1 else s
        case TArrow(d, c):
            s = f"{_pty(d, 1)} -> {_pty(c, 0)}"
            return f"({s})" if prec > 0 else s
        case TSusp(b):
            return f"susp {_pty(b, 3)}"
        case TInd(f, label):
            return label or _std_label(f) or f"(mu t. {_pfunctor(f)})"
    if hasattr(ty, "cell"):  # unsolved metavariable (typecheck.TMeta)
        return f"?{ty.cell.ident}"
    raise TypeError(f"not a type: {ty!r}")


def _std_label(f: ShapeFunctor) -> Optional[str]:
    """The name of the standard nat, list or tree shape, as instantiating its
    declaration labels it, for a type whose label was dropped: one built
    from constructor sugar at holes.  (``rec_lang._derive_label`` does the
    same for recurrence types.)
    """
    match f:
        case FSum(FConst(TUnit()), FRec()):
            return "nat"
        case FSum(FConst(TUnit()), FProd(FConst(elem), FRec())):
            return f"list<{_pty(elem, 0)}>"
        case FSum(FConst(TUnit()), FProd(FProd(FConst(elem), FRec()), FRec())):
            return f"tree<{_pty(elem, 0)}>"
    return None


def _pfunctor(f: ShapeFunctor, prec: int = 0) -> str:
    match f:
        case FRec():
            return "t"
        case FConst(t):
            return _pty(t, 3)
        case FProd(l, r):
            s = f"{_pfunctor(l, 2)} * {_pfunctor(r, 3)}"
            return f"({s})" if prec > 2 else s
        case FSum(l, r):
            s = f"{_pfunctor(l, 1)} + {_pfunctor(r, 2)}"
            return f"({s})" if prec > 1 else s
        case FArrow(d, b):
            s = f"{_pty(d, 1)} -> {_pfunctor(b, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not a shape functor: {f!r}")


def _as_numeral(e: SrcExpr) -> Optional[int]:
    n = 0
    while True:
        match e:
            case Cons(ann, Inj(1, _, inner)) if ann == NAT_TYPE:
                n += 1
                e = inner
            case Cons(ann, Inj(0, _, Unit())) if ann == NAT_TYPE:
                return n
            case _:
                return None


class _Renamer:
    """Renames machine-generated binders (which contain '.') to fresh
    surface-legal names so that pretty output re-lexes.
    """

    def __init__(self, avoid: set[str]):
        self.avoid = set(avoid)
        self.count = 0

    def binder(self, name: str, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        if "." not in name:
            return name, env
        while True:
            self.count += 1
            fresh = f"w{self.count}"
            if fresh not in self.avoid:
                break
        self.avoid.add(fresh)
        out = dict(env)
        out[name] = fresh
        return fresh, out


def _all_names(e: SrcExpr) -> set[str]:
    names: set[str] = set()
    for sub in iter_subexprs(e):
        match sub:
            case Var(n, _):
                names.add(n)
            case Case(_, x0, _, x1, _):
                names.update((x0, x1))
            case Lam(x, _, _) | Fold(_, _, x, _, _) | Let(x, _, _):
                names.add(x)
    return names


def pretty(x) -> str:
    """Pretty-print an expression, type, or value.  For core expressions,
    ``parse_program ∘ pretty`` is the identity up to alpha equivalence.
    """
    if isinstance(x, SrcExpr):
        return _pexpr(x, 0, _Renamer(_all_names(x)), {})
    if isinstance(x, Value):
        return _pvalue(x)
    return pretty_type(x)


def _pexpr(e: SrcExpr, prec: int, ren: Optional[_Renamer] = None,
           env: Optional[dict[str, str]] = None) -> str:
    # prec: 0 open position, 1 application argument
    ren = ren if ren is not None else _Renamer(set())
    env = env if env is not None else {}
    n = _as_numeral(e)
    if n is not None:
        return f"#{n}"
    match e:
        case Var(name, inst):
            name = env.get(name, name)
            if inst:
                return f"{name}[{', '.join(pretty_type(t) for t in inst)}]"
            return name
        case Unit():
            return "()"
        case Pair(l, r):
            return f"({_pexpr(l, 0, ren, env)}, {_pexpr(r, 0, ren, env)})"
        case Proj(i, a):
            s = f"pi{i} {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Inj(i, ann, a):
            if ann == BOOL and isinstance(a, Unit):
                return "true" if i == 1 else "false"
            s = f"inj{i}[{pretty_type(ann)}] {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Case(s0, x0, b0, x1, b1):
            y0, env0 = ren.binder(x0, env)
            y1, env1 = ren.binder(x1, env)
            s = (
                f"case {_pexpr(s0, 0, ren, env)} of {y0} => {_pexpr(b0, 0, ren, env0)}"
                f" | {y1} => {_pexpr(b1, 0, ren, env1)}"
            )
            return f"({s})" if prec > 0 else s
        case Lam(x, ann, b):
            y, env1 = ren.binder(x, env)
            s = f"fn ({y}: {pretty_type(ann)}) => {_pexpr(b, 0, ren, env1)}"
            return f"({s})" if prec > 0 else s
        case App(f, a):
            s = f"{_papp(f, ren, env)} {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Delay(b):
            s = f"delay {_pexpr(b, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Force(a):
            s = f"force {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Cons(ann, a):
            s = f"cons[{pretty_type(ann)}] {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Dest(ann, a):
            s = f"dest[{pretty_type(ann)}] {_pexpr(a, 1, ren, env)}"
            return f"({s})" if prec > 0 else s
        case Fold(ann, s0, x, b, res):
            y, env1 = ren.binder(x, env)
            s = (
                f"fold[{pretty_type(ann)}] {_pexpr(s0, 1, ren, env)} with {y} => "
                f"{_pexpr(b, 0, ren, env1)} : {pretty_type(res)}"
            )
            return f"({s})" if prec > 0 else s
        case Let(x, bound, body):
            y, env1 = ren.binder(x, env)
            s = f"let {y} = {_pexpr(bound, 0, ren, env)} in {_pexpr(body, 0, ren, env1)}"
            return f"({s})" if prec > 0 else s
        case MapE(f, y, v, arg):
            return f"<map {{{_pfunctor(f)}}} ({y}. {_pvalue(v)}) {_pexpr(arg, 1, ren, env)}>"
    raise TypeError(f"not an expression: {e!r}")


def _papp(e: SrcExpr, ren: _Renamer, env: dict[str, str]) -> str:
    # applications associate left, so the function position stays unwrapped
    if isinstance(e, App):
        return f"{_papp(e.fn, ren, env)} {_pexpr(e.arg, 1, ren, env)}"
    return _pexpr(e, 1, ren, env)


def _pvalue(v: Value) -> str:
    match v:
        case VUnit():
            return "()"
        case VPair(l, r):
            return f"({_pvalue(l)}, {_pvalue(r)})"
        case VInj(i, a):
            return f"inj{i} {_pvalue(a)}"
        case VCons(ann, arg):
            return _pvalue_cons(ann, arg)
        case VLamClo(lam, _):
            return f"<closure {_pexpr(lam, 0)}>"
        case VDelayClo(e, _):
            return f"<susp {_pexpr(e, 0)}>"
    raise TypeError(f"not a value: {v!r}")


def _shape_skeleton(f: ShapeFunctor):
    """Functor shape with constant positions erased, for display matching."""
    match f:
        case FRec():
            return ("t",)
        case FConst(_):
            return ("c",)
        case FProd(l, r):
            return ("*", _shape_skeleton(l), _shape_skeleton(r))
        case FSum(l, r):
            return ("+", _shape_skeleton(l), _shape_skeleton(r))
        case FArrow(_, b):
            return ("->", _shape_skeleton(b))


def _cons_print_facts(ann: SrcType) -> tuple[bool, Optional[DataDecl]]:
    """What printing a constructor value needs from its annotation, kept on
    the annotation: whether it is nat, and the standard declaration that
    names its constructors (None: print ``cons[...]``).
    """
    def compute(ann: SrcType):
        label = None
        if isinstance(ann, TInd):
            if ann.label:
                label = ann.label.split("<")[0]
            else:
                skel = _shape_skeleton(ann.functor)
                for name, decl in _STD_DECLS.items():
                    if _shape_skeleton(decl.functor) == skel:
                        label = name
                        break
        return ann == NAT_TYPE, _STD_DECLS.get(label)

    return type_memo(ann, "_print_facts", compute)


def _pvalue_cons(ann: SrcType, arg: Value) -> str:
    is_nat, decl = _cons_print_facts(ann)
    # numerals render as #n
    if is_nat:
        n, v = 0, VCons(ann, arg)
        while isinstance(v, VCons) and isinstance(v.arg, VInj):
            if v.arg.index == 0:
                return f"#{n}"
            n += 1
            v = v.arg.arg
    if decl is not None and isinstance(arg, VInj):
        ctor = decl.ctors[arg.index]
        if not ctor.arg_functors:
            return ctor.name
        parts = _untuple(arg.arg, len(ctor.arg_functors))
        return f"{ctor.name}({', '.join(_pvalue(p) for p in parts)})"
    return f"cons[{pretty_type(ann)}] {_pvalue(arg)}"


def _untuple(v: Value, n: int) -> list[Value]:
    if n == 1:
        return [v]
    if isinstance(v, VPair):
        return _untuple(v.left, n - 1) + [v.right]
    return [v]


def iter_subexprs(e: SrcExpr) -> Iterator[SrcExpr]:
    yield e
    match e:
        case Pair(l, r) | App(l, r):
            yield from iter_subexprs(l)
            yield from iter_subexprs(r)
        case Proj(_, a) | Inj(_, _, a) | Delay(a) | Force(a) | Cons(_, a) | Dest(_, a):
            yield from iter_subexprs(a)
        case Case(s, _, b0, _, b1):
            yield from iter_subexprs(s)
            yield from iter_subexprs(b0)
            yield from iter_subexprs(b1)
        case Lam(_, _, b):
            yield from iter_subexprs(b)
        case Fold(_, s, _, b, _):
            yield from iter_subexprs(s)
            yield from iter_subexprs(b)
        case Let(_, bound, body):
            yield from iter_subexprs(bound)
            yield from iter_subexprs(body)
        case MapE(_, _, _, arg):
            yield from iter_subexprs(arg)
