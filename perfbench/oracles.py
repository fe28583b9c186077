"""Expected outputs of every benchmark operation, computed without the
program under test.

Source values are read back from the pretty-printed form that ``verify``
reports (``node(#1, emp, emp)``, ``cons(#0, nil)``, ``inj1 ()``), and costs
come from closed forms or from walking those values in plain Python.  The
one recurrence without a closed form here (tree copy in the all-constructors
model) is brute-forced over its decompositions, as the acceptance suite does.
Nothing in this module imports ``costrec``.
"""

from __future__ import annotations

import re
from functools import lru_cache

_TOKEN = re.compile(r"\s*(#\d+|[A-Za-z_][A-Za-z0-9_]*|\(\)|[(),])")


def parse_value(text: str):
    """A pretty-printed source value as nested tuples: ``("#", n)`` for a
    numeral, ``("()",)`` for unit, ``(name, arg, ...)`` for a constructor
    or an injection (``inj0``/``inj1``).
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read value text at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    value, rest = _parse(tokens, 0)
    if rest != len(tokens):
        raise ValueError(f"trailing tokens in value text {text!r}")
    return value


def _parse(tokens, i):
    tok = tokens[i]
    if tok.startswith("#"):
        return ("#", int(tok[1:])), i + 1
    if tok == "()":
        return ("()",), i + 1
    if tok in ("inj0", "inj1"):
        arg, i = _parse(tokens, i + 1)
        return (tok, arg), i
    if not tok[0].isalpha():
        raise ValueError(f"unexpected token {tok!r}")
    if i + 1 < len(tokens) and tokens[i + 1] == "(":
        args = []
        i += 2
        while True:
            arg, i = _parse(tokens, i)
            args.append(arg)
            if tokens[i] == ")":
                return (tok, *args), i + 1
            if tokens[i] != ",":
                raise ValueError(f"expected ',' or ')' but found {tokens[i]!r}")
            i += 1
    return (tok,), i + 1


def nat(v) -> int:
    if v[0] != "#":
        raise ValueError(f"not a numeral: {v!r}")
    return v[1]


def boolean(v) -> bool:
    if v[0] not in ("inj0", "inj1") or v[1] != ("()",):
        raise ValueError(f"not a boolean: {v!r}")
    return v[0] == "inj1"


def list_length(v) -> int:
    n = 0
    while v[0] == "cons":
        n += 1
        v = v[2]
    if v != ("nil",):
        raise ValueError(f"not a list: {v!r}")
    return n


def tree_ctors(v) -> int:
    """Tree constructors (``node`` and ``emp``) in a tree value."""
    if v == ("emp",):
        return 1
    if v[0] != "node":
        raise ValueError(f"not a tree: {v!r}")
    return 1 + tree_ctors(v[2]) + tree_ctors(v[3])


def _tree_sum(v) -> int:
    if v == ("emp",):
        return 0
    return nat(v[1]) + _tree_sum(v[2]) + _tree_sum(v[3])


def _sumtree_cost(v) -> int:
    # one unfolding per tree constructor; `plus a b` unfolds a + 1 times, and
    # the step runs plus (force r0) (force r1), then plus x on the result
    if v == ("emp",):
        return 1
    _, x, left, right = v
    return (1 + _sumtree_cost(left) + _sumtree_cost(right)
            + _tree_sum(left) + 1 + nat(x) + 1)


def _mem_cost(tree, key: bool) -> int:
    # one unfolding per tree constructor the search forces; keys order
    # false < true, and equal keys stop the search
    cost = 0
    while True:
        cost += 1
        if tree == ("emp",):
            return cost
        _, label, left, right = tree
        here = boolean(label)
        if key == here:
            return cost
        tree = left if key < here else right


def eval_cost(fn: str, inputs: list[str]) -> int:
    """The evaluator's cost of ``fn`` applied to pretty-printed inputs."""
    args = [parse_value(t) for t in inputs]
    match fn:
        case "copy":
            return tree_ctors(args[0])
        case "copynat" | "plus":
            return nat(args[0]) + 1
        case "rev" | "map_constf" | "map_fused":
            return list_length(args[0]) + 1
        case "map_composed":
            return 2 * (list_length(args[0]) + 1)
        case "tail":
            list_length(args[0])
            return 0
        case "mem":
            return _mem_cost(args[0], boolean(args[1]))
        case "sumtree":
            return _sumtree_cost(args[0])
    raise ValueError(f"no cost oracle for {fn}")


def bound_ok(direction: str, bound: str, cost: int) -> bool:
    """A printed cost bound against an observed cost in a model direction."""
    if bound == "inf":
        return direction == "upper"
    b = int(bound)
    return {"exact": b == cost, "upper": b >= cost, "lower": b <= cost}[direction]


# ---------------------------------------------------------------------------
# analyze: closed forms of cost and potential
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def copy_recurrence(n: int) -> int:
    """T(n) = max(1, max{1 + T(n0) + T(n1) : n0, n1 >= 1, n0 + n1 < n}),
    the tree-copy fold enumerated over its decompositions.
    """
    best = 1
    for n0 in range(1, n - 1):
        for n1 in range(1, n - n0):
            best = max(best, 1 + copy_recurrence(n0) + copy_recurrence(n1))
    return best


def largest_odd_at_most(n: int) -> int:
    return n if n % 2 else n - 1


def analyze_expected(fn: str, model: str, args: tuple) -> tuple[int, object]:
    """(cost, potential) of an analyze query.  The potential is a main
    constructor count, or the string ``"bool-top"`` for the boolean result
    of ``mem``.
    """
    n = args[0]
    match (fn, model):
        case ("copy", "size"):
            return largest_odd_at_most(n), largest_odd_at_most(n)
        case ("copy", "height"):
            return 2 ** n - 1, n
        case ("copy", "allcons"):
            return copy_recurrence(n), copy_recurrence(n)
        case ("rev", _) | ("map_constf", _):
            return n, n
        case ("revgo", _):
            return n, n + args[1] - 1
        case ("mem", "height"):
            return n, "bool-top"
        case ("plus", "size"):
            return n, n + args[1] - 1
        case ("map_composed", "lower"):
            return 2 * n - 2, n
    raise ValueError(f"no closed form for {fn} in {model}")


_MAP_ENTRY = re.compile(r"\s*([^:,{}]+):\s*(inf|\d+)\s*")


def read_potential(text: str, main: str):
    """The main constructor count in a printed potential: a plain count, or
    the ``main`` entry of a ``{datatype: count, ...}`` map whose other
    entries must all be ``inf``.
    """
    if text == "{*}⊔{*}":
        return "bool-top"
    if not text.startswith("{"):
        return int(text)
    entries = {}
    for item in text.strip("{}").split(","):
        m = _MAP_ENTRY.fullmatch(item)
        if m is None:
            raise ValueError(f"cannot read potential {text!r}")
        entries[m.group(1).strip()] = m.group(2)
    others = {k: v for k, v in entries.items() if k != main}
    if main not in entries or any(v != "inf" for v in others.values()):
        raise ValueError(f"potential {text!r} is not padded with inf off {main}")
    return int(entries[main])


# ---------------------------------------------------------------------------
# extract-nested
# ---------------------------------------------------------------------------


def nested_cost(depth: int, length: int) -> int:
    """Cost of c_depth = c_(depth-1) . c_(depth-1), with c_0 the constant-cost
    list map (length + 1 unfoldings), on a list of the given length.
    """
    return 2 ** depth * (length + 1)
