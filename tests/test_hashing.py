"""Cached structural hashes: a type or function-free semantic value keeps
its hash after the first call, and that hash must be the one the dataclass
would compute from scratch, so set and dict order (and every printed bound)
is unchanged.  Types keep it in their ``__dict__`` (``hash_once``), semantic
values in a ``_hash`` slot (``semdom.value_class``).  Runtime values are
slotted and immutable by convention only, so a test also checks that no
code assigns a field of a value after construction.
"""

import dataclasses
import json
import random

import pytest

from conftest import CORPUS_FUNCTIONS, corpus_text
from costrec import models, semdom, source_ast
from costrec.extract import potential_type
from costrec.harness import gen_value, prepare
from costrec.models import support_datatypes, value_potential
from costrec.source_ast import parse_program, parse_type, subst_shape
from costrec.typecheck import check_program
from golden import regen


class _Hashed:
    """Stands in for an object whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def uncached_hash(x) -> int:
    """The generated dataclass hash, recomputed through the whole tree
    without reading any stored hash.  Tuple and frozenset hashes depend on
    their elements' hashes only.
    """
    if dataclasses.is_dataclass(x) and x.__dataclass_params__.eq:
        fs = [f for f in dataclasses.fields(x)
              if (f.compare if f.hash is None else f.hash)]
        return hash(tuple(_Hashed(uncached_hash(getattr(x, f.name))) for f in fs))
    if isinstance(x, tuple):
        return hash(tuple(_Hashed(uncached_hash(y)) for y in x))
    if isinstance(x, frozenset):
        return hash(frozenset(_Hashed(uncached_hash(y)) for y in x))
    return hash(x)


def _types_and_values():
    """Source types, potential types and embedded potentials of every
    corpus function's arguments, each built twice from fresh parses.
    """
    out = []
    for name, fns in sorted(CORPUS_FUNCTIONS.items()):
        for copy in range(2):
            checked = check_program(parse_program(corpus_text(name)))
            for fn in fns:
                # instantiate at a fresh nat too, not the shared NAT_TYPE
                prepared = prepare(checked, fn, ("exact", "size", "allcons"),
                                   instantiate_at=parse_type("nat"))
                for i, ty in enumerate(prepared.arg_types):
                    where = (name, fn, i)
                    out.append(((*where, "type"), ty))
                    pot_ty = potential_type(ty)
                    out.append(((*where, "potential type"), pot_ty))
                    for delta in sorted(support_datatypes(pot_ty), key=str):
                        out.append(((*where, "datatype", str(delta)), delta))
                    if hasattr(ty, "functor"):
                        out.append(((*where, "unfolding"), subst_shape(ty.functor, ty)))
                    value = gen_value(ty, 8, random.Random(11))
                    for model_name in ("exact", "size", "allcons"):
                        model = prepared.denoted[model_name][0]
                        out.append(((*where, model_name),
                                    value_potential(model, value, ty)))
    return out


def _walk(x):
    yield x
    if dataclasses.is_dataclass(x) and x.__dataclass_params__.eq:
        for f in dataclasses.fields(x):
            if f.compare:
                yield from _walk(getattr(x, f.name))
    elif isinstance(x, (tuple, frozenset)):
        for y in x:
            yield from _walk(y)


@pytest.fixture(scope="module")
def samples():
    return _types_and_values()


def test_cached_hash_is_the_structural_hash(samples):
    for key, obj in samples:
        for node in _walk(obj):
            first = hash(node)
            assert hash(node) == first == uncached_hash(node), (key, node)


def test_hash_is_computed_once_per_node(samples):
    # hashing the root leaves every node below it with its hash kept
    seen = {"slot": 0, "dict": 0}
    for key, obj in samples:
        hash(obj)
        for n in _walk(obj):
            qualname = type(n).__hash__.__qualname__
            if qualname.startswith("value_class."):
                assert n._hash == hash(n), (key, n)
                seen["slot"] += 1
            elif qualname.startswith("hash_once."):
                assert n.__dict__["_hash"] == hash(n), (key, n)
                seen["dict"] += 1
    assert seen["slot"] and seen["dict"], seen


def _rebuilt(x):
    """An equal copy of a dataclass tree, built afresh, with no memo."""
    if dataclasses.is_dataclass(x):
        return type(x)(**{f.name: _rebuilt(getattr(x, f.name))
                          for f in dataclasses.fields(x) if f.init})
    return x


def test_equal_objects_hash_alike(samples):
    by_key: dict = {}
    for key, obj in samples:
        by_key.setdefault(key, []).append(obj)
    for key, objs in by_key.items():
        first, second = objs[0], objs[1]
        if second is first:
            # instantiation returns a type that holds no type variable
            # itself, such as the parser's shared ``bool``
            second = _rebuilt(first)
        assert first is not second
        assert first == second and hash(first) == hash(second), key


# every class whose instances are runtime values: semantic values and the
# source evaluator's values
VALUE_CLASSES = (
    semdom.ExtNat, semdom.SizeMap, semdom.SStar, semdom.SNum, semdom.SMap,
    semdom.SPair, semdom.SIdeal, semdom.SFun, semdom.SPoly, semdom.XCons,
    semdom.XInj, source_ast.Value, source_ast.VUnit, source_ast.VPair,
    source_ast.VInj, source_ast.VLamClo, source_ast.VDelayClo,
    source_ast.VCons, models.SemEnv,
)
# slots that a value fills once after construction: None until then
FILLED_ONCE = ("_hash", "_dict", "_embedding")

_UNSET = object()


def test_value_classes_are_slotted():
    for cls in VALUE_CLASSES:
        assert "__slots__" in cls.__dict__, cls
        init = [f for f in dataclasses.fields(cls) if f.init]
        assert not hasattr(cls(*(None for _ in init)), "__dict__"), cls


def _assign_once(self, name, value):
    held = getattr(self, name, _UNSET)
    if held is not _UNSET and not (name in FILLED_ONCE and held is None):
        raise AssertionError(f"{type(self).__name__}.{name} assigned after construction")
    object.__setattr__(self, name, value)


def test_no_code_assigns_a_field_of_a_value(monkeypatch):
    for cls in VALUE_CLASSES:
        monkeypatch.setattr(cls, "__setattr__", _assign_once)
    pair = semdom.SPair(semdom.SStar(), semdom.SStar())
    hash(pair)
    for name in ("left", "_hash"):
        with pytest.raises(AssertionError):
            setattr(pair, name, None)
    analyze = json.loads(regen.ANALYZE_FILE.read_text(encoding="utf-8"))
    for query in regen.ANALYZE:
        if query[0] in ("copy.src", "rev.src"):
            assert regen.analyze_output(*query) == analyze[regen.query_id(*query)], query
    verify = json.loads(regen.VERIFY_FILE.read_text(encoding="utf-8"))
    for file, fn in (("copy.src", "copy"), ("mem.src", "mem")):
        assert regen.verify_digest(file, fn) == verify[fn], fn
