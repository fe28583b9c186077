"""Cached structural hashes: a type or function-free semantic value keeps
its hash after the first call, and that hash must be the one the dataclass
would compute from scratch, so set and dict order (and every printed bound)
is unchanged.
"""

import dataclasses
import random

import pytest

from conftest import CORPUS_FUNCTIONS, corpus_text
from costrec.extract import potential_type
from costrec.harness import gen_value, prepare
from costrec.models import support_datatypes, value_potential
from costrec.source_ast import parse_program, parse_type, subst_shape
from costrec.typecheck import check_program


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
    for key, obj in samples:
        hash(obj)
        cached = [n for n in _walk(obj)
                  if type(n).__hash__.__qualname__.startswith("hash_once.")]
        assert cached, key
        assert all("_hash" in n.__dict__ for n in cached), key


def test_equal_objects_hash_alike(samples):
    by_key: dict = {}
    for key, obj in samples:
        by_key.setdefault(key, []).append(obj)
    for key, objs in by_key.items():
        first, second = objs[0], objs[1]
        assert first is not second
        assert first == second and hash(first) == hash(second), key
