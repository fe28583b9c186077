import dataclasses
import functools
import signal
from pathlib import Path

import pytest

from costrec.extract import extract_program
from costrec.source_ast import iter_subexprs, parse_program
from costrec.typecheck import TMeta, check_program

# a test still running after this long fails with TimeoutError instead of
# holding the suite: far above the slowest test (about 4 s) and above the
# 120 s that acceptance 7 allows itself, so that bound always fires first
TEST_TIME_LIMIT_S = 300

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "costrec" / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS_DIR.glob("*.src"))

# a local let that is generalized and instantiated implicitly
POLY_LET = Path(__file__).resolve().parent / "golden" / "poly_let.src"

# program -> function(s) the harness exercises, used by several suites
CORPUS_FUNCTIONS = {
    "copy.src": ["copy"],
    "copynat.src": ["copynat"],
    "fusion.src": ["map_fused", "map_composed"],
    "map.src": ["map_constf"],
    "mem.src": ["mem"],
    "plus.src": ["plus"],
    "rev.src": ["rev"],
    "sumtree.src": ["sumtree"],
    "tail.src": ["tail"],
}


@functools.lru_cache(maxsize=None)
def corpus_text(name: str) -> str:
    return (CORPUS_DIR / name).read_text()


@functools.lru_cache(maxsize=None)
def corpus_checked(name: str):
    return check_program(parse_program(corpus_text(name)))


@functools.lru_cache(maxsize=None)
def corpus_extracted(name: str):
    return extract_program(corpus_checked(name))


def holes(*roots):
    """The unification holes (solved or not) reachable from the roots:
    types, expressions, values, schemes, tuples and dicts of them.
    """
    found, stack = [], list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, TMeta):
            found.append(node)
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif dataclasses.is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return found


# the attributes type checking writes onto the nodes it checks
DERIVED = ("ty", "instantiation", "generalized")


def derived(expr):
    """What checking wrote onto each node of ``expr``, in ``iter_subexprs``
    order: a dict of the node's attributes named in ``DERIVED``.
    """
    return [{a: vars(node)[a] for a in DERIVED if a in vars(node)}
            for node in iter_subexprs(expr)]


@pytest.fixture(scope="session")
def corpus():
    return {name: corpus_checked(name) for name in CORPUS_FILES}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run the test under a ``SIGALRM`` that raises ``TimeoutError`` in it
    after ``TEST_TIME_LIMIT_S``.  The alarm also interrupts a wait in
    ``Thread.join``, where the CLI waits for its deep-stack thread.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
