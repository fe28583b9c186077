"""The CLI's output on the corpus matches the committed golden files in
``tests/golden/`` byte for byte.  ``python tests/golden/regen.py`` rewrites
them and prints the diff.
"""

import json

import pytest

from golden import regen


def _golden(path):
    return json.loads(path.read_text(encoding="utf-8"))


ANALYZE_GOLDEN = _golden(regen.ANALYZE_FILE)
VERIFY_GOLDEN = _golden(regen.VERIFY_FILE)
FRONTEND_GOLDEN = _golden(regen.FRONTEND_FILE)


def test_golden_files_cover_every_query():
    assert sorted(ANALYZE_GOLDEN) == sorted(regen.query_id(*q) for q in regen.ANALYZE)
    assert sorted(VERIFY_GOLDEN) == sorted(fn for _, fn in regen.VERIFY)
    assert sorted(FRONTEND_GOLDEN) == sorted(regen.frontend_id(*c) for c in regen.FRONTEND)


@pytest.mark.parametrize("query", regen.ANALYZE, ids=lambda q: regen.query_id(*q))
def test_analyze_json_matches_golden(query):
    assert regen.analyze_output(*query) == ANALYZE_GOLDEN[regen.query_id(*query)]


@pytest.mark.parametrize("file,fn", regen.VERIFY, ids=lambda v: v)
def test_verify_json_digest_matches_golden(file, fn):
    assert regen.verify_digest(file, fn) == VERIFY_GOLDEN[fn]


@pytest.mark.parametrize("command,file", regen.FRONTEND, ids=lambda c: c)
def test_frontend_json_matches_golden(command, file):
    assert regen.frontend_output(command, file) == FRONTEND_GOLDEN[regen.frontend_id(command, file)]
