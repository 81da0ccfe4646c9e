"""Scaled-down runs of the verification suites (the full desk-scale runs
live in the acceptance tests)."""

import pytest

from frobword.starlang import PreconditionViolated
from frobword.verify import (
    crafted_word_sets,
    random_word_sets,
    suite_bounds,
    suite_chain_cofinite,
    suite_pairs,
    suite_st,
    suite_tmn,
    suite_unary,
)


def test_random_word_sets_deterministic():
    a = random_word_sets(20, seed=5)
    b = random_word_sets(20, seed=5)
    assert [s.words for s in a] == [s.words for s in b]
    assert len(a) == 20
    assert all(s.max_word_length <= 4 for s in a)
    alphabets = {s.alphabet for s in a}
    assert alphabets == {"01", "012"}


def test_crafted_sets_include_cofinite_shapes():
    sets = crafted_word_sets()
    assert len(sets) >= 15
    assert any(s.alphabet == "0" for s in sets)
    assert any(s.alphabet == "012" for s in sets)


def test_suite_unary_small():
    r = suite_unary(count=12, seed=99)
    assert r.passed
    assert len(r.rows) == 12


def test_suite_pairs_small():
    r = suite_pairs(max_len=3, agreement_total=8)
    assert r.passed
    by_name = {row.instance: row for row in r.rows}
    assert any("tightness" in k for k in by_name)


def test_suite_st_small():
    r = suite_st(t_max=3)
    assert r.passed
    assert any("sink" in row.instance for row in r.rows)


def test_suite_tmn_small():
    r = suite_tmn(2, 3)
    assert r.passed
    assert any("decision" in row.instance for row in r.rows)
    assert any("pumping" in row.instance for row in r.rows)


def test_suite_chain_cofinite_small():
    r = suite_chain_cofinite(count=25, seed=3)
    assert r.passed
    assert len(r.rows) == 25


def test_suite_bounds_small():
    r = suite_bounds(count=25, seed=3, deep=False)
    assert r.passed
    names = " ".join(row.instance for row in r.rows)
    assert "window vs trie" in names
    assert "concordance" not in names


def test_suite_report_failure_paths():
    r = suite_unary(count=3, seed=1)
    r.add("made-up", 1, 2, False)
    assert not r.passed
    assert len(r.failures()) == 1


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (suite_pairs, {"max_len": 0}),
        (suite_pairs, {"max_len": 1}),
        (suite_pairs, {"agreement_total": 1}),
        (suite_st, {"t_max": 1}),
        (suite_tmn, {"m": 3, "n": 7}),
    ],
)
def test_out_of_range_parameters_raise(suite, kwargs):
    with pytest.raises(PreconditionViolated):
        suite(**kwargs)
