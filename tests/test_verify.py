"""Scaled-down runs of the verification suites (the full desk-scale runs
live in the acceptance tests)."""

import dataclasses
import os
import signal
import threading
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobword import verify
from frobword.automata import CapExceeded, Dfa, determinize, state_complexity
from frobword.families import omitted_count_lower_bound, star_blowup_family, two_length_family
from frobword.starlang import PreconditionViolated, WordSet, chain_nfa, minimal_star_dfa, trie_star_nfa
from frobword.verify import (
    _levels,
    crafted_word_sets,
    random_word_sets,
    suite_bounds,
    suite_chain_cofinite,
    suite_pairs,
    suite_st,
    suite_tmn,
    suite_unary,
)
from oracles import chain_upto, closure_upto, words_upto
from processes import _fork_fails, _no_fork, _pipe_fails, counting_forks, leaves_nothing_behind


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


def test_suite_st_stops_at_its_first_cap_event(monkeypatch):
    # the family grows with t, so a capped t caps every larger one too
    calls = []

    def capped(s):
        calls.append(s)
        if len(calls) >= 3:
            raise CapExceeded("subset construction exceeded 1 states")
        return minimal_star_dfa(s)

    monkeypatch.setattr(verify, "minimal_star_dfa", capped)
    r = suite_st(t_max=8)
    assert calls == [star_blowup_family(t).words for t in (2, 3, 4)]
    assert r.cap_events == 1
    assert [row.instance for row in r.failures()] == ["t=4"]


def test_suite_chain_cofinite_names_a_capped_instance_as_its_ok_row(monkeypatch):
    ok = suite_chain_cofinite(count=1, seed=3).rows[0]

    def capped(xs, alphabet):
        raise CapExceeded("subset construction exceeded 1 states")

    monkeypatch.setattr(verify, "minimal_chain_dfa", capped)
    r = suite_chain_cofinite(count=1, seed=3)
    assert r.cap_events == 1
    assert [(row.instance, row.predicted, row.actual, row.ok) for row in r.rows] == [
        (ok.instance, ok.predicted, "cap exceeded: subset construction exceeded 1 states", False)
    ]


def test_suite_tmn_small():
    r = suite_tmn(2, 3)
    assert r.passed
    assert any("decision" in row.instance for row in r.rows)
    assert any("pumping" in row.instance for row in r.rows)
    # over four letters the closure omits 10 words: the floor must not say more
    assert suite_tmn(2, 3, "0123").passed


def test_suite_tmn_budgets_the_seed_pumping():
    # 32 of the 64 short words sampled as fillers, up to four between seed
    # copies: 1 + 32 + 32**2 + 32**3 + 32**4 = 1,082,401 words, past 2**20
    r = suite_tmn(6, 7)
    assert r.cap_events == 1
    assert [(row.instance, row.predicted, row.actual) for row in r.failures()] == [
        (
            "seed pumping, 1082401 words",
            "all outside the closure",
            "budget exceeded: seed pumping would check 1082401 words",
        )
    ]


def test_suite_tmn_reports_a_short_word_that_is_not_needed(monkeypatch):
    monkeypatch.setattr(verify, "is_cofinite", lambda d: True)
    r = suite_tmn(3, 5)
    assert r.cap_events == 0
    assert [(row.instance, row.predicted, row.actual, row.ok) for row in r.failures()] == [
        ("dropping a short word, 8 cases", "never co-finite", "8 still co-finite", False)
    ]


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


# planted faults: these pairs get their predicted size moved by one, for the
# star and (in this order) the concatenation; commuting pairs included
FAULTS = {
    ("0", "01"): -1,
    ("01", "0"): -1,
    ("00", "000"): -1,
    ("1", "1"): -1,
    ("01", "011"): -1,
    ("0", "1"): -1,
    ("0", "00"): 1,
    ("1", "10"): 1,
}
# and this pair gets its agreement length moved up by one, past its bound
AGREEMENT_FAULT = ("1", "0")

# the rows suite_pairs(max_len=3, agreement_total=2) gives under those faults
FAULTY_PAIRS_ROWS = [
    ('star {0,00}', '3', '2', False),
    ('star {0,01}', '<= 2', '3', False),
    ('star {1,1}', '1', '2', False),
    ('star {00,000}', '3', '4', False),
    ('star bound, 85 non-commuting pairs', '0 violations', '1 violations', False),
    ('star bound tightness', '>= 1 pair attains it', '40 attain (first {0,1})', True),
    ('star commuting formula, 20 pairs', '0 mismatches', '3 mismatches', False),
    ('concat 0* 1*', '<= 2', '3', False),
    ('concat 0* 00*', '3', '2', False),
    ('concat 0* 01*', '<= 4', '5', False),
    ('concat 1* 1*', '1', '2', False),
    ('concat 00* 000*', '3', '4', False),
    ('concat 01* 0*', '<= 3', '4', False),
    ('concat bound, 170 non-commuting pairs', '0 violations', '3 violations', False),
    ('concat bound tightness', '>= 1 pair attains it', '27 attain (first 0* 001*)', True),
    ('concat commuting formula, 26 pairs', '0 mismatches', '3 mismatches', False),
    ('agreement (1,0)', '<= 0', '1', False),
    ('agreement bound, 2 non-commuting pairs', '0 violations', '1 violations', False),
]


def test_suite_pairs_reports_planted_faults(monkeypatch):
    def off_by_one(real):
        def faulty(w, x):
            pred, claim = real(w, x)
            return pred + FAULTS.get((w, x), 0), claim

        return faulty

    for name in ("predicted_pair_star_sc", "predicted_pair_concat_sc"):
        monkeypatch.setattr(verify, name, off_by_one(getattr(verify, name)))
    agreement = verify.fine_wilf_agreement
    monkeypatch.setattr(verify, "fine_wilf_agreement", lambda w, x: agreement(w, x) + ((w, x) == AGREEMENT_FAULT))
    r = suite_pairs(max_len=3, agreement_total=2)
    assert [(row.instance, row.predicted, row.actual, row.ok) for row in r.rows] == FAULTY_PAIRS_ROWS


# the rows suite_bounds(count=6, seed=5, deep=False) gives with every law's
# check planted to fail: no window state bound, no equivalence, no extension
# condition, and minimize left out (so the subset bounds see window DFAs)
FAULTY_BOUNDS_ROWS = [
    ("window size ('0', '1', '00', '101', '0100')", '<= 0', '15', False),
    ("window vs trie ('0', '1', '00', '101', '0100')", 'equivalent', 'differ', False),
    ("window size ('0', '00', '010', '0000')", '<= 0', '29', False),
    ("window vs trie ('0', '00', '010', '0000')", 'equivalent', 'differ', False),
    ("window size ('01', '100')", '<= 0', '16', False),
    ("window vs trie ('01', '100')", 'equivalent', 'differ', False),
    ("prefix-free bound ('01', '100')", '<= 5', '16', False),
    ("window size ('1', '122', '0010')", '<= 0', '92', False),
    ("window vs trie ('1', '122', '0010')", 'equivalent', 'differ', False),
    ("subset bound ('1', '122', '0010')", '<= 64', '92', False),
    ("window size ('011',)", '<= 0', '26', False),
    ("window vs trie ('011',)", 'equivalent', 'differ', False),
    ("subset bound ('011',)", '<= 8', '26', False),
    ("prefix-free bound ('011',)", '<= 4', '26', False),
    ("window size ('1', '01', '1011')", '<= 0', '27', False),
    ("window vs trie ('1', '01', '1011')", 'equivalent', 'differ', False),
    ("window size ('0', '1')", '<= 0', '1', False),
    ("window vs trie ('0', '1')", 'equivalent', 'differ', False),
    ("window size ('0', '1', '01')", '<= 0', '3', False),
    ("window vs trie ('0', '1', '01')", 'equivalent', 'differ', False),
    ("window size ('0', '01', '11')", '<= 0', '7', False),
    ("window vs trie ('0', '01', '11')", 'equivalent', 'differ', False),
    ("window size ('00', '01', '10', '11')", '<= 0', '5', False),
    ("window vs trie ('00', '01', '10', '11')", 'equivalent', 'differ', False),
    ("window size ('0', '10', '110')", '<= 0', '14', False),
    ("window vs trie ('0', '10', '110')", 'equivalent', 'differ', False),
    ("prefix-free bound ('0', '10', '110')", '<= 5', '14', False),
    ("window size ('00', '000')", '<= 0', '15', False),
    ("window vs trie ('00', '000')", 'equivalent', 'differ', False),
    ("window size ('0', '01')", '<= 0', '6', False),
    ("window vs trie ('0', '01')", 'equivalent', 'differ', False),
    ("subset bound ('0', '01')", '<= 4', '6', False),
    ("window size ('1', '10', '100')", '<= 0', '14', False),
    ("window vs trie ('1', '10', '100')", 'equivalent', 'differ', False),
    ("window size ('0',)", '<= 0', '1', False),
    ("window vs trie ('0',)", 'equivalent', 'differ', False),
    ("window size ('00', '000')", '<= 0', '5', False),
    ("window vs trie ('00', '000')", 'equivalent', 'differ', False),
    ("omitted count ('00', '000')", '<= 0', '1', False),
    ("longest omitted ('00', '000')", '< 0', '1', False),
    ("extension condition ('00', '000')", 'True', 'False', False),
    ("window size ('00', '0000')", '<= 0', '5', False),
    ("window vs trie ('00', '0000')", 'equivalent', 'differ', False),
    ("window size ('000', '0000')", '<= 0', '10', False),
    ("window vs trie ('000', '0000')", 'equivalent', 'differ', False),
    ("omitted count ('000', '0000')", '<= 0', '3', False),
    ("longest omitted ('000', '0000')", '< 0', '5', False),
    ("extension condition ('000', '0000')", 'True', 'False', False),
    ("window size ('0', '1', '2')", '<= 0', '1', False),
    ("window vs trie ('0', '1', '2')", 'equivalent', 'differ', False),
    ("window size ('0', '1', '2', '012')", '<= 0', '13', False),
    ("window vs trie ('0', '1', '2', '012')", 'equivalent', 'differ', False),
    ("subset bound ('0', '1', '2', '012')", '<= 8', '13', False),
    ("window size ('01', '12', '20')", '<= 0', '10', False),
    ("window vs trie ('01', '12', '20')", 'equivalent', 'differ', False),
    ("prefix-free bound ('01', '12', '20')", '<= 5', '10', False),
    ("window size ('00', '01', '10', '11', '000', '010', '011', '100', '101', '110', '111')", '<= 0', '16', False),
    ("window vs trie ('00', '01', '10', '11', '000', '010', '011', '100', '101', '110', '111')", 'equivalent', 'differ', False),
    ("omitted count ('00', '01', '10', '11', '000', '010', '011', '100', '101', '110', '111')", '<= 0', '3', False),
    ("longest omitted ('00', '01', '10', '11', '000', '010', '011', '100', '101', '110', '111')", '< 0', '3', False),
    ("extension condition ('00', '01', '10', '11', '000', '010', '011', '100', '101', '110', '111')", 'True', 'False', False),
    ("window size ('000', '001', '010', '011', '100', '101', '110', '111', '0000', '0010', '0011', '0100', '0101', '0110', '0111', '1000', '1001', '1010', '1011', '1100', '1101', '1110', '1111')", '<= 0', '66', False),
    ("window vs trie ('000', '001', '010', '011', '100', '101', '110', '111', '0000', '0010', '0011', '0100', '0101', '0110', '0111', '1000', '1001', '1010', '1011', '1100', '1101', '1110', '1111')", 'equivalent', 'differ', False),
    ("omitted count ('000', '001', '010', '011', '100', '101', '110', '111', '0000', '0010', '0011', '0100', '0101', '0110', '0111', '1000', '1001', '1010', '1011', '1100', '1101', '1110', '1111')", '<= 0', '78', False),
    ("longest omitted ('000', '001', '010', '011', '100', '101', '110', '111', '0000', '0010', '0011', '0100', '0101', '0110', '0111', '1000', '1001', '1010', '1011', '1100', '1101', '1110', '1111')", '< 0', '11', False),
    ("extension condition ('000', '001', '010', '011', '100', '101', '110', '111', '0000', '0010', '0011', '0100', '0101', '0110', '0111', '1000', '1001', '1010', '1011', '1100', '1101', '1110', '1111')", 'True', 'False', False),
    ("window size ('0', '010', '101')", '<= 0', '20', False),
    ("window vs trie ('0', '010', '101')", 'equivalent', 'differ', False),
    ("window size ('0', '0110', '1011', '1101')", '<= 0', '62', False),
    ("window vs trie ('0', '0110', '1011', '1101')", 'equivalent', 'differ', False),
    ('window vs trie, 25 sets', '0 differ', '25 differ', False),
    ('window size bound, 25 sets', '0 over', '25 over', False),
    ('subset bound, 25 sets', '0 over', '4 over', False),
    ('prefix-free bound, 8 sets', '0 over', '4 over', False),
    ('longest omitted bound, 10 co-finite sets', '0 over', '4 over', False),
    ('omitted count bound', '0 over', '4 over', False),
    ('extension condition on co-finite sets', '0 failures', '4 failures', False),
]


def test_suite_bounds_reports_a_row_for_every_law(monkeypatch):
    monkeypatch.setattr(verify, "window_state_bound", lambda sigma, n: 0)
    monkeypatch.setattr(verify, "equivalent", lambda a, b: False)
    monkeypatch.setattr(verify, "prefix_suffix_condition", lambda words: False)
    monkeypatch.setattr(verify, "minimize", lambda d: d)
    r = suite_bounds(count=6, seed=5, deep=False)
    assert [(row.instance, row.predicted, row.actual, row.ok) for row in r.rows] == FAULTY_BOUNDS_ROWS


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (suite_pairs, {"max_len": 0}),
        (suite_pairs, {"max_len": 1}),
        (suite_pairs, {"agreement_total": 1}),
        (suite_st, {"t_max": 1}),
        (suite_tmn, {"m": 3, "n": 7}),
        (suite_unary, {"count": 4835}),
    ],
)
def test_out_of_range_parameters_raise(suite, kwargs):
    with pytest.raises(PreconditionViolated):
        suite(**kwargs)


# ---------------------------------------------------------------------------
# suite_pairs splits its pair automata with a forked child

SPLIT_RUNS = [(4, 10), (5, 12)]


def _rows(report):
    return [(row.instance, row.predicted, row.actual, row.ok) for row in report.rows]


def _orbit_places(run):
    """The row name of every pair of ``suite_pairs(*run)``, star pairs then
    concat pairs, with the place of its orbit under the swap of 0 and 1
    among the orbits in the order they are first met."""
    words = ["".join(p) for n in range(1, run[0] + 1) for p in product("01", repeat=n)]
    flip = str.maketrans("01", "10")
    pairs = [
        ("star {%s,%s}" % (w, x), frozenset({w, x}), frozenset({w.translate(flip), x.translate(flip)}))
        for i, w in enumerate(words)
        for x in words[i:]
    ]
    pairs += [("concat %s* %s*" % wx, wx, tuple(v.translate(flip) for v in wx)) for wx in product(words, repeat=2)]
    places, orbits = {}, 0
    for _, pair, image in pairs:
        if pair not in places:
            places[pair] = places[image] = orbits
            orbits += 1
    return [(name, places[pair]) for name, pair, _ in pairs]


@pytest.mark.parametrize("run", SPLIT_RUNS)
def test_suite_pairs_merges_the_childs_sizes_in_order(monkeypatch, run):
    # a size planted only in the child fails exactly the pairs whose orbit
    # sits at an odd place, both members of each such orbit
    me, real = os.getpid(), verify.state_complexity
    monkeypatch.setattr(verify, "state_complexity", lambda d: real(d) + (os.getpid() != me) * 100)
    named = _orbit_places(run)
    with leaves_nothing_behind():
        report = suite_pairs(*run)
    names = {name for name, _ in named}
    failed = [row.instance for row in report.failures() if row.instance in names]
    assert failed == [name for name, place in named if place % 2]
    assert not [row for row in report.rows if row.instance in names and row.ok]


def test_suite_pairs_sizes_each_pair_as_its_own_automaton(monkeypatch):
    # the sizes the laws receive, against every pair's automaton built here
    seen, real = [], verify._pair_law
    monkeypatch.setattr(verify, "_pair_law", lambda *args: seen.append(args[1:]) or real(*args))
    with leaves_nothing_behind():
        suite_pairs(4, 10)
    assert [(kind, len(pairs), len(sizes)) for kind, _, pairs, _, sizes in seen] == [
        ("star", 465, 465),
        ("concat", 900, 900),
    ]
    for kind, _, pairs, _, sizes in seen:
        for (w, x), size in zip(pairs, sizes):
            nfa = trie_star_nfa(WordSet.of("01", {w, x})) if kind == "star" else chain_nfa([w, x], "01")
            assert size == state_complexity(determinize(nfa)), (kind, w, x)


def test_suite_pairs_builds_one_automaton_per_orbit(monkeypatch):
    calls, real = [], verify.state_complexity
    _no_fork(monkeypatch)
    monkeypatch.setattr(verify, "state_complexity", lambda d: calls.append(1) or real(d))
    suite_pairs(5, 12)
    assert len(calls) == 1 + max(place for _, place in _orbit_places((5, 12))) == 2914


def test_a_cap_in_the_child_is_raised_without_sizing_its_half(monkeypatch):
    me, real, calls = os.getpid(), verify.state_complexity, []

    def capped_in_the_child(d):
        if os.getpid() != me:
            raise CapExceeded("planted in the child")
        calls.append(1)
        return real(d)

    monkeypatch.setattr(verify, "state_complexity", capped_in_the_child)
    with leaves_nothing_behind(), pytest.raises(CapExceeded, match="^planted in the child$"):
        suite_pairs(4, 10)
    orbits = 1 + max(place for _, place in _orbit_places((4, 10)))
    assert len(calls) == (orbits + 1) // 2


@pytest.mark.parametrize("child_capped", [True, False], ids=["child-capped", "memory-alone"])
def test_a_cap_in_the_child_wins_over_memory_here(monkeypatch, child_capped):
    # as in measure: the child's cap message wins over this process's
    # MemoryError, as if the child's half had been sized first
    me, real = os.getpid(), verify.state_complexity

    def sized(d):
        if os.getpid() == me:
            raise MemoryError
        if child_capped:
            raise CapExceeded("planted in the child")
        return real(d)

    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(verify, "state_complexity", sized)
    with leaves_nothing_behind(), pytest.raises(CapExceeded if child_capped else MemoryError) as exc:
        suite_pairs(4, 10)
    assert str(exc.value) == ("planted in the child" if child_capped else "")
    assert forks == [1]


def test_an_interrupted_suite_pairs_kills_and_reaps_the_child(monkeypatch):
    # the child has about 1,450 automata to build when the parent stops at its first
    me, real = os.getpid(), verify.state_complexity

    def interrupted(d):
        if os.getpid() == me:
            raise KeyboardInterrupt
        return real(d)

    monkeypatch.setattr(verify, "state_complexity", interrupted)
    statuses, real_waitpid = [], os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda *args: statuses.append(real_waitpid(*args)[1]) or (0, 0))
    with leaves_nothing_behind(), pytest.raises(KeyboardInterrupt):
        suite_pairs(5, 12)
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
    assert os.WTERMSIG(statuses[0]) == signal.SIGKILL


def test_suite_pairs_merges_the_childs_agreement_groups_in_order(monkeypatch):
    # an agreement planted only in the child fails exactly the non-commuting
    # pairs of the groups (|w| + |x|, |w|) at odd places, after the orbits
    me, real = os.getpid(), verify.fine_wilf_agreement
    monkeypatch.setattr(verify, "fine_wilf_agreement", lambda w, x: real(w, x) + (os.getpid() != me) * 100)
    orbits = 1 + max(place for _, place in _orbit_places((3, 8)))
    groups = [(total, la) for total in range(2, 9) for la in range(1, total)]
    expected = [
        "agreement (%s,%s)" % (w, x)
        for place, (total, la) in enumerate(groups, orbits)
        if place % 2
        for w, x in product(map("".join, product("01", repeat=la)), map("".join, product("01", repeat=total - la)))
        if w + x != x + w
    ]
    with leaves_nothing_behind():
        report = suite_pairs(3, 8)
    failed = [row.instance for row in report.failures()]
    assert failed[:-1] == expected
    assert failed[-1].startswith("agreement bound")


# ---------------------------------------------------------------------------
# suite_pairs, suite_unary, suite_chain_cofinite and suite_bounds split their
# instances the same way: those at odd places are worked out in a forked child

SPLIT_SUITES = {
    **{"pairs-%d-%d" % run: (suite_pairs, run, "state_complexity") for run in SPLIT_RUNS},
    "unary": (suite_unary, (40, 7), "state_complexity"),
    "chain-cofinite": (suite_chain_cofinite, (40, 7), "is_cofinite"),
    "bounds": (suite_bounds, (6, 5), "window_star_dfa"),
}


@pytest.fixture(scope="module")
def serial_rows():
    with pytest.MonkeyPatch.context() as mp:
        _no_fork(mp)
        return {name: _rows(suite(*args)) for name, (suite, args, _) in SPLIT_SUITES.items()}


def _in_the_child(mp, name, planted):
    """``verify.<name>`` answers ``planted(real, *args)`` in a child only."""
    me, real = os.getpid(), getattr(verify, name)
    mp.setattr(verify, name, lambda *args: real(*args) if os.getpid() == me else planted(real, *args))


def _silent_child(mp, name):
    _in_the_child(mp, name, lambda real, *args: os._exit(1))


@pytest.mark.parametrize("name", SPLIT_SUITES)
def test_split_suite_with_a_child_gives_the_serial_rows(monkeypatch, serial_rows, name):
    suite, args, _ = SPLIT_SUITES[name]
    forks = counting_forks(monkeypatch)
    with leaves_nothing_behind():
        assert _rows(suite(*args)) == serial_rows[name]
    assert len(forks) == 1


@pytest.mark.parametrize("fallback", [_fork_fails, _pipe_fails, _no_fork, _silent_child])
@pytest.mark.parametrize("name", SPLIT_SUITES)
def test_split_suite_works_out_the_childs_half_when_it_cannot(monkeypatch, serial_rows, name, fallback):
    suite, args, hook = SPLIT_SUITES[name]
    if fallback is _silent_child:
        fallback(monkeypatch, hook)
    else:
        fallback(monkeypatch)
    with leaves_nothing_behind():
        assert _rows(suite(*args)) == serial_rows[name]


@pytest.mark.parametrize("name", SPLIT_SUITES)
def test_split_suite_does_not_fork_beside_another_thread(monkeypatch, serial_rows, name):
    suite, args, _ = SPLIT_SUITES[name]

    def unexpected():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", unexpected)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with leaves_nothing_behind():
            assert _rows(suite(*args)) == serial_rows[name]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_a_suite_of_one_instance_starts_no_child(monkeypatch):
    forks = counting_forks(monkeypatch)
    with leaves_nothing_behind():
        rows = [_rows(suite_unary(1, 7)), _rows(suite_chain_cofinite(1, 7))]
    assert forks == []
    _no_fork(monkeypatch)
    assert rows == [_rows(suite_unary(1, 7)), _rows(suite_chain_cofinite(1, 7))]


def test_suite_unary_merges_the_childs_sizes_in_order(monkeypatch, serial_rows):
    _in_the_child(monkeypatch, "state_complexity", lambda real, d: real(d) + 100)
    with leaves_nothing_behind():
        rows = _rows(suite_unary(40, 7))
    # every serial row is ok, so its predicted size is the size built here
    assert rows == [
        (name, predicted, str(int(predicted) + 100) if i % 2 else predicted, not i % 2)
        for i, (name, predicted, _, _) in enumerate(serial_rows["unary"])
    ]


def test_suite_chain_cofinite_merges_the_childs_verdicts_in_order(monkeypatch, serial_rows):
    _in_the_child(monkeypatch, "is_cofinite", lambda real, d: not real(d))
    with leaves_nothing_behind():
        rows = _rows(suite_chain_cofinite(40, 7))
    assert rows == [
        (name, predicted, str(predicted == "False") if i % 2 else predicted, not i % 2)
        for i, (name, predicted, _, _) in enumerate(serial_rows["chain-cofinite"])
    ]


def test_suite_bounds_merges_the_childs_law_results_in_order(monkeypatch):
    # one law planted to fail in the child: its rows name exactly the sets
    # at odd places of the corpus, in corpus order
    _in_the_child(monkeypatch, "equivalent", lambda real, a, b: False)
    with leaves_nothing_behind():
        report = suite_bounds(6, 5)
    corpus = random_word_sets(6, 5) + crafted_word_sets()
    assert [row.instance for row in report.failures()] == [
        *("window vs trie %s" % (s.words,) for s in corpus[1::2]),
        "window vs trie, %d sets" % len(corpus),
    ]


def test_suite_chain_cofinite_gives_a_cap_in_the_child_its_instances_rows(monkeypatch, serial_rows):
    def capped(real, xs, alphabet):
        raise CapExceeded("planted in the child")

    _in_the_child(monkeypatch, "minimal_chain_dfa", capped)
    with leaves_nothing_behind():
        report = suite_chain_cofinite(40, 7)
    assert report.cap_events == 20
    expected = [
        (name, predicted, "cap exceeded: planted in the child", False) if i % 2 else (name, predicted, actual, ok)
        for i, (name, predicted, actual, ok) in enumerate(serial_rows["chain-cofinite"])
    ]
    assert _rows(report) == expected


# ---------------------------------------------------------------------------
# the concordance of suite_bounds: languages generated per length


def _words_of(levels, alphabet):
    return {
        "".join(p)
        for n, level in enumerate(levels)
        for p, flag in zip(product(alphabet, repeat=n), level)
        if flag
    }


@st.composite
def words_and_chains(draw):
    """A binary or ternary word set and a chain order over it, repeats allowed."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    word = st.text(alphabet, min_size=1, max_size=4)
    words = draw(st.lists(word, min_size=1, max_size=4, unique=True))
    order = draw(st.lists(st.sampled_from(words), min_size=1, max_size=5))
    return alphabet, words, order


@given(words_and_chains())
def test_levels_match_closure_and_chain_oracles(case):
    alphabet, words, order = case
    upto = 7 if alphabet == "01" else 5
    assert _words_of(_levels(alphabet, upto, [words]), alphabet) == closure_upto(words, upto)
    chain = _levels(alphabet, upto, [[x] for x in order])
    assert _words_of(chain, alphabet) == chain_upto(order, upto)


def _least_difference(d, language, upto):
    """The first word in ``words_upto`` order on which ``d`` and the
    language disagree, walking the DFA word by word."""
    for w in words_upto(d.alphabet, upto):
        state = d.initial
        for c in w:
            state = d.transitions[state][d.alphabet.index(c)]
        if (state in d.finals) != (w in language):
            return w
    return None


DEEP = {"01": 12, "012": 8}
COUNT, SEED = 6, 5


def _oracle_rows(report, kind):
    return {r.instance for r in report.rows if r.instance.startswith(kind + " oracle")}


@pytest.mark.parametrize(
    "fault",
    [lambda order: order[::-1], lambda order: order[:-1] or order],
    ids=["reversed", "last-dropped"],
)
def test_chain_fault_reports_the_least_differing_word(monkeypatch, fault):
    _no_fork(monkeypatch)  # every automaton is built, and collected, here
    real, built = verify.minimal_chain_dfa, []

    def faulty(order, alphabet):
        d = real(fault(order), alphabet)
        built.append((order, d))
        return d

    monkeypatch.setattr(verify, "minimal_chain_dfa", faulty)
    report = suite_bounds(count=COUNT, seed=SEED)
    expected = set()
    for order, d in built:
        w = _least_difference(d, chain_upto(order, DEEP[d.alphabet]), DEEP[d.alphabet])
        if w is not None:
            expected.add("chain oracle %s word %s" % (order, w))
    assert expected and _oracle_rows(report, "chain") == expected
    assert _oracle_rows(report, "star") == set()


def _star_fault(real):
    """``minimize`` with the greatest accepting state other than the initial
    state made rejecting."""

    def faulty(d):
        m = real(d)
        finals = m.finals - {max(m.finals - {m.initial}, default=m.initial)}
        return Dfa(m.alphabet, m.transitions, m.initial, finals)

    return faulty


def test_star_fault_reports_the_least_differing_word(monkeypatch):
    _no_fork(monkeypatch)  # every automaton is built, and collected, here
    faulty, built = _star_fault(verify.minimize), []
    monkeypatch.setattr(verify, "minimize", lambda d: built.append(faulty(d)) or built[-1])
    report = suite_bounds(count=COUNT, seed=SEED)
    corpus = random_word_sets(COUNT, SEED) + crafted_word_sets()
    corpus = corpus[1::2] + corpus[0::2]  # without a child, the odd places run first
    expected = set()
    for s, d in zip(corpus, built, strict=True):
        if s.alphabet in DEEP:
            w = _least_difference(d, closure_upto(s.words, DEEP[s.alphabet]), DEEP[s.alphabet])
            if w is not None:
                expected.add("star oracle %s word %s" % (s.words, w))
    assert expected and _oracle_rows(report, "star") == expected
    assert _oracle_rows(report, "chain") == set()


ORACLE_FAULTS = {
    "chain-reversed": ("minimal_chain_dfa", lambda real: lambda order, a: real(order[::-1], a)),
    "chain-last-dropped": ("minimal_chain_dfa", lambda real: lambda order, a: real(order[:-1] or order, a)),
    "star": ("minimize", _star_fault),
}


@pytest.mark.parametrize("fault", ORACLE_FAULTS)
def test_oracle_faults_give_the_serial_rows_with_a_child(monkeypatch, fault):
    name, plant = ORACLE_FAULTS[fault]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    forks = counting_forks(monkeypatch)
    with leaves_nothing_behind():
        forked = _rows(suite_bounds(count=COUNT, seed=SEED))
    assert forks == [1]
    _no_fork(monkeypatch)
    assert _rows(suite_bounds(count=COUNT, seed=SEED)) == forked
    assert any(" oracle " in row[0] for row in forked)


def test_tmn_checks_the_count_measure_reports(monkeypatch):
    # suite_tmn reads the omitted count from measure_all, so a count planted
    # there is the one its omitted-count row checks
    real = verify.measure_all
    floor = omitted_count_lower_bound(two_length_family(3, 5))

    def faulty(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), omitted_count=floor - 1)

    monkeypatch.setattr(verify, "measure_all", faulty)
    report = suite_tmn(3, 5)
    assert [(r.instance, r.actual) for r in report.failures()] == [("omitted count", str(floor - 1))]
