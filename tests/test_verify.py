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
from frobword.automata import CapExceeded, Dfa
from frobword.families import omitted_count_lower_bound, star_blowup_family, two_length_family
from frobword.starlang import PreconditionViolated, minimal_star_dfa
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
from processes import _fork_fails, _no_fork, _pipe_fails, leaves_nothing_behind


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


@pytest.fixture(scope="module")
def serial_pairs():
    # every size worked out in this process: no child is started
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_fork", lambda fn: None)
        return {run: _rows(suite_pairs(*run)) for run in SPLIT_RUNS}


def _child_dies(mp):
    # the child ends without a word; its half is worked out in this process
    me, real = os.getpid(), verify.state_complexity
    mp.setattr(verify, "state_complexity", lambda d: real(d) if os.getpid() == me else os._exit(1))


@pytest.mark.parametrize("run", SPLIT_RUNS)
def test_suite_pairs_with_a_child_gives_the_serial_rows(monkeypatch, serial_pairs, run):
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    with leaves_nothing_behind():
        assert _rows(suite_pairs(*run)) == serial_pairs[run]
    assert len(forks) == 1


@pytest.mark.parametrize("fallback", [_fork_fails, _pipe_fails, _no_fork, _child_dies])
@pytest.mark.parametrize("run", SPLIT_RUNS)
def test_suite_pairs_works_out_the_childs_half_when_it_cannot(monkeypatch, serial_pairs, run, fallback):
    fallback(monkeypatch)
    with leaves_nothing_behind():
        assert _rows(suite_pairs(*run)) == serial_pairs[run]


@pytest.mark.parametrize("run", SPLIT_RUNS)
def test_suite_pairs_does_not_fork_beside_another_thread(monkeypatch, serial_pairs, run):
    def unexpected():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", unexpected)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with leaves_nothing_behind():
            assert _rows(suite_pairs(*run)) == serial_pairs[run]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.mark.parametrize("run", SPLIT_RUNS)
def test_suite_pairs_merges_the_childs_sizes_in_order(monkeypatch, run):
    # a size planted only in the child fails exactly the pairs at odd places
    # of the star pairs followed by the concat pairs
    me, real = os.getpid(), verify.state_complexity
    monkeypatch.setattr(verify, "state_complexity", lambda d: real(d) + (os.getpid() != me) * 100)
    words = ["".join(p) for n in range(1, run[0] + 1) for p in product("01", repeat=n)]
    stars = ["star {%s,%s}" % (w, x) for i, w in enumerate(words) for x in words[i:]]
    concats = ["concat %s* %s*" % wx for wx in product(words, repeat=2)]
    pairs = set(stars + concats)
    with leaves_nothing_behind():
        report = suite_pairs(*run)
    failed = [row.instance for row in report.failures() if row.instance in pairs]
    assert failed == (stars + concats)[1::2]
    assert not [row for row in report.rows if row.instance in pairs and row.ok]


def test_an_interrupted_suite_pairs_kills_and_reaps_the_child(monkeypatch):
    # the child has about 2,900 automata to build when the parent stops at its first
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


def test_star_fault_reports_the_least_differing_word(monkeypatch):
    real, built = verify.minimize, []

    def faulty(d):
        m = real(d)
        finals = m.finals - {max(m.finals - {m.initial}, default=m.initial)}
        m = Dfa(m.alphabet, m.transitions, m.initial, finals)
        built.append(m)
        return m

    monkeypatch.setattr(verify, "minimize", faulty)
    report = suite_bounds(count=COUNT, seed=SEED)
    corpus = random_word_sets(COUNT, SEED) + crafted_word_sets()
    expected = set()
    for s, d in zip(corpus, built, strict=True):
        if s.alphabet in DEEP:
            w = _least_difference(d, closure_upto(s.words, DEEP[s.alphabet]), DEEP[s.alphabet])
            if w is not None:
                expected.add("star oracle %s word %s" % (s.words, w))
    assert expected and _oracle_rows(report, "star") == expected
    assert _oracle_rows(report, "chain") == set()


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
