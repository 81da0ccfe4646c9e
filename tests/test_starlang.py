"""Star closures of word sets: membership oracles, the two DFA routes, the
chain of stars, and the combined measure report."""

import ast
import os
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import accumulate, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobword import starlang
from frobword.automata import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    Dfa,
    determinize,
    distinguishing_word,
    equivalent,
    is_cofinite,
    minimize,
)
from frobword.families import (
    base_repr,
    star_blowup_family,
    star_blowup_sc,
    star_blowup_sc_floor,
    two_length_family,
)
from frobword.numeric import frobenius_g, representable
from frobword.starlang import (
    BudgetExceeded,
    PreconditionViolated,
    WordSet,
    chain_cofinite,
    chain_nfa,
    measure_all,
    member_chain,
    member_star,
    minimal_chain_dfa,
    minimal_star_dfa,
    pending_star_dfa,
    trie_star_nfa,
    two_length_cofinite,
    window_star_dfa,
    window_state_bound,
)
from frobword.words import fine_wilf_agreement
from oracles import chain_upto, closure_upto, sieve_reachable, subset_table, window_star_table, words_upto
from processes import _fork_fails, _no_fork, _pipe_fails, counting_forks, leaves_nothing_behind

small_sets = st.lists(
    st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=4
).map(lambda ws: WordSet.of("01", ws))


def test_word_set_normalization():
    s = WordSet.of("01", ["10", "0", "10", "1"])
    assert s.words == ("0", "1", "10")
    assert s.word_count == 3
    assert s.max_word_length == 2
    assert s.total_symbols == 4


def test_word_set_drops_empty_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = WordSet.of("01", ["", "0"])
    assert s.words == ("0",)
    assert len(caught) == 1


def test_word_set_rejects_bad_input():
    with pytest.raises(ValueError):
        WordSet.of("01", ["2"])
    with pytest.raises(ValueError):
        WordSet.of("00", ["0"])
    with pytest.raises(ValueError):
        WordSet("01", ("",))
    with pytest.raises(ValueError):
        WordSet("01", ("0", "0"))


def test_member_star_known():
    s = WordSet.of("01", ["0", "01", "11"])
    assert member_star(s, "")
    assert member_star(s, "0011")
    assert not member_star(s, "1")
    assert not member_star(s, "111")


@given(small_sets)
def test_member_star_matches_brute_closure(s):
    closure = closure_upto(s.words, 6)
    for w in words_upto("01", 6):
        assert member_star(s, w) == (w in closure)


def test_member_chain_known():
    assert member_chain(["00", "000"], "00000")
    assert not member_chain(["00", "000"], "0")
    assert member_chain(["0", "1"], "0011")
    assert not member_chain(["0", "1"], "0110")
    assert member_chain(["01", "01"], "0101")


@given(
    st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=3)
)
def test_member_chain_matches_brute(xs):
    chain = chain_upto(xs, 6)
    for w in words_upto("01", 6):
        assert member_chain(xs, w) == (w in chain)


def test_trie_nfa_size_bound_and_language():
    s = WordSet.of("01", ["0", "01", "11"])
    n = trie_star_nfa(s)
    assert n.state_count <= s.total_symbols - s.word_count + 1
    closure = closure_upto(s.words, 6)
    for w in words_upto("01", 6):
        assert n.accepts(w) == (w in closure)


@given(small_sets)
def test_window_route_equals_trie_route(s):
    assert equivalent(window_star_dfa(s), determinize(trie_star_nfa(s)))


@st.composite
def window_sets(draw):
    alphabet = "012"[: draw(st.integers(1, 3))]
    words = draw(
        st.lists(st.text(alphabet=alphabet, min_size=1, max_size=6), min_size=1, max_size=5)
    )
    return WordSet.of(alphabet, words)


@given(window_sets())
@example(WordSet.of("01", ["0", "01", "11"]))  # "0" and "1" differ only in that "0" is a word
def test_trie_nfa_has_one_state_per_completion_set(s):
    # {v : pv in S} for each nonempty proper prefix p; the root is apart
    prefixes = {x[:j] for x in s.words for j in range(1, len(x))}
    completions = {frozenset(x[len(p) :] for x in s.words if x.startswith(p)) for p in prefixes}
    n = trie_star_nfa(s)
    assert n.state_count == 1 + len(completions) <= s.total_symbols - s.word_count + 1
    closure = closure_upto(s.words, 5)
    for w in words_upto(s.alphabet, 5):
        assert n.accepts(w) == (w in closure)


@given(window_sets())
def test_window_dfa_matches_reference_table(s):
    d = window_star_dfa(s)
    assert (d.transitions, d.initial, d.finals) == window_star_table(s.alphabet, s.words)


def _built_or_cap_message(build, s, cap):
    try:
        build(s, cap)
    except CapExceeded as exc:
        return str(exc)
    return None


@given(window_sets())
def test_pending_merge_matches_trie_subsets_and_window(s):
    quotient, window_states = pending_star_dfa(s)
    window = window_star_dfa(s)
    # the quotient is the subset automaton of the suffix-merged trie
    assert quotient.state_count == determinize(trie_star_nfa(s)).state_count
    assert window_states == window.state_count
    assert window_states == len(window_star_table(s.alphabet, s.words)[0])
    assert minimize(quotient) == minimize(window)
    for cap in {0, 1, window_states - 1, window_states}:
        outcomes = {_built_or_cap_message(b, s, cap) for b in (window_star_dfa, pending_star_dfa)}
        # a one-state window acceptor never grows, so no cap stops it
        grows = cap < window_states and window_states > 1
        want = "window construction exceeded %d states" % cap if grows else None
        assert outcomes == {want}


@given(window_sets())
def test_constructions_number_their_states_breadth_first(s):
    # minimize keeps a ``numbered`` table as it is, so each construction's table
    # must be its own breadth-first numbering with every state reached
    chain = determinize(chain_nfa(list(s.words), s.alphabet))
    window = window_star_dfa(s)
    for d in (pending_star_dfa(s)[0], window, determinize(trie_star_nfa(s)), chain, minimize(window)):
        assert d.numbered
        order = [d.initial]
        for q in order:
            order += [t for t in dict.fromkeys(d.transitions[q]) if t not in order]
        assert order == list(range(d.state_count))
        assert minimize(d) == minimize(Dfa(d.alphabet, d.transitions, d.initial, d.finals))


@pytest.mark.parametrize("words", [["0", "01", "11"], ["00", "000"], ["01", "10", "111"]])
def test_window_dfa_cap_is_a_state_count(words):
    s = WordSet.of("01", words)
    n = window_star_dfa(s).state_count
    assert window_star_dfa(s, state_cap=n).state_count == n
    with pytest.raises(CapExceeded):
        window_star_dfa(s, state_cap=n - 1)


def test_window_count_memory_follows_the_state_count():
    # one word of 800 zeros has 1,599 window states, each a code of about
    # 800 bits; a label per suffix of every window would take tens of MiB
    s = WordSet.of("0", ["0" * 800])
    tracemalloc.start()
    try:
        quotient, window_states = pending_star_dfa(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (window_states, quotient.state_count) == (1599, 800)
    assert peak < 2 * 2**20


def test_window_search_memory_on_a_long_word():
    # the 3,200 windows are numbers, not strings of up to 3,199 letters; what
    # is left is the codes and moves, integers of about 3,200 bits
    s = WordSet.of("0", ["0" * 3200])
    tracemalloc.start()
    try:
        codes, moves = starlang._window_search(s, DEFAULT_STATE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(codes), len(moves)) == (6399, 3200)
    assert peak < 7 * 2**20


def test_window_count_is_capped_before_the_search():
    # every string shorter than the word is a window, so one binary word of 21
    # letters has 2**21 - 1 windows, refused from the parameters alone
    s = WordSet.of("01", ["0" * 10 + "1" * 11])
    for build in (starlang._window_search, window_star_dfa, pending_star_dfa):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                build(s, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "window construction exceeded 20000 states"
        assert peak < 2**20


@given(small_sets)
def test_window_state_count_within_bound(s):
    d = window_star_dfa(s)
    assert d.state_count <= window_state_bound(len(s.alphabet), s.max_word_length)


def test_chain_nfa_size_and_language():
    xs = ["01", "0", "01"]
    n = chain_nfa(xs, "01")
    assert n.state_count <= sum(len(x) for x in xs) + 1
    chain = chain_upto(xs, 6)
    for w in words_upto("01", 6):
        assert n.accepts(w) == (w in chain)


@st.composite
def chains(draw):
    """Chains over 1-3 letters drawn from a small pool of words, so repeated
    words and one-letter words are common."""
    alphabet = draw(st.sampled_from(["0", "01", "012"]))
    pool = draw(st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=1, max_size=3))
    return alphabet, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


@given(chains())
def test_chain_nfa_steps_inside_loops_are_shifts(case):
    alphabet, xs = case
    n = chain_nfa(xs, alphabet)
    anchors = [end - 1 for end in accumulate(map(len, xs))]
    assert (sorted(n.finals), n.initial) == (anchors, {anchors[0]})
    for s, row in enumerate(n.transitions):
        if s not in n.finals:
            assert [cell for cell in row if cell] == [frozenset({s + 1})]


@given(chains())
def test_chain_determinize_matches_subset_oracle(case):
    alphabet, xs = case
    n = chain_nfa(xs, alphabet)
    edges = [
        (s, alphabet[i], t)
        for s, row in enumerate(n.transitions)
        for i, cell in enumerate(row)
        for t in cell
    ]
    rows, finals = subset_table(
        alphabet, n.state_count, edges, n.initial, n.finals, DEFAULT_STATE_CAP
    )
    d = determinize(n)
    assert (d.transitions, d.finals) == (rows, finals)
    chain = chain_upto(xs, 5)
    for w in words_upto(alphabet, 5):
        assert d.accepts(w) == (w in chain)


def test_chain_cofinite_criterion():
    assert chain_cofinite(["00", "000"], "0")
    assert not chain_cofinite(["00", "0000"], "0")
    assert not chain_cofinite(["00", "000"], "01")
    assert chain_cofinite(["0"], "0")
    # criterion equals the automaton verdict on these
    assert is_cofinite(minimal_chain_dfa(["00", "000"], "0"))
    assert not is_cofinite(minimal_chain_dfa(["00", "0000"], "0"))
    assert not is_cofinite(minimal_chain_dfa(["00", "000"], "01"))


def test_measure_all_unary_golden():
    s = WordSet.of("0", ["00", "000"])
    r = measure_all(s)
    assert r.cofinite_star is True
    assert r.full_language is False
    assert r.longest_omitted == 1
    assert r.longest_omitted_word == "0"
    assert r.omitted_count == 1
    assert r.star_sc == 3
    assert r.chain_sc == 3
    assert r.chain_is_cofinite is True
    assert r.chain_longest_omitted == 1
    assert r.nfa_size_bound == 4


def test_measure_all_binary_ambient_golden():
    # the same two words measured over a two-letter alphabet: nothing is
    # co-finite any more and both minimal automata pick up a sink
    s = WordSet.of("01", ["00", "000"])
    r = measure_all(s)
    assert r.cofinite_star is False
    assert r.longest_omitted is None
    assert r.omitted_count is None
    assert r.star_sc == 4
    assert r.chain_sc == 4
    assert r.chain_is_cofinite is False


def test_measure_all_full_language():
    r = measure_all(WordSet.of("01", ["0", "1"]))
    assert r.cofinite_star is True
    assert r.full_language is True
    assert r.longest_omitted is None
    assert r.omitted_count == 0
    assert r.star_sc == 1


@settings(max_examples=200)
@given(st.lists(st.integers(2, 15), min_size=2, max_size=4).filter(lambda lengths: gcd(*lengths) == 1))
def test_unary_omissions_follow_the_frobenius_number(lengths):
    # over one letter both sides omit the amounts no sum of the lengths reaches
    g = frobenius_g(lengths)
    r = measure_all(WordSet.of("0", ["0" * n for n in lengths]))
    assert r.cofinite_star is r.chain_is_cofinite is True
    assert r.longest_omitted == r.chain_longest_omitted == g
    assert r.omitted_count == sieve_reachable(lengths, g).count(False)


@st.composite
def renamed_sets(draw):
    """Words on ``01`` or ``012`` (a chain order) and a permutation of the letters."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=1, max_size=4))
    return alphabet, words, str.maketrans(alphabet, "".join(draw(st.permutations(alphabet))))


@settings(max_examples=200)
@given(renamed_sets())
def test_renaming_the_letters_changes_no_measure(case):
    # a renaming is an automorphism of the free monoid: it maps S* onto the
    # closure of the renamed words; witnesses may differ, their lengths not
    alphabet, words, rename = case
    image = [w.translate(rename) for w in words]

    def lengths(ws):
        r = measure_all(WordSet.of(alphabet, ws), ws)
        return replace(r, longest_omitted_word=None, chain_longest_omitted_word=None)

    assert lengths(image) == lengths(words)
    for w, x in product(words, repeat=2):
        assert fine_wilf_agreement(w.translate(rename), x.translate(rename)) == fine_wilf_agreement(w, x)


def test_measure_all_toggles():
    s = WordSet.of("0", ["00", "000"])
    r = measure_all(s, star=False)
    assert r.cofinite_star is None
    assert r.star_sc is None
    assert r.window_dfa_states is None
    assert r.chain_sc == 3
    r = measure_all(s, chain=False)
    assert r.chain_sc is None
    assert r.chain_is_cofinite is None
    assert r.star_sc == 3


def test_measure_all_reads_the_chain_verdict_off_the_automaton(monkeypatch):
    sets = [WordSet.of("0", ["00", "000"]), WordSet.of("0", ["0"]), WordSet.of("01", ["0", "01", "11"])]
    before = [measure_all(s) for s in sets]
    assert [r.chain_is_cofinite for r in before] == [True, True, False]
    assert [r.chain_full_language for r in before] == [False, True, False]

    def refuse(*args):
        raise AssertionError("measure_all consulted the closed form")

    monkeypatch.setattr(starlang, "chain_cofinite", refuse)
    assert [measure_all(s) for s in sets] == before


@given(chains())
def test_measured_chain_verdict_equals_the_criterion(case):
    alphabet, xs = case
    r = measure_all(WordSet.of(alphabet, xs), xs, star=False)
    assert r.chain_is_cofinite == chain_cofinite(xs, alphabet)


FORK_SETS = [
    WordSet.of("01", ["0", "01", "11"]),
    WordSet.of("0", ["00", "000"]),
    WordSet.of("01", ["0", "1"]),
    two_length_family(3, 5).words,
    star_blowup_family(6).words,
    star_blowup_family(10).words,  # the one set at or above the fork cut
]


def every_field(r):
    # the DFAs take no part in report equality, so compare field by field
    return [getattr(r, f.name) for f in fields(r)]


def test_measure_all_counts_the_windows_in_a_child(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for s in FORK_SETS:
        with leaves_nothing_behind():
            r = measure_all(s)
            assert measure_all(s, star=False).window_dfa_states is None
        assert r.window_dfa_states == window_star_dfa(s).state_count
    # one fork per set with at least the cut's number of windows, only st-10
    numbering = starlang._window_numbering
    windows = [numbering(len(s.alphabet), s.max_word_length, DEFAULT_STATE_CAP)[0][-1] for s in FORK_SETS]
    assert len(forks) == sum(n >= starlang._FORK_WINDOWS for n in windows) == 1


def test_one_function_forks_pipes_and_reaps():
    # every child, measure's and the verify suites', runs through _beside
    callers = set()
    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                    if node.attr in ("fork", "pipe", "waitpid"):
                        callers.add("%s.%s" % (path.stem, getattr(top, "name", "<module>")))
    assert callers == {"starlang._beside"}


@pytest.mark.parametrize("n, children", [(0, 0), (1, 0), (2, 1), (3, 1)])
def test_halves_starts_a_child_only_for_an_item_at_an_odd_place(monkeypatch, n, children):
    forks = counting_forks(monkeypatch)
    items = list(range(5, 5 + n))
    with leaves_nothing_behind():
        assert starlang._halves(lambda x: str(x * x), items) == [str(x * x) for x in items]
    assert len(forks) == children


def _child_dies(mp):
    # the child ends without a word; the count runs again in this process
    me, search = os.getpid(), starlang._window_search

    def search_or_die(*args):
        if os.getpid() != me:
            os._exit(1)
        return search(*args)

    mp.setattr(starlang, "_window_search", search_or_die)


@pytest.mark.parametrize("fallback", [_fork_fails, _pipe_fails, _no_fork, _child_dies])
def test_measure_all_counts_here_when_a_child_cannot(monkeypatch, fallback):
    serial = [every_field(measure_all(s)) for s in FORK_SETS]
    fallback(monkeypatch)
    with leaves_nothing_behind():
        assert [every_field(measure_all(s)) for s in FORK_SETS] == serial


def test_measure_all_does_not_fork_beside_another_thread(monkeypatch):
    serial = [every_field(measure_all(s)) for s in FORK_SETS]

    def unexpected():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", unexpected)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with leaves_nothing_behind():
            assert [every_field(measure_all(s)) for s in FORK_SETS] == serial
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


NO_CHILD = [(cap, f) for f in (_fork_fails, _pipe_fails, _no_fork) for cap in (20_000, 5000)]


@pytest.mark.parametrize(
    "t, cap, fallback",
    [(6, 1000, None), (6, 300, None), (10, 20_000, None), (10, 5000, None)]
    + [(10, cap, f) for cap, f in NO_CHILD],
    ids=["1000", "300", "st10-20000", "st10-5000"] + ["st10-%d-%s" % (c, f.__name__) for c, f in NO_CHILD],
)
def test_the_window_cap_wins_over_the_subset_cap(monkeypatch, t, cap, fallback):
    # st-6 has 127 windows, counted in process, 1,247 window states and 368
    # subset states; st-10 has 2,047 windows, counted in a child, 44,799
    # window states and 9,472 subset states.  At the larger cap only the
    # window count trips, at the smaller the subset construction as well.
    # With no child, the count runs in process before the build
    if fallback:
        fallback(monkeypatch)
    s = star_blowup_family(t).words
    with leaves_nothing_behind(), pytest.raises(CapExceeded) as exc:
        measure_all(s, state_cap=cap)
    assert str(exc.value) == "window construction exceeded %d states" % cap


def test_a_refused_window_count_starts_no_child_and_no_build(monkeypatch):
    def unexpected(*args):
        raise AssertionError("started")

    monkeypatch.setattr(os, "fork", unexpected)
    monkeypatch.setattr(starlang, "minimal_star_dfa", unexpected)
    s = WordSet.of("01", ["0" * 10 + "1" * 11])
    with leaves_nothing_behind(), pytest.raises(CapExceeded) as exc:
        measure_all(s, state_cap=20_000)
    assert str(exc.value) == "window construction exceeded 20000 states"


@pytest.mark.parametrize(
    "t, cap",
    [(6, DEFAULT_STATE_CAP), (6, 1000), (10, DEFAULT_STATE_CAP), (10, 20_000)],
    ids=[str(DEFAULT_STATE_CAP), "1000", "st10-%d" % DEFAULT_STATE_CAP, "st10-20000"],
)
def test_a_failed_star_build_still_reaps_the_child(monkeypatch, t, cap):
    # out of memory in the build: the window cap message wins when the count
    # trips it, as it would had the count run first
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(starlang, "minimal_star_dfa", out_of_memory)
    s = star_blowup_family(t).words
    want = MemoryError if cap == DEFAULT_STATE_CAP else CapExceeded
    with leaves_nothing_behind(), pytest.raises(want):
        measure_all(s, state_cap=cap)


def test_a_failed_star_build_does_not_recount_for_a_silent_child(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    _child_dies(monkeypatch)
    searches, search = [], starlang._window_search
    monkeypatch.setattr(starlang, "_window_search", lambda *args: searches.append(1) or search(*args))
    monkeypatch.setattr(starlang, "minimal_star_dfa", out_of_memory)
    with leaves_nothing_behind(), pytest.raises(MemoryError):
        measure_all(star_blowup_family(10).words)
    assert searches == []


def test_a_budget_hit_in_the_child_is_raised_as_itself(monkeypatch):
    # only a cap hit crosses the pipe: any other error ends the child without
    # an answer, and the count, run again here, raises it as itself
    def over_budget(*args):
        raise BudgetExceeded("planted budget")

    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(starlang, "_window_search", over_budget)
    with leaves_nothing_behind(), pytest.raises(BudgetExceeded, match="^planted budget$"):
        measure_all(star_blowup_family(10).words)
    assert forks == [1]


def test_an_interrupted_star_build_kills_and_reaps_the_child(monkeypatch):
    # st-10's count takes a while, so the child is still counting when killed
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(starlang, "minimal_star_dfa", interrupted)
    with leaves_nothing_behind(), pytest.raises(KeyboardInterrupt):
        measure_all(star_blowup_family(10).words)


def test_measure_all_order_validation():
    s = WordSet.of("01", ["0", "1"])
    r = measure_all(s, ["1", "0", "1"])
    assert r.chain_sc is not None
    with pytest.raises(ValueError):
        measure_all(s, ["0"])
    with pytest.raises(ValueError):
        measure_all(s, ["0", "1", "11"])


def test_minimal_star_dfa_is_minimal():
    s = WordSet.of("01", ["0", "01", "11"])
    d = minimal_star_dfa(s)
    assert d.minimal
    assert d.state_count == minimize(determinize(trie_star_nfa(s))).state_count


def test_minimal_star_dfa_runs_no_window_search(monkeypatch):
    from frobword import starlang

    sets = [WordSet.of("01", ["0", "01", "11"]), WordSet.of("0", ["00", "000"])]
    before = [minimal_star_dfa(s) for s in sets]

    def unexpected(*args):
        raise AssertionError("_window_search ran")

    monkeypatch.setattr(starlang, "_window_search", unexpected)
    assert [minimal_star_dfa(s) for s in sets] == before


def test_two_length_cofinite_decision():
    from frobword.families import two_length_family

    fam = two_length_family(2, 3)
    assert two_length_cofinite(fam.words, 2, 3) is True
    # removing a short word destroys the property
    rest = WordSet.of("01", [w for w in fam.words.words if w != "00"])
    assert two_length_cofinite(rest, 2, 3) is False


@st.composite
def two_length_sets(draw):
    m, n, alphabet = draw(
        st.sampled_from([(2, 3, "01"), (3, 4, "01"), (3, 5, "01"), (2, 3, "012")])
    )

    def some(length):
        # a few words of the length, or all but a few: a co-finite closure
        # needs every short word and most long ones
        every = ["".join(p) for p in product(alphabet, repeat=length)]
        few = draw(st.lists(st.sampled_from(every), unique=True, max_size=4))
        return [w for w in every if w not in few] if draw(st.booleans()) else few

    kept = some(m) + some(n)
    assume(kept)
    return WordSet.of(alphabet, kept), m, n


@given(two_length_sets())
def test_two_length_cofinite_matches_automaton(case):
    s, m, n = case
    assert two_length_cofinite(s, m, n) == is_cofinite(minimal_star_dfa(s))


def test_two_length_cofinite_budget():
    from frobword.families import two_length_family

    fam = two_length_family(3, 5)
    with pytest.raises(BudgetExceeded):
        two_length_cofinite(fam.words, 3, 5, budget=10)
    # the borderline length is 3 * 2**2 + 2 = 14: a budget of exactly 2**14 words suffices
    assert two_length_cofinite(fam.words, 3, 5, budget=2**14) is True
    with pytest.raises(BudgetExceeded, match="16384 words of length 14"):
        two_length_cofinite(fam.words, 3, 5, budget=2**14 - 1)


CHAIN_CALLS = (
    lambda xs: member_chain(xs, "0"),
    lambda xs: chain_nfa(xs, "01"),
    lambda xs: chain_cofinite(xs, "01"),
)
TWO_LENGTH_CALLS = (
    lambda mn: two_length_family(*mn),
    lambda mn: two_length_cofinite(WordSet.of("01", ["00", "000"]), *mn),
)
ORDER = "lengths must satisfy 0 < short < long < 2*short"


@pytest.mark.parametrize(
    "calls, arg, error, message",
    [
        (CHAIN_CALLS, [], ValueError, "empty chains are not meaningful"),
        (CHAIN_CALLS, ["0", ""], ValueError, "chain words must be nonempty"),
        (TWO_LENGTH_CALLS, (3, 7), PreconditionViolated, ORDER),
        (TWO_LENGTH_CALLS, (2, 4), PreconditionViolated, ORDER),
        (TWO_LENGTH_CALLS, (4, 6), PreconditionViolated, "the two lengths must be coprime"),
    ],
)
def test_each_input_rule_raises_the_same_error_everywhere(calls, arg, error, message):
    for call in calls:
        with pytest.raises(error) as caught:
            call(arg)
        assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: WordSet.of("01", []), ValueError, "at least one word is required"),
        (lambda: chain_nfa(["2"], "01"), ValueError, "chain words use characters outside '01'"),
        (
            lambda: two_length_cofinite(WordSet.of("01", ["0", "000", "00000"]), 3, 5),
            PreconditionViolated,
            "every word must have one of the two lengths",
        ),
        (lambda: representable(-1, [2, 3]), ValueError, "amount must be nonnegative"),
        (lambda: star_blowup_sc(1), PreconditionViolated, "the family needs t >= 2"),
        (lambda: star_blowup_sc_floor(1), PreconditionViolated, "the family needs t >= 2"),
        (lambda: base_repr(1, 1, 2), ValueError, "base must be at least 2"),
        (lambda: base_repr(1, 2, 0), ValueError, "width must be positive"),
        (lambda: base_repr(1, 3, 2, symbols="ab"), ValueError, "need at least 3 digit symbols"),
        (
            lambda: distinguishing_word(
                minimal_star_dfa(WordSet.of("0", ["0"])), minimal_star_dfa(WordSet.of("01", ["0"]))
            ),
            ValueError,
            "automata use different alphabets",
        ),
    ],
)
def test_each_one_call_input_rule_raises_its_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
