"""Star closures of word sets: membership oracles, the two DFA routes, the
chain of stars, and the combined measure report."""

import ast
import os
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import accumulate, chain, product
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
    Nfa,
    determinize,
    distinguishing_word,
    equivalent,
    is_cofinite,
    minimize,
)
from frobword.families import (
    base_repr,
    chain_blowup_family,
    star_blowup_family,
    star_blowup_sc,
    star_blowup_sc_floor,
    two_length_family,
)
from frobword.numeric import GcdNotOne, frobenius_f, frobenius_g, gcd_all, is_degenerate, representable
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
from frobword.verify import suite_bounds, suite_chain_cofinite, suite_pairs, suite_st, suite_unary
from frobword.words import (
    common_root,
    commutes,
    fine_wilf_agreement,
    predicted_pair_concat_sc,
    predicted_pair_star_sc,
    prefix_suffix_condition,
)
from oracles import chain_upto, closure_upto, sieve_reachable, subset_table, window_star_table, words_upto
from processes import (
    _fork_fails,
    _killed_mid_write,
    _no_fork,
    _pipe_fails,
    _silent_child,
    another_thread,
    counting_forks,
    in_the_child,
    leaves_nothing_behind,
)

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
    assert WordSet("01", ("0", "0")).words == ("0",)


def test_word_set_of_checks_its_words_once(monkeypatch):
    from frobword import automata

    calls, real = [], automata._check_words

    def counted(words, alphabet):
        calls.append(words)
        return real(words, alphabet)

    for module in (automata, starlang):
        monkeypatch.setattr(module, "_check_words", counted)
    WordSet.of("01", ["1", "0", "1"])
    assert len(calls) == 1


@given(st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=5), st.randoms())
def test_word_set_is_canonical_however_its_words_come_in(words, rng):
    shuffled = words + words
    rng.shuffle(shuffled)
    s = WordSet("01", shuffled)
    assert s == WordSet.of("01", words) and hash(s) == hash(WordSet.of("01", words))
    assert s.words == tuple(sorted(set(words), key=lambda w: (len(w), w)))


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
        if cap < 1:  # no state fits: refused before the search starts
            for build in (window_star_dfa, pending_star_dfa):
                with pytest.raises(PreconditionViolated, match="^the state cap must be at least 1, got 0$"):
                    build(s, cap)
            continue
        outcomes = {_built_or_cap_message(b, s, cap) for b in (window_star_dfa, pending_star_dfa)}
        want = "window construction exceeded %d states" % cap if cap < window_states else None
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


@st.composite
def law_sets(draw):
    """Up to 6 words on ``0``, ``01`` or ``012``, with 1-2 powers of each
    letter added on about half the draws, and a chain order of the set."""
    alphabet = draw(st.sampled_from(["0", "01", "012"]))
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=5), min_size=1, max_size=6))
    if draw(st.booleans()):
        words += [a * n for a in alphabet for n in draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))]
    s = WordSet.of(alphabet, words)
    return s, draw(st.permutations(s.words))


@settings(max_examples=200)
@given(law_sets())
def test_the_measures_keep_the_laws_that_tie_them(case):
    # pumping: on a co-finite side the longest omitted word's path through the
    # minimal DFA repeats no state.  Projections: S* maps onto the amounts the
    # word lengths reach, and a^k is in S* exactly when the lengths of a's
    # powers reach k, so every amount either misses is missed by omitted
    # words.  Chain inside star: the chain's language is a subset of S*
    s, order = case
    r = measure_all(s, order)
    sigma, lengths = len(s.alphabet), sorted({len(w) for w in s.words})
    powers = [sorted({len(w) for w in s.words if set(w) == {a}}) for a in s.alphabet]
    if r.cofinite_star:
        assert gcd(*lengths) == 1
        assert all(p and gcd(*p) == 1 for p in powers)
        if r.full_language:
            assert frobenius_g(lengths) == 0
        else:
            big_l, m = r.longest_omitted, r.omitted_count
            assert big_l <= r.star_sc - 1
            assert m <= sum(sigma**k for k in range(1, big_l + 1))
            assert big_l >= max(frobenius_g(p) for p in [lengths] + powers)
            gaps = [k for k in range(1, big_l + 1) if not representable(k, lengths)]
            # a^k for each letter a and each gap k of its powers that is no length gap
            letter_gaps = [k for p in powers for k in range(1, big_l + 1) if k not in gaps and not representable(k, p)]
            assert m >= sum(sigma**k for k in gaps) + len(letter_gaps)
    if r.chain_is_cofinite:
        assert r.cofinite_star
        assert r.full_language or not r.chain_full_language
        if not r.chain_full_language:
            assert r.chain_longest_omitted <= r.chain_sc - 1
            if not r.full_language:
                assert r.chain_longest_omitted >= r.longest_omitted


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
    counts = [window_star_dfa(s).state_count for s in FORK_SETS]
    forks = counting_forks(monkeypatch)
    searched, search = [], starlang._window_search  # the sets searched in this process
    monkeypatch.setattr(starlang, "_window_search", lambda s, cap: searched.append(s) or search(s, cap))
    for s, count in zip(FORK_SETS, counts):
        with leaves_nothing_behind():
            r = measure_all(s)
            assert measure_all(s, star=False).window_dfa_states is None
        assert r.window_dfa_states == count
    # one fork per set with at least the cut's number of windows, only st-10,
    # whose windows only the child searched
    numbering = starlang._window_numbering
    windows = [numbering(len(s.alphabet), s.max_word_length, DEFAULT_STATE_CAP)[0][-1] for s in FORK_SETS]
    assert len(forks) == sum(n >= starlang._FORK_WINDOWS for n in windows) == 1
    assert searched == FORK_SETS[:-1]


def test_one_function_forks_pipes_and_reaps():
    # every child, measure's and the verify suites', runs through _halves
    callers = set()
    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                    if node.attr in ("fork", "pipe", "waitpid"):
                        callers.add("%s.%s" % (path.stem, getattr(top, "name", "<module>")))
    assert callers == {"starlang._halves"}


def test_each_input_rule_is_spelled_in_one_function():
    # the word rule, the alphabet rule and the table-shape rule, in this wording
    # or an earlier one, each appear where one function (or the two automaton
    # constructors) spells it: a second spelling of any fails here
    spellings = {
        r"characters .*(outside|not in)|not in (the )?alphabet": {"automata._check_words"},
        r"distinct (characters|letters)|repeated character|empty alphabet": {"automata._check_alphabet"},
        r"successor set per symbol|one successor per symbol": {"automata.Nfa.__init__", "automata.Dfa.__init__"},
        r"must be at least|must be positive|must be nonnegative|needs t >=|is not an integer": {
            "automata._at_least",
            "automata._integer",
        },
        r"at least one word|words must be nonempty|empty chains|not meaningful": {"automata._check_generators"},
    }
    strings = []  # (innermost enclosing definition, string), docstrings aside

    def collect(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                strings.append((name, child.value))
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            collect(child, "%s.%s" % (name, child.name) if inner else name)

    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        collect(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    for pattern, where in spellings.items():
        assert {name for name, text in strings if re.search(pattern, text)} == where


def test_every_private_helper_has_a_caller():
    # a module-level private name is loaded by package code outside its own
    # definition: a docstring, an import or a test alone keeps nothing alive
    defined, loaded = set(), set()
    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", top)]
            names = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
            defined |= {(path.stem, n) for n in names if n and n.startswith("_") and not n.startswith("__")}
            here = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute):
                    here.add(node.attr)
            loaded |= here - names
    assert sorted("%s.%s" % (m, n) for m, n in defined if n not in loaded) == []


def test_every_private_default_is_passed_by_a_call():
    # a defaulted parameter of a module-level private function is given by
    # some call in the package, by keyword or by position (a starred argument
    # may give any): one that no call gives is a knob no caller sets
    defaults, calls = [], []
    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_") and not top.name.startswith("__"):
                spec = top.args
                plain = spec.posonlyargs + spec.args
                first = len(plain) - len(spec.defaults)
                defaults += [(path.stem, top.name, x.arg, i) for i, x in enumerate(plain) if i >= first]
                defaults += [(path.stem, top.name, x.arg, None) for x, d in zip(spec.kwonlyargs, spec.kw_defaults) if d]
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passed(name, arg, index):
        for call in calls:
            if getattr(call.func, "id", getattr(call.func, "attr", None)) != name:
                continue
            if any(k.arg in (arg, None) for k in call.keywords):
                return True
            if index is not None and (len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)):
                return True
        return False

    assert ["%s.%s.%s" % (m, f, arg) for m, f, arg, i in defaults if not passed(f, arg, i)] == []


def test_every_imported_name_is_loaded():
    # a name a module of the package imports is read in that module;
    # __init__.py imports to re-export, and __future__ binds nothing
    unused = []
    for path in sorted(Path(starlang.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        unused += ["%s.%s" % (path.stem, n) for n in sorted(imported - loaded)]
    assert unused == []


ANSWERS = {  # what ``fn`` answers for ``x``; the str case keeps the bare ids
    "str": lambda x: str(x * x),
    "int": lambda x: x * x,
    "nested": lambda x: [x, [str(x), None, x % 2 == 0]],
    "empty-str": lambda x: "",
    "zero": lambda x: 0,
    "empty-list": lambda x: [],
    "false": lambda x: False,
}
HALVES = [
    pytest.param(n, children, answer, True, id="%d-%d%s" % (n, children, "" if answer == "str" else "-" + answer))
    for answer in ANSWERS
    for n, children in [(0, 0), (1, 0), (2, 1), (3, 1)]
] + [pytest.param(n, 0, "str", False, id="%d-0-no-fork" % n) for n in range(4)]


@pytest.mark.parametrize("n, children, answer, fork", HALVES)
def test_halves_starts_a_child_only_for_an_item_at_an_odd_place(monkeypatch, n, children, answer, fork):
    # every answer, a falsy one too, comes back from the child as itself, and
    # this process works out only the items at even places; with no child it
    # works out the items at odd places first
    forks, fn, me, here = counting_forks(monkeypatch), ANSWERS[answer], os.getpid(), []

    def traced(x):
        if os.getpid() == me:
            here.append(x)
        return fn(x)

    items = list(range(5, 5 + n))
    with leaves_nothing_behind():
        answers = starlang._halves(traced, items) if fork else starlang._halves(traced, items, False)
    assert answers == [fn(x) for x in items]
    assert len(forks) == children
    assert here == (items[0::2] if children else items[1::2] + items[0::2])


@pytest.mark.parametrize("fallback", [_fork_fails, _pipe_fails, _no_fork, _silent_child, _killed_mid_write])
def test_measure_all_counts_here_when_a_child_cannot(monkeypatch, fallback):
    # a child silent, or killed half way through its reply, gave no answer:
    # the count runs again in this process
    serial = [every_field(measure_all(s)) for s in FORK_SETS]
    if fallback is _silent_child:
        in_the_child(monkeypatch, starlang, "_window_search", fallback)
    else:
        fallback(monkeypatch)
    with leaves_nothing_behind():
        assert [every_field(measure_all(s)) for s in FORK_SETS] == serial


def test_measure_all_does_not_fork_beside_another_thread(monkeypatch):
    serial = [every_field(measure_all(s)) for s in FORK_SETS]

    def unexpected():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", unexpected)
    with another_thread(), leaves_nothing_behind():
        assert [every_field(measure_all(s)) for s in FORK_SETS] == serial


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

    in_the_child(monkeypatch, starlang, "_window_search", _silent_child)
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
        st.sampled_from(
            [(2, 3, "01"), (3, 4, "01"), (3, 5, "01"), (2, 3, "012"), (4, 7, "01"), (3, 5, "012")]
        )
    )

    def some(length):
        # a few words of the length, or all but a few: a co-finite closure
        # needs every short word and most long ones
        every = ["".join(p) for p in product(alphabet, repeat=length)]
        few = draw(st.lists(st.sampled_from(every), unique=True, max_size=4))
        return [w for w in every if w not in few] if draw(st.booleans()) else few

    # half the draws keep every short word, so the borderline length is decided
    every_short = ["".join(p) for p in product(alphabet, repeat=m)]
    kept = (every_short if draw(st.booleans()) else some(m)) + some(n)
    assume(kept)
    return WordSet.of(alphabet, kept), m, n


@given(two_length_sets())
@example((two_length_family(2, 3, "012").words, 2, 3))
def test_two_length_cofinite_matches_automaton(case):
    s, m, n = case
    decided = two_length_cofinite(s, m, n)
    assert decided == is_cofinite(minimal_star_dfa(s))
    borderline = m * len(s.alphabet) ** (n - m) + n - m
    if borderline <= 7:  # the criterion itself, on every word the oracles list
        closure = closure_upto(s.words, borderline)
        shorts = {w for w in words_upto(s.alphabet, m) if len(w) == m}
        longs = [w for w in words_upto(s.alphabet, borderline) if len(w) == borderline]
        assert decided == (shorts <= set(s.words) and all(w in closure for w in longs))


def test_two_length_cofinite_budget(monkeypatch):
    from frobword.families import two_length_family

    fam = two_length_family(3, 5)
    # the window acceptor of the (3,5) family has 168 states: a cap of exactly 168 suffices
    assert two_length_cofinite(fam.words, 3, 5, budget=168) is True
    with pytest.raises(CapExceeded, match="exceeded 167 states"):
        two_length_cofinite(fam.words, 3, 5, budget=167)

    # the 31 windows, the strings shorter than 5, are over 10: refused before any move is worked out
    def unexpected(words):
        raise AssertionError("the window moves were worked out")

    monkeypatch.setattr(starlang, "_length_index", unexpected)
    with pytest.raises(CapExceeded, match="^window construction exceeded 10 states$"):
        two_length_cofinite(fam.words, 3, 5, budget=10)


CHAIN_CALLS = (
    lambda xs: member_chain(xs, "0"),
    lambda xs: chain_nfa(xs, "01"),
    lambda xs: chain_cofinite(xs, "01"),
)
TWO_LENGTH_CALLS = (
    lambda mn: two_length_family(*mn),
    lambda mn: two_length_cofinite(WordSet.of("01", ["00", "000"]), *mn),
)
# every entry that takes a list of words, and every one that takes a pair
LIST_CALLS = (
    lambda ws: WordSet("01", ws),
    lambda ws: chain_nfa(ws, "01"),
    lambda ws: chain_cofinite(ws, "01"),
    lambda ws: member_chain(ws, "0"),
    lambda ws: measure_all(WordSet.of("01", ["0"]), ws),
    prefix_suffix_condition,
)
PAIR_CALLS = (
    lambda ws: commutes(*ws),
    lambda ws: common_root(*ws),
    lambda ws: fine_wilf_agreement(*ws),
    lambda ws: predicted_pair_star_sc(*ws),
    lambda ws: predicted_pair_concat_sc(*ws),
)
ORDER = "lengths must satisfy 0 < short < long < 2*short"
STAR_BLOWUP_CALLS = (star_blowup_family, star_blowup_sc, star_blowup_sc_floor)
WORD_CALLS = (
    lambda w: WordSet.of("01", [w]),
    lambda w: chain_nfa([w], "01"),
    lambda w: chain_cofinite([w], "01"),
    lambda w: minimal_star_dfa(WordSet.of("01", ["0"])).accepts(w),
    lambda w: trie_star_nfa(WordSet.of("01", ["0"])).accepts(w),
    lambda w: member_star(WordSet.of("01", ["0"]), w),
)
ALPHABET_CALLS = (
    lambda a: WordSet.of(a, ["0"]),
    lambda a: Dfa(a, [[0, 0]], 0, []),
    lambda a: Nfa(a, [[{0}, {0}]], {0}, {0}),
    lambda a: Nfa.from_edges(1, a, [], {0}, {0}),
    lambda a: chain_nfa(["0"], a),
    lambda a: chain_cofinite(["0"], a),
    lambda a: two_length_family(2, 3, a),
)
FROBENIUS_CALLS = (frobenius_g, frobenius_f)
UNARY = WordSet.of("0", ["00", "000"])
# each integer parameter, as its refusal names it and with its least value,
# and the calls that take it
SIZE_CALLS = {
    ("the state cap", 1): (
        lambda c: determinize(trie_star_nfa(UNARY), c),
        lambda c: window_star_dfa(UNARY, c),
        lambda c: pending_star_dfa(UNARY, c),
        lambda c: minimal_star_dfa(UNARY, c),
        lambda c: minimal_chain_dfa(["00", "000"], "0", c),
        lambda c: measure_all(UNARY, state_cap=c),
        lambda c: measure_all(UNARY, star=False, state_cap=c),
        lambda c: two_length_cofinite(two_length_family(2, 3).words, 2, 3, budget=c),
        lambda c: measure_all(UNARY, star=False, chain=False, state_cap=c),
        lambda c: two_length_cofinite(WordSet.of("01", ["00", "000"]), 2, 3, budget=c),
    ),
    ("count", 1): (suite_unary, suite_chain_cofinite, suite_bounds),
    ("max_len", 2): (lambda c: suite_pairs(max_len=c),),
    ("agreement_total", 2): (lambda c: suite_pairs(agreement_total=c),),
    ("t_max", 2): (suite_st,),
    ("t", 2): STAR_BLOWUP_CALLS,
    ("t", 3): (chain_blowup_family,),
    ("base", 2): (lambda c: base_repr(1, c, 2),),
    ("width", 1): (lambda c: base_repr(1, 2, c),),
    ("a step size", 1): (
        lambda c: frobenius_g([c, 3]),
        lambda c: frobenius_f([c, 3]),
        lambda c: gcd_all([c, 3]),
        lambda c: is_degenerate([c, 3]),
        lambda c: representable(5, [c, 3]),
    ),
    ("amount", 0): (lambda c: representable(c, [2, 3]),),
    ("alphabet_size", 1): (lambda c: window_state_bound(c, 3),),
    ("max_len", 1): (lambda c: window_state_bound(2, c),),
}
# the integers with no least value
UNBOUNDED_CALLS = (lambda c: base_repr(c, 2, 2), lambda c: Nfa.from_edges(c, "01", [], {0}, {0}))


@pytest.mark.parametrize(
    "calls, arg, error, message",
    [
        (CHAIN_CALLS, [], ValueError, "at least one word is required"),
        (CHAIN_CALLS, ["0", ""], ValueError, "words must be nonempty"),
        (TWO_LENGTH_CALLS, (3, 7), PreconditionViolated, ORDER),
        (TWO_LENGTH_CALLS, (2, 4), PreconditionViolated, ORDER),
        (TWO_LENGTH_CALLS, (4, 6), PreconditionViolated, "the two lengths must be coprime"),
        (STAR_BLOWUP_CALLS, 1, PreconditionViolated, "t must be at least 2, got 1"),
        (FROBENIUS_CALLS, [4, 6], GcdNotOne, "step sizes [4, 6] have gcd 2"),
        (WORD_CALLS, "02", ValueError, "word '02' uses characters 2 not in alphabet '01'"),
        (ALPHABET_CALLS, "00", ValueError, "alphabet '00' must be a nonempty string of distinct characters"),
        (WORD_CALLS, 5, ValueError, "word 5 is not a string"),
        (ALPHABET_CALLS, 5, ValueError, "alphabet 5 must be a nonempty string of distinct characters"),
        (STAR_BLOWUP_CALLS, 2.5, PreconditionViolated, "2.5 is not an integer"),
        (TWO_LENGTH_CALLS, (3.0, 5), PreconditionViolated, "3.0 is not an integer"),
        (TWO_LENGTH_CALLS, (3, 5.0), PreconditionViolated, "5.0 is not an integer"),
        (tuple(chain(*SIZE_CALLS.values(), UNBOUNDED_CALLS)), 2.5, PreconditionViolated, "2.5 is not an integer"),
        *[
            (calls, least - 1, PreconditionViolated, "%s must be at least %d, got %d" % (name, least, least - 1))
            for (name, least), calls in SIZE_CALLS.items()
        ],
        (LIST_CALLS + (lambda ws: WordSet.of("01", ws),), [], ValueError, "at least one word is required"),
        (LIST_CALLS + PAIR_CALLS, ["0", ""], ValueError, "words must be nonempty"),
        (
            LIST_CALLS + PAIR_CALLS + (lambda ws: WordSet.of("01", ws), lambda ws: member_chain(["0"], ws[0])),
            [5, "0"],
            ValueError,
            "word 5 is not a string",
        ),
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
        (lambda: commutes(["0"], ["1"]), ValueError, "word ['0'] is not a string"),
        (lambda: fine_wilf_agreement(["0"], ["1"]), ValueError, "word ['0'] is not a string"),
        (lambda: chain_nfa(["2"], "01"), ValueError, "word '2' uses characters 2 not in alphabet '01'"),
        (
            lambda: two_length_cofinite(WordSet.of("01", ["0", "000", "00000"]), 3, 5),
            PreconditionViolated,
            "every word must have one of the two lengths",
        ),
        (lambda: representable(-1, [2, 3]), PreconditionViolated, "amount must be at least 0, got -1"),
        (lambda: star_blowup_sc(1), PreconditionViolated, "t must be at least 2, got 1"),
        (lambda: star_blowup_sc_floor(1), PreconditionViolated, "t must be at least 2, got 1"),
        (lambda: base_repr(1, 1, 2), PreconditionViolated, "base must be at least 2, got 1"),
        (lambda: base_repr(1, 2, 0), PreconditionViolated, "width must be at least 1, got 0"),
        (lambda: base_repr(1, 3, 2, symbols="ab"), ValueError, "need at least 3 digit symbols"),
        (
            lambda: base_repr(0, 2, 2, symbols="aab"),
            ValueError,
            "alphabet 'aa' must be a nonempty string of distinct characters",
        ),
        (lambda: chain_blowup_family(2), PreconditionViolated, "t must be at least 3, got 2"),
        (lambda: chain_blowup_family(3.5), PreconditionViolated, "3.5 is not an integer"),
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
