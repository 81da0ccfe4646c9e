"""Determinization, minimization and finite-language analysis on small
machines, cross-checked against brute enumeration and a naive refinement
oracle."""

import random
import re
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobword import automata
from frobword.automata import (
    CapExceeded,
    Dfa,
    Nfa,
    NotFinite,
    complement,
    count_words,
    determinize,
    distinguishing_word,
    equivalent,
    has_dead_state,
    is_cofinite,
    longest_word,
    minimize,
    state_complexity,
    to_dot,
)
from frobword.starlang import WordSet, minimal_star_dfa, window_star_dfa
from oracles import finite_language, moore_state_count, sieve_g_f, subset_table, words_upto


def all_but_one_word():
    """Complete DFA over 01 accepting every word except "1"."""
    # 0 start, 1 saw exactly "1", 2 anything else
    trans = ((2, 1), (2, 2), (2, 2))
    return Dfa("01", trans, 0, frozenset({0, 2}))


def even_zeros():
    trans = ((1, 0), (0, 1))
    return Dfa("01", trans, 0, frozenset({0}))


def test_nfa_accepts_by_simulation():
    # two-state NFA for words ending in 1
    n = Nfa.from_edges(
        2, "01", [(0, "0", 0), (0, "1", 0), (0, "1", 1)], [0], [1]
    )
    assert n.accepts("01")
    assert n.accepts("111")
    assert not n.accepts("10")
    assert not n.accepts("")


NONE = frozenset()


@pytest.mark.parametrize(
    "alphabet, rows, initial, finals",
    [
        ("01", (), 0, NONE),  # no state at all
        ("01", ((0, 0), (0,)), 0, NONE),  # a short row
        ("01", ((0, 1),), 0, NONE),  # a target past the last state
        ("01", ((0, -1),), 0, NONE),  # a negative target
        ("01", ((0, 0),), 1, NONE),  # the initial state
        ("01", ((0, 0),), 0, frozenset({1})),  # a final state
        ("01", ((0, 0),), 0, frozenset({-1})),
        ("00", ((0, 0),), 0, NONE),  # a repeated letter
        ("", ((),), 0, NONE),  # no letter
    ],
)
def test_dfa_constructor_rejects_malformed_tables(alphabet, rows, initial, finals):
    with pytest.raises(ValueError):
        Dfa(alphabet, rows, initial, finals)


ONE = frozenset({0})


@pytest.mark.parametrize(
    "alphabet, rows, initial, finals",
    [
        ("01", (), ONE, NONE),
        ("01", ((NONE, NONE), (NONE,)), ONE, NONE),
        ("01", ((frozenset({1}), NONE),), ONE, NONE),
        ("01", ((frozenset({-1}), NONE),), ONE, NONE),
        ("01", ((NONE, NONE),), frozenset({1}), NONE),  # a start state
        ("01", ((NONE, NONE),), frozenset({-1}), NONE),
        ("01", ((NONE, NONE),), NONE, NONE),  # no start state
        ("01", ((NONE, NONE),), ONE, frozenset({1})),  # a final state
        ("01", ((NONE, NONE),), ONE, frozenset({-1})),
        ("00", ((NONE, NONE),), ONE, NONE),
    ],
)
def test_nfa_constructor_rejects_malformed_tables(alphabet, rows, initial, finals):
    with pytest.raises(ValueError):
        Nfa(alphabet, rows, initial, finals)


@pytest.mark.parametrize("edge", [(-1, "0", 0), (2, "0", 0), (0, "2", 0), (0, "0", 2), (0, "0", -1)])
def test_from_edges_names_an_edge_outside_the_automaton(edge):
    with pytest.raises(ValueError, match=re.escape(repr(edge))):
        Nfa.from_edges(2, "01", [(0, "1", 1), edge], {0}, {0})


def test_accepts_refuses_symbols_outside_the_alphabet():
    nfa = Nfa.from_edges(1, "01", [(0, "0", 0)], {0}, {0})
    for fa in (nfa, determinize(nfa)):
        assert fa.accepts("00") and not fa.accepts("1")
        for word in ("02", "12", "2"):
            with pytest.raises(ValueError, match="'2'"):
                fa.accepts(word)


def test_determinize_agrees_with_nfa():
    n = Nfa.from_edges(
        3,
        "01",
        [(0, "0", 0), (0, "1", 0), (0, "1", 1), (1, "0", 2), (2, "1", 2)],
        [0],
        [2],
    )
    d = determinize(n)
    for w in words_upto("01", 7):
        assert d.accepts(w) == n.accepts(w)


def test_determinize_cap():
    n = Nfa.from_edges(
        3, "0", [(0, "0", 0), (0, "0", 1), (1, "0", 2)], [0], [2]
    )
    with pytest.raises(CapExceeded):
        determinize(n, state_cap=2)


def test_minimize_known_collapse():
    # states 1 and 2 are indistinguishable
    trans = ((1, 2), (1, 2), (1, 2))
    d = Dfa("01", trans, 0, frozenset({1, 2}))
    m = minimize(d)
    assert m.state_count == 2
    assert m.minimal
    assert equivalent(d, m)


def test_minimize_idempotent_and_canonical():
    d = all_but_one_word()
    m = minimize(d)
    assert minimize(m) == m
    # a table flagged minimal is renumbered like any other, from initial 0
    rows = ((0, 1), (1, 0))
    flagged = minimize(Dfa("01", rows, 1, {1}, minimal=True))
    assert flagged.initial == 0 and flagged.numbered
    assert flagged == minimize(Dfa("01", rows, 1, {1}))


def test_complement_flips_membership():
    d = all_but_one_word()
    c = complement(d)
    for w in words_upto("01", 5):
        assert c.accepts(w) == (not d.accepts(w))


def test_cofinite_verdicts():
    assert is_cofinite(all_but_one_word())
    assert not is_cofinite(even_zeros())
    full = Dfa("01", ((0, 0),), 0, frozenset({0}))
    assert is_cofinite(full)
    empty = Dfa("01", ((0, 0),), 0, frozenset())
    assert not is_cofinite(empty)


def test_longest_and_count_on_finite_language():
    c = complement(all_but_one_word())
    assert count_words(c) == 1
    assert longest_word(c) == "1"
    empty = Dfa("01", ((0, 0),), 0, frozenset())
    assert count_words(empty) == 0
    assert longest_word(empty) is None


def test_longest_prefers_lex_least():
    # accepts exactly the two-letter words; lex-least longest is "00"
    trans = ((1, 1), (2, 2), (3, 3), (3, 3))
    d = Dfa("01", trans, 0, frozenset({2}))
    assert longest_word(d) == "00"
    assert count_words(d) == 4


def test_infinite_language_raises():
    full = Dfa("01", ((0, 0),), 0, frozenset({0}))
    with pytest.raises(NotFinite):
        longest_word(full)
    with pytest.raises(NotFinite):
        count_words(full)


def test_distinguishing_word():
    a = all_but_one_word()
    b = minimize(a)
    assert distinguishing_word(a, b) is None
    assert equivalent(a, b)
    full = Dfa("01", ((0, 0),), 0, frozenset({0}))
    w = distinguishing_word(a, full)
    assert w == "1"
    assert full.accepts(w) and not a.accepts(w)


def test_dead_state_detection():
    assert has_dead_state(minimize(all_but_one_word())) is False
    # "only the word 0" needs a sink
    only0 = minimize(Dfa("01", ((1, 2), (2, 2), (2, 2)), 0, frozenset({1})))
    assert has_dead_state(only0) is True


def test_state_complexity_counts_minimal_states():
    trans = ((1, 2), (1, 2), (1, 2))
    d = Dfa("01", trans, 0, frozenset({1, 2}))
    assert state_complexity(d) == 2


@pytest.mark.parametrize(
    "rows, finals",
    [
        (((1, 1), (1, 1)), NONE),  # two equivalent states, the empty language
        (((0, 0), (1, 1)), frozenset({1})),  # state 1 unreachable
    ],
)
def test_dfa_constructor_refuses_a_false_minimal_flag(rows, finals):
    # the flag is a checked promise; state_complexity and minimize read the
    # table, not the flag
    with pytest.raises(ValueError, match="minimal=True"):
        Dfa("01", rows, 0, finals, minimal=True)
    d = Dfa("01", rows, 0, finals)
    assert state_complexity(d) == minimize(d).state_count == 1
    assert Dfa("01", ((0, 0),), 0, NONE, minimal=True).minimal


def test_to_dot_smoke():
    s = to_dot(all_but_one_word(), "x")
    assert "digraph" in s and "->" in s


def test_to_dot_escapes_quotes_and_backslashes_in_labels():
    d = minimal_star_dfa(WordSet.of('a"\\', ["a", '"']))
    symbols: dict[tuple[int, int], list[str]] = {}
    for s, row in enumerate(d.transitions):
        for c, t in zip(d.alphabet, row):
            symbols.setdefault((s, t), []).append(c)
    edges = re.findall(r"^  q(\d+) -> q(\d+) \[label=(.*)\];$", to_dot(d), re.M)
    assert len(edges) == len(symbols)
    for s, t, label in edges:
        assert re.fullmatch(r'"(?:[^"\\]|\\.)*"', label)
        assert re.sub(r"\\(.)", r"\1", label[1:-1]) == ",".join(symbols[int(s), int(t)])


@st.composite
def random_dfas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    trans = tuple(
        tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in "01")
        for _ in range(n)
    )
    finals = frozenset(
        i for i in range(n) if draw(st.booleans())
    )
    return Dfa("01", trans, 0, finals)


@given(random_dfas())
def test_minimize_matches_refinement_oracle(d):
    m = minimize(d)
    assert m.state_count == moore_state_count(d.transitions, d.initial, d.finals)
    assert equivalent(d, m)


@given(random_dfas())
def test_minimize_really_is_minimal(d):
    m = minimize(d)
    assert m.state_count == moore_state_count(m.transitions, m.initial, m.finals)


@pytest.mark.parametrize("a", [30, 60])
def test_minimize_deep_unary_star_uses_hopcroft_finish(a, monkeypatch):
    # {0^a, 0^(a+1)}* misses 0^g with g = a(a+1) - 2a - 1; telling the
    # states apart takes about g Moore rounds, far past the round budget
    finishes = []
    hopcroft = automata._hopcroft

    def counted(cols, cls):
        finishes.append(len(cls))
        return hopcroft(cols, cls)

    monkeypatch.setattr(automata, "_hopcroft", counted)
    d = window_star_dfa(WordSet.of("0", ["0" * a, "0" * (a + 1)]))
    m = minimize(d)
    assert finishes == [d.state_count]
    g = a * (a + 1) - 2 * a - 1
    assert m.state_count == moore_state_count(d.transitions, d.initial, d.finals)
    assert m.state_count == g + 2
    assert equivalent(d, m)


def test_minimize_last_split_in_the_final_budgeted_round_needs_no_hopcroft(monkeypatch):
    # a unary path into a final loop: round r splits off the state r steps
    # before the loop, so the 10 states are singletons after round 8, the
    # last of the 2 * (10).bit_length() budget; no confirming round is needed
    finishes = []
    hopcroft = automata._hopcroft
    monkeypatch.setattr(automata, "_hopcroft", lambda cols, cls: finishes.append(cls) or hopcroft(cols, cls))
    d = Dfa("0", tuple((min(s + 1, 9),) for s in range(10)), 0, frozenset({9}))
    m = minimize(d)
    assert finishes == []
    assert m.state_count == state_complexity(d) == 10
    assert m.transitions == d.transitions and m.minimal


def moore_fixed_point(cols, cls):
    """The blocks of the coarsest refinement of ``cls`` that every column
    respects, by signature rounds until none splits."""
    while True:
        sig = [(cls[s], *(cls[col[s]] for col in cols)) for s in range(len(cls))]
        if len(set(sig)) == len(set(cls)):
            return blocks(cls)
        cls = sig


def blocks(cls):
    members = {}
    for s, c in enumerate(cls):
        members.setdefault(c, set()).add(s)
    return sorted(map(sorted, members.values()))


def test_hopcroft_matches_moore_run_to_its_fixed_point():
    # splits shrink blocks in place, the splitter's own block included, so a
    # splitter read without a snapshot leaves some of these tables coarser
    rnd = random.Random(7)
    for _ in range(3000):
        n, sigma = rnd.randint(1, 40), rnd.randint(1, 3)
        cols = tuple(tuple(rnd.randrange(n) for _ in range(n)) for _ in range(sigma))
        labels = rnd.randint(1, 3)
        cls = [rnd.randrange(labels) for _ in range(n)]
        got, count = automata._hopcroft(cols, cls)
        want = moore_fixed_point(cols, cls)
        # each state is labelled with the least state of its block
        assert count == len(want) and all(got[s] == b[0] for b in want for s in b)


@pytest.mark.parametrize("period", [1, 2, 1600, 6400])
def test_minimize_long_unary_cycle(period):
    # one final state in every ``period``: the classes are the distances to
    # the next final state, which Moore's round budget cannot tell apart, so
    # Hopcroft peels them off one split at a time
    n = 6400
    d = Dfa("0", tuple(((s + 1) % n,) for s in range(n)), 0, frozenset(range(0, n, period)))
    m = minimize(d)
    assert m.state_count == period
    assert m.transitions == tuple(((s + 1) % period,) for s in range(period))


def budgeted_moore(cols, finals):
    """``_refine``'s Moore phase with every round signing every state: the
    labels and class count it ends with, the labels it hands to Hopcroft
    (None when it needs no finish), the rounds it signed, and how many of
    them began with at least three quarters of the states alone in a class."""
    n = len(cols[0])
    cls = [s in finals for s in range(n)]
    count, rounds, tail_rounds = len(set(cls)), 0, 0
    while rounds < 2 * n.bit_length() and count < n:
        tail_rounds += 4 * (n - count) < n
        rounds += 1
        sig = {}
        cls = [sig.setdefault((cls[s], *(cls[col[s]] for col in cols)), s) for s in range(n)]
        if len(sig) == count:
            return cls, count, None, rounds, tail_rounds
        count = len(sig)
    return cls, count, cls if count < n else None, rounds, tail_rounds


def tail_table(rnd, head, sigma, path):
    """``head`` states with random finals, reached in turn along symbol 0 and
    otherwise random, the last one's symbol 0 random too when ``path`` is 0;
    else it enters a path of ``path`` rejecting states on symbol 0 into an
    accepting loop, the path's other symbols leading to a rejecting sink."""
    n = head + path + 2 if path else head
    loop, sink = head + path, head + path + 1
    rows = [(s + 1, *(rnd.randrange(head) for _ in range(1, sigma))) for s in range(head)]
    rows[-1] = (head if path else rnd.randrange(head), *rows[-1][1:])
    rows += [(s + 1, *[sink] * (sigma - 1)) for s in range(head, loop)]
    rows += [(loop,) * sigma, (sink,) * sigma] if path else []
    finals = {s for s in range(head) if rnd.random() < 0.5} | ({loop} if path else set())
    return Dfa("012"[:sigma], tuple(rows), 0, frozenset(finals)), n


def refine_against_budgeted_moore(d, monkeypatch):
    """``_refine(d)``'s labels, count and Hopcroft hand-off (Hopcroft itself
    replaced by the identity) equal ``budgeted_moore``'s; its rounds returned."""
    handed = []

    def finish(cols, cls):
        handed.append(list(cls))
        return cls, len(set(cls))

    monkeypatch.setattr(automata, "_hopcroft", finish)
    cols, finals, cls, count = automata._refine(d)
    want_cls, want_count, want_handed, rounds, tail_rounds = budgeted_moore(cols, finals)
    assert (cls, count) == (want_cls, want_count)
    assert handed == ([] if want_handed is None else [want_handed])
    return len(cols[0]), count, rounds, tail_rounds, bool(handed)


@given(random_dfas())
def test_refine_matches_full_rounds_on_small_tables(d):
    # tables of 1-6 states, some with states out of reach, never compact
    # ``live``; a round that splits nothing still writes back least-state
    # labels, not the accept/reject booleans it started from
    with pytest.MonkeyPatch.context() as mp:
        refine_against_budgeted_moore(d, mp)


def test_refine_tail_matches_full_rounds_on_random_mostly_minimal_tables(monkeypatch):
    # random successors and finals tell most states apart within a few
    # rounds, so the gate opens before the last: over two or three symbols
    # that last round confirms or finishes the partition, over one symbol
    # the states' futures are random final patterns along one path, and the
    # pairs that agree longest are split over several rounds in the tail
    # (at this seed every table runs at least one round there)
    rnd = random.Random(6)
    for _ in range(30):
        d, n = tail_table(rnd, rnd.randint(256, 2000), rnd.randint(1, 3), 0)
        got_n, _, _, tail_rounds, _ = refine_against_budgeted_moore(d, monkeypatch)
        assert got_n == n >= automata._TAIL_STATES and tail_rounds > 0


@pytest.mark.parametrize("head", [300, 450, 600])
def test_refine_tail_matches_full_rounds_on_a_deep_path(head, monkeypatch):
    # the random head is apart within a few rounds and the path is under a
    # fifth of the states, so the gate opens early; the path splits off one
    # state per round and would need 60 rounds, so the budget runs out in
    # the tail and Hopcroft gets the path's states still sharing a class
    d, n = tail_table(random.Random(head), head, 2, 60)
    got_n, count, rounds, tail_rounds, handed = refine_against_budgeted_moore(d, monkeypatch)
    assert (got_n, rounds, handed) == (n, 2 * n.bit_length(), True)
    assert count < n and tail_rounds > 0


def test_refine_tail_last_split_in_the_final_budgeted_round(monkeypatch):
    # the 10-state path above, behind 300 random states: the path's 18
    # states split off one per round, its first from the sink in round 18,
    # the last of the 2 * (320).bit_length() budget; three rounds leave under
    # a quarter of the states sharing a class, so rounds 4 to 18 run in the
    # tail, and no Hopcroft follows
    d, n = tail_table(random.Random(0), 300, 2, 18)
    assert refine_against_budgeted_moore(d, monkeypatch) == (n, n, 18, 15, False)


@st.composite
def deep_dfas(draw):
    """Random DFAs whose symbol 0 walks a long path; finals only near its
    end, so states are told apart only by long words."""
    n = draw(st.integers(min_value=2, max_value=60))
    trans = tuple(
        (
            i + 1 if i + 1 < n else draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)) if draw(st.booleans()) else i,
        )
        for i in range(n)
    )
    finals = frozenset(draw(st.sets(st.sampled_from([n - 2, n - 1]), min_size=1)))
    return Dfa("01", trans, 0, finals)


@given(deep_dfas())
def test_minimize_long_distinguishing_chains(d):
    m = minimize(d)
    assert m.state_count == moore_state_count(d.transitions, d.initial, d.finals)
    assert m.state_count == moore_state_count(m.transitions, m.initial, m.finals)
    assert equivalent(d, m)


@given(random_dfas(), st.randoms(use_true_random=False))
def test_minimize_numbering_ignores_state_labels(d, rnd):
    perm = list(range(d.state_count))
    rnd.shuffle(perm)
    trans = [None] * d.state_count
    for s, row in enumerate(d.transitions):
        trans[perm[s]] = tuple(perm[t] for t in row)
    relabelled = Dfa(
        d.alphabet, tuple(trans), perm[d.initial], frozenset(perm[s] for s in d.finals)
    )
    m, r = minimize(d), minimize(relabelled)
    assert (r.transitions, r.finals, r.initial) == (m.transitions, m.finals, m.initial)


def trie_nfa(alphabet, words, loop=False):
    """The trie of ``words`` as an ``Nfa``; ``loop`` adds a self-loop on the
    root's first symbol, which makes the language infinite."""
    nodes = {"": 0}
    edges = [(0, alphabet[0], 0)] if loop else []
    for w in words:
        for i in range(len(w)):
            if w[: i + 1] not in nodes:
                nodes[w[: i + 1]] = len(nodes)
                edges.append((nodes[w[:i]], w[i], nodes[w[: i + 1]]))
    return Nfa.from_edges(len(nodes), alphabet, edges, [0], [nodes[w] for w in words])


@st.composite
def finite_word_lists(draw):
    # "ba" and "210" check that ties break by the declared symbol order
    alphabet = draw(st.sampled_from(["0", "01", "ba", "210"]))
    words = draw(st.lists(st.text(alphabet, max_size=6), max_size=8))
    return alphabet, words


@given(finite_word_lists())
def test_count_and_longest_match_the_word_list(case):
    alphabet, words = case
    d = determinize(trie_nfa(alphabet, words))
    assert count_words(d) == len(set(words))
    expected = None
    if words:
        top = max(map(len, words))
        expected = min(
            (w for w in words if len(w) == top), key=lambda w: [alphabet.index(c) for c in w]
        )
    assert longest_word(d) == expected
    if words:
        looped = determinize(trie_nfa(alphabet, words, loop=True))
        with pytest.raises(NotFinite):
            count_words(looped)
        with pytest.raises(NotFinite):
            longest_word(looped)


@given(st.sets(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
def test_unary_complement_matches_sieve(lengths):
    assume(gcd(*lengths) == 1)
    g, misses = sieve_g_f(sorted(lengths))
    comp = complement(minimal_star_dfa(WordSet.of("0", ["0" * a for a in lengths])))
    assert count_words(comp) == misses
    assert longest_word(comp) == ("0" * g if misses else None)


@st.composite
def stepping_nfas(draw):
    """Random NFAs whose cells are empty, the step ``s -> s + 1``, one random
    target or a fan-out, so both halves of ``determinize``'s split occur."""
    n = draw(st.integers(min_value=1, max_value=12))
    alphabet = draw(st.sampled_from(["0", "01", "012"]))
    targets = st.integers(min_value=0, max_value=n - 1)
    edges = []
    for s in range(n):
        for c in alphabet:
            kind = draw(st.sampled_from(["empty", "step", "step", "one", "fan"]))
            if kind == "step" and s + 1 < n:
                edges.append((s, c, s + 1))
            elif kind == "one":
                edges.append((s, c, draw(targets)))
            elif kind == "fan":
                fan = draw(st.sets(targets, min_size=min(2, n), max_size=4))
                edges.extend((s, c, t) for t in fan)
    initial = draw(st.sets(targets, min_size=1, max_size=3))
    finals = draw(st.sets(targets, max_size=n))
    return n, alphabet, edges, initial, finals


@given(stepping_nfas(), st.data())
def test_determinize_matches_subset_oracle(case, data):
    n, alphabet, edges, initial, finals = case
    nfa = Nfa.from_edges(n, alphabet, edges, initial, finals)
    rows, oracle_finals = subset_table(alphabet, n, edges, initial, finals, 2**n + 1)
    d = determinize(nfa)
    assert (d.transitions, d.finals, d.initial) == (rows, oracle_finals, 0)
    cap = data.draw(st.integers(min_value=1, max_value=len(rows) + 1))
    try:
        subset_table(alphabet, n, edges, initial, finals, cap)
    except RuntimeError as exc:
        with pytest.raises(CapExceeded) as caught:
            determinize(nfa, cap)
        assert str(caught.value) == str(exc)
    else:
        assert determinize(nfa, cap) == d


@given(st.one_of(random_dfas(), stepping_nfas().map(lambda case: determinize(Nfa.from_edges(*case)))))
def test_state_complexity_counts_the_classes_minimize_keeps(d):
    # random_dfas has unreachable states and is not numbered; determinize is
    assert state_complexity(d) == minimize(d).state_count == moore_state_count(
        d.transitions, d.initial, d.finals
    )


@given(
    st.one_of(
        random_dfas(),
        random_dfas().map(minimize),
        stepping_nfas().map(lambda case: determinize(Nfa.from_edges(*case))),
    ),
    st.booleans(),
)
def test_is_cofinite_loop_check_agrees_with_the_full_analysis(d, flip):
    if flip:
        d = complement(d)
    plain = Dfa(d.alphabet, d.transitions, d.initial, d.finals)
    assert not plain.numbered  # so the full analysis decides it
    assert is_cofinite(d) == is_cofinite(plain)


def test_is_cofinite_settles_a_rejecting_loop_without_the_full_analysis(monkeypatch):
    def unexpected(d):
        raise AssertionError("_finite_paths ran")

    monkeypatch.setattr(automata, "_finite_paths", unexpected)
    # the words ending in 1: the rejecting start state loops on 0
    d = determinize(Nfa.from_edges(2, "01", [(0, "0", 0), (0, "1", 0), (0, "1", 1)], [0], [1]))
    assert d.numbered and d.cols[0][0] == 0 and 0 not in d.finals
    assert not is_cofinite(d)


@given(stepping_nfas())
def test_minimize_keeps_a_numbered_minimal_table_as_it_is(case):
    d = determinize(Nfa.from_edges(*case))
    m = minimize(d)
    assert d.numbered and m.minimal
    assert (m.cols is d.cols) == (m.state_count == d.state_count)


def test_minimize_of_a_numbered_minimal_table_equals_it():
    # the words ending in 1: two subset states, told apart by the empty word
    d = determinize(Nfa.from_edges(2, "01", [(0, "0", 0), (0, "1", 0), (0, "1", 1)], [0], [1]))
    assert d.numbered and not d.minimal and d.state_count == 2
    m = minimize(d)
    assert m == Dfa(d.alphabet, d.transitions, d.initial, d.finals, minimal=True)
    assert m.cols is d.cols


@st.composite
def small_dfas(draw):
    """Complete DFAs with 1-5 states over alphabets whose declared order is
    not always the character order; any state may be initial, so some
    states may be unreachable.  Half of them only step to higher states, so
    their one cycle is the last state's loop and finite languages are
    common."""
    alphabet = draw(st.sampled_from(["0", "01", "ba", "012"]))
    n = draw(st.integers(min_value=1, max_value=5))
    state = st.integers(min_value=0, max_value=n - 1)
    forward = draw(st.booleans())
    rows = tuple(
        tuple(draw(st.integers(min(s + 1, n - 1) if forward else 0, n - 1)) for _ in alphabet)
        for s in range(n)
    )
    return Dfa(alphabet, rows, draw(state), draw(st.frozensets(state)))


def least_longest(words):
    """The first longest of ``words`` listed in length, then symbol order."""
    return next(w for w in words if len(w) == len(words[-1])) if words else None


@settings(max_examples=300)
@given(small_dfas(), st.booleans(), st.booleans())
def test_finite_language_answers_match_enumeration(d, flip, minimal):
    if flip:
        d = complement(d)
    if minimal:  # numbered, so is_cofinite's loop scan runs first
        d = minimize(d)
    words = finite_language(d.alphabet, d.transitions, d.initial, d.finals)
    if words is None:
        with pytest.raises(NotFinite):
            count_words(d)
        with pytest.raises(NotFinite):
            longest_word(d)
    else:
        assert count_words(d) == len(words)
        assert longest_word(d) == least_longest(words)
    missed = finite_language(d.alphabet, d.transitions, d.initial, complement(d).finals)
    assert is_cofinite(d) == (missed is not None)
    expected = (False, None, None) if missed is None else (True, len(missed), least_longest(missed))
    assert automata._omissions(d) == expected
