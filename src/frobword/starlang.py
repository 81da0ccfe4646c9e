"""Star closures of finite word sets: membership oracles, automaton
constructions, and the measures of how much a closure misses.

A ``WordSet`` holds distinct nonempty words over a declared alphabet, in
one canonical order.  Its star closure is everything obtainable by
concatenating words of the set, empty concatenation included.
``measure_all`` packages the interesting quantities: whether only finitely
many words are missed, the longest and the number of missed words, minimal
DFA sizes for the closure and for the ordered concatenation of the
individual stars, and the construction sizes the answers came from.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd
from typing import Iterable, Sequence

from frobword.automata import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    Dfa,
    Nfa,
    PreconditionViolated,
    _at_least,
    _check_generators,
    _check_words,
    _integer,
    _new,
    _omissions,
    determinize,
    minimize,
)


class BudgetExceeded(RuntimeError):
    """An enumeration would pass ``DEFAULT_ENUM_BUDGET`` words, symbols or pairs."""


@dataclass(frozen=True)
class WordSet:
    """Finite set of distinct nonempty words over a declared alphabet.

    The constructor checks the words once, by the list rule, and keeps them
    canonical: duplicates collapse and the words are sorted by length, then
    lexicographic rank, so sets of the same words are equal however they
    came in.  ``WordSet.of`` also drops empty words, with a warning.
    """

    alphabet: str
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        words = tuple(self.words)
        _check_generators(words, self.alphabet)
        object.__setattr__(self, "words", tuple(sorted(set(words), key=lambda w: (len(w), w))))

    @classmethod
    def of(cls, alphabet: str, words: Iterable[str]) -> "WordSet":
        """The set of the words; empty ones are dropped, with a warning (they never change the closure)."""
        words = list(words)
        kept = [w for w in words if w != ""]
        if dropped := len(words) - len(kept):
            warnings.warn("ignoring %d empty word(s): they never change the closure" % dropped)
        return cls(alphabet, kept)

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def max_word_length(self) -> int:
        return max(len(w) for w in self.words)

    @property
    def total_symbols(self) -> int:
        return sum(len(w) for w in self.words)


def _length_index(words: Iterable[str]) -> dict[int, frozenset[str]]:
    buckets: dict[int, set[str]] = {}
    for w in words:
        buckets.setdefault(len(w), set()).add(w)
    return {n: frozenset(b) for n, b in buckets.items()}


def _member_star_indexed(index: dict[int, frozenset[str]], word: str) -> bool:
    limit = len(word)
    reach = bytearray(limit + 1)
    reach[0] = 1
    for i in range(limit):
        if not reach[i]:
            continue
        for n, bucket in index.items():
            j = i + n
            if j <= limit and not reach[j] and word[i:j] in bucket:
                reach[j] = 1
    return bool(reach[limit])


def member_star(s: WordSet, word: str) -> bool:
    """Whether the word splits into pieces from the set (dynamic program)."""
    _check_words((word,), s.alphabet)
    return _member_star_indexed(_length_index(s.words), word)


def member_chain(xs: Sequence[str], word: str) -> bool:
    """Whether the word is a block of repeats of ``xs[0]``, then repeats of
    ``xs[1]``, and so on, any block possibly empty."""
    _check_generators(xs, None)
    _check_words((word,), None)
    positions = {0}
    for x in xs:
        n = len(x)
        grown = set(positions)
        stack = list(positions)
        while stack:
            p = stack.pop()
            q = p + n
            if q <= len(word) and q not in grown and word[p:q] == x:
                grown.add(q)
                stack.append(q)
        positions = grown
    return len(word) in positions


def _rank(alphabet: str, w: str) -> int:
    """The index of ``w`` among the words of its length, in ``itertools.product`` order."""
    return sum(alphabet.index(a) * len(alphabet) ** j for j, a in enumerate(reversed(w)))


_ROOT = frozenset({0})


def trie_star_nfa(s: WordSet) -> Nfa:
    """Nondeterministic acceptor for the star closure from the suffix-merged
    trie of the words.

    The proper prefixes of the words are the trie's nodes; two of them that
    have the same completion set ``{v : pv in S}`` have the same future, so
    they are one state.  The root, the empty prefix, is the only initial and
    accepting state and never merges.  Reading a symbol moves a prefix to
    its extension's state, and to the root when the extension is a word.
    This is the minimal acyclic automaton of the set (Revuz 1992; Daciuk,
    Mihov, Watson and Watson 2000) with its words looped back to the root.
    State count is at most ``total_symbols - word_count + 1``.

    The states are named bottom-up, children before parents: a prefix's
    completion set is fixed by whether it is a word and by its row of
    successor states.  Ids count down from the top, so a prefix that keeps
    a state of its own steps to its child as ``s -> s + 1``, the step
    ``determinize`` runs as a shift.
    """
    words, alphabet = s.words, s.alphabet
    prefixes = dict.fromkeys([x[:j] for x in words for j in range(len(x))])  # parents first
    state = dict.fromkeys(words, 1)  # a string's state mask; a word steps to the root, bit 0
    keys: dict[tuple, int] = {}  # (is a word, row of successor masks) -> order found
    top = len(prefixes) - 1
    for p in reversed(prefixes):
        word = p in state  # a prefix is not in ``state`` before its turn unless it is a word
        key = [word]
        for c in alphabet:
            key.append(state.get(p + c, 0))
        state[p] = 1 << top - keys.setdefault(tuple(key), len(keys)) | word
    rows = [key[1:] for key in keys]
    rows.reverse()  # the root, found last, first
    gap = top + 1 - len(keys)  # the ids below the root's that merging left unused
    if gap:
        flat = [m >> gap | m & 1 for row in rows for m in row]
        rows = zip(*[iter(flat)] * len(alphabet))
    return _new(Nfa, alphabet, tuple(rows), _ROOT, _ROOT)


def window_state_bound(alphabet_size: int, max_len: int) -> int:
    """Upper bound on reachable window-DFA states: sum over window fills
    ``i < max_len`` of ``alphabet_size**i * 2**(i+1)``; both sizes at least 1."""
    sigma, n = _at_least(alphabet_size, 1, "alphabet_size"), _at_least(max_len, 1, "max_len")
    return sum(sigma**i * 2 ** (i + 1) for i in range(n))


def window_star_dfa(s: WordSet, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Deterministic acceptor for the star closure built directly.

    Each state is a pair ``(recent, marks)``: ``recent`` holds the most
    recent input symbols, capped one below the longest word length, and
    ``marks`` records the offsets, measured back from the current position,
    at which a split of the input into set words could end.  Reading a
    symbol shifts every mark by one, drops marks pushed beyond the reach of
    any word, and adds mark 0 exactly when some word of the set ends at the
    new position starting from a previously marked split point.  The input
    so far is in the closure iff 0 is marked, so those states accept.

    Only reachable states are built, breadth-first in symbol order, and the
    automaton is complete by construction.  Reachable states never exceed
    ``window_state_bound(len(alphabet), max_word_length)``.  They are the
    codes ``_window_search`` reaches (``recent`` numbered by length, then
    rank), in reach order; each row applies its window's moves to its marks.
    """
    codes, moves = _window_search(s, state_cap)
    shift = s.max_word_length
    low = (1 << shift) - 1
    ids = dict(zip(codes, range(len(codes))))
    flat: list[int] = []  # the table row by row
    for code in codes:
        marks = code & low
        for base, hits in moves[code >> shift]:
            flat.append(ids[base | ((marks << 1) & low) | (1 if marks & hits else 0)])
    sigma = len(s.alphabet)
    cols = tuple(tuple(flat[a::sigma]) for a in range(sigma))
    finals = frozenset(j for j, code in enumerate(codes) if code & 1)
    return _new(Dfa, s.alphabet, cols, 0, finals, numbered=True)


def pending_star_dfa(s: WordSet, state_cap: int = DEFAULT_STATE_CAP) -> tuple[Dfa, int]:
    """``determinize(trie_star_nfa(s), state_cap)``, a quotient of the window
    acceptor, and the number of window states, which are counted (and
    capped) first, without building a row."""
    count = len(_window_search(s, state_cap)[0])
    return determinize(trie_star_nfa(s), state_cap), count


def _window_numbering(sigma: int, shift: int, state_cap: int) -> tuple[list[int], list[int]]:
    """``first[k]`` and ``power[k]``, the numbers of strings shorter than
    ``k`` and of length ``k`` for ``k <= shift``; ``CapExceeded`` when the
    windows, the strings shorter than ``shift``, are more than the cap."""
    _at_least(state_cap, 1, "the state cap")
    first, power = [0], [1]
    while len(first) <= shift and first[-1] <= state_cap:
        first.append(first[-1] + power[-1])
        power.append(power[-1] * sigma)
    if first[-1] > state_cap:
        raise CapExceeded("window construction exceeded %d states" % state_cap)
    return first, power


def _window_search(s: WordSet, state_cap: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Breadth-first search of the window states, coded ``window << shift |
    marks`` with mark ``a`` as bit ``a``; the windows, all strings shorter
    than ``shift``, are numbered by length, then ``_rank``, and capped first.
    Returns the codes in order and each window's moves: per symbol ``c``, the
    next window shifted into place and ``hits``, the offsets from which a word
    ends at ``c``.  A window of ``r < shift`` symbols marks only bits ``0..r``,
    so ``low`` clears only the shifted mark a full window pushes out of reach."""
    sigma, shift = len(s.alphabet), s.max_word_length
    first, power = _window_numbering(sigma, shift, state_cap)
    ends = {k: {_rank(s.alphabet, w) for w in bucket} for k, bucket in _length_index(s.words).items()}
    full = first[shift - 1]  # a full window drops its oldest symbol
    moves: list[list[tuple[int, int]]] = [[] for _ in range(first[shift])]
    for x in range(1, first[shift] * sigma + 1):  # x = u * sigma + c + 1: window u, then symbol c
        hits = sum(1 << (k - 1) for k in ends if x >= first[k] and (x - first[k]) % power[k] in ends[k])
        after = x if x < first[shift] else full + (x - full) % power[shift - 1]
        moves[(x - 1) // sigma].append((after << shift, hits))
    low = (1 << shift) - 1
    codes = [1]
    seen = {1}
    for code in codes:  # grows as codes are reached
        marks = code & low
        for base, hits in moves[code >> shift]:
            state = base | ((marks << 1) & low) | (1 if marks & hits else 0)
            if state not in seen:
                if len(codes) >= state_cap:
                    raise CapExceeded("window construction exceeded %d states" % state_cap)
                seen.add(state)
                codes.append(state)
    return codes, moves


def chain_nfa(xs: Sequence[str], alphabet: str) -> Nfa:
    """Nondeterministic acceptor for ``xs[0]* xs[1]* ... xs[-1]*``.

    One cyclic loop per word: the positions inside a repeat, then an anchor
    reached after each complete repeat, so every in-loop step, the one back
    to the anchor included, is ``s -> s + 1`` (``determinize`` runs these as
    one shift).  From an anchor the automaton enters its own loop or that of
    any later word, which encodes skipping empty blocks.  Anchors accept.
    State count is the total length of the words.
    """
    _check_generators(xs, alphabet)
    sym = {c: i for i, c in enumerate(alphabet)}
    anchors = [end - 1 for end in accumulate(map(len, xs))]
    masks = [[0] * len(alphabet) for _ in range(anchors[-1] + 1)]
    for j, x in enumerate(xs):
        entry = anchors[j] + 1 - len(x)
        for anchor in anchors[: j + 1]:
            masks[anchor][sym[x[0]]] |= 1 << entry
        for k in range(1, len(x)):
            masks[entry + k - 1][sym[x[k]]] |= 1 << (entry + k)
    return _new(Nfa, alphabet, tuple(map(tuple, masks)), frozenset(anchors[:1]), frozenset(anchors))


def chain_cofinite(xs: Sequence[str], alphabet: str) -> bool:
    """Whether the chain of stars misses only finitely many words.

    This happens exactly for a one-letter alphabet with word lengths that
    are coprime overall; over two or more letters the chain fixes the order
    of blocks and misses infinitely many rearrangements.
    """
    _check_generators(xs, alphabet)
    return len(alphabet) == 1 and gcd(*map(len, xs)) == 1


def minimal_star_dfa(s: WordSet, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Minimal complete DFA for the star closure: the subset automaton of
    the suffix-merged trie, minimized.  No window state is counted; the cap
    bounds the subset construction."""
    return minimize(determinize(trie_star_nfa(s), state_cap))


def minimal_chain_dfa(
    xs: Sequence[str], alphabet: str, state_cap: int = DEFAULT_STATE_CAP
) -> Dfa:
    """Minimal complete DFA for the ordered chain of stars."""
    return minimize(determinize(chain_nfa(xs, alphabet), state_cap))


@dataclass(frozen=True)
class MeasureReport:
    """Everything ``measure_all`` knows about one word set.

    Omitted-word fields are ``None`` when they do not apply: the longest
    omitted word and the omitted count require the star closure to miss
    only finitely many words, and the longest one additionally requires it
    to miss at least one (``full_language`` distinguishes the two).  The
    chain fields mirror this for the ordered concatenation of stars.
    ``star_dfa`` and ``chain_dfa`` are the minimal DFAs the measures were
    read from; they take no part in equality.
    """

    cofinite_star: bool | None
    full_language: bool | None
    longest_omitted: int | None
    longest_omitted_word: str | None
    omitted_count: int | None
    star_sc: int | None
    chain_sc: int | None
    chain_is_cofinite: bool | None
    chain_full_language: bool | None
    chain_longest_omitted: int | None
    chain_longest_omitted_word: str | None
    nfa_size_bound: int
    window_dfa_states: int | None
    star_dfa: Dfa | None = field(default=None, compare=False, repr=False)
    chain_dfa: Dfa | None = field(default=None, compare=False, repr=False)


def _halves(fn, items: Sequence, fork: bool = True) -> list:
    """``[fn(x) for x in items]``, with the answers and errors of the items
    at odd places first.  ``fork`` is the caller's verdict that a child
    pays; with it, two items or more, and where it can (``os.fork``, no
    other thread alive, the pipe and the fork succeed), the odd items run in
    a forked child beside the rest, else here, before the rest.  The child
    writes their answers as one JSON list (so a tuple comes back as a list),
    or ``!`` and the message of a ``CapExceeded``, to a pipe, and exits 0
    without unwinding or flushing once all of it is written; on any other
    path it exits 1.  The pipe is read to its end, closed, and the child
    reaped.  The child's cap message is raised, and wins over a
    ``CapExceeded`` or ``MemoryError`` here; any other error here, or an
    interrupted read, kills the child first.  A child that did not exit 0
    gave no answer: the odd items run again here if the rest succeeded."""
    out, odd, even = [None] * len(items), items[1::2], items[0::2]
    pid = -1
    if fork and len(items) > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        try:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
        except OSError:
            pass
    if pid < 0:  # no child: the odd items first, so their errors come first
        out[1::2] = [fn(x) for x in odd]
        out[0::2] = [fn(x) for x in even]
        return out
    if pid == 0:  # the child answers, then exits
        try:
            try:
                reply = json.dumps([fn(x) for x in odd])
            except CapExceeded as exc:
                reply = "!%s" % exc
            data = reply.encode()
            while data:
                data = data[os.write(w, data) :]
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    reply = failed = None
    try:
        try:
            out[0::2] = [fn(x) for x in even]
        except (CapExceeded, MemoryError) as exc:
            failed = exc
        reply = b"".join(iter(lambda: os.read(r, 65536), b"")).decode()
    finally:
        os.close(r)
        if reply is None:  # failed otherwise here, or the read was interrupted
            import signal  # not loaded at start-up, and needed only here

            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if reply[:1] == "!" and not status:
        raise CapExceeded(reply[1:])
    if failed:
        raise failed
    out[1::2] = [fn(x) for x in odd] if status else json.loads(reply)
    return out


_FORK_WINDOWS = 500  # below this many windows, a fork costs more than the count


def measure_all(
    s: WordSet,
    xs_order: Sequence[str] | None = None,
    *,
    star: bool = True,
    chain: bool = True,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MeasureReport:
    """Compute all measures for one word set.

    The window states are counted and reported as ``window_dfa_states``; no
    window acceptor is built.  The number of windows is checked before
    anything starts; the count and the star side's construction are then
    split by ``_halves``, whose child pays from ``_FORK_WINDOWS`` windows
    up.  Each side is built as ``minimal_star_dfa`` and
    ``minimal_chain_dfa`` build it, and every omission measure is read off
    its minimal DFA with ``_omissions``: a side is the full language when
    it omits no word, and the chain's co-finiteness is its automaton's
    verdict (``chain_cofinite`` is the prediction ``verify chain-cofinite``
    checks against it).
    The state cap is checked first, whichever sides run.  ``xs_order``
    fixes the order of the chain of stars and may repeat words; it passes
    the list rule, then must use exactly the words of the set.  It defaults
    to the set's canonical order.  ``star=False`` or ``chain=False`` skips
    that side entirely (the corresponding fields come back ``None``).
    """
    _at_least(state_cap, 1, "the state cap")
    xs_order = list(s.words) if xs_order is None else xs_order
    _check_generators(xs_order, s.alphabet)
    if set(xs_order) != set(s.words):
        raise ValueError("chain order must use exactly the words of the set")

    star_min = window_states = chain_min = None
    if star:
        first, _ = _window_numbering(len(s.alphabet), s.max_word_length, state_cap)
        star_min, window_states = _halves(
            lambda job: job(),
            [lambda: minimal_star_dfa(s, state_cap), lambda: len(_window_search(s, state_cap)[0])],
            first[-1] >= _FORK_WINDOWS,
        )
    if chain:
        chain_min = minimal_chain_dfa(xs_order, s.alphabet, state_cap)
    sides = [(None, None, None) if d is None else _omissions(d) for d in (star_min, chain_min)]
    (star_cof, count, wit), (chain_cof, chain_count, chain_wit) = sides

    return MeasureReport(
        cofinite_star=star_cof,
        full_language=None if star_min is None else count == 0,
        longest_omitted=None if wit is None else len(wit),
        longest_omitted_word=wit,
        omitted_count=count,
        star_sc=None if star_min is None else star_min.state_count,
        chain_sc=None if chain_min is None else chain_min.state_count,
        chain_is_cofinite=chain_cof,
        chain_full_language=None if chain_min is None else chain_count == 0,
        chain_longest_omitted=None if chain_wit is None else len(chain_wit),
        chain_longest_omitted_word=chain_wit,
        nfa_size_bound=s.total_symbols - s.word_count + 1,
        window_dfa_states=window_states,
        star_dfa=star_min,
        chain_dfa=chain_min,
    )


DEFAULT_ENUM_BUDGET = 2**20


def _check_budget(count: int, what: str, *args) -> None:
    """``BudgetExceeded``, saying ``what % (count, *args)``, when ``count`` is over the budget."""
    if count > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(what % (count, *args))


def _check_two_lengths(m: int, n: int) -> None:
    """The two-length rules: integers ``0 < m < n < 2 * m``, and ``m``, ``n`` coprime."""
    if not (0 < _integer(m) < _integer(n) < 2 * m):
        raise PreconditionViolated("lengths must satisfy 0 < short < long < 2*short")
    if gcd(m, n) != 1:
        raise PreconditionViolated("the two lengths must be coprime")


def two_length_cofinite(
    s: WordSet, short_len: int, long_len: int, *, budget: int = DEFAULT_STATE_CAP
) -> bool:
    """Decide co-finiteness for sets whose words all have one of two lengths.

    Requires ``0 < short_len < long_len < 2 * short_len`` with coprime
    lengths, and every word of the set to have one of the two lengths.  The
    closure then misses only finitely many words iff the set contains every
    word of the short length and the closure contains every word of length
    ``short_len * sigma**(long_len - short_len) + long_len - short_len``
    (sigma the alphabet size).  That length is walked on the window
    acceptor, not on the trie route ``measure_all`` reads: each length's
    states are all successors of the last length's, and every state the
    borderline length reaches must accept.  ``budget`` caps the acceptor's
    states (``CapExceeded``); it is checked first, on every path.
    """
    _at_least(budget, 1, "the state cap")
    m, n = short_len, long_len
    _check_two_lengths(m, n)
    if any(len(w) not in (m, n) for w in s.words):
        raise PreconditionViolated("every word must have one of the two lengths")
    sigma = len(s.alphabet)
    short_words = sum(1 for w in s.words if len(w) == m)
    if short_words < sigma**m:
        return False
    d = window_star_dfa(s, budget)
    states = {d.initial}
    for _ in range(m * sigma ** (n - m) + (n - m)):
        states = {col[q] for col in d.cols for q in states}
    return states <= d.finals
