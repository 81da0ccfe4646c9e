"""Finite automata over character alphabets, with the operations needed to
measure star closures: subset construction, minimization, complementation,
co-finiteness, longest accepted word, and exact word counting.

States are integers ``0 .. state_count-1``.  Alphabets are ordered strings of
distinct characters; the declared order doubles as the lexicographic order
used for tie-breaking.  DFAs are always complete: every state has a
transition on every symbol, and a rejecting sink counts as a state like any
other.  Word counts use plain Python integers, so they never overflow.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import eq

DEFAULT_STATE_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """Subset construction needed more states than the configured cap."""


class NotFinite(ValueError):
    """An operation that requires a finite language met a live cycle."""


def _check_alphabet(alphabet: str) -> None:
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError("alphabet must be a nonempty string of distinct characters")


def _check_range(values, n: int, what: str) -> None:
    if values and (min(values) < 0 or max(values) >= n):
        bad = min(values) if min(values) < 0 else max(values)
        raise ValueError("%s %d out of range" % (what, bad))


def _symbols(alphabet: str, word: str) -> list[int]:
    sym = {c: i for i, c in enumerate(alphabet)}
    try:
        return [sym[c] for c in word]
    except KeyError as exc:
        raise ValueError("symbol %r is not in the alphabet %r" % (exc.args[0], alphabet)) from None


def _edge_masks(n: int, alphabet: str, edges) -> tuple[tuple[int, ...], ...]:
    """Successor bitmasks of ``(source, symbol, target)`` edges; an edge
    outside the ``n`` states or the alphabet is a ``ValueError`` naming it."""
    sym = {c: i for i, c in enumerate(alphabet)}
    rows = [[0] * len(alphabet) for _ in range(n)]
    for edge in edges:
        s, c, t = edge
        if not (0 <= s < n and 0 <= t < n and c in sym):
            raise ValueError("edge %r is outside %d states over %r" % (edge, n, alphabet))
        rows[s][sym[c]] |= 1 << t
    return tuple(map(tuple, rows))


def _new(cls, *fields, **flags):
    """An ``Nfa`` or ``Dfa`` from its stored fields, which ``_set`` checks
    with one ``min``/``max`` per column: how the constructions make them."""
    fa = object.__new__(cls)
    fa._set(*fields, **flags)
    return fa


@dataclass(frozen=True, init=False)
class Nfa:
    """Nondeterministic automaton without epsilon moves.

    ``masks[s][i]`` is the successor set of state ``s`` on the ``i``-th
    alphabet symbol, as a bitmask; ``transitions[s][i]`` is the same set as
    a frozenset (a derived, read-only view).  ``initial`` is a set of start
    states.  ``Nfa(alphabet, transitions, initial, finals)`` takes rows of
    successor sets, checks them and converts them.
    """

    alphabet: str
    masks: tuple[tuple[int, ...], ...]
    initial: frozenset[int]
    finals: frozenset[int]

    def __init__(self, alphabet: str, transitions, initial, finals) -> None:
        if any(len(row) != len(alphabet) for row in transitions):
            raise ValueError("every state needs a successor set per symbol")
        edges = [
            (s, c, t) for s, row in enumerate(transitions) for c, ts in zip(alphabet, row) for t in ts
        ]
        masks = _edge_masks(len(transitions), alphabet, edges)
        self._set(alphabet, masks, frozenset(initial), frozenset(finals))

    def _set(self, alphabet, masks, initial, finals) -> None:
        _check_alphabet(alphabet)
        if not masks:
            raise ValueError("automaton needs at least one state")
        if not initial:
            raise ValueError("at least one initial state is required")
        if set(map(len, masks)) != {len(alphabet)}:
            raise ValueError("every state needs a successor set per symbol")
        if min(map(min, masks)) < 0 or max(map(max, masks)) >> len(masks):
            raise ValueError("transition target out of range")
        _check_range(initial, len(masks), "initial state")
        _check_range(finals, len(masks), "final state")
        vars(self).update(alphabet=alphabet, masks=masks, initial=initial, finals=finals)

    @property
    def state_count(self) -> int:
        return len(self.masks)

    @cached_property
    def transitions(self) -> tuple[tuple[frozenset[int], ...], ...]:
        bits = range(self.state_count)
        return tuple(tuple(frozenset(t for t in bits if m >> t & 1) for m in r) for r in self.masks)

    @classmethod
    def from_edges(cls, state_count: int, alphabet: str, edges, initial, finals) -> "Nfa":
        """Build from an iterable of ``(source, symbol, target)`` triples."""
        masks = _edge_masks(state_count, alphabet, edges)
        return _new(cls, alphabet, masks, frozenset(initial), frozenset(finals))

    def accepts(self, word: str) -> bool:
        """Membership by direct subset simulation, independent of any DFA."""
        current = set(self.initial)
        for i in _symbols(self.alphabet, word):
            current = {t for s in current for t in self.transitions[s][i]}
        return bool(current & self.finals)


@dataclass(frozen=True, init=False)
class Dfa:
    """Complete deterministic automaton.

    ``cols[i][s]`` is the single successor of state ``s`` on the ``i``-th
    alphabet symbol; ``transitions[s][i]`` reads the same table by rows (a
    derived, read-only view).  ``Dfa(alphabet, transitions, initial,
    finals)`` takes the rows, checks them and converts them.  ``minimal`` is
    set only by ``minimize`` and promises that all states are reachable and
    pairwise distinguishable.  ``numbered``, set by the constructions, promises
    that they are all reachable and numbered breadth-first from ``initial``
    = 0 in symbol order, so ``minimize`` need not renumber them.
    """

    alphabet: str
    cols: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    minimal: bool = False
    numbered: bool = field(default=False, compare=False, repr=False)

    def __init__(self, alphabet: str, transitions, initial: int, finals, minimal=False) -> None:
        if any(len(row) != len(alphabet) for row in transitions):
            raise ValueError("DFA must be complete: one successor per symbol")
        self._set(alphabet, tuple(zip(*transitions)), initial, frozenset(finals), minimal)

    def _set(self, alphabet, cols, initial, finals, minimal=False, numbered=False) -> None:
        _check_alphabet(alphabet)
        n = len(cols[0]) if cols else 0
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if len(cols) != len(alphabet) or set(map(len, cols)) != {n}:
            raise ValueError("DFA must be complete: one successor per symbol")
        for col in cols:
            _check_range(col, n, "transition target")
        if not 0 <= initial < n:
            raise ValueError("initial state %d out of range" % initial)
        _check_range(finals, n, "final state")
        vars(self).update(
            alphabet=alphabet, cols=cols, initial=initial, finals=finals, minimal=minimal, numbered=numbered
        )

    @property
    def state_count(self) -> int:
        return len(self.cols[0])

    @cached_property
    def transitions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.cols))

    def accepts(self, word: str) -> bool:
        s = self.initial
        for i in _symbols(self.alphabet, word):
            s = self.cols[i][s]
        return s in self.finals


def determinize(nfa: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Subset construction, reachable part only.

    Subsets are tracked as integer bitmasks.  The empty subset becomes the
    rejecting sink, so the result is complete.  Discovery order is
    breadth-first with symbols in alphabet order, which makes the state
    numbering deterministic.  Raises ``CapExceeded`` as soon as more than
    ``state_cap`` subset states would be created.

    Each symbol's successor function is split once, Shift-And style:
    ``shift[a]`` holds the states whose only successor on ``a`` is
    ``s + 1``, ``irregular`` the states with any other nonempty successor
    set.  A subset's successor on ``a`` is ``(S & shift[a]) << 1`` ORed with
    the rows of the members of ``S & irregular``, the only ones extracted.
    """
    nsym = len(nfa.alphabet)
    succ = nfa.masks
    shift = [0] * nsym
    irregular = 0
    for s, row in enumerate(succ):
        for a, m in enumerate(row):
            if m == 2 << s:
                shift[a] |= 1 << s
            elif m:
                irregular |= 1 << s
    final_mask = sum(1 << s for s in nfa.finals)
    start = sum(1 << s for s in nfa.initial)
    ids: dict[int, int] = {start: 0}
    masks: list[int] = [start]
    flat: list[int] = []  # the table row by row
    for mask in masks:  # grows as subsets are reached
        members = []
        rest = mask & irregular
        while rest:
            low = rest & -rest
            rest ^= low
            members.append(succ[low.bit_length() - 1])
        for a in range(nsym):
            nm = (mask & shift[a]) << 1
            for r in members:
                nm |= r[a]
            target = ids.get(nm)
            if target is None:
                if len(masks) >= state_cap:
                    raise CapExceeded("subset construction exceeded %d states" % state_cap)
                target = ids[nm] = len(masks)
                masks.append(nm)
            flat.append(target)
    finals = frozenset(j for j, m in enumerate(masks) if m & final_mask)
    cols = tuple(tuple(flat[a::nsym]) for a in range(nsym))
    return _new(Dfa, nfa.alphabet, cols, 0, finals, numbered=True)


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA for the same language: the quotient by
    ``_refine``'s classes, numbered in order of their first state, so equal
    languages built the same way yield identical tables.  When every class
    is a single state, the table is its own quotient and is kept as it is."""
    if d.minimal:
        return d
    cols, finals, cls, count = _refine(d)
    if count < len(cls):
        reps = list(dict.fromkeys(cls))
        index = list(map(dict(zip(reps, range(count))).__getitem__, cls))  # state -> class
        cols = tuple(tuple(map(index.__getitem__, map(col.__getitem__, reps))) for col in cols)
        finals = frozenset(map(index.__getitem__, finals))
    return _new(Dfa, d.alphabet, cols, 0, finals, minimal=True, numbered=True)


def _refine(d: Dfa) -> tuple[tuple[tuple[int, ...], ...], frozenset[int], list, int]:
    """``d``'s reachable columns and finals, numbered breadth-first in symbol
    order (a ``numbered`` table as it is), the coarsest partition of their
    states (``cls[s]`` the least state of ``s``'s class) and its class count.
    Moore rounds refine the accept/reject split by the signatures (own class,
    class of each successor) until a round splits nothing or every class is
    a single state (``cls`` is then unused); Moore can need about as many
    rounds as there are states, so Hopcroft finishes after ``2 * n.bit_length()``."""
    cols, finals = d.cols, d.finals
    if not d.numbered:
        ids = {d.initial: 0}
        order = [d.initial]
        for s in order:
            for col in cols:
                if col[s] not in ids:
                    ids[col[s]] = len(order)
                    order.append(col[s])
        cols = tuple(tuple(map(ids.__getitem__, map(col.__getitem__, order))) for col in cols)
        finals = frozenset(ids[s] for s in finals if s in ids)
    n = len(cols[0])
    cls = list(map(finals.__contains__, range(n)))
    count = len(set(cls))
    for _ in range(2 * n.bit_length()):
        if count == n:  # singletons cannot split
            break
        sig: dict[tuple, int] = {}
        keys = zip(cls, *[map(cls.__getitem__, col) for col in cols])
        cls = list(map(sig.setdefault, keys, range(n)))
        if len(sig) == count:
            break
        count = len(sig)
    else:
        if count < n:
            cls = _hopcroft(cols, cls)
            count = len(set(cls))
    return cols, finals, cls, count


def _hopcroft(cols: tuple[tuple[int, ...], ...], cls: list) -> list[int]:
    """Coarsest refinement of the partition ``cls`` (state -> label) that
    every column respects; the worklist starts with every block."""
    n = len(cls)
    pre: list[list[list[int]]] = []
    for col in cols:
        p: list[list[int]] = [[] for _ in range(n)]
        for s, t in enumerate(col):
            p[t].append(s)
        pre.append(p)
    index = {c: i for i, c in enumerate(dict.fromkeys(cls))}
    part_of = [index[c] for c in cls]
    parts: list[set[int]] = [set() for _ in index]
    for s, i in enumerate(part_of):
        parts[i].add(s)
    work: deque[int] = deque(range(len(parts)))
    in_work: list[bool] = [True] * len(parts)

    while work:
        wi = work.popleft()
        in_work[wi] = False
        splitter = parts[wi]
        for pa in pre:
            touched: dict[int, set[int]] = defaultdict(set)
            # a state has one successor per symbol, so no state repeats
            for s in chain.from_iterable(map(pa.__getitem__, splitter)):
                touched[part_of[s]].add(s)
            for pi, inter in touched.items():
                block = parts[pi]
                if len(inter) == len(block):
                    continue
                rest = block - inter
                parts[pi] = inter
                ni = len(parts)
                parts.append(rest)
                for s in rest:
                    part_of[s] = ni
                # a block already queued queues its new half; else the smaller half
                add = pi if not in_work[pi] and len(inter) <= len(rest) else ni
                in_work.append(False)
                in_work[add] = True
                work.append(add)

    low = [min(p) for p in parts]
    return [low[i] for i in part_of]


def complement(d: Dfa) -> Dfa:
    """Swap accepting and rejecting states; completeness makes this exact."""
    finals = frozenset(range(d.state_count)) - d.finals
    return _new(Dfa, d.alphabet, d.cols, d.initial, finals, d.minimal, d.numbered)


def _live_order(d: Dfa) -> list[int]:
    """The states on some path initial -> final (reachable and co-reachable),
    in topological order; ``NotFinite`` on a cycle among them."""
    reach = [d.initial]
    seen = {d.initial}
    for s in reach:  # grows as states are reached
        for col in d.cols:
            if col[s] not in seen:
                seen.add(col[s])
                reach.append(col[s])
    back: dict[int, set[int]] = defaultdict(set)
    for col in d.cols:
        for s in reach:
            back[col[s]].add(s)
    co = list(d.finals & seen)
    live = set(co)
    for s in co:  # grows as states are reached
        for p in back[s]:
            if p not in live:
                live.add(p)
                co.append(p)
    indeg = dict.fromkeys(live, 0)
    for col in d.cols:
        for s in live:
            if col[s] in live:
                indeg[col[s]] += 1
    queue = deque(sorted(s for s in live if indeg[s] == 0))
    out = []
    while queue:
        s = queue.popleft()
        out.append(s)
        for col in d.cols:
            t = col[s]
            if t in live:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
    if len(out) != len(live):
        raise NotFinite("live cycle: the language is infinite")
    return out


def is_cofinite(d: Dfa) -> bool:
    """Whether all but finitely many words are accepted.

    The words outside the language are exactly the words of the complement;
    that language is finite iff the complement automaton, trimmed to states
    that lie on some accepting path, has no cycle.  Every state of a
    ``numbered`` table is reachable, so a rejecting state there that loops
    to itself on a symbol misses infinitely many words: one scan per column
    looks for such a loop before the full analysis runs.
    """
    if d.numbered:
        states = range(d.state_count)
        for col in d.cols:
            if not d.finals.issuperset(compress(states, map(eq, col, states))):
                return False
    try:
        _live_order(complement(d))
    except NotFinite:
        return False
    return True


def longest_word(d: Dfa) -> str | None:
    """Longest accepted word, lexicographically least among ties.

    Requires a finite language (``NotFinite`` otherwise).  Returns ``None``
    when no word is accepted at all.  Lexicographic order follows the
    declared symbol order of the alphabet.
    """
    best: dict[int, int] = {}  # live state -> length of its longest word
    for s in reversed(_live_order(d)):
        best[s] = max([best[col[s]] + 1 for col in d.cols if col[s] in best], default=0)
    if not best:
        return None
    out = []
    s = d.initial
    while best[s] > 0:  # step to the first symbol whose target keeps the longest word
        a = next(a for a, col in enumerate(d.cols) if best.get(col[s]) == best[s] - 1)
        out.append(d.alphabet[a])
        s = d.cols[a][s]
    return "".join(out)


def count_words(d: Dfa) -> int:
    """Exact number of accepted words of a finite language.

    Counts accepting paths through the trimmed acyclic graph; arbitrary
    precision since the result grows like the number of paths.
    """
    total: dict[int, int] = {}  # live state -> number of its words
    for s in reversed(_live_order(d)):
        total[s] = (s in d.finals) + sum(total[col[s]] for col in d.cols if col[s] in total)
    return total.get(d.initial, 0)


def distinguishing_word(a: Dfa, b: Dfa) -> str | None:
    """Shortest word accepted by exactly one of the two automata.

    ``None`` means the languages are equal.  Both automata must share the
    same alphabet string.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("automata use different alphabets")
    start = (a.initial, b.initial)
    seen = {start}
    queue: deque[tuple[tuple[int, int], str]] = deque([(start, "")])
    while queue:
        (s, t), word = queue.popleft()
        if (s in a.finals) != (t in b.finals):
            return word
        for i, c in enumerate(a.alphabet):
            nxt = (a.cols[i][s], b.cols[i][t])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + c))
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via breadth-first product exploration."""
    return distinguishing_word(a, b) is None


def state_complexity(d: Dfa) -> int:
    """Size of the minimal complete DFA, rejecting sink included: ``_refine``'s class count."""
    return d.state_count if d.minimal else _refine(d)[3]


def has_dead_state(d: Dfa) -> bool:
    """Whether the automaton contains a rejecting sink state."""
    return any(
        s not in d.finals and all(col[s] == s for col in d.cols)
        for s in range(d.state_count)
    )


def to_dot(fa: Nfa | Dfa, name: str = "fa") -> str:
    """GraphViz rendering for eyeballing small automata (debug only)."""
    lines = ["digraph %s {" % name, "  rankdir=LR;", '  start [shape=none,label=""];']
    initials = fa.initial if isinstance(fa, Nfa) else [fa.initial]
    for s in range(fa.state_count):
        shape = "doublecircle" if s in fa.finals else "circle"
        lines.append("  q%d [shape=%s,label=\"%d\"];" % (s, shape, s))
    for s in initials:
        lines.append("  start -> q%d;" % s)
    grouped: dict[tuple[int, int], list[str]] = defaultdict(list)
    for s in range(fa.state_count):
        for i, c in enumerate(fa.alphabet):
            targets = fa.transitions[s][i]
            if isinstance(fa, Dfa):
                targets = (targets,)
            for t in targets:
                grouped[(s, t)].append(c)
    for (s, t), symbols in sorted(grouped.items()):
        lines.append('  q%d -> q%d [label="%s"];' % (s, t, ",".join(symbols)))
    lines.append("}")
    return "\n".join(lines)
