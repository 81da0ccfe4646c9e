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
from dataclasses import dataclass
from itertools import chain

DEFAULT_STATE_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """Subset construction needed more states than the configured cap."""


class NotFinite(ValueError):
    """An operation that requires a finite language met a live cycle."""


def _check_alphabet(alphabet: str) -> None:
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError("alphabet must be a nonempty string of distinct characters")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton without epsilon moves.

    ``transitions[s][i]`` is the frozenset of successors of state ``s`` on
    the ``i``-th alphabet symbol.  ``initial`` is a set of start states.
    """

    alphabet: str
    transitions: tuple[tuple[frozenset[int], ...], ...]
    initial: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet)
        n = len(self.transitions)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if not self.initial:
            raise ValueError("at least one initial state is required")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("every state needs a successor set per symbol")
            for targets in row:
                for t in targets:
                    if not 0 <= t < n:
                        raise ValueError("transition target %d out of range" % t)
        for s in self.initial | self.finals:
            if not 0 <= s < n:
                raise ValueError("state %d out of range" % s)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @classmethod
    def from_edges(
        cls,
        state_count: int,
        alphabet: str,
        edges,
        initial,
        finals,
    ) -> "Nfa":
        """Build from an iterable of ``(source, symbol, target)`` triples."""
        sym = {c: i for i, c in enumerate(alphabet)}
        rows: list[list[set[int]]] = [
            [set() for _ in alphabet] for _ in range(state_count)
        ]
        for s, c, t in edges:
            rows[s][sym[c]].add(t)
        frozen = tuple(
            tuple(frozenset(cell) for cell in row) for row in rows
        )
        return cls(alphabet, frozen, frozenset(initial), frozenset(finals))

    def accepts(self, word: str) -> bool:
        """Membership by direct subset simulation, independent of any DFA."""
        sym = {c: i for i, c in enumerate(self.alphabet)}
        current = set(self.initial)
        for c in word:
            i = sym[c]
            nxt: set[int] = set()
            for s in current:
                nxt |= self.transitions[s][i]
            current = nxt
            if not current:
                return False
        return bool(current & self.finals)


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton.

    ``transitions[s][i]`` is the single successor of state ``s`` on the
    ``i``-th alphabet symbol.  ``minimal`` is set only by ``minimize`` and
    promises that all states are reachable and pairwise distinguishable.
    """

    alphabet: str
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    minimal: bool = False

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet)
        n = len(self.transitions)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("DFA must be complete: one successor per symbol")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError("transition target %d out of range" % t)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for s in self.finals:
            if not 0 <= s < n:
                raise ValueError("final state %d out of range" % s)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def accepts(self, word: str) -> bool:
        sym = {c: i for i, c in enumerate(self.alphabet)}
        s = self.initial
        for c in word:
            s = self.transitions[s][sym[c]]
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
    succ = [[0] * nsym for _ in range(nfa.state_count)]
    shift = [0] * nsym
    irregular = 0
    for s in range(nfa.state_count):
        for i in range(nsym):
            m = 0
            for t in nfa.transitions[s][i]:
                m |= 1 << t
            succ[s][i] = m
            if m == 2 << s:
                shift[i] |= 1 << s
            elif m:
                irregular |= 1 << s
    final_mask = 0
    for s in nfa.finals:
        final_mask |= 1 << s
    start = 0
    for s in nfa.initial:
        start |= 1 << s

    ids: dict[int, int] = {start: 0}
    masks: list[int] = [start]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(masks):
        mask = masks[i]
        i += 1
        members = []
        rest = mask & irregular
        while rest:
            low = rest & -rest
            rest ^= low
            members.append(succ[low.bit_length() - 1])
        row = []
        for a in range(nsym):
            nm = (mask & shift[a]) << 1
            for r in members:
                nm |= r[a]
            target = ids.get(nm)
            if target is None:
                if len(masks) >= state_cap:
                    raise CapExceeded(
                        "subset construction exceeded %d states" % state_cap
                    )
                target = len(masks)
                ids[nm] = target
                masks.append(nm)
            row.append(target)
        rows.append(tuple(row))
    finals = frozenset(j for j, m in enumerate(masks) if m & final_mask)
    return Dfa(nfa.alphabet, tuple(rows), 0, finals)


def _reachable(d: Dfa) -> set[int]:
    seen = {d.initial}
    queue = deque([d.initial])
    while queue:
        s = queue.popleft()
        for t in d.transitions[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA for the same language.

    Restricts to reachable states, numbered breadth-first from the initial
    state in symbol order, and refines the accept/reject split by Moore
    rounds: each round numbers the signatures (own class, class of each
    successor).  Moore can need about as many rounds as there are states,
    so after ``2 * n.bit_length()`` rounds a Hopcroft loop finishes the
    refinement.  Classes are numbered in order of their first state, which
    is the breadth-first order of the quotient, so equal languages built
    the same way yield identical tables.
    """
    if d.minimal:
        return d
    trans = d.transitions
    ids = {d.initial: 0}
    order = [d.initial]
    for s in order:
        for t in trans[s]:
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
    n = len(order)
    cols = [[ids[trans[s][a]] for s in order] for a in range(len(d.alphabet))]
    cls = [s in d.finals for s in order]
    count = len(set(cls))
    for _ in range(2 * n.bit_length()):
        # each state is labelled with the least state of its new class
        sig: dict[tuple, int] = {}
        keys = zip(cls, *[map(cls.__getitem__, col) for col in cols])
        cls = list(map(sig.setdefault, keys, range(n)))
        if len(sig) == count:
            break
        count = len(sig)
    else:
        cls = _hopcroft(cols, cls)

    reps = list(dict.fromkeys(cls))
    newid = {r: i for i, r in enumerate(reps)}
    rows = tuple(tuple(newid[cls[col[r]]] for col in cols) for r in reps)
    finals = frozenset(i for i, r in enumerate(reps) if order[r] in d.finals)
    return Dfa(d.alphabet, rows, 0, finals, minimal=True)


def _hopcroft(cols: list[list[int]], cls: list[int]) -> list[int]:
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
                if in_work[pi]:
                    work.append(ni)
                    in_work.append(True)
                elif len(inter) <= len(rest):
                    work.append(pi)
                    in_work[pi] = True
                    in_work.append(False)
                else:
                    work.append(ni)
                    in_work.append(True)

    low = [min(p) for p in parts]
    return [low[i] for i in part_of]


def complement(d: Dfa) -> Dfa:
    """Swap accepting and rejecting states; completeness makes this exact."""
    finals = frozenset(range(d.state_count)) - d.finals
    return Dfa(d.alphabet, d.transitions, d.initial, finals, minimal=d.minimal)


def _live_states(d: Dfa) -> set[int]:
    """States on some path initial -> final (reachable and co-reachable)."""
    reach = _reachable(d)
    back: dict[int, set[int]] = defaultdict(set)
    for s in reach:
        for t in d.transitions[s]:
            if t in reach:
                back[t].add(s)
    co = set(d.finals & reach)
    queue = deque(co)
    while queue:
        s = queue.popleft()
        for p in back[s]:
            if p not in co:
                co.add(p)
                queue.append(p)
    return reach & co


def _topo_order(d: Dfa, live: set[int]) -> list[int]:
    """Topological order of the live subgraph; NotFinite on a cycle."""
    indeg = {s: 0 for s in live}
    for s in live:
        for t in d.transitions[s]:
            if t in live:
                indeg[t] += 1
    queue = deque(sorted(s for s in live if indeg[s] == 0))
    out = []
    while queue:
        s = queue.popleft()
        out.append(s)
        for t in d.transitions[s]:
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
    that lie on some accepting path, has no cycle.
    """
    c = complement(d)
    live = _live_states(c)
    try:
        _topo_order(c, live)
    except NotFinite:
        return False
    return True


def longest_word(d: Dfa) -> str | None:
    """Longest accepted word, lexicographically least among ties.

    Requires a finite language (``NotFinite`` otherwise).  Returns ``None``
    when no word is accepted at all.  Lexicographic order follows the
    declared symbol order of the alphabet.
    """
    live = _live_states(d)
    if not live:
        return None
    order = _topo_order(d, live)
    best: dict[int, int] = {}
    for s in reversed(order):
        cand = 0 if s in d.finals else -1
        for t in d.transitions[s]:
            if t in live and best[t] + 1 > cand:
                cand = best[t] + 1
        best[s] = cand
    # live states always reach a final, so best is nonnegative on live
    out = []
    s = d.initial
    remaining = best[s]
    while remaining > 0:
        for a in range(len(d.alphabet)):
            t = d.transitions[s][a]
            if t in live and best[t] == remaining - 1:
                out.append(d.alphabet[a])
                s = t
                remaining -= 1
                break
        else:  # pragma: no cover - would mean the DP table is inconsistent
            raise AssertionError("longest-path reconstruction failed")
    return "".join(out)


def count_words(d: Dfa) -> int:
    """Exact number of accepted words of a finite language.

    Counts accepting paths through the trimmed acyclic graph; arbitrary
    precision since the result grows like the number of paths.
    """
    live = _live_states(d)
    if not live:
        return 0
    order = _topo_order(d, live)
    total: dict[int, int] = {}
    for s in reversed(order):
        n = 1 if s in d.finals else 0
        for t in d.transitions[s]:
            if t in live:
                n += total[t]
        total[s] = n
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
            nxt = (a.transitions[s][i], b.transitions[t][i])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + c))
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via breadth-first product exploration."""
    return distinguishing_word(a, b) is None


def state_complexity(d: Dfa) -> int:
    """Size of the minimal complete DFA, rejecting sink included."""
    return minimize(d).state_count


def has_dead_state(d: Dfa) -> bool:
    """Whether the automaton contains a rejecting sink state."""
    return any(
        s not in d.finals and all(t == s for t in row)
        for s, row in enumerate(d.transitions)
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
