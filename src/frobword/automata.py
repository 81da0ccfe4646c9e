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

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import index, itemgetter

DEFAULT_STATE_CAP = 1_000_000
# ``_refine`` compacts its ``live`` states from this many states up: ungated,
# the compaction made the 2,914 tables of at most 22 states that ``verify
# pairs --max-len 5`` refines about 45% slower (CPython 3.11)
_TAIL_STATES = 256


class CapExceeded(RuntimeError):
    """Subset construction needed more states than the configured cap."""


class NotFinite(ValueError):
    """An operation that requires a finite language met a live cycle."""


class PreconditionViolated(ValueError):
    """Input fails a structural requirement of the operation."""


def _check_alphabet(alphabet: str) -> None:
    if not isinstance(alphabet, str) or len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError("alphabet %r must be a nonempty string of distinct characters" % (alphabet,))


def _check_words(words, alphabet: str | None) -> None:
    """The alphabet rule, then the word rule: a word that is not a string, or
    has characters outside the alphabet, is refused, naming them.  With
    ``alphabet`` None, only the strings are checked."""
    if alphabet is not None:
        _check_alphabet(alphabet)
    letters = set(alphabet or "")
    for w in words:
        if not isinstance(w, str):
            raise ValueError("word %r is not a string" % (w,))
        if alphabet is not None and not letters.issuperset(w):
            stray = ",".join(sorted(set(w) - letters))
            raise ValueError("word %r uses characters %s not in alphabet %r" % (w, stray, alphabet))


def _check_generators(words, alphabet: str | None) -> None:
    """The list rule: ``_check_words``, then at least one word, and no empty word."""
    _check_words(words, alphabet)
    if not words:
        raise ValueError("at least one word is required")
    if not all(words):
        raise ValueError("words must be nonempty")


def _check_range(values, n: int, what: str) -> None:
    if values and (min(values) < 0 or max(values) >= n):
        bad = min(values) if min(values) < 0 else max(values)
        raise ValueError("%s %d out of range" % (what, bad))


def _integer(value) -> int:
    """``value`` read with ``operator.index``, or ``PreconditionViolated`` for a non-integer."""
    try:
        return index(value)
    except TypeError:
        raise PreconditionViolated("%r is not an integer" % (value,)) from None


def _at_least(value, least: int, name: str) -> int:
    """The size rule: ``value`` read by ``_integer``, refused with ``name`` when below ``least``."""
    if (value := _integer(value)) < least:
        raise PreconditionViolated("%s must be at least %d, got %d" % (name, least, value))
    return value


def _states(values) -> frozenset[int]:
    """The values as a frozenset of integers, refused at the first that is not one."""
    try:
        return frozenset(map(index, values))
    except TypeError as exc:
        raise ValueError("states must be a collection of integers: %s" % exc) from None


def _rows(table, alphabet: str, message: str) -> list[tuple]:
    """The alphabet rule, then the rows as tuples of one entry per symbol, or ``ValueError(message)``."""
    _check_alphabet(alphabet)  # before the table is measured against it
    try:
        rows = list(map(tuple, table))
        if all(len(row) == len(alphabet) for row in rows):
            return rows
    except TypeError:
        pass
    raise ValueError(message)


def _edge_masks(n: int, alphabet: str, edges) -> tuple[tuple[int, ...], ...]:
    """Successor bitmasks of ``(source, symbol, target)`` edges; an edge
    outside the ``n`` states or the alphabet is a ``ValueError`` naming it."""
    n = _integer(n)
    sym = {c: i for i, c in enumerate(alphabet)}
    rows = [[0] * len(alphabet) for _ in range(n)]
    for edge in edges:
        try:
            s, c, t = edge
            ok = isinstance(s, int) and isinstance(t, int) and 0 <= s < n and 0 <= t < n and c in sym
        except (TypeError, ValueError):  # not a triple, or an unhashable symbol
            ok = False
        if not ok:
            raise ValueError("edge %r is outside %d states over %r" % (edge, n, alphabet))
        rows[s][sym[c]] |= 1 << t
    return tuple(map(tuple, rows))


def _members(mask: int) -> frozenset[int]:
    """The states of a successor bitmask, read off its set bits alone."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return frozenset(out)


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
        rows = _rows(transitions, alphabet, "every state needs a successor set per symbol")
        edges = [(s, c, t) for s, row in enumerate(rows) for c, ts in zip(alphabet, row) for t in _states(ts)]
        self._set(alphabet, _edge_masks(len(rows), alphabet, edges), _states(initial), _states(finals))

    def _set(self, alphabet, masks, initial, finals) -> None:
        if not masks:
            raise ValueError("automaton needs at least one state")
        if not initial:
            raise ValueError("at least one initial state is required")
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
        return tuple(tuple(map(_members, row)) for row in self.masks)

    @classmethod
    def from_edges(cls, state_count: int, alphabet: str, edges, initial, finals) -> "Nfa":
        """Build from an iterable of ``(source, symbol, target)`` triples."""
        _check_alphabet(alphabet)
        masks = _edge_masks(state_count, alphabet, edges)
        return _new(cls, alphabet, masks, _states(initial), _states(finals))

    def accepts(self, word: str) -> bool:
        """Membership by direct subset simulation, independent of any DFA."""
        _check_words((word,), self.alphabet)
        current = set(self.initial)
        for i in map(self.alphabet.index, word):
            current = {t for s in current for t in self.transitions[s][i]}
        return bool(current & self.finals)


@dataclass(frozen=True, init=False)
class Dfa:
    """Complete deterministic automaton.

    ``cols[i][s]`` is the single successor of state ``s`` on the ``i``-th
    alphabet symbol; ``transitions[s][i]`` reads the same table by rows (a
    derived, read-only view).  ``Dfa(alphabet, transitions, initial,
    finals)`` takes the rows, checks them and converts them.  ``minimal``
    promises that all states are reachable and pairwise distinguishable:
    ``minimize`` sets it, and the constructor refuses it with a
    ``ValueError`` on a table that breaks the promise.  ``numbered``, set
    by the constructions, promises that they are all reachable and numbered
    breadth-first from ``initial`` = 0 in symbol order, so ``minimize`` need
    not renumber them.
    """

    alphabet: str
    cols: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    minimal: bool = False
    numbered: bool = field(default=False, compare=False, repr=False)

    def __init__(self, alphabet: str, transitions, initial: int, finals, minimal=False) -> None:
        rows = _rows(transitions, alphabet, "DFA must be complete: one successor per symbol")
        _states(chain([initial], *rows))
        self._set(alphabet, tuple(zip(*rows)), initial, _states(finals), minimal)
        if minimal:
            cols, _, _, count = _refine(self)
            if count < self.state_count:
                msg = "minimal=True on %d states, of which %d are reachable in %d classes"
                raise ValueError(msg % (self.state_count, len(cols[0]), count))

    def _set(self, alphabet, cols, initial, finals, minimal=False, numbered=False) -> None:
        n = len(cols[0]) if cols else 0
        if n == 0:
            raise ValueError("automaton needs at least one state")
        for col in cols:
            _check_range(col, n, "transition target")
        _check_range((initial,), n, "initial state")
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
        _check_words((word,), self.alphabet)
        s = self.initial
        for i in map(self.alphabet.index, word):
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
    _at_least(state_cap, 1, "the state cap")
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
    """Minimal complete DFA for the same language: ``_refine``'s quotient,
    its classes numbered in order of their first state, so equal languages
    built the same way yield identical tables, flagged ``minimal`` or not.
    A table whose classes are all single states is its own quotient, kept."""
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
    states (``cls[s]`` the least state of ``s``'s class, unused when all are
    single states) and its class count.  Moore rounds split the accept/reject
    partition by signatures (own class, each successor's class) until one
    splits nothing; Moore can need about as many rounds as there are states,
    so ``_hopcroft`` finishes both after ``2 * n.bit_length()`` rounds.

    Each round signs the states in ``live``, at first every state, and
    writes back their labels.  From ``_TAIL_STATES`` states up, once a round
    leaves over ``3n/4`` classes (``4 * (n - count) < n``, so under half the
    states share one), ``live`` shrinks to the states still sharing a class.
    A single-state class can neither split nor change its least-state label,
    so rounds, labels and ``_hopcroft``'s ``cls`` are those of full rounds."""
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
    live = range(n)  # the states that sign each round, ascending
    for _ in range(2 * n.bit_length()):
        if count == n:  # singletons cannot split
            break
        # so n >= 2, and ``live`` is every state or, once compacted (to under
        # n/2), the two or more sharing a class: each getter returns a tuple
        full = len(live) == n
        rows = [itemgetter(*(col if full else map(col.__getitem__, live)))(cls) for col in cols]
        sig: dict[tuple, int] = {}
        labels = list(map(sig.setdefault, zip(cls if full else itemgetter(*live)(cls), *rows), live))
        if full:
            cls = labels
        else:
            for s, c in zip(live, labels):
                cls[s] = c
        if len(sig) == count - n + len(live):  # as many classes in ``live`` as before
            break
        count = n - len(live) + len(sig)
        if n >= _TAIL_STATES and 4 * (n - count) < n:  # keep the states whose class has two or more
            del sig  # beside the count, the signatures raised the peak memory
            size = Counter(labels)
            live = list(compress(live, map((1).__lt__, map(size.__getitem__, labels))))
    else:
        if count < n:
            cls, count = _hopcroft(cols, cls)
    return cols, finals, cls, count


def _hopcroft(cols: tuple[tuple[int, ...], ...], cls: list) -> tuple[list[int], int]:
    """Coarsest refinement of the partition ``cls`` (state -> label) that every
    column respects, with its block count; the worklist starts with every block."""
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
        splitter = tuple(parts[wi])  # splits below shrink blocks in place, this one too
        for pa in pre:
            touched: dict[int, set[int]] = defaultdict(set)
            # a state has one successor per symbol, so no state repeats
            for s in chain.from_iterable(map(pa.__getitem__, splitter)):
                touched[part_of[s]].add(s)
            for pi, inter in touched.items():
                block = parts[pi]
                if len(inter) == len(block):
                    continue
                block -= inter  # relabel only ``inter``, which the scan has paid for
                ni = len(parts)
                parts.append(inter)
                for s in inter:
                    part_of[s] = ni
                # a block already queued queues its new half; else the smaller half
                add = ni if in_work[pi] or len(inter) <= len(block) else pi
                in_work.append(False)
                in_work[add] = True
                work.append(add)

    low = [min(p) for p in parts]
    return [low[i] for i in part_of], len(parts)


def complement(d: Dfa) -> Dfa:
    """Swap accepting and rejecting states; completeness makes this exact."""
    finals = frozenset(range(d.state_count)) - d.finals
    return _new(Dfa, d.alphabet, d.cols, d.initial, finals, d.minimal, d.numbered)


def _finite_paths(d: Dfa, accepting: bool) -> tuple[list[int], list[int], list[int]]:
    """Per state the initial one reaches, the number of words leading it to
    a target, a state whose membership in ``d.finals`` is ``accepting``,
    the length of the longest (``-1`` for none) and the first symbol in
    alphabet order that starts one (``-1`` for none); ``NotFinite`` when
    the live states (reachable, and able to reach a target) lie on a cycle.

    One iterative depth-first search (Tarjan 1972): it pushes all successors
    of a state at once and finishes the state when it is back on top, so the
    states entered but not finished are the search path, and a state's
    successors off the path are finished before it is.  The live states
    form a cycle exactly when an edge back onto the path leads into a live
    state; any other edge back leads to a dead state, which adds nothing.
    A target is live, so the search stops there at once; the others are
    checked at the end, when every state's entries are final."""
    cols, indexed, finals = d.cols, tuple(enumerate(d.cols)), d.finals
    count = [0] * d.state_count
    longest = [-1] * d.state_count
    first = [-1] * d.state_count
    mark = [0] * d.state_count  # 0 unseen, 1 on the search path, 2 finished
    back = []  # the states that edges back onto the path lead to
    stack = [d.initial]
    while stack:
        s = stack[-1]
        if not mark[s]:
            mark[s] = 1
            for col in cols:
                t = col[s]
                if not mark[t]:
                    stack.append(t)
                elif mark[t] == 1:
                    if (t in finals) == accepting:
                        raise NotFinite("live cycle: the language is infinite")
                    back.append(t)
            continue
        stack.pop()
        if mark[s] == 1:  # else a second entry of a finished state
            mark[s] = 2
            total = 1 if (s in finals) == accepting else 0
            top = total - 1
            for a, col in indexed:
                t = col[s]
                if count[t]:  # a live successor
                    total += count[t]
                    if longest[t] >= top:
                        top = longest[t] + 1
                        first[s] = a
            count[s], longest[s] = total, top
    if any(map(count.__getitem__, back)):
        raise NotFinite("live cycle: the language is infinite")
    return count, longest, first


def _spell_longest(d: Dfa, paths: tuple[list[int], list[int], list[int]]) -> str | None:
    """The longest word from ``initial`` by ``_finite_paths``' ``paths``: a
    walk on the symbol recorded at each state; ``None`` for none."""
    _, longest, first = paths
    s, out = d.initial, []
    while (a := first[s]) >= 0:
        out.append(d.alphabet[a])
        s = d.cols[a][s]
    return "".join(out) if longest[d.initial] >= 0 else None


def _omissions(d: Dfa) -> tuple[bool, int | None, str | None]:
    """What the language misses: whether only finitely many words, then how
    many and the longest (``longest_word``'s tie-break, ``None`` when none
    is missed), read off one ``_finite_paths`` search of ``d`` toward its
    rejecting states, which stops at the first edge back into one."""
    try:
        paths = _finite_paths(d, False)
    except NotFinite:
        return False, None, None
    return True, paths[0][d.initial], _spell_longest(d, paths)


def is_cofinite(d: Dfa) -> bool:
    """Whether all but finitely many words are accepted: ``_omissions``' answer, on any table."""
    return _omissions(d)[0]


def longest_word(d: Dfa) -> str | None:
    """Longest accepted word, lexicographically least among ties in the
    declared symbol order; ``None`` when no word is accepted.  Requires a
    finite language (``NotFinite`` otherwise).  One ``_finite_paths``
    search gives the lengths and the symbols to spell it with."""
    return _spell_longest(d, _finite_paths(d, True))


def count_words(d: Dfa) -> int:
    """Exact number of accepted words of a finite language (``NotFinite``
    otherwise), read at ``initial`` off one ``_finite_paths`` search."""
    return _finite_paths(d, True)[0][d.initial]


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
    return _refine(d)[3]


def has_dead_state(d: Dfa) -> bool:
    """Whether the automaton contains a rejecting sink state."""
    return any(
        s not in d.finals and all(col[s] == s for col in d.cols)
        for s in range(d.state_count)
    )


def to_dot(d: Dfa, name: str = "fa") -> str:
    """GraphViz rendering of a DFA for eyeballing small automata (debug
    only): one edge per pair of states, labelled with its symbols."""
    lines = ["digraph %s {" % name, "  rankdir=LR;", '  start [shape=none,label=""];']
    for s in range(d.state_count):
        shape = "doublecircle" if s in d.finals else "circle"
        lines.append("  q%d [shape=%s,label=\"%d\"];" % (s, shape, s))
    lines.append("  start -> q%d;" % d.initial)
    grouped: dict[tuple[int, int], list[str]] = defaultdict(list)
    for c, col in zip(d.alphabet, d.cols):
        for s, t in enumerate(col):
            grouped[(s, t)].append(c)
    for (s, t), symbols in sorted(grouped.items()):
        label = ",".join(symbols).replace("\\", "\\\\").replace('"', '\\"')  # a DOT string
        lines.append('  q%d -> q%d [label="%s"];' % (s, t, label))
    lines.append("}")
    return "\n".join(lines)
