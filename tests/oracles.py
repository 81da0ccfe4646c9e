"""Independent brute-force oracles used only by the tests.

Everything here is written from the definitions with no imports from the
package under test, so an agreement between package and oracle is a real
cross-check and not the same code twice.
"""

from itertools import product
from math import gcd


def sieve_reachable(values, limit):
    """Boolean table: which amounts up to ``limit`` are sums of the given
    positive step sizes (with repetition)."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for amount in range(1, limit + 1):
        for v in values:
            if v <= amount and reach[amount - v]:
                reach[amount] = True
                break
    return reach


def sieve_g_f(values, limit=None):
    """Largest unreachable amount and the count of unreachable positive
    amounts, by plain sieving.  Assumes gcd of the values is 1.  The sieve
    runs to ``limit``, by default ``max * min + max + 1``; a smaller one
    must still end in a full window of reachable amounts (asserted)."""
    assert gcd(*values) == 1
    if limit is None:
        limit = max(values) * min(values) + max(values) + 1
    reach = sieve_reachable(values, limit)
    misses = [a for a in range(1, limit + 1) if not reach[a]]
    # the bound is safe once a full window of min(values) consecutive
    # amounts is reachable: everything beyond follows by adding min(values)
    window = min(values)
    assert all(reach[limit - i] for i in range(window))
    if not misses:
        return 0, 0
    return misses[-1], len(misses)


def closure_upto(words, max_len):
    """All words of length at most ``max_len`` in the star closure,
    grown breadth-first from the empty word."""
    out = {""}
    frontier = [""]
    while frontier:
        u = frontier.pop()
        for w in words:
            v = u + w
            if len(v) <= max_len and v not in out:
                out.add(v)
                frontier.append(v)
    return out


def chain_upto(xs, max_len):
    """All words of length at most ``max_len`` of the form
    (x1 repeated) (x2 repeated) ... in that order."""
    layer = {""}
    for x in xs:
        grown = set(layer)
        frontier = list(layer)
        while frontier:
            u = frontier.pop()
            v = u + x
            if len(v) <= max_len and v not in grown:
                grown.add(v)
                frontier.append(v)
        layer = grown
    return layer


def words_upto(alphabet, max_len):
    for n in range(max_len + 1):
        for p in product(alphabet, repeat=n):
            yield "".join(p)


def finite_language(alphabet, rows, initial, finals):
    """The words a complete DFA with rows ``rows`` accepts, in length and
    then declared symbol order, or ``None`` when there are infinitely many.
    The rows are stepped over every word up to length ``2n - 1``, ``n`` the
    state count: by the pumping lemma the language is infinite exactly when
    it accepts a word of length at least ``n``, and then it accepts one of
    length below ``2n``."""
    n = len(rows)
    accepted = []
    level = [("", initial)]
    for length in range(2 * n):
        if length:
            level = [(w + c, rows[s][i]) for w, s in level for i, c in enumerate(alphabet)]
        for w, s in level:
            if s in finals:
                if length >= n:
                    return None
                accepted.append(w)
    return accepted


def _stream_prefixes(first, blocks, cap):
    """Length-``cap`` prefixes of every stream of blocks that starts with
    ``first`` and continues with arbitrary choices from ``blocks``."""
    out = set()
    stack = [first]
    while stack:
        s = stack.pop()
        if len(s) >= cap:
            out.add(s[:cap])
            continue
        for b in blocks:
            stack.append(s + b)
    return out


def stream_agreement(w, x, cap=None):
    """Longest common prefix of any block stream starting with ``w`` and
    any starting with ``x``, by exhausting all block choices to depth
    ``cap`` (default ``len(w) + len(x)``).  A result equal to the cap
    means "at least the cap"."""
    if cap is None:
        cap = len(w) + len(x)
    tagged = sorted(
        [(s, 0) for s in _stream_prefixes(w, (w, x), cap)]
        + [(s, 1) for s in _stream_prefixes(x, (w, x), cap)]
    )
    # the best cross-pair longest-common-prefix is always realized by two
    # neighbors in sorted order, so one adjacent scan suffices
    best = 0
    for (a, ta), (b, tb) in zip(tagged, tagged[1:]):
        if ta == tb:
            continue
        k = 0
        while k < cap and k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        best = max(best, k)
    return best


def moore_state_count(transitions, initial, finals):
    """Number of distinguishable reachable states of a complete DFA, by
    naive refinement from the accept/reject split."""
    reach = {initial}
    stack = [initial]
    while stack:
        s = stack.pop()
        for t in transitions[s]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach)
    label = {s: int(s in finals) for s in states}
    while True:
        sig = {
            s: (label[s],) + tuple(label[t] for t in transitions[s]) for s in states
        }
        uniq = sorted(set(sig.values()))
        relabel = {v: i for i, v in enumerate(uniq)}
        before = len(set(label.values()))
        label = {s: relabel[sig[s]] for s in states}
        if len(uniq) == before:
            return len(uniq)


def window_star_table(alphabet, words):
    """Sliding-window DFA for the star closure of ``words``, states as
    ``(recent, marks)`` pairs: ``recent`` is the last input symbols, at
    most one fewer than the longest word, and ``marks`` the ascending
    offsets back from the current position where a split into words can
    end.  States are numbered breadth-first in symbol order from
    ``("", (0,))``.  Returns ``(rows, initial, finals)``."""
    words = frozenset(words)
    window = max(len(w) for w in words) - 1
    start = ("", (0,))
    ids = {start: 0}
    states = [start]
    rows = []
    i = 0
    while i < len(states):
        recent, marks = states[i]
        i += 1
        row = []
        for c in alphabet:
            ext = recent + c
            hit = any(ext[-(a + 1):] in words for a in marks)
            nrecent = ext if len(ext) <= window else ext[1:]
            shifted = tuple(a + 1 for a in marks if a + 1 <= len(nrecent))
            state = (nrecent, ((0,) + shifted) if hit else shifted)
            if state not in ids:
                ids[state] = len(states)
                states.append(state)
            row.append(ids[state])
        rows.append(tuple(row))
    finals = frozenset(j for j, (_, marks) in enumerate(states) if marks[:1] == (0,))
    return tuple(rows), 0, finals


def subset_table(alphabet, n, edges, initial, finals, cap):
    """Subset construction of the NFA with states ``0 .. n-1`` and
    ``(source, symbol, target)`` edges, one member row ORed in at a time.
    Subsets are bitmasks, numbered breadth-first in symbol order from the
    initial subset; the empty subset is the rejecting sink.  Raises
    ``RuntimeError("subset construction exceeded <cap> states")`` when a
    subset beyond the first ``cap`` is reached.  Returns ``(rows, finals)``
    with state 0 initial."""
    succ = [[0] * len(alphabet) for _ in range(n)]
    for s, c, t in edges:
        succ[s][alphabet.index(c)] |= 1 << t
    start = sum(1 << s for s in set(initial))
    final_mask = sum(1 << s for s in set(finals))
    ids = {start: 0}
    masks = [start]
    rows = []
    i = 0
    while i < len(masks):
        mask = masks[i]
        i += 1
        row = []
        for a in range(len(alphabet)):
            nm = 0
            for s in range(n):
                if mask >> s & 1:
                    nm |= succ[s][a]
            if nm not in ids:
                if len(masks) >= cap:
                    raise RuntimeError("subset construction exceeded %d states" % cap)
                ids[nm] = len(masks)
                masks.append(nm)
            row.append(ids[nm])
        rows.append(tuple(row))
    return tuple(rows), frozenset(j for j, m in enumerate(masks) if m & final_mask)
