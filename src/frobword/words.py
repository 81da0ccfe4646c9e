"""Combinatorics of word pairs: commutation, common roots, how far two
periodic streams can agree, and predicted automaton sizes for the star and
concatenation of a pair.

Words are plain Python strings; the surrounding alphabet never matters here
except for the size predictions, which assume at least two letters exist (a
rejecting sink is counted).
"""

from __future__ import annotations

import math
from math import gcd
from typing import Iterable

from frobword.numeric import frobenius_g

INFINITE = math.inf

EXACT = "exact"
UPPER_BOUND = "upper-bound"


def _require_nonempty(*ws: str) -> None:
    for w in ws:
        if not w:
            raise ValueError("words must be nonempty")


def commutes(w: str, x: str) -> bool:
    """Whether the two words commute under concatenation."""
    _require_nonempty(w, x)
    return w + x == x + w


def common_root(w: str, x: str) -> str | None:
    """Shortest word both inputs are powers of, or None.

    Two words are powers of a common word exactly when they commute, and
    then the primitive root works; its length divides gcd of the lengths,
    so trying divisors in increasing order finds the shortest.
    """
    _require_nonempty(w, x)
    if w + x != x + w:
        return None
    d = gcd(len(w), len(x))
    for p in range(1, d + 1):
        if d % p:
            continue
        z = w[:p]
        if z * (len(w) // p) == w and z * (len(x) // p) == x:
            return z
    raise AssertionError("commuting words must share a root")  # pragma: no cover


def fine_wilf_agreement(w: str, x: str) -> int | float:
    """Longest common prefix achievable by two streams of blocks.

    One stream starts with block ``w``, the other with block ``x``; after
    that each may continue with either block, chosen to keep the streams
    agreeing as long as possible.  Commuting blocks agree forever
    (``INFINITE``).  Otherwise the classic periodicity argument caps the
    agreement below ``len(w) + len(x) - gcd(len(w), len(x))``, and the
    search below is additionally clamped at ``len(w) + len(x)`` so it
    terminates no matter what.

    The search is level by level: it keeps the set of residual pairs (the
    unread rest of each stream's current block) reachable after ``d``
    matched letters, and stops at the first ``d`` where no pair reads a
    common letter next; a residual of one letter is followed by a fresh
    ``w`` or ``x``.  Each residual is a nonempty suffix of ``w`` or ``x``,
    so a level holds at most ``(len(w) + len(x))**2`` pairs, and nothing
    recurses, so long blocks are safe.
    """
    _require_nonempty(w, x)
    if w + x == x + w:
        return INFINITE

    def after(r: str) -> tuple[str, ...]:
        return (r[1:],) if len(r) > 1 else (w, x)

    cap = len(w) + len(x)
    level = {(w, x)}
    for depth in range(cap):
        level = {(a, b) for u, v in level if u[0] == v[0] for a in after(u) for b in after(v)}
        if not level:
            return depth
    return cap


def prefix_suffix_condition(words: Iterable[str]) -> bool:
    """Every word strictly extends, or is strictly extended by, another word
    of the set, on the prefix side and independently on the suffix side.

    A star closure that misses only finitely many words forces this shape
    on its generating set (unless it is everything), which makes the check
    a cheap necessary filter.
    """
    ws = sorted(set(words))
    _require_nonempty(*ws)

    def linked(u: str, v: str, from_end: bool) -> bool:
        if u == v:
            return False
        a, b = (u[::-1], v[::-1]) if from_end else (u, v)
        return a.startswith(b) or b.startswith(a)

    for side in (False, True):
        for u in ws:
            if not any(linked(u, v, side) for v in ws):
                return False
    return True


def _commuting_pair_sc(w: str, x: str) -> int:
    """Minimal DFA size for the star of a commuting pair.

    Both words are powers of a common root; write the pair of exponents
    over their gcd as (p, q).  When one of p, q is 1 the closure collapses
    to the star of a single word of length d = gcd of the lengths, which
    needs d cycle states plus the sink.  Otherwise a tail of d*g(p,q)+1
    states, a cycle of d states and the sink are needed and sufficient.
    Assumes an ambient alphabet with at least two letters.
    """
    d = gcd(len(w), len(x))
    p, q = len(w) // d, len(x) // d
    if min(p, q) == 1:
        return d + 1
    return d * (frobenius_g([p, q]) + 1) + 2


def predicted_pair_star_sc(w: str, x: str) -> tuple[int, str]:
    """Predicted minimal DFA size for the star closure of {w, x}.

    Commuting pairs get an exact value; all other pairs get the additive
    upper bound ``len(w) + len(x)``, tagged so callers know which kind of
    claim they hold.
    """
    _require_nonempty(w, x)
    if commutes(w, x):
        return _commuting_pair_sc(w, x), EXACT
    return len(w) + len(x), UPPER_BOUND


def predicted_pair_concat_sc(w: str, x: str) -> tuple[int, str]:
    """Predicted minimal DFA size for the concatenation language w* x*.

    For commuting pairs this equals the star closure of the pair, so the
    same exact value applies; otherwise the upper bound is
    ``len(w) + 2 * len(x)``.
    """
    _require_nonempty(w, x)
    if commutes(w, x):
        return _commuting_pair_sc(w, x), EXACT
    return len(w) + 2 * len(x), UPPER_BOUND
