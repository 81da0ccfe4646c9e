"""Combinatorics of word pairs: commutation, common roots, how far two
periodic streams can agree, and predicted automaton sizes for the star and
concatenation of a pair.

Words are plain Python strings; the surrounding alphabet never matters here
except for the size predictions, which assume at least two letters exist (a
rejecting sink is counted).  Each function refuses a non-string or empty
word, and ``prefix_suffix_condition`` an empty list, by the list rule.
"""

from __future__ import annotations

import math
from math import gcd
from typing import Iterable

from frobword.automata import _check_generators
from frobword.numeric import frobenius_g

INFINITE = math.inf

EXACT = "exact"
UPPER_BOUND = "upper-bound"


def commutes(w: str, x: str) -> bool:
    """Whether the two words commute under concatenation."""
    if not (isinstance(w, str) and isinstance(x, str) and w and x):  # the helper only raises
        _check_generators((w, x), None)
    return w + x == x + w


def common_root(w: str, x: str) -> str | None:
    """Shortest word both inputs are powers of, or None.

    Two words are powers of a common word exactly when they commute, and
    then they share their primitive root.  That root is ``w[:p]`` for the
    first position ``p > 0`` at which ``w`` occurs in ``ww``: ``w`` occurs
    at ``p`` exactly when rotating it by ``p`` leaves it unchanged, those
    rotations form a group, so the least one divides ``len(w)``, and ``w``
    is a power of ``w[:p]`` and of no shorter word.
    """
    if not commutes(w, x):
        return None
    return w[: (w + w).find(w, 1)]


def fine_wilf_agreement(w: str, x: str) -> int | float:
    """Longest common prefix achievable by two streams of blocks.

    One stream starts with block ``w``, the other with block ``x``; after
    that each may continue with either block, chosen to keep the streams
    agreeing as long as possible.  Commuting blocks agree forever
    (``INFINITE``); otherwise the agreement is ``lcp(wx, xw)``, which the
    periodicity argument of Fine and Wilf caps below ``len(w) + len(x) -
    gcd(len(w), len(x))``.

    Proof: the streams ``wx...`` and ``xw...`` agree on ``lcp(wx, xw)``
    letters, fewer than ``len(w) + len(x)`` as the pair does not commute.
    No two streams agree longer, by induction on ``len(w) + len(x)``.  If
    neither word is a prefix of the other, every pair of streams splits at
    ``lcp(w, x) = lcp(wx, xw)``.  If ``x = wy``, strip the common ``w``:
    every stream ``w{w,x}^omega`` lies in ``w w{w,y}^omega`` and every
    stream ``x{w,x}^omega`` in ``w y{w,y}^omega``; the pair ``(w, y)`` does
    not commute either, and ``lcp(wx, xw) = len(w) + lcp(wy, yw)``.  The
    case ``w = xy`` is symmetric.
    """
    if not (isinstance(w, str) and isinstance(x, str) and w and x):  # the helper only raises
        _check_generators((w, x), None)
    wx, xw = w + x, x + w
    if wx == xw:
        return INFINITE
    i = 0
    while wx[i] == xw[i]:  # the two differ somewhere, as they have one length
        i += 1
    return i


def prefix_suffix_condition(words: Iterable[str]) -> bool:
    """Every word strictly extends, or is strictly extended by, another word
    of the set, on the prefix side and independently on the suffix side.

    A star closure that misses only finitely many words forces this shape
    on its generating set (unless it is everything), which makes the check
    a cheap necessary filter.
    """
    ws = list(words)
    _check_generators(ws, None)
    ws = sorted(set(ws))

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


def _commuting_pair_sc(w: str, x: str) -> tuple[int, str] | None:
    """Minimal DFA size for the star of a commuting pair, tagged ``EXACT``, else None.

    Both words are powers of a common root; write the pair of exponents
    over their gcd as (p, q).  When one of p, q is 1 the closure collapses
    to the star of a single word of length d = gcd of the lengths, which
    needs d cycle states plus the sink.  Otherwise a tail of d*g(p,q)+1
    states, a cycle of d states and the sink are needed and sufficient.
    Assumes an ambient alphabet with at least two letters.
    """
    if not commutes(w, x):
        return None
    d = gcd(len(w), len(x))
    p, q = len(w) // d, len(x) // d
    if min(p, q) == 1:
        return d + 1, EXACT
    return d * (frobenius_g([p, q]) + 1) + 2, EXACT


def predicted_pair_star_sc(w: str, x: str) -> tuple[int, str]:
    """Predicted minimal DFA size for the star closure of {w, x}.

    Commuting pairs get an exact value; all other pairs get the additive
    upper bound ``len(w) + len(x)``, tagged so callers know which kind of
    claim they hold.
    """
    return _commuting_pair_sc(w, x) or (len(w) + len(x), UPPER_BOUND)


def predicted_pair_concat_sc(w: str, x: str) -> tuple[int, str]:
    """Predicted minimal DFA size for the concatenation language w* x*.

    For commuting pairs this equals the star closure of the pair, so the
    same exact value applies; otherwise the upper bound is
    ``len(w) + 2 * len(x)``.
    """
    return _commuting_pair_sc(w, x) or (len(w) + 2 * len(x), UPPER_BOUND)
