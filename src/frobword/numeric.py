"""Coin-problem arithmetic over positive step sizes.

Given a set of positive integers, these helpers decide which amounts can be
written as sums of steps, find the largest amount that cannot, and count how
many amounts cannot.  Everything is exact integer arithmetic sized for
interactive use (steps up to a few hundred).
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import Iterable

from frobword.automata import _at_least


class GcdNotOne(ValueError):
    """The step sizes share a common divisor, so no largest gap exists."""


def _normalized(values: Iterable[int]) -> list[int]:
    vals = sorted({_at_least(v, 1, "a step size") for v in values})
    if not vals:
        raise ValueError("at least one step size is required")
    return vals


def _coprime(values: Iterable[int]) -> list[int]:
    vals = _normalized(values)
    if gcd(*vals) != 1:
        raise GcdNotOne("step sizes %r have gcd %d" % (vals, gcd(*vals)))
    return vals


def gcd_all(values: Iterable[int]) -> int:
    """Greatest common divisor of all the step sizes."""
    return gcd(*_normalized(values))


def is_degenerate(values: Iterable[int]) -> bool:
    """True when 1 is a step size, so every nonnegative amount is reachable."""
    return _normalized(values)[0] == 1


def _residue_minima(vals: list[int]) -> list[int | None]:
    """Least reachable amount in each residue class modulo the smallest step.

    Runs Dijkstra on the residue graph: from a reachable amount ``v``, adding
    a step ``a`` reaches ``v + a`` in class ``(v + a) % base``.  With
    coprime steps every class gets a finite minimum, and the largest of
    those minima pins down the largest unreachable amount; otherwise a class
    no sum reaches stays ``None``.
    """
    base = vals[0]
    dist: list[int | None] = [None] * base
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    while heap:
        v, r = heapq.heappop(heap)
        if dist[r] is not None and v > dist[r]:
            continue
        for a in vals[1:]:
            w = v + a
            s = w % base
            if dist[s] is None or w < dist[s]:
                dist[s] = w
                heapq.heappush(heap, (w, s))
    return dist


def frobenius_g(values: Iterable[int]) -> int:
    """Largest positive amount that is not a sum of steps.

    Requires the steps to be coprime overall.  When 1 is a step every
    amount is reachable; that degenerate case reports 0 (see
    ``is_degenerate``).
    """
    vals = _coprime(values)
    if vals[0] == 1:
        return 0
    return max(_residue_minima(vals)) - vals[0]


def frobenius_f(values: Iterable[int]) -> int:
    """Number of positive amounts that are not sums of steps.

    Same preconditions and degenerate convention as ``frobenius_g``.  In the
    residue class ``r`` the unreachable amounts are exactly those below the
    class minimum, which gives the count without any sieving (0 for a step
    of 1, which leaves no class but 0).
    """
    vals = _coprime(values)
    dist = _residue_minima(vals)
    base = vals[0]
    return sum((dist[r] - r) // base for r in range(1, base))


def representable(amount: int, values: Iterable[int]) -> bool:
    """Whether ``amount`` is a sum of zero or more steps: exactly when it is
    at least the least sum of its residue class modulo the smallest step
    (``_residue_minima``)."""
    _at_least(amount, 0, "amount")
    vals = _normalized(values)
    least = _residue_minima(vals)[amount % vals[0]]
    return least is not None and amount >= least
