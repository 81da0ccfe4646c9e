"""Hand-crafted word-set families with known extremal behaviour.

Two constructions live here.  The blowup family over the binary alphabet
drives the minimal DFA of a star closure to exponential size in the word
length, with a closed form for the exact size.  The two-length family
removes a thin chain of long words from "all words of two coprime lengths"
and is tuned so that the longest omitted word of the closure is as long as
the coin-problem bound allows; it comes with its predicted longest omitted
length and a floor on how many words are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from frobword.numeric import frobenius_g, representable
from frobword.starlang import PreconditionViolated, WordSet, _check_budget, _check_two_lengths

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def base_repr(value: int, base: int, width: int, symbols: str | None = None) -> str:
    """Fixed-width positional representation of ``value`` in ``base``.

    Most significant digit first, zero-padded to ``width``.  Raises
    ``OverflowError`` when the value does not fit.  ``symbols`` supplies
    the digit characters (defaults to 0-9 then a-z).
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if width < 1:
        raise ValueError("width must be positive")
    if symbols is None:
        symbols = _DIGITS
    if len(symbols) < base:
        raise ValueError("need at least %d digit symbols" % base)
    if not 0 <= value < base**width:
        raise OverflowError("%d does not fit in %d base-%d digits" % (value, width, base))
    digits = []
    v = value
    for _ in range(width):
        v, r = divmod(v, base)
        digits.append(symbols[r])
    return "".join(reversed(digits))


@dataclass(frozen=True)
class StarBlowupFamily:
    """Binary word set of max length t+1 whose star needs an exponentially
    large minimal DFA."""

    t: int
    words: WordSet


def star_blowup_family(t: int) -> StarBlowupFamily:
    """The blowup set for parameter ``t >= 2``.

    It contains the single letter 0, the t-1 words made of t ones with a
    zero inserted at one interior position (one word per position), and the
    word 0 (t-1 ones) 0.  All words but the first have length t+1.  More
    than ``DEFAULT_ENUM_BUDGET`` symbols, ``1 + t(t+1)``, raise
    ``BudgetExceeded`` before any word is built.
    """
    if t < 2:
        raise PreconditionViolated("the family needs t >= 2")
    _check_budget(1 + t * (t + 1), "star blowup family would write %d symbols at t = %d", t)
    return StarBlowupFamily(t, WordSet.of("01", _blowup_words(t)))


def _blowup_words(t: int) -> list[str]:
    """The blowup words for ``t``: 0, then the t-1 interior words with the
    zero moving from the last interior position to the first, then the
    closing word."""
    interior = ["1" * (t - i - 1) + "0" + "1" * (i + 1) for i in range(t - 1)]
    return ["0", *interior, "0" + "1" * (t - 1) + "0"]


def star_blowup_sc(t: int) -> int:
    """Exact minimal DFA size of the blowup family's star closure:
    ``3 t 2**(t-2) + 2**(t-1)``."""
    if t < 2:
        raise PreconditionViolated("the family needs t >= 2")
    return 3 * t * 2 ** (t - 2) + 2 ** (t - 1)


def star_blowup_sc_floor(t: int) -> int:
    """Easy lower bound ``2**(t-2)`` on the same minimal DFA size."""
    if t < 2:
        raise PreconditionViolated("the family needs t >= 2")
    return 2 ** (t - 2)


def chain_blowup_family(t: int) -> tuple[list[str], int]:
    """Word sequence whose ordered chain of stars also blows up.

    Returns ``(sequence, repeats)``: one block is the word 0, then all t-1
    interior blowup words, then the closing word, and the block is repeated
    ``repeats = (t+1)(t-2)/2 + 2t`` times.  The block lists the words of
    ``star_blowup_family(t)`` in the order that function builds them (the
    zero of the interior words moving from the last interior position to
    the first), so both families come from one word list.  Meaningful from
    ``t >= 3``.  The sequence length is ``repeats * (t + 1)``, its symbols
    ``repeats * (1 + t(t+1))``; more than ``DEFAULT_ENUM_BUDGET`` symbols
    raise ``BudgetExceeded`` before any word is built.
    """
    if t < 3:
        raise PreconditionViolated("the chain family needs t >= 3")
    repeats = (t + 1) * (t - 2) // 2 + 2 * t
    _check_budget(repeats * (1 + t * (t + 1)), "chain blowup family would write %d symbols at t = %d", t)
    return _blowup_words(t) * repeats, repeats


@dataclass(frozen=True)
class TwoLengthFamily:
    """All words of two coprime lengths minus a chain of long words.

    ``excluded`` lists the removed words of the long length;
    ``seed_word`` is the shortest structured word outside the closure, the
    one that pumps up to the longest omitted word; ``saturation_length`` is
    the length from which every word lies in the closure.
    """

    short_len: int
    long_len: int
    alphabet: str
    excluded: tuple[str, ...]
    words: WordSet
    saturation_length: int
    seed_word: str


def two_length_family(short_len: int, long_len: int, alphabet: str = "01") -> TwoLengthFamily:
    """Build the family for lengths ``short_len < long_len``.

    Preconditions: ``0 < short_len < long_len < 2 * short_len``, the
    lengths coprime, and at least two letters.  The removed words are
    ``counter(i) + zeros + counter(i+1)`` where ``counter(i)`` is the
    ``(long_len - short_len)``-digit representation of ``i`` over the
    alphabet and ``zeros`` pads with the first letter; the seed word chains
    every counter value once.  ``BudgetExceeded`` is raised, before any word
    is built, when there are more than ``DEFAULT_ENUM_BUDGET`` words of the
    long length.
    """
    m, n = short_len, long_len
    _check_two_lengths(m, n)
    if len(set(alphabet)) != len(alphabet) or len(alphabet) < 2:
        raise PreconditionViolated("need an alphabet of at least two distinct letters")
    sigma = len(alphabet)
    _check_budget(sigma**n, "two-length family would enumerate %d words of length %d", n)
    width = n - m
    pad = alphabet[0] * (2 * m - n)
    top = sigma**width
    counters = [base_repr(i, sigma, width, symbols=alphabet) for i in range(top)]
    excluded = tuple(counters[i] + pad + counters[i + 1] for i in range(top - 1))
    keep = set(excluded)
    words = ["".join(p) for p in product(alphabet, repeat=m)]
    words += [
        w for w in ("".join(p) for p in product(alphabet, repeat=n)) if w not in keep
    ]
    seed = pad.join(counters)
    saturation = m * top + width
    assert len(seed) == saturation - m
    return TwoLengthFamily(
        short_len=m,
        long_len=n,
        alphabet=alphabet,
        excluded=excluded,
        words=WordSet.of(alphabet, words),
        saturation_length=saturation,
        seed_word=seed,
    )


def predicted_longest_omitted(fam: TwoLengthFamily) -> int:
    """Predicted length of the longest word outside the closure: the largest
    amount not reachable from steps ``short_len`` and ``saturation_length``."""
    return frobenius_g([fam.short_len, fam.saturation_length])


def longest_omitted_witness(fam: TwoLengthFamily) -> str:
    """The structured word of exactly the predicted longest omitted length:
    the seed, separated by blocks of ``short_len`` first letters, repeated
    ``short_len - 1`` times."""
    gap = fam.alphabet[0] * fam.short_len
    parts = [fam.seed_word] * (fam.short_len - 1)
    return (gap).join(parts)


def omitted_count_lower_bound(fam: TwoLengthFamily) -> int:
    """Floor on how many words the closure misses: every word whose length
    is a gap of the two lengths (no sum of them), and every excluded word.

    A word of the closure has a length that is a sum of ``short_len`` and
    ``long_len``, so each word of a gap length is missed.  As ``short_len <
    long_len < 2 * short_len``, the only such sum equal to ``long_len`` is
    ``long_len`` itself, so a word of that length is in the closure only if
    it is in the set, which no excluded word is.  That length is no gap, so
    no word is counted twice, over any alphabet."""
    m, n = fam.short_len, fam.long_len
    gaps = [k for k in range(1, m * n) if not representable(k, (m, n))]  # none past m*n - m - n
    return sum(len(fam.alphabet) ** k for k in gaps) + len(fam.excluded)
