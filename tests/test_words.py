"""Word-pair combinatorics: commutation, roots, agreement length, and the
predicted automaton sizes for pairs."""

import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from frobword.words import (
    EXACT,
    INFINITE,
    UPPER_BOUND,
    commutes,
    common_root,
    fine_wilf_agreement,
    predicted_pair_concat_sc,
    predicted_pair_star_sc,
    prefix_suffix_condition,
)
from oracles import stream_agreement

words_st = st.text(alphabet="01", min_size=1, max_size=5)


def test_commutes_known():
    assert commutes("00", "0000")
    assert commutes("0101", "01")
    assert not commutes("0", "01")
    with pytest.raises(ValueError):
        commutes("", "0")


def test_common_root_known():
    assert common_root("00", "0000") == "0"
    assert common_root("0101", "01") == "01"
    assert common_root("010010", "010010010010") == "010"
    assert common_root("0", "01") is None


@given(st.text(alphabet="01", min_size=1, max_size=3), st.integers(1, 3), st.integers(1, 3))
def test_powers_commute_and_share_root(z, i, j):
    u, v = z * i, z * j
    assert commutes(u, v)
    root = common_root(u, v)
    assert root is not None
    assert u == root * (len(u) // len(root))
    assert v == root * (len(v) // len(root))
    # the root is primitive: no shorter word generates it
    for p in range(1, len(root)):
        if len(root) % p == 0:
            assert root != root[:p] * (len(root) // p)


@given(words_st, words_st)
def test_agreement_infinite_exactly_for_commuting(w, x):
    agr = fine_wilf_agreement(w, x)
    assert (agr == INFINITE) == commutes(w, x)


def test_agreement_known_values():
    assert fine_wilf_agreement("0", "01") == 1
    assert fine_wilf_agreement("011", "01") == 2
    assert fine_wilf_agreement("0", "1") == 0


def test_agreement_matches_stream_oracle():
    for alphabet, max_len in (("01", 5), ("012", 3)):
        pool = [
            "".join(p)
            for n in range(1, max_len + 1)
            for p in itertools.product(alphabet, repeat=n)
        ]
        for w in pool:
            for x in pool:
                if commutes(w, x):
                    continue
                assert fine_wilf_agreement(w, x) == stream_agreement(w, x)


@st.composite
def non_commuting_pairs(draw):
    """Pairs over ``01`` or ``012`` with ``|w| + |x| <= 14``; half of them
    make ``x`` a power of ``w`` followed by a tail, so the prefix case of the
    closed form, where the streams share whole blocks, comes up often."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    w = draw(st.text(alphabet, min_size=1, max_size=13))
    if draw(st.booleans()):
        w = w[: draw(st.integers(1, 4))]
        x = w * draw(st.integers(1, (14 - len(w)) // len(w)))
        x += draw(st.text(alphabet, max_size=14 - len(w) - len(x)))
    else:
        x = draw(st.text(alphabet, min_size=1, max_size=14 - len(w)))
    assume(w + x != x + w)
    return (x, w) if draw(st.booleans()) else (w, x)


@given(non_commuting_pairs())
def test_agreement_closed_form_matches_stream_oracle(pair):
    assert fine_wilf_agreement(*pair) == stream_agreement(*pair)


def test_agreement_bound():
    from math import gcd

    pool = [
        "".join(p)
        for n in range(1, 6)
        for p in itertools.product("01", repeat=n)
    ]
    for w in pool:
        for x in pool:
            if commutes(w, x):
                continue
            bound = len(w) + len(x) - gcd(len(w), len(x)) - 1
            assert fine_wilf_agreement(w, x) <= bound


def test_prefix_suffix_condition_examples():
    assert prefix_suffix_condition(["00", "000"])
    assert prefix_suffix_condition(
        ["00", "01", "10", "11", "000", "010", "011", "100", "101", "110", "111"]
    )
    assert not prefix_suffix_condition(["0", "1"])
    assert not prefix_suffix_condition(["00", "01"])
    assert not prefix_suffix_condition(["0", "10"])


def test_pair_star_predictions():
    assert predicted_pair_star_sc("0", "01") == (3, UPPER_BOUND)
    assert predicted_pair_star_sc("0111110", "0111101") == (14, UPPER_BOUND)
    # commuting, reduced pair (2, 3): 2 * (g(2,3) + 1) + 2
    assert predicted_pair_star_sc("0101", "010101") == (6, EXACT)
    # commuting with a length-1 quotient collapses to a single-word star
    assert predicted_pair_star_sc("00", "0000") == (3, EXACT)


def test_pair_concat_predictions():
    assert predicted_pair_concat_sc("0", "1") == (3, UPPER_BOUND)
    assert predicted_pair_concat_sc("01", "011") == (8, UPPER_BOUND)
    assert predicted_pair_concat_sc("00", "0000") == (3, EXACT)


def test_agreement_long_blocks_do_not_recurse():
    # the streams agree on 0^1500 and then differ, far past the depth at
    # which a recursive search would exhaust the interpreter's stack
    assert fine_wilf_agreement("0" * 1500 + "1", "0" * 1501) == 1500
