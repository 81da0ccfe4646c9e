"""Largest-gap and gap-count arithmetic against closed forms and a sieve."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobword.numeric import (
    GcdNotOne,
    frobenius_f,
    frobenius_g,
    gcd_all,
    is_degenerate,
    representable,
)
from oracles import sieve_g_f, sieve_reachable


def test_three_step_example():
    assert frobenius_g([6, 9, 20]) == 43
    assert frobenius_f([6, 9, 20]) == 22


def test_coprime_pairs_closed_form():
    from math import gcd

    for a in range(2, 31):
        for b in range(a + 1, 31):
            if gcd(a, b) != 1:
                continue
            assert frobenius_g([a, b]) == a * b - a - b
            assert frobenius_f([a, b]) == (a - 1) * (b - 1) // 2


def test_pairs_match_sieve():
    from math import gcd

    for a in range(2, 12):
        for b in range(a + 1, 12):
            if gcd(a, b) != 1:
                continue
            g, f = sieve_g_f([a, b])
            assert frobenius_g([a, b]) == g
            assert frobenius_f([a, b]) == f


def test_degenerate_convention():
    assert is_degenerate([1, 5])
    assert frobenius_g([1, 5]) == 0
    assert frobenius_f([1]) == 0
    assert not is_degenerate([2, 3])


def test_gcd_must_be_one():
    with pytest.raises(GcdNotOne):
        frobenius_g([4, 6])
    with pytest.raises(GcdNotOne):
        frobenius_f([10, 15, 35])


def test_input_normalization():
    assert frobenius_g([9, 6, 20, 9]) == 43
    assert gcd_all([12, 18]) == 6
    with pytest.raises(ValueError):
        frobenius_g([])
    with pytest.raises(ValueError):
        frobenius_g([0, 3])
    with pytest.raises(ValueError):
        frobenius_g([-2, 3])


@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=4).filter(
        lambda vs: gcd_all(vs) == 1
    )
)
def test_random_tuples_match_sieve(values):
    g, f = sieve_g_f(values)
    assert frobenius_g(values) == g
    assert frobenius_f(values) == f


@given(
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=120),
)
def test_representable_matches_sieve(values, amount):
    reach = sieve_reachable(values, amount)
    assert representable(amount, values) == reach[amount]


@given(st.data())
def test_large_step_sizes_match_sieve(data):
    steps = st.integers(min_value=50, max_value=400)
    a = data.draw(steps)
    b = data.draw(steps.filter(lambda v: gcd(a, v) == 1))
    values = [a, b, *data.draw(st.lists(steps, max_size=2))]
    # every amount from (x-1)(y-1) on is a sum of a coprime pair x, y, so
    # the smallest such product bounds the sieve
    limit = min(x * y for x, y in combinations(values, 2) if gcd(x, y) == 1)
    g, f = sieve_g_f(values, limit)
    assert frobenius_g(values) == g
    assert frobenius_f(values) == f
    reach = sieve_reachable(values, limit)
    for amount in (g, g + 1, data.draw(st.integers(min_value=0, max_value=limit))):
        assert representable(amount, values) == reach[amount]
