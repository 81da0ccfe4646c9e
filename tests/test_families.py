"""The built-in extremal families: shapes, counts, and frozen golden
values for their measures."""

import pytest

from frobword.automata import (
    determinize,
    has_dead_state,
    is_cofinite,
    minimize,
    state_complexity,
)
from frobword.families import (
    base_repr,
    chain_blowup_family,
    longest_omitted_witness,
    omitted_count_lower_bound,
    predicted_longest_omitted,
    star_blowup_family,
    star_blowup_sc,
    star_blowup_sc_floor,
    two_length_family,
)
from frobword.starlang import (
    PreconditionViolated,
    chain_nfa,
    member_star,
    minimal_chain_dfa,
    minimal_star_dfa,
    trie_star_nfa,
)
from oracles import closure_upto, words_upto


def test_base_repr():
    assert base_repr(5, 2, 4) == "0101"
    assert base_repr(0, 3, 2) == "00"
    assert base_repr(7, 3, 2) == "21"
    assert base_repr(3, 2, 2, symbols="ab") == "bb"
    with pytest.raises(OverflowError):
        base_repr(8, 2, 3)


def test_star_blowup_shape():
    fam = star_blowup_family(2)
    assert set(fam.words.words) == {"0", "101", "010"}
    fam = star_blowup_family(3)
    assert set(fam.words.words) == {"0", "1101", "1011", "0110"}
    with pytest.raises(PreconditionViolated):
        star_blowup_family(1)


def test_star_blowup_formula_values():
    assert [star_blowup_sc(t) for t in range(2, 7)] == [8, 22, 56, 136, 320]
    assert star_blowup_sc_floor(5) == 8


def test_star_blowup_golden_sizes():
    for t in (2, 3):
        d = minimize(determinize(trie_star_nfa(star_blowup_family(t).words)))
        assert d.state_count == star_blowup_sc(t)
        assert has_dead_state(d)


def test_chain_blowup_shape_and_golden():
    words, repeats = chain_blowup_family(3)
    assert repeats == 8
    assert len(words) == 32
    assert set(words) == set(star_blowup_family(3).words.words)
    assert state_complexity(minimal_chain_dfa(words, "01")) == 417
    assert 417 >= 2 ** (3 - 2)
    with pytest.raises(PreconditionViolated):
        chain_blowup_family(2)


def test_chain_blowup_family_blows_up():
    # the chain NFA has one state per symbol of the sequence, so a minimal
    # DFA that only kept pace with it would show a flat ratio
    ratios = []
    for t in (3, 4, 5):
        words, _ = chain_blowup_family(t)
        size = minimal_chain_dfa(words, "01").state_count
        assert size >= star_blowup_sc_floor(t)
        ratios.append(size / chain_nfa(words, "01").state_count)
    assert ratios[0] < ratios[1] < ratios[2]


def test_two_length_shape_23():
    fam = two_length_family(2, 3)
    assert fam.words.word_count == 11
    assert fam.excluded == ("001",)
    assert fam.saturation_length == 5
    assert fam.seed_word == "001"
    assert predicted_longest_omitted(fam) == 3
    assert longest_omitted_witness(fam) == "001"
    assert omitted_count_lower_bound(fam) == 3  # 0, 1 (length 1 is a gap) and 001


def test_two_length_shape_35():
    fam = two_length_family(3, 5)
    assert fam.words.word_count == 37
    assert fam.excluded == ("00001", "01010", "10011")
    assert fam.saturation_length == 14
    assert fam.seed_word == "00001010011"
    assert predicted_longest_omitted(fam) == 25
    assert longest_omitted_witness(fam) == "00001010011" + "000" + "00001010011"
    assert omitted_count_lower_bound(fam) == 153  # gaps 1, 2, 4, 7: 2 + 4 + 16 + 128, and 3 excluded


@pytest.mark.parametrize(
    "sigma, m, n", [(sigma, 2, 3) for sigma in range(2, 7)] + [(2, 3, 4), (3, 3, 4)]
)
def test_omitted_count_floor_is_at_most_a_brute_force_count(sigma, m, n):
    # every word the floor counts is at most max(n, m*n - m - n) long, so the
    # omitted words up to that length, counted from the definitions, bound it
    fam = two_length_family(m, n, "012345"[:sigma])
    upto = max(n, m * n - m - n)
    closure = closure_upto(fam.words.words, upto)
    omitted = sum(1 for w in words_upto(fam.alphabet, upto) if w not in closure)
    assert omitted_count_lower_bound(fam) <= omitted


def test_two_length_excluded_words_are_not_members():
    fam = two_length_family(3, 5)
    for w in fam.excluded:
        assert w not in fam.words.words
        assert not member_star(fam.words, w)
    assert not member_star(fam.words, fam.seed_word)


def test_two_length_23_measures():
    fam = two_length_family(2, 3)
    d = minimal_star_dfa(fam.words)
    assert is_cofinite(d)


def test_two_length_ternary_builds():
    fam = two_length_family(2, 3, alphabet="abc")
    assert fam.words.alphabet == "abc"
    assert fam.words.word_count == 9 + 27 - len(fam.excluded)
    assert all(set(w) <= set("abc") for w in fam.words.words)


def test_two_length_preconditions():
    with pytest.raises(PreconditionViolated):
        two_length_family(2, 4)
    with pytest.raises(PreconditionViolated):
        two_length_family(3, 7)
    with pytest.raises(PreconditionViolated):
        two_length_family(3, 5, alphabet="0")
    with pytest.raises(PreconditionViolated):
        two_length_family(0, 1)
