"""Acceptance gate: ten criteria, each printing one pass/fail line.

Each criterion runs at its stated desk scale and tolerance (all checks are
exact; the only tolerances are wall-clock budgets).  The heavyweight
corpus is computed once and shared by criteria 4, 5 and 10.
"""

import re
import time
from math import gcd

import pytest

from frobword.automata import (
    complement,
    count_words,
    determinize,
    has_dead_state,
    is_cofinite,
    longest_word,
    minimize,
)
from frobword.families import (
    longest_omitted_witness,
    omitted_count_lower_bound,
    predicted_longest_omitted,
    star_blowup_family,
    star_blowup_sc,
    star_blowup_sc_floor,
    two_length_family,
)
from frobword.numeric import frobenius_f, frobenius_g
from frobword.starlang import (
    member_star,
    minimal_star_dfa,
    trie_star_nfa,
    window_star_dfa,
)
from frobword.verify import (
    suite_bounds,
    suite_chain_cofinite,
    suite_pairs,
    suite_unary,
)
from oracles import sieve_g_f


def _line(num: int, ok: bool, detail: str) -> None:
    print("[acceptance] criterion %d %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def bounds_report():
    t0 = time.perf_counter()
    report = suite_bounds(count=200, deep=True)
    report.elapsed = time.perf_counter() - t0
    return report


def _row(report, prefix):
    for row in report.rows:
        if row.instance.startswith(prefix):
            return row
    raise AssertionError("no suite row starts with %r" % prefix)


def test_criterion_01_classical_values():
    best = float("inf")
    value = None
    for _ in range(5):
        t0 = time.perf_counter()
        value = frobenius_g([6, 9, 20])
        best = min(best, time.perf_counter() - t0)
    pairs_ok = True
    checked = 0
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if gcd(a, b) != 1:
                continue
            checked += 1
            g, f = frobenius_g([a, b]), frobenius_f([a, b])
            if g != a * b - a - b or f != (a - 1) * (b - 1) // 2:
                pairs_ok = False
    sieve = sieve_g_f([6, 9, 20])
    ok = value == 43 and sieve == (43, 22) and pairs_ok and best < 0.001
    _line(
        1,
        ok,
        "largest gap of {6,9,20} = %d (sieve %s) in %.3f ms; %d coprime pairs match the closed forms"
        % (value, sieve, best * 1000, checked),
    )


def test_criterion_02_unary_law():
    t0 = time.perf_counter()
    report = suite_unary(count=50)
    elapsed = time.perf_counter() - t0
    ok = report.passed and len(report.rows) == 50 and elapsed < 1.0
    _line(
        2,
        ok,
        "one-letter closed form exact on %d/50 random tuples in %.2f s"
        % (50 - len(report.failures()), elapsed),
    )


def test_criterion_03_blowup_family():
    t0 = time.perf_counter()
    results = []
    convention_ok = True
    for t in range(2, 6):
        d = minimize(determinize(trie_star_nfa(star_blowup_family(t).words)))
        results.append((t, d.state_count))
        if d.state_count != star_blowup_sc(t) or not has_dead_state(d):
            convention_ok = False
        if d.state_count < star_blowup_sc_floor(t):
            convention_ok = False
    elapsed = time.perf_counter() - t0
    ok = convention_ok and elapsed < 5.0
    _line(
        3,
        ok,
        "blowup sizes %s match 3t*2^(t-2)+2^(t-1) with the sink counted, floors hold, %.2f s"
        % (results, elapsed),
    )


def test_criterion_04_window_construction(bounds_report):
    eq = _row(bounds_report, "window vs trie")
    size = _row(bounds_report, "window size bound")
    n_sets = int(re.search(r"(\d+) sets", eq.instance).group(1))
    ok = eq.ok and size.ok and n_sets >= 200
    _line(
        4,
        ok,
        "window acceptor equals determinized trie on %d sets and stays below the closed size bound"
        % n_sets,
    )


def test_criterion_05_longest_omitted_bound(bounds_report):
    row = _row(bounds_report, "longest omitted bound")
    n_cof = int(re.search(r"(\d+) co-finite", row.instance).group(1))
    ok = row.ok and n_cof >= 1
    _line(
        5,
        ok,
        "longest omitted word shorter than the window bound on all %d co-finite corpus sets"
        % n_cof,
    )


def test_criterion_06_two_length_family():
    t0 = time.perf_counter()
    details = []
    ok = True
    for m, n in ((2, 3), (3, 5)):
        fam = two_length_family(m, n)
        d = minimal_star_dfa(fam.words)
        cof = is_cofinite(d)
        wit = longest_word(complement(d))
        want = predicted_longest_omitted(fam)
        ok = ok and cof and wit is not None and len(wit) == want
        details.append("(%d,%d): L=%s" % (m, n, None if wit is None else len(wit)))
        if (m, n) == (3, 5):
            structured = longest_omitted_witness(fam)
            ok = ok and want == 25 and wit == structured
            ok = ok and not member_star(fam.words, structured)
            ok = ok and window_star_dfa(fam.words).state_count <= 682
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(
        6,
        ok,
        "%s, witness for (3,5) is the seed-pumped word and the oracle rejects it, %.2f s"
        % ("; ".join(details), elapsed),
    )


def test_criterion_07_omitted_count():
    fam = two_length_family(3, 5)
    count = count_words(complement(minimal_star_dfa(fam.words)))
    floor = omitted_count_lower_bound(fam)
    ok = count >= floor and count == 792
    _line(
        7,
        ok,
        "omitted count for (3,5) = %d, at least the family's floor %d and equal to the recorded 792"
        % (count, floor),
    )


def test_criterion_08_chain_cofiniteness():
    report = suite_chain_cofinite(count=100)
    ok = report.passed and len(report.rows) == 100
    _line(
        8,
        ok,
        "closed-form chain verdict equals the automaton verdict on %d/100 random instances"
        % (100 - len(report.failures())),
    )


def test_criterion_09_pair_laws():
    t0 = time.perf_counter()
    report = suite_pairs(max_len=6, agreement_total=14)
    elapsed = time.perf_counter() - t0
    ok = report.passed
    _line(
        9,
        ok,
        "pair star/concat bounds with tightness witnesses, commuting formulas exact, "
        "agreement bound to combined length 14; %.1f s" % elapsed,
    )


def test_criterion_10_oracle_concordance(bounds_report):
    star = _row(bounds_report, "star membership concordance")
    chain = _row(bounds_report, "chain membership concordance")
    ok = star.ok and chain.ok
    _line(
        10,
        ok,
        "star and chain languages generated from the definitions match the minimized automata, "
        "compared per length to 12 (binary) / 8 (ternary), %.1f s for the shared corpus"
        % bounds_report.elapsed,
    )
