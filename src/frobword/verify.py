"""Verification suites: each one replays a batch of predicted-versus-actual
checks and reports rows a human can scan.

Every suite is deterministic for a given seed, returns a ``SuiteReport``
whose rows carry the instance, the predicted value, and the value actually
computed, and is shared between the command line runner and the test suite.
Aggregating suites (pairs, bounds) emit summary rows plus one row per
violation; the small suites emit one row per instance.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from frobword.automata import (
    CapExceeded,
    Dfa,
    _omissions,
    determinize,
    equivalent,
    has_dead_state,
    is_cofinite,
    minimize,
    state_complexity,
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
from frobword.numeric import frobenius_g
from frobword.starlang import (
    BudgetExceeded,
    PreconditionViolated,
    WordSet,
    _beside,
    _check_budget,
    _levels,
    chain_cofinite,
    chain_nfa,
    measure_all,
    member_star,
    minimal_chain_dfa,
    minimal_star_dfa,
    trie_star_nfa,
    two_length_cofinite,
    window_star_dfa,
    window_state_bound,
)
from frobword.words import (
    EXACT,
    INFINITE,
    fine_wilf_agreement,
    predicted_pair_concat_sc,
    predicted_pair_star_sc,
    prefix_suffix_condition,
)

DEFAULT_SEED = 20240817
_SWAP = str.maketrans("01", "10")  # an automorphism of the binary free monoid


@dataclass
class CheckRow:
    instance: str
    predicted: str
    actual: str
    ok: bool


@dataclass
class SuiteReport:
    suite: str
    rows: list[CheckRow] = field(default_factory=list)
    cap_events: int = 0

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows) and self.cap_events == 0

    def add(self, instance: str, predicted, actual, ok: bool) -> None:
        self.rows.append(CheckRow(instance, str(predicted), str(actual), ok))

    def limit(self, instance: str, predicted, exc: CapExceeded | BudgetExceeded) -> None:
        """A failed row for a state cap or budget hit, counted as a cap event."""
        self.cap_events += 1
        kind = "cap" if isinstance(exc, CapExceeded) else "budget"
        self.add(instance, predicted, "%s exceeded: %s" % (kind, exc), False)

    def tally(self, instance: str, noun: str, bad: int) -> None:
        """A summary row: ``0 <noun>`` predicted, ``<bad> <noun>`` found."""
        self.add(instance, "0 " + noun, "%d %s" % (bad, noun), bad == 0)

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.ok]


# ---------------------------------------------------------------------------
# corpora


def random_word_sets(count: int = 200, seed: int = DEFAULT_SEED) -> list[WordSet]:
    """Random binary and ternary word sets, words of length at most 4."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        alphabet = "01" if i % 5 < 3 else "012"
        k = rng.randint(1, 5)
        words: set[str] = set()
        while len(words) < k:
            n = rng.randint(1, 4)
            words.add("".join(rng.choice(alphabet) for _ in range(n)))
        out.append(WordSet.of(alphabet, words))
    return out


def crafted_word_sets() -> list[WordSet]:
    """Hand-picked sets that exercise the rare shapes: closures that miss
    only finitely many words, full closures, prefix-free sets, one-letter
    alphabets."""
    sets = [
        WordSet.of("01", ["0", "1"]),
        WordSet.of("01", ["0", "1", "01"]),
        WordSet.of("01", ["0", "01", "11"]),
        WordSet.of("01", ["00", "01", "10", "11"]),
        WordSet.of("01", ["0", "10", "110"]),
        WordSet.of("01", ["00", "000"]),
        WordSet.of("01", ["0", "01"]),
        WordSet.of("01", ["1", "10", "100"]),
        WordSet.of("0", ["0"]),
        WordSet.of("0", ["00", "000"]),
        WordSet.of("0", ["00", "0000"]),
        WordSet.of("0", ["000", "0000"]),
        WordSet.of("012", ["0", "1", "2"]),
        WordSet.of("012", ["0", "1", "2", "012"]),
        WordSet.of("012", ["01", "12", "20"]),
        two_length_family(2, 3).words,
        two_length_family(3, 4).words,
        star_blowup_family(2).words,
        star_blowup_family(3).words,
    ]
    return sets


# ---------------------------------------------------------------------------
# suites


def suite_unary(count: int = 50, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Minimal DFA size of a one-letter star closure versus the closed form.

    For lengths with gcd d whose quotients have a well-defined largest gap
    g, the size must be exactly ``d * (g + 1) + 1``.  Tuples whose
    quotients contain 1 are resampled: their closure is just a cycle and
    the closed form does not apply (they are covered by the degenerate law
    in the unit tests).  A ``count`` above the number of tuples left raises
    ``PreconditionViolated``.
    """
    tuples = (tup for k in range(1, 5) for tup in itertools.combinations(range(1, 21), k))
    pool = sum(tup[0] // gcd(*tup) != 1 for tup in tuples)
    if count > pool:
        msg = "--count must be at most %d, the number of length tuples, got %d"
        raise PreconditionViolated(msg % (pool, count))
    report = SuiteReport("unary")
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < count:
        k = rng.randint(1, 4)
        tup = tuple(sorted({rng.randint(1, 20) for _ in range(k)}))
        d = gcd(*tup)
        if tup[0] // d == 1 or tup in seen:
            continue
        seen.add(tup)
        predicted = d * (frobenius_g([a // d for a in tup]) + 1) + 1
        s = WordSet.of("0", ["0" * a for a in tup])
        actual = state_complexity(determinize(trie_star_nfa(s)))
        report.add("lengths=%s" % (tup,), predicted, actual, predicted == actual)
    return report


def _binary(n: int) -> list[str]:
    return ["".join(p) for p in itertools.product("01", repeat=n)]


def _pair_law(report: SuiteReport, kind: str, label: str, pairs, predict, sizes) -> None:
    """One two-word size law: ``predict(w, x)`` is exact on commuting pairs
    and an upper bound, attained by some pair, on the rest; ``sizes`` are
    the pairs' automaton sizes, in order.  Adds a row per violation (named
    ``kind`` and ``label % (w, x)``), then the three summary rows."""
    checked = viol = tight = exact_checked = exact_bad = 0
    first_tight = ""
    for (w, x), actual in zip(pairs, sizes):
        pred, claim = predict(w, x)
        name = label % (w, x)
        if claim == EXACT:
            exact_checked += 1
            if actual != pred:
                exact_bad += 1
                report.add("%s %s" % (kind, name), pred, actual, False)
        else:
            checked += 1
            if actual > pred:
                viol += 1
                report.add("%s %s" % (kind, name), "<= %d" % pred, actual, False)
            if actual == pred:
                tight += 1
                first_tight = first_tight or name
    report.tally("%s bound, %d non-commuting pairs" % (kind, checked), "violations", viol)
    report.add(
        "%s bound tightness" % kind,
        ">= 1 pair attains it",
        "%d attain (first %s)" % (tight, first_tight),
        tight >= 1,
    )
    report.tally("%s commuting formula, %d pairs" % (kind, exact_checked), "mismatches", exact_bad)


def suite_pairs(max_len: int = 6, agreement_total: int = 14) -> SuiteReport:
    """Size predictions for two-word closures over the binary alphabet.

    Checks, for every pair of nonempty binary words up to ``max_len``:
    the star closure never needs more than ``|w| + |x|`` states and the
    ordered concatenation of stars never more than ``|w| + 2|x|``; both
    bounds are attained by some pair; commuting pairs match their exact
    formula.  Separately bounds the block-stream agreement length for all
    non-commuting pairs with ``|w| + |x|`` up to ``agreement_total``.
    ``max_len`` below 2 (no pair up to length 1 attains the star bound) or
    ``agreement_total`` below 2 (no pair at all) raise ``PreconditionViolated``;
    more than ``DEFAULT_ENUM_BUDGET`` pair automata or agreement checks
    raise ``BudgetExceeded`` before any word is built.  Swapping 0 and 1
    keeps every size, so one task per orbit under the swap is sized (the
    least of a concat pair and its image; of a star pair and its image, each
    sorted) and its size given to the orbit.  Every second of these, in
    first-seen order, is sized ``_beside`` the rest.
    """
    if max_len < 2:
        raise PreconditionViolated("max_len must be at least 2, got %d" % max_len)
    if agreement_total < 2:
        raise PreconditionViolated("agreement_total must be at least 2, got %d" % agreement_total)
    k = 2 ** (max_len + 1) - 2  # the words; unordered star pairs, then ordered chain pairs
    _check_budget(k * (k + 1) // 2 + k * k, "pair laws would build %d automata up to length %d", max_len)
    checks = (agreement_total - 2) * 2 ** (agreement_total + 1) + 4  # sum of (t - 1) 2**t over t
    _check_budget(checks, "agreement bound would check %d pairs up to combined length %d", agreement_total)
    report = SuiteReport("pairs")
    words = [w for n in range(1, max_len + 1) for w in _binary(n)]

    def size(task: tuple[str, str, bool]) -> int:
        w, x, star = task
        nfa = trie_star_nfa(WordSet.of("01", {w, x})) if star else chain_nfa([w, x], "01")
        return state_complexity(determinize(nfa))

    def orbit(w: str, x: str, star: bool) -> tuple[str, str, bool]:
        pair, image = (w, x), (w.translate(_SWAP), x.translate(_SWAP))
        if star:  # an unordered pair
            pair, image = tuple(sorted(pair)), tuple(sorted(image))
        return (*min(pair, image), star)

    stars = [(w, x) for i, w in enumerate(words) for x in words[i:]]
    concats = list(itertools.product(words, repeat=2))
    keys = [orbit(w, x, True) for w, x in stars] + [orbit(w, x, False) for w, x in concats]
    reps = list(dict.fromkeys(keys))
    sizes = [0] * len(reps)
    sizes[0::2], theirs = _beside(
        lambda: " ".join(str(size(t)) for t in reps[1::2]), lambda: list(map(size, reps[0::2]))
    )
    sizes[1::2] = map(int, theirs.split())
    sizes = list(map(dict(zip(reps, sizes)).get, keys))
    _pair_law(report, "star", "{%s,%s}", stars, predicted_pair_star_sc, sizes[: len(stars)])
    _pair_law(report, "concat", "%s* %s*", concats, predicted_pair_concat_sc, sizes[len(stars) :])

    checked = viol = 0
    for total in range(2, agreement_total + 1):
        for la in range(1, total):
            bound = total - gcd(la, total - la) - 1
            for w, x in itertools.product(_binary(la), _binary(total - la)):
                agr = fine_wilf_agreement(w, x)
                if agr == INFINITE:  # a commuting pair
                    continue
                checked += 1
                if agr > bound:
                    viol += 1
                    report.add("agreement (%s,%s)" % (w, x), "<= %d" % bound, agr, False)
    report.tally("agreement bound, %d non-commuting pairs" % checked, "violations", viol)
    return report


def suite_st(t_max: int = 5) -> SuiteReport:
    """The blowup family versus its closed-form minimal DFA size.

    The closed form counts the rejecting sink; the suite verifies that
    convention at every size, records that the sink really is present, and
    checks the easy exponential floor.  Small sizes are recomputed through
    the window construction as an independent route.  The family grows with
    ``t``, so the first ``t`` that exceeds the state cap is the last one
    tried: it gives the one cap event and its row.  ``t_max`` below 2 (the
    smallest family member) raises ``PreconditionViolated``.
    """
    if t_max < 2:
        raise PreconditionViolated("t_max must be at least 2, got %d" % t_max)
    report = SuiteReport("st")
    for t in range(2, t_max + 1):
        fam = star_blowup_family(t)
        try:
            d = minimal_star_dfa(fam.words)
        except CapExceeded as exc:
            report.limit("t=%d" % t, star_blowup_sc(t), exc)
            break
        predicted = star_blowup_sc(t)
        report.add("t=%d size (sink counted)" % t, predicted, d.state_count, d.state_count == predicted)
        dead = has_dead_state(d)
        report.add("t=%d sink present" % t, True, dead, dead)
        floor = star_blowup_sc_floor(t)
        report.add("t=%d floor" % t, ">= %d" % floor, d.state_count, d.state_count >= floor)
        if t <= 3:
            w = minimize(window_star_dfa(fam.words))
            report.add("t=%d window route" % t, d.state_count, w.state_count, w.state_count == d.state_count)
    return report


def suite_tmn(m: int = 3, n: int = 5, alphabet: str = "01") -> SuiteReport:
    """The two-length family: co-finiteness both ways, the exact longest
    omitted word, and the floor on the omitted count.  The automaton's
    answers are the star side of ``measure_all``, the numbers ``measure``
    reports."""
    report = SuiteReport("tmn")
    fam = two_length_family(m, n, alphabet)
    s = fam.words

    try:
        decided = two_length_cofinite(s, m, n)
        report.add("decision procedure", True, decided, decided is True)
    except BudgetExceeded as exc:
        report.limit("decision procedure", True, exc)

    measured = measure_all(s, chain=False)
    cof = measured.cofinite_star
    report.add("automaton co-finite", True, cof, cof)
    if not cof:
        return report

    wit, length = measured.longest_omitted_word, measured.longest_omitted
    predicted = predicted_longest_omitted(fam)
    report.add("longest omitted length", predicted, length, length == predicted)
    structured = longest_omitted_witness(fam)
    report.add("longest omitted word", structured, wit, wit == structured)
    inside = member_star(s, structured)
    report.add("witness rejected by oracle", False, inside, inside is False)

    count = measured.omitted_count
    floor = omitted_count_lower_bound(fam)
    report.add("omitted count", ">= %d" % floor, count, count >= floor)

    condition = prefix_suffix_condition(s.words)
    report.add("prefix/suffix extension condition", True, condition, condition)

    # pumping the seed word: every interleaving of the seed with full-length
    # filler blocks stays outside the closure until the count runs out
    fillers = ["".join(p) for p in itertools.product(alphabet, repeat=m)]
    if len(fillers) > 32:
        fillers = random.Random(DEFAULT_SEED).sample(fillers, 32)
    total = sum(len(fillers) ** (reps - 1) for reps in range(1, m))
    instance = "seed pumping, %d words" % total
    try:
        _check_budget(total, "seed pumping would check %d words")
    except BudgetExceeded as exc:
        report.limit(instance, "all outside the closure", exc)
    else:
        bad = 0
        for reps in range(1, m):
            for combo in itertools.product(fillers, repeat=reps - 1):
                bad += member_star(s, fam.seed_word + "".join(f + fam.seed_word for f in combo))
        report.add(instance, "all outside the closure", "%d inside" % bad, bad == 0)

    # dropping any short word must break co-finiteness
    if len(alphabet) ** m <= 16:
        broken = 0
        shorts = [w for w in s.words if len(w) == m]
        for u in shorts:
            rest = WordSet.of(alphabet, [w for w in s.words if w != u])
            if is_cofinite(minimal_star_dfa(rest)):
                broken += 1
        report.add(
            "dropping a short word, %d cases" % len(shorts),
            "never co-finite",
            "%d still co-finite" % broken,
            broken == 0,
        )
    return report


def suite_chain_cofinite(count: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Chain-of-stars co-finiteness: the closed-form criterion
    ``chain_cofinite`` versus the automaton's verdict, the one ``measure``
    reports, over random one-letter and two-letter instances with mixed
    length gcds."""
    report = SuiteReport("chain-cofinite")
    rng = random.Random(seed)
    for i in range(count):
        alphabet = "0" if rng.random() < 0.5 else "01"
        k = rng.randint(1, 4)
        stretch = 2 if rng.random() < 0.4 else 1
        xs = []
        for _ in range(k):
            n = rng.randint(1, 5) * stretch
            if alphabet == "0":
                xs.append("0" * n)
            else:
                xs.append("".join(rng.choice(alphabet) for _ in range(n)))
        predicted = chain_cofinite(xs, alphabet)
        instance = "chain %s over %r" % ("/".join(xs), alphabet)
        try:
            actual = is_cofinite(minimal_chain_dfa(xs, alphabet))
        except CapExceeded as exc:
            report.limit(instance, predicted, exc)
            continue
        report.add(instance, predicted, actual, predicted == actual)
    return report


def _first_difference(d: Dfa, levels) -> str | None:
    """The least word (by length, then ``itertools.product`` order) on which
    ``d`` and the levels disagree, else None.  The states after the words of
    length ``n`` are, in order, the successors of those after length ``n - 1``."""
    states = [d.initial]
    for n, level in enumerate(levels):
        if n:
            states = [col[s] for s in states for col in d.cols]
        accepted = bytes(s in d.finals for s in states)
        if accepted != level:
            i = next(i for i, (a, b) in enumerate(zip(accepted, level)) if a != b)
            sigma = len(d.alphabet)
            return "".join(d.alphabet[i // sigma**j % sigma] for j in reversed(range(n)))
    return None


def suite_bounds(count: int = 200, seed: int = DEFAULT_SEED, deep: bool = True) -> SuiteReport:
    """Corpus-wide structural laws.

    Over random word sets plus hand-picked extras: the window construction
    agrees with the determinized trie; its reachable size obeys the closed
    bound; minimal DFA sizes obey the subset bound (and the sharper one for
    prefix-free sets); co-finite closures omit fewer than bound-many words
    and their longest omission is shorter than the bound.  With ``deep``,
    the minimal DFAs of the star and of a shuffled chain of stars match the
    languages generated from the definitions, compared per length up to 12
    (binary) and 8 (ternary); a mismatch names the least differing word.
    The omissions are read by ``_omissions``, as ``measure`` reads them, but
    off the minimized window acceptor, so the route stays independent.
    Each law is one ``check``: a violation adds a row named after the law
    and the instance, and one summary row per law gives the counts.
    """
    report = SuiteReport("bounds")
    corpus = random_word_sets(count, seed) + crafted_word_sets()
    rng = random.Random(seed + 1)
    deep_len = {"01": 12, "012": 8} if deep else {}
    checked, bad = Counter(), Counter()  # law -> instances checked, violated

    def check(law: str, ok: bool, instance, predicted, actual) -> None:
        checked[law] += 1
        if not ok:
            bad[law] += 1
            report.add("%s %s" % (law, instance), predicted, actual, False)

    for s in corpus:
        words = s.words
        win = window_star_dfa(s)
        bound = window_state_bound(len(s.alphabet), s.max_word_length)
        check("window size", win.state_count <= bound, words, "<= %d" % bound, win.state_count)
        same = equivalent(win, determinize(trie_star_nfa(s)))
        check("window vs trie", same, words, "equivalent", "differ")
        d = minimize(win)
        cap = 2 ** (s.total_symbols - s.word_count + 1)
        check("subset bound", d.state_count <= cap, words, "<= %d" % cap, d.state_count)
        if not any(u != v and v.startswith(u) for u in words for v in words):
            sharp = s.total_symbols - s.word_count + 2
            check("prefix-free bound", d.state_count <= sharp, words, "<= %d" % sharp, d.state_count)
        cofinite, omitted, wit = _omissions(d)
        if cofinite:  # one omitted-count check per co-finite set
            sigma = len(s.alphabet)
            geo = bound if sigma == 1 else (sigma**bound - 1) // (sigma - 1)
            check("omitted count", omitted <= geo, words, "<= %d" % geo, omitted)
            if wit is not None:
                check("longest omitted", len(wit) < bound, words, "< %d" % bound, len(wit))
                check("extension condition", prefix_suffix_condition(words), words, True, False)
        if s.alphabet in deep_len:
            order = list(words)
            rng.shuffle(order)
            checks = (
                ("star", d, words, [words]),
                ("chain", minimal_chain_dfa(order, s.alphabet), order, [[x] for x in order]),
            )
            for kind, dfa, listed, blocks in checks:
                w = _first_difference(dfa, _levels(s.alphabet, deep_len[s.alphabet], blocks))
                check(kind + " oracle", w is None, "%s word %s" % (listed, w), "agree", "differ")

    report.tally("window vs trie, %d sets" % checked["window vs trie"], "differ", bad["window vs trie"])
    report.tally("window size bound, %d sets" % checked["window size"], "over", bad["window size"])
    report.tally("subset bound, %d sets" % checked["subset bound"], "over", bad["subset bound"])
    n = checked["prefix-free bound"]
    report.tally("prefix-free bound, %d sets" % n, "over", bad["prefix-free bound"])
    n = checked["omitted count"]
    report.tally("longest omitted bound, %d co-finite sets" % n, "over", bad["longest omitted"])
    report.tally("omitted count bound", "over", bad["omitted count"])
    report.tally("extension condition on co-finite sets", "failures", bad["extension condition"])
    if deep:
        for kind in ("star", "chain"):
            report.tally("%s membership concordance" % kind, "mismatches", bad[kind + " oracle"])
    return report
