"""Command line frontend.

Subcommands: ``measure`` runs the size measures on a word-set file and
emits a JSON report, ``gen`` prints the built-in families as word-set
files, ``verify`` replays a verification suite as a TSV table, and
``oracle`` answers membership queries by brute force.

Word-set file format: a header line ``alphabet: <chars>`` (ASCII, no ``#``
or whitespace), then one word per line.  A line whose first non-blank
character is ``#`` is a comment, a ``#`` after a word is bad input, blank
lines are ignored, and duplicate words are allowed and keep their file
order (it matters for the chain of stars; the star closure ignores it).

Exit codes: 0 success, 1 a verified invariant was violated, 2 a resource
limit was hit (``CapExceeded``, ``BudgetExceeded``, ``MemoryError``,
``RecursionError``), 3 bad input (usage errors, ``OSError``,
``ValueError``); the commands raise and ``main`` maps.  ``measure
--state-cap`` sets the state cap, ``DEFAULT_STATE_CAP`` unless given; it
bounds the window search and each subset construction, and a window
search over it is the hit reported.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time

from frobword.automata import DEFAULT_STATE_CAP, CapExceeded, _check_alphabet, _check_words, to_dot
from frobword.families import (
    chain_blowup_family,
    star_blowup_family,
    two_length_family,
)
from frobword.starlang import BudgetExceeded, WordSet, measure_all, member_chain, member_star
from frobword import verify as verify_mod

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CAP = 2
EXIT_BAD_INPUT = 3


class WordSetFileError(ValueError):
    """Bad input prefixed with where it came in: a word-set file's source and line, or an option."""


def _check_carried(alphabet: str) -> None:
    """The alphabet rule, then refuse an alphabet the word-set format cannot
    carry: the text is ASCII, lines are stripped, ``#`` lines are comments."""
    _check_alphabet(alphabet)
    bad = ",".join(map(repr, sorted(c for c in alphabet if not c.isascii() or c == "#" or c.isspace())))
    if bad:
        msg = "alphabet %r has %s; a word-set file carries only ASCII without '#' or whitespace"
        raise ValueError(msg % (alphabet, bad))


def _at(where: str, check, *args) -> None:
    """``check(*args)``, its ``ValueError`` raised again after ``<where>: ``."""
    try:
        check(*args)
    except ValueError as exc:
        raise WordSetFileError("%s: %s" % (where, exc)) from None


def parse_word_set_file(text: str, source: str = "<input>") -> tuple[str, list[str]]:
    """Parse a word-set file into ``(alphabet, words)``.

    Words come back in file order with duplicates preserved.
    """
    alphabet = None
    words: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = "%s:%d" % (source, lineno)
        if alphabet is None:
            if not line.startswith("alphabet:"):
                raise WordSetFileError("%s: expected header 'alphabet: <chars>', got %r" % (where, line))
            alphabet = line[len("alphabet:") :].strip()
            _at(where, _check_carried, alphabet)
            continue
        _at(where, _check_words, [line], alphabet)
        words.append(line)
    if alphabet is None:
        raise WordSetFileError("%s: missing 'alphabet:' header" % source)
    if not words:
        raise WordSetFileError("%s: no words" % source)
    return alphabet, words


def format_word_set_file(alphabet: str, words) -> str:
    return "\n".join(["alphabet: %s" % alphabet, *words]) + "\n"


def _read_input(path: str) -> str:
    """The text of the file, or of standard input for ``-``; either must be ASCII."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="ascii") as fh:
                text = fh.read()
        if text.isascii():
            return text
    except UnicodeDecodeError:
        pass
    raise WordSetFileError("%s: not an ASCII text file" % path)


# ---------------------------------------------------------------------------
# measure


def _report_dict(label, s, report, wall_ms):
    """Assemble the JSON report with a fixed key order; measures that do
    not apply are null and immediately followed by a reason key.  The reason
    is decided once per side: not requested (its state complexity is null),
    else a full language, else an infinite complement (a co-finite side
    that misses a word has no null measure to explain)."""
    star = (
        "not requested (star measures disabled)" if report.star_sc is None
        else "the closure is the full language" if report.full_language
        else "the complement is infinite"
    )
    chain = (
        "not requested (chain measures disabled)" if report.chain_sc is None
        else "the chain is the full language" if report.chain_full_language
        else "the chain complement is infinite"
    )
    count = report.omitted_count
    fields = (  # (key, value, reason when the value is null)
        ("input", label, None),
        ("alphabet", s.alphabet, None),
        ("k", s.word_count, None),
        ("n", s.max_word_length, None),
        ("m_total", s.total_symbols, None),
        ("cofinite_star", report.cofinite_star, star),
        ("L", report.longest_omitted, star),
        ("L_witness", report.longest_omitted_word, None),
        ("S", report.star_sc, star),
        ("S_prime", report.chain_sc, chain),
        ("K", report.chain_longest_omitted, chain),
        ("M", None if count is None else str(count), star),
        ("nfa_bound", report.nfa_size_bound, None),
        ("window_dfa_states", report.window_dfa_states, star),
        ("wall_time_ms", wall_ms, "timing disabled"),
    )
    rep: dict[str, object] = {}
    for key, value, reason in fields:
        rep[key] = value
        if value is None and reason is not None:
            rep[key + "_reason"] = reason
    return rep


def cmd_measure(args) -> int:
    alphabet, file_words = parse_word_set_file(_read_input(args.file), args.file)
    s = WordSet.of(alphabet, file_words)
    want_star = args.star or not args.chain
    want_chain = args.chain or not args.star
    xs_order = file_words
    if args.order is not None:
        if "," in alphabet:
            raise ValueError("--order is comma-separated, so it cannot be given for alphabet %r" % alphabet)
        xs_order = [w for w in args.order.split(",") if w]

    t0 = time.perf_counter()
    report = measure_all(s, xs_order, star=want_star, chain=want_chain, state_cap=args.state_cap)
    wall_ms = None if args.no_timing else round((time.perf_counter() - t0) * 1000, 3)

    for side, dfa in (("star", report.star_dfa), ("chain", report.chain_dfa)):
        if args.dot and dfa is not None:
            with open("%s.%s.dot" % (args.dot, side), "w", encoding="ascii") as fh:
                fh.write(to_dot(dfa, side))

    rep = _report_dict(args.file, s, report, wall_ms)
    if args.pretty:
        print(json.dumps(rep, indent=2))
    else:
        print(json.dumps(rep, separators=(",", ":")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.family == "st":
        alphabet, words = "01", star_blowup_family(args.t).words.words
    elif args.family == "chain":  # the st words repeated, duplicates kept
        alphabet, words = "01", chain_blowup_family(args.t)[0]
    else:  # refused before the family is built, as ``verify tmn`` refuses it
        _at("--alphabet", _check_carried, args.alphabet)
        alphabet, words = args.alphabet, two_length_family(args.m, args.n, args.alphabet).words.words
    sys.stdout.write(format_word_set_file(alphabet, words))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# Every ``suite_*`` function in ``verify`` is a suite, and its parameters are
# its subcommand's flags, read here before anything wraps the function; the
# function is looked up per call, so that a wrapper installed there sees it.
# A flag defaults to None and only the given ones are passed, so each default
# lives once, in the suite's signature.  ``--seed`` is the replay key every
# suite accepts.
SUITES = {
    name[6:].replace("_", "-"): (name, {k: p.default for k, p in inspect.signature(func).parameters.items()})
    for name, func in vars(verify_mod).items()
    if name.startswith("suite_")
}


def cmd_verify(args) -> int:
    name, params = SUITES[args.suite]
    given = {k: v for k, v in vars(args).items() if v is not None and k in params}
    if "alphabet" in given:  # every instance checked can be generated and measured
        _at("--alphabet", _check_carried, given["alphabet"])
    report = getattr(verify_mod, name)(**given)

    print("instance\tpredicted\tactual\tstatus")
    for row in report.rows:
        print(
            "%s\t%s\t%s\t%s"
            % (row.instance, row.predicted, row.actual, "ok" if row.ok else "FAIL")
        )
    failures = len(report.failures())
    print(
        "# suite %s: %d checks, %d failures, %d cap events"
        % (report.suite, len(report.rows), failures, report.cap_events),
        file=sys.stderr,
    )
    if report.cap_events:
        return EXIT_CAP
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    alphabet, file_words = parse_word_set_file(_read_input(args.file), args.file)
    s = WordSet.of(alphabet, file_words)
    _check_words(args.words, alphabet)  # all checked before the first answer
    for word in args.words:
        inside = member_chain(file_words, word) if args.chain else member_star(s, word)
        print("%s\t%s" % (word, "true" if inside else "false"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 3), not argparse's 2; subparsers inherit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:  # refused here, so the usage line is that of the (sub)command given them
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


@functools.cache  # parse_args leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="frobword",
        description="Measures, families and verification for star closures of finite word sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure a word-set file, emit a JSON report")
    m.add_argument("file", help="word-set file, or - for standard input")
    m.add_argument("--star", action="store_true", help="star measures only")
    m.add_argument("--chain", action="store_true", help="chain measures only")
    m.add_argument(
        "--order",
        help="comma-separated chain order (default: file order); must use exactly the file's words",
    )
    m.add_argument("--pretty", action="store_true", help="indent the JSON output")
    m.add_argument(
        "--no-timing", action="store_true", help="null wall_time_ms for byte-stable output"
    )
    m.add_argument("--dot", metavar="PREFIX", help="also write PREFIX.{star,chain}.dot")
    m.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP, help="caps window and subset states")
    m.set_defaults(func=cmd_measure)

    g = sub.add_parser("gen", help="print a built-in family as a word-set file")
    g.set_defaults(func=cmd_gen)
    gsub = g.add_subparsers(dest="family", required=True)
    gst = gsub.add_parser("st", help="the star-closure blowup family")
    gst.add_argument("--t", type=int, required=True)
    gt = gsub.add_parser("tmn", help="the two-length family")
    gt.add_argument("--m", type=int, required=True)
    gt.add_argument("--n", type=int, required=True)
    gt.add_argument("--alphabet", default="01")
    gc = gsub.add_parser("chain", help="the chain-of-stars blowup family")
    gc.add_argument("--t", type=int, required=True)

    v = sub.add_parser("verify", help="run a verification suite, emit a TSV table")
    vsub = v.add_subparsers(dest="suite", required=True)
    for suite, (_, params) in SUITES.items():
        vs = vsub.add_parser(suite)
        if "seed" not in params:  # the replay key every suite accepts
            vs.add_argument("--seed", type=int, help="not read by this suite")
        for k, default in params.items():
            vs.add_argument("--" + k.replace("_", "-"), type=type(default), help="default %r" % (default,))
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="brute-force membership queries")
    o.add_argument("file", help="word-set file, or - for standard input")
    o.add_argument("words", nargs="+", help="words to test")
    o.add_argument(
        "--chain",
        action="store_true",
        help="test membership in the chain of stars (file order) instead of the star closure",
    )
    o.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, BudgetExceeded) as exc:
        limit = "state cap" if isinstance(exc, CapExceeded) else "budget"
        print("error: %s exceeded: %s" % (limit, exc), file=sys.stderr)
        return EXIT_CAP
    except (MemoryError, RecursionError) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print("error: %s during %s" % (what, args.command), file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
