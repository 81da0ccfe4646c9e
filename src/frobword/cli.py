"""Command line frontend.

Subcommands: ``measure`` runs the size measures on a word-set file and
emits a JSON report, ``gen`` prints the built-in families as word-set
files, ``verify`` replays a verification suite as a TSV table, and
``oracle`` answers membership queries by brute force.

Word-set file format: a header line ``alphabet: <chars>`` (ASCII, no ``#``
or whitespace), then one word per line.  ``#`` starts a comment, blank
lines are ignored, duplicate words are allowed and their file order is
kept (the order matters for the chain of stars; the star closure ignores
it).

Exit codes: 0 success, 1 a verified invariant was violated, 2 a resource
limit was hit (``CapExceeded``, ``BudgetExceeded``, ``MemoryError``,
``RecursionError``), 3 bad input (usage errors, ``OSError``,
``ValueError``); the commands raise and ``main`` maps.  ``measure
--state-cap`` sets the state cap, ``DEFAULT_STATE_CAP`` unless given; it
bounds the window search first, then each subset construction.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time

from frobword.automata import DEFAULT_STATE_CAP, CapExceeded, to_dot
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
    """Raised on malformed word-set files; the message carries the source
    name and line number."""


def _check_carried(alphabet: str, where: str) -> None:
    """Refuse an alphabet the word-set format cannot carry: the text is
    ASCII, lines are stripped, and ``#`` starts a comment."""
    bad = sorted({c for c in alphabet if not c.isascii() or c == "#" or c.isspace()})
    if bad:
        raise WordSetFileError(
            "%s: alphabet %r has %s; a word-set file carries only ASCII without '#' or whitespace"
            % (where, alphabet, ",".join(map(repr, bad)))
        )


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
        if alphabet is None:
            if not line.startswith("alphabet:"):
                raise WordSetFileError(
                    "%s:%d: expected header 'alphabet: <chars>', got %r"
                    % (source, lineno, line)
                )
            alphabet = line[len("alphabet:") :].strip()
            if not alphabet:
                raise WordSetFileError("%s:%d: empty alphabet" % (source, lineno))
            if len(set(alphabet)) != len(alphabet):
                raise WordSetFileError(
                    "%s:%d: repeated character in alphabet %r" % (source, lineno, alphabet)
                )
            _check_carried(alphabet, "%s:%d" % (source, lineno))
            continue
        stray = sorted(set(line) - set(alphabet))
        if stray:
            raise WordSetFileError(
                "%s:%d: word %r uses characters %s not in alphabet %r"
                % (source, lineno, line, ",".join(stray), alphabet)
            )
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

    if args.state_cap <= 0:
        raise ValueError("--state-cap must be a positive integer, got %d" % args.state_cap)
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
    if args.family == "chain":
        words, _repeats = chain_blowup_family(args.t)
        alphabet = "".join(sorted(set("".join(words))))
    else:
        if args.family == "st":
            ws = star_blowup_family(args.t).words
        else:
            ws = two_length_family(args.m, args.n, args.alphabet).words
        alphabet, words = ws.alphabet, ws.words
    _check_carried(alphabet, "gen")
    sys.stdout.write(format_word_set_file(alphabet, words))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# Every ``suite_*`` function in ``verify`` is a suite whose flags set its
# parameters, read here before anything wraps the function.  The function is
# looked up per call, so that a wrapper installed there sees it.  Verify flags
# default to None and only the given ones are passed, so each default lives
# once, in the suite's signature.  A flag the suite does not read is bad input,
# except ``--seed``, the replay key every suite accepts.  ``--shallow`` sets ``deep``.
SUITES = {
    name[6:].replace("_", "-"): (name, tuple(inspect.signature(func).parameters))
    for name, func in vars(verify_mod).items()
    if name.startswith("suite_")
}


def cmd_verify(args) -> int:
    name, reads = SUITES[args.suite]
    skip = ("command", "suite", "func")
    given = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    stray = sorted(given.keys() - set(reads) - {"seed"})
    if stray:
        flag = "--shallow" if stray[0] == "deep" else "--" + stray[0].replace("_", "-")
        raise ValueError("verify %s does not read %s" % (args.suite, flag))
    if given.get("count", 1) < 1:
        raise ValueError("--count must be a positive integer, got %d" % given["count"])
    if "alphabet" in given:  # every instance checked can be generated and measured
        _check_carried(given["alphabet"], "--alphabet")
    report = getattr(verify_mod, name)(**{k: v for k, v in given.items() if k in reads})

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
    for word in args.words:  # all checked before the first answer
        stray = sorted(set(word) - set(alphabet))
        if stray:
            raise ValueError(
                "word %r uses characters %s not in alphabet %r"
                % (word, ",".join(stray), alphabet)
            )
    for word in args.words:
        if args.chain:
            inside = member_chain(file_words, word)
        else:
            inside = member_star(s, word)
        print("%s\t%s" % (word, "true" if inside else "false"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 3), not argparse's 2; subparsers inherit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


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
    v.add_argument("suite", choices=list(SUITES))
    v.add_argument("--seed", type=int, help="replay key, accepted by every suite")
    v.add_argument("--count", type=int, help="unary, chain-cofinite, bounds: instances")
    v.add_argument("--max-len", type=int, help="pairs: maximum word length")
    v.add_argument(
        "--agreement-total", type=int, help="pairs: maximum combined length for agreement checks"
    )
    v.add_argument("--t-max", type=int, help="st: largest family index")
    v.add_argument("--m", type=int, help="tmn: short length")
    v.add_argument("--n", type=int, help="tmn: long length")
    v.add_argument("--alphabet", help="tmn: alphabet")
    v.add_argument(
        "--shallow",
        dest="deep",
        action="store_const",
        const=False,
        help="bounds: skip the per-length language concordance",
    )
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
