"""The command-line contract over drawn argv and word-set file bytes.

Every run of ``measure``, ``gen``, ``verify`` and ``oracle``, made in
process through ``cli.main``, exits 0, 2 or 3 and never prints a traceback.
A failure outside the argument parser is one ``error: `` line, and a
successful ``measure`` prints the report keys in the documented order.
The drawn values are small, so the whole test runs in about a second.
The library contract is the list of names the package exports.
"""

import contextlib
import io
import json
import sys
from types import ModuleType

from hypothesis import example, given, settings
from hypothesis import strategies as st

import frobword
from frobword.cli import main

# what ``frobword/__init__.py`` exports; ``complement`` and
# ``pending_star_dfa`` have no caller in the package, only users
LIBRARY_API = [
    "BudgetExceeded", "CapExceeded", "DEFAULT_STATE_CAP", "Dfa", "GcdNotOne", "INFINITE",
    "MeasureReport", "Nfa", "NotFinite", "PreconditionViolated", "StarBlowupFamily",
    "TwoLengthFamily", "WordSet", "base_repr", "chain_blowup_family", "chain_cofinite", "chain_nfa",
    "common_root", "commutes", "complement", "count_words", "determinize", "distinguishing_word",
    "equivalent", "fine_wilf_agreement", "frobenius_f", "frobenius_g", "gcd_all", "is_cofinite",
    "is_degenerate", "longest_omitted_witness", "longest_word", "measure_all", "member_chain",
    "member_star", "minimal_chain_dfa", "minimal_star_dfa", "minimize", "omitted_count_lower_bound",
    "pending_star_dfa", "predicted_longest_omitted", "predicted_pair_concat_sc",
    "predicted_pair_star_sc", "prefix_suffix_condition", "representable", "star_blowup_family",
    "star_blowup_sc", "star_blowup_sc_floor", "state_complexity", "trie_star_nfa",
    "two_length_cofinite", "two_length_family", "window_star_dfa", "window_state_bound",
]

# the report keys in the order the README gives them; a null one is followed
# by its ``<key>_reason``
REPORT_KEYS = [
    "input", "alphabet", "k", "n", "m_total", "cofinite_star", "L", "L_witness", "S",
    "S_prime", "K", "M", "nfa_bound", "window_dfa_states", "wall_time_ms",
]
NO_REASON = {"L_witness"}  # null exactly when L is

small = st.integers(min_value=-1, max_value=6).map(str)
BAD_HEADERS = ["alphabet: 00", "alphabet:", "alphabet: 0#", "# only a comment", "01"]


@st.composite
def word_set_files(draw) -> tuple[bytes, list[str]]:
    """A word-set file and its words; most are valid, some have one flaw."""
    alphabet = draw(st.sampled_from(["01", "0", "012", "ab"]))
    words = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=5), min_size=1, max_size=5))
    lines = ["alphabet: " + alphabet, *words]
    flaw = draw(st.sampled_from([None] * 6 + ["header", "stray", "no words", "bytes", "non-ascii"]))
    if flaw == "header":
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    elif flaw == "stray":
        lines.append("0x")
    elif flaw == "no words":
        del lines[1:]
    data = "\n".join(lines).encode() + b"\n"
    if flaw == "bytes":
        data = draw(st.binary(max_size=24))
    elif flaw == "non-ascii":
        data += b"\xe9\n"
    return data, words


def _flags(draw, options) -> list[str]:
    out = []
    for flag, values in options:
        if draw(st.booleans()):
            out += [flag] if values is None else [flag, draw(values)]
    return out


@st.composite
def cases(draw) -> tuple[list[str], bytes]:
    """An argv, with ``FILE`` for the word-set file, and the file's bytes."""
    data, file_words = draw(word_set_files())
    command = draw(st.sampled_from(["measure", "gen", "verify", "oracle"]))
    if command == "measure":
        # the file's words, or past three words one fewer: often not all of them
        order = st.permutations(file_words).map(lambda ws: ",".join(ws[: len(ws) - (len(ws) > 3)]))
        cap = st.one_of(st.integers(min_value=1, max_value=200), st.integers(min_value=-2, max_value=0))
        options = [("--star", None), ("--chain", None), ("--pretty", None), ("--no-timing", None)]
        options.append(("--order", order))
        return ["measure", "FILE", *_flags(draw, options), "--state-cap", str(draw(cap))], data
    if command == "gen":
        family = draw(st.sampled_from(["st", "tmn", "chain"]))
        if family == "tmn":
            alphabet = _flags(draw, [("--alphabet", st.sampled_from(["01", "012", "0", "00", "0#"]))])
            m, n = draw(st.sampled_from(["2", "3", "4", "-1"])), draw(st.sampled_from(["3", "4", "5", "2"]))
            return ["gen", "tmn", "--m", m, "--n", n, *alphabet], data
        return ["gen", family, "--t", draw(small)], data
    if command == "verify":
        suite = draw(st.sampled_from(["unary", "pairs", "st", "tmn", "chain-cofinite", "bounds"]))
        count = st.integers(min_value=-1, max_value=3).map(str)
        options = {
            "unary": [("--count", count)],
            "pairs": [],  # both flags always given: the defaults take seconds
            "st": [("--t-max", small)],
            "tmn": [("--alphabet", st.sampled_from(["01", "012", "0", "\t1"]))],
            "chain-cofinite": [("--count", count)],
            "bounds": [("--count", count)],
        }[suite] + [("--seed", st.integers(0, 99).map(str))]
        argv = ["verify", suite, *_flags(draw, options)]
        if suite != "st" and draw(st.integers(0, 5)) == 0:
            argv += ["--t-max", draw(small)]  # a flag the suite does not read
        if suite == "pairs":
            argv += ["--max-len", draw(st.sampled_from("123"))]
            argv += ["--agreement-total", draw(st.sampled_from("1258"))]
        elif suite == "tmn":
            argv += ["--m", draw(st.sampled_from("23")), "--n", draw(st.sampled_from("346"))]
        return argv, data
    queries = st.lists(st.text(alphabet="012a", max_size=8), min_size=1, max_size=3)
    return ["oracle", "FILE", *draw(queries), *_flags(draw, [("--chain", None)])], data


def _check_report(text: str) -> None:
    rep = json.loads(text)
    keys = list(rep)
    assert [k for k in keys if not k.endswith("_reason")] == REPORT_KEYS
    for i, key in enumerate(keys):
        if key.endswith("_reason"):
            assert keys[i - 1] == key[: -len("_reason")] and rep[keys[i - 1]] is None
        elif rep[key] is None and key not in NO_REASON:
            assert keys[i + 1] == key + "_reason"


# a tab in the alphabet would split the rows that print its words
TAB_TABLE = (["verify", "tmn", "--alphabet", "\t1", "--m", "2", "--n", "3"], b"alphabet: 01\n0\n")


@settings(max_examples=150)
@given(case=cases(), stdin=st.booleans())
@example(case=TAB_TABLE, stdin=False)
def test_cli_contract(tmp_path_factory, case, stdin):
    argv, data = case
    path = tmp_path_factory.getbasetemp() / "contract.ws"
    path.write_bytes(data)
    argv = [("-" if stdin else str(path)) if a == "FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(data.decode("latin-1"))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, parser_exit = main(argv), False
    except SystemExit as exc:
        code, parser_exit = exc.code, True
    finally:
        sys.stdin = saved
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if parser_exit:
        assert code == 3 and "usage:" in err and out == ""
    elif argv[0] == "verify" and out:
        # a table was printed: four fields a row, the summary line, and exit 2
        # only on a cap event
        assert out.startswith("instance\tpredicted\tactual\tstatus\n")
        assert all(line.count("\t") == 3 for line in out.splitlines()), out
        assert err.count("\n") == 1 and err.startswith("# suite ")
        assert (code == 2) == (" 0 cap events" not in err)
    elif code:
        assert out == "", (argv, out)
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    else:
        assert err == ""
        if argv[0] == "measure":
            _check_report(out)


def test_the_library_exports_its_public_names():
    exported = [n for n, v in vars(frobword).items() if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert sorted(exported) == LIBRARY_API
