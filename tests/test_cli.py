"""The command line: file parsing, JSON reports, generators, suites,
oracle queries, and the exit-code contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobword.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAP,
    EXIT_OK,
    WordSetFileError,
    build_parser,
    format_word_set_file,
    main,
    parse_word_set_file,
)
from frobword import verify
from frobword.starlang import WordSet, measure_all
from frobword.verify import SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_ws(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# file format


def test_parse_basic():
    alphabet, words = parse_word_set_file("alphabet: 01\n# c\n\n0\n01\n0\n")
    assert alphabet == "01"
    assert words == ["0", "01", "0"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(WordSetFileError, match="f:1"):
        parse_word_set_file("0\n", "f")
    with pytest.raises(WordSetFileError, match="f:3"):
        parse_word_set_file("# hi\nalphabet: 01\n02\n", "f")
    with pytest.raises(WordSetFileError, match="empty alphabet"):
        parse_word_set_file("alphabet:\n0\n", "f")
    with pytest.raises(WordSetFileError, match="repeated"):
        parse_word_set_file("alphabet: 00\n0\n", "f")
    with pytest.raises(WordSetFileError, match="missing"):
        parse_word_set_file("# nothing\n", "f")
    with pytest.raises(WordSetFileError, match="no words"):
        parse_word_set_file("alphabet: 01\n", "f")


@pytest.mark.parametrize("alphabet", ["#0", "0 1", "0\t1"])
def test_parse_rejects_alphabets_the_format_cannot_carry(alphabet):
    # '#' would turn words into comments, whitespace is stripped from words
    with pytest.raises(WordSetFileError, match="f:2: alphabet .* carries only ASCII"):
        parse_word_set_file("# c\nalphabet: %s\n00\n" % alphabet, "f")


def test_format_parse_round_trip():
    text = format_word_set_file("01", ["0", "01", "0"])
    alphabet, words = parse_word_set_file(text)
    assert (alphabet, words) == ("01", ["0", "01", "0"])


# ---------------------------------------------------------------------------
# measure


def test_measure_unary_golden(tmp_path, capsys):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    code, out, _ = run(capsys, "measure", f, "--no-timing")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["cofinite_star"] is True
    assert rep["L"] == 1
    assert rep["L_witness"] == "0"
    assert rep["S"] == 3
    assert rep["S_prime"] == 3
    assert rep["K"] == 1
    assert rep["M"] == "1"
    assert rep["k"] == 2 and rep["n"] == 3 and rep["m_total"] == 5
    assert rep["nfa_bound"] == 4
    assert rep["wall_time_ms"] is None


def test_measure_full_language_reasons(tmp_path, capsys):
    f = write_ws(tmp_path, "full.ws", "alphabet: 01\n0\n1\n")
    code, out, _ = run(capsys, "measure", f, "--no-timing")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["cofinite_star"] is True
    assert rep["L"] is None
    assert rep["L_reason"] == "the closure is the full language"
    assert rep["M"] == "0"
    assert rep["K"] is None


def test_measure_star_only_nulls_chain(tmp_path, capsys):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    code, out, _ = run(capsys, "measure", f, "--star", "--no-timing")
    rep = json.loads(out)
    assert rep["S"] == 3
    assert rep["S_prime"] is None
    assert "S_prime_reason" in rep
    code, out, _ = run(capsys, "measure", f, "--chain", "--no-timing")
    rep = json.loads(out)
    assert rep["S"] is None
    assert rep["S_prime"] == 3
    assert rep["cofinite_star"] is None


def test_measure_order_flag(tmp_path, capsys):
    f = write_ws(tmp_path, "p.ws", "alphabet: 01\n0\n1\n")
    code, out, _ = run(capsys, "measure", f, "--order", "1,0,1", "--no-timing")
    assert code == EXIT_OK
    code, _, err = run(capsys, "measure", f, "--order", "0", "--no-timing")
    assert code == EXIT_BAD_INPUT
    assert "order" in err


def test_measure_order_refused_when_the_alphabet_has_a_comma(tmp_path, capsys):
    f = write_ws(tmp_path, "c.ws", "alphabet: ,0\n,\n0\n")
    code, out, _ = run(capsys, "measure", f, "--no-timing")
    assert code == EXIT_OK and json.loads(out)["k"] == 2
    for order in (",,0", "0,,"):
        code, out, err = run(capsys, "measure", f, "--order", order, "--no-timing")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "--order" in err and "cannot be given for alphabet ',0'" in err


def test_measure_byte_stable(tmp_path, capsys):
    f = write_ws(tmp_path, "p.ws", "alphabet: 01\n0\n01\n11\n")
    _, out1, _ = run(capsys, "measure", f, "--no-timing")
    _, out2, _ = run(capsys, "measure", f, "--no-timing")
    assert out1 == out2


def test_measure_timing_present_by_default(tmp_path, capsys):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    _, out, _ = run(capsys, "measure", f)
    rep = json.loads(out)
    assert isinstance(rep["wall_time_ms"], float)
    assert "wall_time_ms_reason" not in rep


def test_measure_bad_file(tmp_path, capsys):
    f = write_ws(tmp_path, "bad.ws", "alphabet: 01\n02\n")
    code, _, err = run(capsys, "measure", f, "--no-timing")
    assert code == EXIT_BAD_INPUT
    assert "bad.ws:2" in err
    code, _, err = run(capsys, "measure", str(tmp_path / "absent.ws"))
    assert code == EXIT_BAD_INPUT


def test_measure_non_ascii_file_is_bad_input(tmp_path, capsys):
    p = tmp_path / "accent.ws"
    p.write_bytes("alphabet: \u00e9a\na\n".encode("utf-8"))
    for command in ("measure", "oracle"):
        argv = [command, str(p)] + (["a"] if command == "oracle" else [])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "accent.ws" in err and "ASCII" in err
        assert len(err.strip().splitlines()) == 1


def test_measure_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("alphabet: 01\n0\n1\n"))
    code, out, _ = run(capsys, "measure", "-", "--no-timing")
    assert code == EXIT_OK
    assert json.loads(out)["input"] == "-"


def test_measure_non_ascii_stdin_is_bad_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("alphabet: \u00e9a\na\n"))
    code, out, err = run(capsys, "measure", "-", "--no-timing")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: -: not an ASCII text file\n"


def test_measure_state_cap_flag(tmp_path, capsys):
    assert main(["gen", "st", "--t", "4"]) == EXIT_OK
    fam = write_ws(tmp_path, "s4.ws", capsys.readouterr().out)
    code, out, err = run(capsys, "measure", fam, "--star", "--no-timing", "--state-cap", "4")
    assert (code, out) == (EXIT_CAP, "")
    assert err == "error: state cap exceeded: window construction exceeded 4 states\n"
    code, out, _ = run(capsys, "measure", fam, "--star", "--no-timing", "--state-cap", "100000")
    assert code == EXIT_OK
    assert json.loads(out)["S"] == 56


@pytest.mark.parametrize("cap", ["20000", "5000"])
def test_measure_reports_the_window_cap_whichever_stage_trips(capsys, monkeypatch, cap):
    # st-10 has 2,047 windows, 9,472 subset states and 44,799 window states:
    # at 20,000 only the window search trips, at 5,000 the subset
    # construction trips as well, and the window search's line is the one
    code, text, _ = run(capsys, "gen", "st", "--t", "10")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "measure", "-", "--no-timing", "--state-cap", cap)
    assert (code, out) == (EXIT_CAP, "")
    assert err == "error: state cap exceeded: window construction exceeded %s states\n" % cap


def test_measure_counts_in_process_when_fork_fails(tmp_path, capsys, monkeypatch):
    # st-8 has 511 windows, enough for the count to fork
    f = write_ws(tmp_path, "st8.ws", run(capsys, "gen", "st", "--t", "8")[1])
    forked = run(capsys, "measure", f, "--no-timing")

    def refuse():
        raise OSError("no fork today")

    monkeypatch.setattr(os, "fork", refuse)
    assert run(capsys, "measure", f, "--no-timing") == forked
    assert forked[0] == EXIT_OK


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_measure_nonpositive_state_cap_is_bad_input(tmp_path, capsys, cap):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    code, out, err = run(capsys, "measure", f, "--no-timing", "--state-cap", cap)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert "--state-cap" in err
    code, out, _ = run(capsys, "measure", f, "--no-timing", "--state-cap", "10")
    assert code == EXIT_OK and json.loads(out)["S"] == 3


def test_measure_dot_debug_flag(tmp_path, capsys):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    prefix = str(tmp_path / "g")
    code, _, _ = run(capsys, "measure", f, "--no-timing", "--dot", prefix)
    assert code == EXIT_OK
    star = (tmp_path / "g.star.dot").read_text()
    chain = (tmp_path / "g.chain.dot").read_text()
    assert "digraph" in star and "digraph" in chain


def test_measure_dot_reuses_the_measured_dfas(tmp_path, capsys, monkeypatch):
    # measure builds each side once, the way the library builds it (the star
    # side with minimal_star_dfa, its window states only counted, never the
    # full window acceptor or pending_star_dfa), and writes those DFAs
    from frobword import starlang
    from frobword.automata import to_dot

    f = write_ws(tmp_path, "p.ws", "alphabet: 01\n0\n01\n11\n")
    s = starlang.WordSet.of("01", ["0", "01", "11"])
    want_star = to_dot(starlang.minimal_star_dfa(s), "star")
    want_chain = to_dot(starlang.minimal_chain_dfa(["0", "01", "11"], "01"), "chain")
    calls = []

    def counted(name):
        real = getattr(starlang, name)

        def build(*args):
            calls.append(name)
            return real(*args)

        return build

    for name in ("minimal_star_dfa", "pending_star_dfa", "window_star_dfa", "chain_nfa"):
        monkeypatch.setattr(starlang, name, counted(name))
    prefix = str(tmp_path / "g")
    code, _, _ = run(capsys, "measure", f, "--no-timing", "--dot", prefix)
    assert code == EXIT_OK
    assert sorted(calls) == ["chain_nfa", "minimal_star_dfa"]
    assert (tmp_path / "g.star.dot").read_text() == want_star
    assert (tmp_path / "g.chain.dot").read_text() == want_chain


@pytest.mark.parametrize("argv", [["measure"], ["verify", "unary", "--seed", "x"]])
def test_usage_error_is_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_BAD_INPUT
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--shallow" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# gen


def test_gen_st_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "st", "--t", "6")
    assert code == EXIT_OK
    alphabet, words = parse_word_set_file(out, "gen")
    assert alphabet == "01"
    assert len(words) == 7
    f = write_ws(tmp_path, "s6.ws", out)
    code, out, _ = run(capsys, "measure", f, "--star", "--no-timing")
    assert json.loads(out)["S"] == 320


def test_gen_tmn_counts(capsys):
    code, out, _ = run(capsys, "gen", "tmn", "--m", "3", "--n", "5")
    assert code == EXIT_OK
    _, words = parse_word_set_file(out, "gen")
    assert len(words) == 37
    code, _, err = run(capsys, "gen", "tmn", "--m", "2", "--n", "4")
    assert code == EXIT_BAD_INPUT
    assert "error" in err


@pytest.mark.parametrize("alphabet", ["#0", "0\u00e9", "0 1"])
def test_gen_refuses_alphabets_the_format_cannot_carry(capsys, monkeypatch, alphabet):
    code, out, err = run(capsys, "gen", "tmn", "--m", "2", "--n", "3", "--alphabet", alphabet)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: gen: alphabet %r" % alphabet)
    # the family has 11 words; a file that dropped the '#' ones must not be measured
    from frobword.families import two_length_family

    text = format_word_set_file(alphabet, two_length_family(2, 3, alphabet).words.words)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "measure", "-")[:2] == (EXIT_BAD_INPUT, "")


def test_gen_chain_preserves_duplicates(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "chain", "--t", "3")
    assert code == EXIT_OK
    _, words = parse_word_set_file(out, "gen")
    assert len(words) == 32
    assert len(set(words)) == 4
    f = write_ws(tmp_path, "c3.ws", out)
    code, out, _ = run(capsys, "measure", f, "--chain", "--no-timing")
    assert json.loads(out)["S_prime"] == 417


# ---------------------------------------------------------------------------
# verify


def test_verify_tsv_and_exit(capsys):
    code, out, err = run(capsys, "verify", "st", "--t-max", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "instance\tpredicted\tactual\tstatus"
    assert all(len(line.split("\t")) == 4 for line in lines)
    assert "0 failures" in err


def test_verify_small_suites(capsys):
    for args in (
        ["verify", "unary", "--count", "5"],
        ["verify", "chain-cofinite", "--count", "5"],
        ["verify", "tmn", "--m", "2", "--n", "3"],
        ["verify", "bounds", "--count", "5", "--shallow"],
        ["verify", "pairs", "--max-len", "2", "--agreement-total", "6"],
    ):
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK, args
        assert out.startswith("instance\t")


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("suite", ["unary", "chain-cofinite", "bounds"])
def test_verify_nonpositive_count_is_bad_input(capsys, suite, count):
    code, out, err = run(capsys, "verify", suite, "--count", count)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert "--count" in err


@pytest.mark.parametrize(
    "argv, says",
    [
        (["pairs", "--max-len", "0"], "max_len"),
        (["pairs", "--max-len", "1"], "max_len"),
        (["pairs", "--agreement-total", "1"], "agreement_total"),
        (["st", "--t-max", "1"], "t_max"),
        (["tmn", "--m", "3", "--n", "7"], "short < long < 2*short"),
        (["pairs", "--count", "5"], "--count"),
        (["st", "--shallow"], "--shallow"),
        (["unary", "--count", "4835"], "--count must be at most 4834"),
    ],
)
def test_verify_out_of_range_or_unread_flag_is_bad_input(capsys, argv, says):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and says in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("alphabet", ["\t1", "0\n1", "0#", "0 1"])
def test_verify_tmn_refuses_an_alphabet_gen_tmn_refuses(capsys, alphabet):
    gen = run(capsys, "gen", "tmn", "--m", "2", "--n", "3", "--alphabet", alphabet)
    code, out, err = run(capsys, "verify", "tmn", "--m", "2", "--n", "3", "--alphabet", alphabet)
    assert (gen[0], code, out) == (EXIT_BAD_INPUT, EXIT_BAD_INPUT, "")
    assert err.startswith("error: --alphabet: alphabet ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["pairs", "--max-len", "2", "--agreement-total", "3"],
        ["st", "--t-max", "2"],
        ["tmn", "--m", "2", "--n", "3"],
    ],
)
def test_verify_suites_without_random_instances_accept_seed(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--seed", "4")
    assert code == EXIT_OK
    assert out.startswith("instance\t")


def test_verify_looks_the_suite_up_on_verify_per_call(capsys, monkeypatch):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return SuiteReport("bounds")

    monkeypatch.setattr(verify, "suite_bounds", fake)
    code, out, _ = run(capsys, "verify", "bounds", "--count", "1", "--shallow")
    assert calls == [{"count": 1, "deep": False}]
    assert (code, out) == (EXIT_OK, "instance\tpredicted\tactual\tstatus\n")


# sha256 of the table each suite prints at seed 7, with the arguments the
# benchmark's verify-replay workload gives pairs and bounds; every exit code is 0
PINNED_TABLES = {
    "unary": ([], "607b153143f5cf1343c792665b5d4953aa92a37abbfbbdbff3307235819b35f6"),
    "pairs": (
        ["--max-len", "5", "--agreement-total", "12"],
        "5af0a4c5b4c6c3b9c7d9a5bd74e49b28bb394924249c0eb65c987db577381658",
    ),
    "st": ([], "f25f1ff58877d734c67d8349947b9fb0e513071617e45e674a90a1de264ea108"),
    "tmn": ([], "17f6ceb2e3430154abfef86b4d03b139fa2aef1fb45871c5104d8c7101fb6a97"),
    "chain-cofinite": ([], "b0ad0dbc58c046fce238b92cd21cd32896ba5fb2e56192419ce8e4c86ab958a0"),
    "bounds": (["--count", "10"], "0d2e56d5fd8766b796a0fd25cabbfba37b1c27e008e6049ecf35ac868fc5ab3f"),
}


@pytest.mark.parametrize("suite", list(PINNED_TABLES))
def test_verify_tables_are_byte_stable(capsys, suite):
    args, digest = PINNED_TABLES[suite]
    code, out, _ = run(capsys, "verify", suite, "--seed", "7", *args)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, digest)


def test_verify_pairs_agreement_rows_past_the_benchmark_totals(capsys):
    # 179,886 non-commuting pairs with |w| + |x| up to 13; the digest was
    # recorded from the residual-pair search that the closed form replaced
    code, out, _ = run(capsys, "verify", "pairs", "--max-len", "2", "--agreement-total", "13")
    digest = "5d4c7451f9b5fe04eb242e23712428c8401fe42e20460f2a2eee7a3c7dfa5e3e"
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, digest)


# sha256 of ``measure - --no-timing`` stdout on the ``gen`` output of each argv
PINNED_MEASURES = {
    "st-6": (["st", "--t", "6"], "c2b7fcca313dc1244e0d4dab7e3fd28ae8c78ce2e9abb80ebbcfb03ee2bbf5f5"),
    "st-7": (["st", "--t", "7"], "4ec605c48ffb9b14f5e8f4c7f5ed7dd22141b1748ea8f789c3a1dc077ed31df1"),
    "st-8": (["st", "--t", "8"], "6fc5c07978d92bc46c5473a3de31985bc3beca9e668491263d60963d625162e8"),
    "st-9": (["st", "--t", "9"], "bf8c3a0b6c35029519089889bf4b780342339431c9ca11dcf4b6d69b32483856"),
    "tmn-3-5": (
        ["tmn", "--m", "3", "--n", "5"],
        "e19f84e3f22f91d78308ceb7118e72dd951b54fc8ab3c4f2d2fc4e3ac50d4adc",
    ),
    "tmn-4-5": (
        ["tmn", "--m", "4", "--n", "5"],
        "eda6f30161bb9b0a23302e9206740304cbb609a79a3f7618c498e9e6182c8c45",
    ),
    "tmn-2-3-012": (
        ["tmn", "--m", "2", "--n", "3", "--alphabet", "012"],
        "2085f6932a1bd8f2bcd9d9680c729fefe9d2db6a8dc2416bd37d3d3f5075a5e3",
    ),
    "chain-3": (["chain", "--t", "3"], "311d4f2382600384f4fb597f4feb6b0b5475673a456d8bc435284b07aa01b77f"),
    # the four benchmark items, with the digests of perfbench/expected.json
    "st-10": (["st", "--t", "10"], "cff244dd9cdd898aba9971ec5b0ceb9c44a0fe97381e97caef2b164be226d5b0"),
    "tmn-5-6": (
        ["tmn", "--m", "5", "--n", "6"],
        "eff48667d4d2a19c6952bab8c6988cef7e0df2c89ac26fc8e188e0d3d972ed29",
    ),
    "st-11": (["st", "--t", "11"], "3fc0c1259da471be3fb7a013288411d242534f8f6061ba107a80f91e1db0c5eb"),
    "tmn-4-7": (
        ["tmn", "--m", "4", "--n", "7"],
        "22cd4125d917a142fd8ee135c0c3bd9658af12ad43d1085eab7b4048e20d0157",
    ),
}


@pytest.mark.parametrize("item", list(PINNED_MEASURES))
def test_measure_reports_are_byte_stable(capsys, monkeypatch, item):
    gen_args, digest = PINNED_MEASURES[item]
    code, text, _ = run(capsys, "gen", *gen_args)
    assert code == EXIT_OK
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "measure", "-", "--no-timing")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, digest)


# sha256 of ``repr((cols, sorted(finals)))`` of the minimal table that
# ``measure`` reads on one side of a ``gen`` output: the report holds only
# sizes, so these pin the tables themselves, their class numbering included,
# for two large tables whose refinement compacts ``live`` and two that never do
PINNED_DFAS = {
    "st-11-star": (["st", "--t", "11"], "21715488afd633c943babbfa2992e757aa760c35ef376081b38f8171d69a4eb9"),
    "st-11-chain": (["st", "--t", "11"], "e797f15fe9629bbe0fd559199a4f6a5cd33a6360a614b6c9b85a4c634a624246"),
    "tmn-5-6-star": (
        ["tmn", "--m", "5", "--n", "6"],
        "aa9291fbeadd939b40252558a83ac910972a44dddeaa7694dcb943677e5eec4b",
    ),
    "tmn-4-7-chain": (
        ["tmn", "--m", "4", "--n", "7"],
        "5be86f7a8bc6c4bbe610ac649299c4752da054c0a4259a642c8e52b7b2994bc5",
    ),
}


@pytest.mark.parametrize("item", list(PINNED_DFAS))
def test_measured_dfas_are_byte_stable(capsys, item):
    gen_args, digest = PINNED_DFAS[item]
    _, text, _ = run(capsys, "gen", *gen_args)
    alphabet, words = parse_word_set_file(text)
    side = item.rsplit("-", 1)[1]
    report = measure_all(WordSet.of(alphabet, words), words, star=side == "star", chain=side == "chain")
    d = getattr(report, side + "_dfa")
    assert hashlib.sha256(repr((d.cols, sorted(d.finals))).encode()).hexdigest() == digest


def test_the_modules_run_as_programs(tmp_path):
    # every other test calls ``main`` in process; here the exit code is the
    # process's own, through ``__main__`` and through ``cli`` run as a module
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = dict(env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path)

    def command(module, *argv):
        return [sys.executable, "-m", module, *argv]

    gen = subprocess.Popen(command("frobword", "gen", "st", "--t", "2"), stdout=subprocess.PIPE, **child)
    measure = subprocess.run(
        command("frobword", "measure", "-", "--no-timing"),
        stdin=gen.stdout,
        capture_output=True,
        text=True,
        **child,
    )
    gen.stdout.close()
    assert (gen.wait(), measure.returncode, measure.stderr) == (EXIT_OK, EXIT_OK, "")
    assert measure.stdout == (
        '{"input":"-","alphabet":"01","k":3,"n":3,"m_total":7,"cofinite_star":false,"L":null,'
        '"L_reason":"the complement is infinite","L_witness":null,"S":8,"S_prime":12,"K":null,'
        '"K_reason":"the chain complement is infinite","M":null,"M_reason":"the complement is infinite",'
        '"nfa_bound":5,"window_dfa_states":20,"wall_time_ms":null,"wall_time_ms_reason":"timing disabled"}\n'
    )
    for module in ("frobword", "frobword.cli"):
        usage = subprocess.run(command(module, "measure"), capture_output=True, text=True, **child)
        assert (usage.returncode, usage.stdout) == (EXIT_BAD_INPUT, "")
        assert usage.stderr.endswith("error: the following arguments are required: file\n")


def _dev_mode(tmp_path, *argv, stdin=None):
    # dev mode with warnings as errors: an unclosed pipe end (ResourceWarning)
    # or a fork beside a thread (DeprecationWarning) would fail the run
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "frobword", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path,
    )


def test_measure_runs_clean_under_dev_mode(capsys, tmp_path):
    code, text, _ = run(capsys, "gen", "st", "--t", "8")
    assert code == EXIT_OK
    measure = _dev_mode(tmp_path, "measure", "-", "--no-timing", stdin=text)
    assert (measure.returncode, measure.stderr) == (EXIT_OK, "")
    assert json.loads(measure.stdout)["window_dfa_states"] == 7775


def test_verify_pairs_runs_clean_under_dev_mode(tmp_path):
    # the same check for the child that works out half of the pair automata
    pairs = _dev_mode(tmp_path, "verify", "pairs", "--max-len", "3")
    assert (pairs.returncode, pairs.stderr) == (EXIT_OK, "# suite pairs: 7 checks, 0 failures, 0 cap events\n")


@pytest.mark.parametrize(
    "suite, count, rows",
    [("unary", 6, 6), ("chain-cofinite", 6, 6), ("bounds", 4, 9), ("unary", 1, 1), ("chain-cofinite", 1, 1)],
)
def test_the_other_split_suites_run_clean_under_dev_mode(tmp_path, suite, count, rows):
    # and for the child that works out the instances at odd places, or for
    # its absence when there is none
    done = _dev_mode(tmp_path, "verify", suite, "--count", str(count))
    expected = "# suite %s: %d checks, 0 failures, 0 cap events\n" % (suite, rows)
    assert (done.returncode, done.stderr) == (EXIT_OK, expected)


def test_the_cli_loads_no_process_or_serialising_module(tmp_path):
    # the start-up cost the benchmark's setup_s measures: the fork helpers
    # need only os and threading, and load signal only to kill a child
    src = str(Path(__file__).resolve().parents[1] / "src")
    unwanted = ("pickle", "multiprocessing", "concurrent", "subprocess", "signal")
    probe = "import sys, frobword.cli; print(' '.join(sorted(m.split('.')[0] for m in sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path,
        check=True,
    ).stdout.split()
    assert "frobword" in loaded
    assert [m for m in unwanted if m in loaded] == []


# ---------------------------------------------------------------------------
# oracle


def test_oracle_star_and_chain(tmp_path, capsys):
    f = write_ws(tmp_path, "u.ws", "alphabet: 0\n00\n000\n")
    code, out, _ = run(capsys, "oracle", f, "00000", "0")
    assert code == EXIT_OK
    assert out == "00000\ttrue\n0\tfalse\n"
    code, out, _ = run(capsys, "oracle", f, "--chain", "00000")
    assert code == EXIT_OK
    assert out == "00000\ttrue\n"
    code, _, err = run(capsys, "oracle", f, "01")
    assert code == EXIT_BAD_INPUT
    assert "alphabet" in err


def test_oracle_checks_every_word_before_the_first_answer(tmp_path, capsys):
    f = write_ws(tmp_path, "b.ws", "alphabet: 01\n0\n1\n")
    code, out, err = run(capsys, "oracle", f, "", "2", "3")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: word '2' uses characters 2 not in alphabet '01'\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_two_calls_in_one_process_match_fresh_parsers(capsys, tmp_path):
    f = write_ws(tmp_path, "t.ws", "alphabet: 01\n00\n011\n")
    pairs = [
        (["gen", "tmn", "--m", "2", "--n", "3"], ["measure", f, "--no-timing"]),
        (["verify", "unary", "--t-max", "3"], ["verify", "unary", "--count", "3", "--seed", "1"]),
    ]
    for calls in pairs:
        together = [run(capsys, *argv) for argv in calls]
        apart = []
        for argv in calls:
            build_parser.cache_clear()
            apart.append(run(capsys, *argv))
        assert together == apart
    assert [code for code, _, _ in together] == [EXIT_BAD_INPUT, EXIT_OK]


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_two_length_budget_exits_cap_before_enumerating(capsys, command):
    # 2**39 words of the long length: the family refuses before building one
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "tmn", "--m", "20", "--n", "39")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (EXIT_CAP, "")
    assert err == "error: budget exceeded: two-length family would enumerate %d words of length 39\n" % 2**39


def test_verify_budget_row_exits_cap(capsys):
    # (4,7) decides co-finiteness at length 4 * 2**3 + 3 = 35, past the budget
    code, out, err = run(capsys, "verify", "tmn", "--m", "4", "--n", "7")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert (code, err) == (EXIT_CAP, "# suite tmn: 9 checks, 1 failures, 1 cap events\n")
    budget = "budget exceeded: would enumerate %d words of length 35" % 2**35
    assert rows[0] == ["decision procedure", "True", budget, "FAIL"]
    assert [row[3] for row in rows[1:]] == ["ok"] * 8


# the counts come from the closed forms: 1 + t(t+1) symbols in the star family,
# (t+1)(t-2)/2 + 2t repeats of that in the chain family, n(n+1)/2 + n**2 pair
# automata over the n = 2**(L+1) - 2 words, and (T-2) 2**(T+1) + 4 agreement pairs
@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "st", "--t", "5000"], "star blowup family would write 25005001 symbols at t = 5000"),
        (["gen", "chain", "--t", "100"], "chain blowup family would write 52010049 symbols at t = 100"),
        (["verify", "pairs", "--max-len", "12"], "pair laws would build 100618245 automata up to length 12"),
        (
            ["verify", "pairs", "--agreement-total", "30"],
            "agreement bound would check 60129542148 pairs up to combined length 30",
        ),
    ],
)
def test_enumeration_budgets_exit_cap_before_enumerating(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (EXIT_CAP, "", "error: budget exceeded: %s\n" % message)


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError, "out of memory during measure"), (RecursionError, "recursion too deep during measure")],
)
def test_resource_limits_exit_cap_without_traceback(capsys, monkeypatch, tmp_path, error, message):
    from frobword import cli

    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "measure_all", exhausted)
    f = write_ws(tmp_path, "t.ws", "alphabet: 01\n00\n011\n")
    assert run(capsys, "measure", f) == (EXIT_CAP, "", "error: %s\n" % message)
