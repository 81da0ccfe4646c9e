"""One timed pass of a benchmark workload, in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 -s perfbench/child.py --workload NAME --seed N [--trace 0|1]
        [--setup-only] [--state-cap N] [--spans-out FILE] [--only ITEM]

Set-up (importing ``frobword`` and generating the inputs) is timed on its
own; then every item of the workload runs back to back, in process,
through ``frobword.cli.main``, each after a timing of the reference loop
(``_reference_s``); then every output is checked.  The pass
prints one JSON object on its last stdout line.  With ``--trace 1`` the
layer functions are wrapped by ``spans.Tracer`` after set-up and the
per-name and per-layer summary is added to the object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer  # noqa: E402

SUITES = ("unary", "pairs", "st", "tmn", "chain-cofinite", "bounds")
# Two suites are cut below their CLI defaults (``pairs``, 5 s; ``bounds
# --count 200``, 16 s) so that a pass takes a few seconds, like the other
# workloads', and repeats ten times or more in a run.
SUITE_ARGS = {"pairs": ["--max-len", "5", "--agreement-total", "12"], "bounds": ["--count", "10"]}


def _items(workload: str) -> list[tuple]:
    """The workload's items, in a fixed order: the state one item leaves in
    the heap changes the time of the next."""
    if workload == "measure-families":
        return [("st-%d" % t, "st", t) for t in (10, 11)] + [
            ("tmn-%d-%d" % mn, "tmn", mn) for mn in ((5, 6), (4, 7))
        ]
    if workload == "verify-replay":
        return [("verify-" + s, "verify", s) for s in SUITES]
    raise SystemExit("unknown workload %r" % workload)


def _setup(workload: str, seed: int):
    """Import the package and generate every input.  Returns the items with
    their argv, stdin text and closed-form check.  The seed reaches only the
    verify suites; the measure items are the fixed family sizes."""
    import frobword  # noqa: F401
    from frobword import cli
    from frobword.families import (
        omitted_count_lower_bound,
        predicted_longest_omitted,
        star_blowup_sc,
        two_length_family,
    )

    def gen(argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["gen", *argv])
        if code != 0:
            raise RuntimeError("gen %s exited %d" % (" ".join(argv), code))
        return buf.getvalue()

    prepared = []
    for name, kind, arg in _items(workload):
        if kind == "st":
            text = gen(["st", "--t", str(arg)])
            want = star_blowup_sc(arg)

            def check(rep, want=want):
                return rep["S"] == want or "S=%r, closed form %d" % (rep["S"], want)

            prepared.append((name, ["measure", "-", "--no-timing"], text, check))
        elif kind == "tmn":
            m, n = arg
            text = gen(["tmn", "--m", str(m), "--n", str(n)])
            fam = two_length_family(m, n)
            want_l, floor_m = predicted_longest_omitted(fam), omitted_count_lower_bound(fam)

            def check(rep, want_l=want_l, floor_m=floor_m):
                if rep["L"] != want_l:
                    return "L=%r, closed form %d" % (rep["L"], want_l)
                if rep["M"] is None or int(rep["M"]) < floor_m:
                    return "M=%r below the floor %d" % (rep["M"], floor_m)
                return True

            prepared.append((name, ["measure", "-", "--no-timing"], text, check))
        else:
            prepared.append((name, ["verify", arg, "--seed", str(seed), *SUITE_ARGS.get(arg, [])], None, None))
    return cli, prepared


def _reference() -> int:
    """A fixed pure-Python loop of the kind the package runs (frozenset
    keys, dict lookups, list appends); its time measures the host's speed."""
    table: dict = {}
    queue = []
    for i in range(10000):
        key = frozenset((i % 97, i % 89, (i * 7) % 83))
        if key not in table:
            table[key] = len(table)
            queue.append((key, i))
    return len(table) + len(queue)


def _reference_s(repeats: int = 5) -> float:
    """Fastest of a few timed runs of ``_reference``."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t)
    return best


def _run_item(main, argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:
                err.write(traceback.format_exc())
                code = "exception"
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _check(name, argv, code, out, err, expected, check) -> str | None:
    """None when the item's output is right, else the reason it is not."""
    if code != 0:
        return "exit %s: %s" % (code, (err.strip().splitlines() or [""])[-1])
    if argv[0] == "measure":
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != expected.get(name):
            return "sha256 %s differs from the committed %s" % (digest, expected.get(name))
        verdict = check(json.loads(out))
        return None if verdict is True else verdict
    lines = out.splitlines()
    rows = lines[1:]
    if lines[:1] != ["instance\tpredicted\tactual\tstatus"] or not rows:
        return "malformed table"
    bad = [r for r in rows if not r.endswith("\tok")]
    if bad:
        return "%d rows not ok, first %r" % (len(bad), bad[0])
    summary = "%d checks, 0 failures, 0 cap events" % len(rows)
    if summary not in err:
        return "summary %r lacks %r" % (err.strip(), summary)
    return None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--state-cap", type=int)
    p.add_argument("--spans-out")
    p.add_argument("--only", help="run only the named item")
    args = p.parse_args()
    with open(os.path.join(HERE, "expected.json"), encoding="ascii") as fh:
        expected = json.load(fh)["measure_sha256"]

    t0 = time.perf_counter()
    cli, prepared = _setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.only:
        prepared = [item for item in prepared if item[0] == args.only]
    if args.state_cap is not None:
        cap = ["--state-cap", str(args.state_cap)]
        prepared = [(n, [*a, *cap] if a[0] == "measure" else a, t, c) for n, a, t, c in prepared]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sys.modules)
    results = []
    for name, argv, text, check in prepared:
        main_fn = tracer.span("cli." + argv[0], cli.main) if tracer else cli.main
        ref_s = _reference_s()
        t_item = time.perf_counter()
        code, out, err = _run_item(main_fn, argv, text)
        results.append((name, argv, code, out, err, check, time.perf_counter() - t_item, ref_s))
    wall_s = sum(r[6] for r in results)
    if tracer:
        tracer.uninstall_gc()

    items = []
    for name, argv, code, out, err, check, secs, ref_s in results:
        reason = _check(name, argv, code, out, err, expected, check)
        items.append({"name": name, "s": secs, "ref_s": ref_s, "ok": reason is None, "why": reason})
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": items,
    }
    if tracer:
        result["trace"] = tracer.summarize()
        if args.spans_out:
            with open(args.spans_out, "w", encoding="ascii") as fh:
                json.dump(tracer.dump(), fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
