"""Benchmark for frobword: end-to-end timings of the ``measure`` and
``verify`` commands, and a traced run that splits them by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test [--workload NAME] [--seed N]

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``measure-families``: ``frobword measure`` on ``gen st`` at t = 10 and
  11 (the star-blowup family) and on ``gen tmn`` at (5,6) and (4,7) (the
  two-length family);
* ``verify-replay``: ``frobword verify`` on all six suites, seeded with
  the workload seed (``pairs`` and ``bounds`` below their defaults).

It is a closed loop with one client: each pass is a fresh interpreter
(``child.py``) that imports the package and generates the inputs (timed
as set-up), then runs every item back to back and checks every output.
With ``--trace 0`` passes repeat while the next one should still end
within ``--seconds`` (there is always one).  The end-to-end metrics are
``wall_ref``, the workload's time in units of a fixed reference loop;
``peak_rss_mb``, the median over passes of the pass's ``ru_maxrss``; and
``setup_s``, the median over the passes plus a few set-up-only
interpreters.  ``wall_ref`` is the mean wall time of a pass (all items)
divided by the mean time of ``child._reference``, a pure-Python loop
timed just before every item, over the same run.  The shared host's
speed shifts by up to 1.6 times, in bursts of a second and in spells of
minutes; both means are taken over the same stretch of time, so a burst
or spell slows both.  In sets of five runs on a 2-vCPU VM the ratio's
median moved by under 4% between a quiet and a noisy stretch of the
host, while the raw item times moved by up to 47%.  The raw mean pass
time and mean reference time are printed and kept as ``wall_s`` and
``reference_s`` in the result file.  With ``--trace 1`` one untraced
pass is followed by one traced pass, whose spans give the per-layer
metrics listed in ``perfbench/metrics.json``; the spans are written to
``.perfbench_out/``.

An item fails on a wrong output (sha256 of the ``measure --no-timing``
JSON against ``perfbench/expected.json``, or a closed form of
``frobword.families``; for ``verify``, a row not ok or a cap event), a
nonzero exit, or any exception.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every item passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("measure-families", "verify-replay")
END_TO_END = {"wall_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0


def _per_layer_spec() -> list[dict]:
    with open(os.path.join(HERE, "metrics.json"), encoding="ascii") as fh:
        return json.load(fh)["per_layer"]


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _stamp(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repo.src_lines": _src_lines(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _child(args: list[str], deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result.

    String hashing is fixed so that set and dict layouts, and with them
    the work done, repeat from pass to pass."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), *args]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out after %.0f s" % timeout}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": "pass exited %d: %s" % (proc.returncode, tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _items_of(passes: list[dict]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for p in passes:
        if "error" in p:
            attempted += 1
            failures.append(p["error"])
            continue
        for item in p["items"]:
            attempted += 1
            if not item["ok"]:
                failures.append("%s: %s" % (item["name"], item["why"]))
    return attempted, failures


def _layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    names, layers = summary["names"], summary["layers"]
    zero = {"calls": 0, "ns": 0, "self_ns": 0, "in": 0, "out": 0}

    def get(name):
        return names.get(name, zero)

    cli = [v for k, v in names.items() if k.startswith("cli.")]
    special = {
        "cli.s": sum(v["ns"] for v in cli) / 1e9,
        "cli.overhead_s": sum(v["self_ns"] for v in cli) / 1e9,
        "runtime.gc_s": get("runtime.gc")["ns"] / 1e9,
        "runtime.gc_collections": get("runtime.gc")["calls"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": summary["records"],
        "trace.failed_ops": len(summary["failed_ops"]),
        "repo.src_lines": _src_lines(),
    }
    out = {}
    for spec in _per_layer_spec():
        metric = spec["name"]
        base, field = metric.rsplit(".", 1)
        if metric in special:
            value = special[metric]
        elif base.startswith("layer."):
            g = layers.get(base[6:], {"ns": 0, "self_ns": 0})
            value = (g["ns"] if field == "s" else g["self_ns"]) / 1e9
        elif field == "calls":
            value = get(base)["calls"]
        elif field == "s":
            value = get(base)["ns"] / 1e9
        elif field == "self_s":
            value = get(base)["self_ns"] / 1e9
        elif field in ("states", "states_out", "rows"):
            value = get(base)["out"]
        elif field == "states_in":
            value = get(base)["in"]
        elif field == "kept_ratio":
            e = get(base)
            value = e["out"] / e["in"] if e["in"] else 0.0
        else:
            raise ValueError("no rule for per-layer metric %r" % metric)
        out[metric] = {"value": value, "unit": spec["unit"]}
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], dict]:
    """Returns the result object, the failure reasons, and the details
    written to ``.perfbench_out``."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    passes: list[dict] = []
    if trace:
        passes.append(_child(base, deadline))
        spans_out = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
        passes.append(_child([*base, "--trace", "1", "--spans-out", spans_out], deadline))
    else:
        # at least one pass; another only if it should end within the run
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(_child(base, deadline))
            now = time.perf_counter()
            last = now - t_pass
            if "error" in passes[-1] or now - start + last > seconds or now + last > deadline:
                break
    attempted, failures = _items_of(passes)

    metrics: dict = {}
    raw: dict = {}
    if not failures:
        if trace:
            untraced, traced = passes
            metrics = _layer_metrics(traced["trace"], traced["wall_s"], untraced["wall_s"])
        else:
            setups = [p["setup_s"] for p in passes]
            for _ in range(SETUP_PROBES):
                probe = _child([*base, "--setup-only"], deadline)
                if "error" in probe:
                    failures.append("set-up: " + probe["error"])
                    break
                setups.append(probe["setup_s"])
            wall_s = statistics.fmean(p["wall_s"] for p in passes)
            ref_s = statistics.fmean(item["ref_s"] for p in passes for item in p["items"])
            raw = {"wall_s": wall_s, "reference_s": ref_s}
            metrics = {
                "wall_ref": {"value": wall_s / ref_s, "unit": "ref"},
                "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    details = {"stamp": _stamp(workload, seed, trace), "passes": passes, "failures": failures, "raw": raw, "result": result}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (workload, seed, trace)), "w", encoding="ascii") as fh:
        json.dump(details, fh, indent=1)
    return result, failures, details


def _print_report(workload: str, result: dict, failures: list[str], details: dict) -> None:
    stamp = details["stamp"]
    print("# %s seed=%d trace=%d python=%s nproc=%s repo.src_lines=%d" % (
        workload, stamp["seed"], stamp["trace"], stamp["python"], stamp["nproc"], stamp["repo.src_lines"]))
    walls = [round(p["wall_s"], 3) for p in details["passes"] if "wall_s" in p]
    print("#   passes: %d, wall_s per pass: %s" % (len(details["passes"]), walls))
    print("#   fail_frac = %d/%d = %.4f" % (result["failed"], result["attempted"], result["failed"] / max(1, result["attempted"])))
    for name, value in details["raw"].items():
        print("#   %-40s %14.6g s" % (name, value))
    for reason in failures:
        print("#   FAILED %s" % reason)
    for name, m in result["metrics"].items():
        print("#   %-40s %14.6g %s" % (name, m["value"], m["unit"]))


def self_test(workloads: list[str], seed: int) -> int:
    """Checks the benchmark itself: metric lists agree with
    ``BENCHMARK.json``; a capped item fails cleanly, attributed to the span
    that was open; exact counts repeat across two traced passes."""
    problems = []
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_path):
        with open(bench_path, encoding="ascii") as fh:
            bench = json.load(fh)
        mine = [{k: s[k] for k in ("name", "unit", "better")} for s in _per_layer_spec()]
        if bench["per_layer"] != mine:
            problems.append("BENCHMARK.json per_layer differs from perfbench/metrics.json")
        if {m["name"]: m["unit"] for m in bench["end_to_end"]} != END_TO_END:
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")
    deadline = time.perf_counter() + 3600

    capped = _child(["--workload", "measure-families", "--seed", str(seed), "--trace", "1",
                     "--only", "st-11", "--state-cap", "1000"], deadline)
    if "error" in capped:
        problems.append("capped item crashed the pass: %s" % capped["error"])
    else:
        attempted, failures = _items_of([capped])
        ops = capped["trace"]["failed_ops"]
        print("# cap: %d attempted, failures %s, failed ops %s" % (attempted, failures, ops))
        if attempted != 1 or len(failures) != 1 or "exit 2" not in failures[0]:
            problems.append("capped item: expected one item failing with exit 2, got %s" % failures)
        if ops != ["starlang.window_star_dfa"]:
            problems.append("capped item: failed ops %s, expected the window construction" % ops)

    exact = [s["name"] for s in _per_layer_spec() if s["exact"]]
    for workload in workloads:
        runs = []
        for _ in range(2):
            p = _child(["--workload", workload, "--seed", str(seed), "--trace", "1"], deadline)
            if "error" in p or _items_of([p])[1]:
                problems.append("%s: traced pass failed: %s" % (workload, p.get("error") or _items_of([p])[1]))
                break
            runs.append(_layer_metrics(p["trace"], p["wall_s"], p["wall_s"]))
        if len(runs) < 2:
            continue
        diff = [m for m in exact if runs[0][m]["value"] != runs[1][m]["value"]]
        print("# %s: %d exact counts compared, %d differ %s" % (workload, len(exact), len(diff), diff))
        for m in exact:
            print("#   %-40s %s" % (m, runs[0][m]["value"]))
        if diff:
            problems.append("%s: exact counts differ across traced runs: %s" % (workload, diff))
    for p in problems:
        print("# SELF-TEST FAILED: %s" % p)
    print("# self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frobword", "__init__.py")):
        print("error: no frobword package under %s" % SRC, file=sys.stderr)
        return 2
    if args.self_test:
        chosen = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
        return self_test(chosen, args.seed)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload != "all":
        result, failures, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
        _print_report(args.workload, result, failures, details)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined = {}
    for workload in WORKLOADS:
        result, failures, details = run_workload(workload, args.seed, args.seconds, args.trace)
        _print_report(workload, result, failures, details)
        combined[workload] = result
    print(json.dumps({"workloads": combined}))
    return 0 if all(r["correct"] for r in combined.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
