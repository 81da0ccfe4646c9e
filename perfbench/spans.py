"""In-memory span recorder for the traced benchmark pass.

The recorder wraps the public functions of the package's layers at every
name a module of the package bound them to, so a call made through
``frobword.verify.minimize`` is recorded just like one made through
``frobword.automata.minimize``.  Nothing under ``src/`` changes.

Two kinds of records are kept:

* spans, one per call, for the coarse operations (automaton constructions,
  minimization, suites, measure reports): ``[name, parent, start_ns,
  end_ns, size_in, size_out, error]``;
* tallies, one per calling context, for the small functions called
  millions of times (membership oracles, word and number laws):
  ``[name, parent, calls, total_ns, errors]``.  One record per call would
  cost hundreds of megabytes there.

Spans have ids ``0, 1, ...``; tally nodes have ids ``-1, -2, ...``; the
root has parent ``None``.  Interpreter garbage collections are recorded as
``runtime.gc`` spans under whatever record was open when they ran, so the
collector's time is not charged to the layer it interrupted.
"""

from __future__ import annotations

import gc
import inspect
import time

LAYER_MODULES = ("automata", "starlang", "words", "numeric", "families")

# Hot leaf functions recorded as per-context tallies instead of spans.
TALLIED = {
    "starlang.member_star",
    "starlang.member_chain",
    "starlang.chain_cofinite",
    "starlang.window_state_bound",
}
TALLIED_LAYERS = ("words", "numeric", "families")


def _size(obj):
    """State count of an automaton, row count of a suite report, else None."""
    n = getattr(obj, "state_count", None)
    if n is None:
        rows = getattr(obj, "rows", None)
        if rows is not None:
            n = len(rows)
    return n


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: list[list] = []
        self._tally_ids: dict[tuple, int] = {}
        self.stack: list[int | None] = [None]
        self._gc_open: tuple[int | None, int] | None = None

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], 0, 0, _size(args[0]) if args else None, None, None]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            rec[5] = _size(out)
            return out

        return wrapper

    def tally(self, name: str, fn):
        tallies, ids, stack, clock = self.tallies, self._tally_ids, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = ids.get((name, parent))
            if node is None:
                tallies.append([name, parent, 0, 0, 0])
                node = ids[(name, parent)] = -len(tallies)
            rec = tallies[-1 - node]
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] += 1
                raise
            finally:
                rec[3] += clock() - t0
                rec[2] += 1
                stack.pop()

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = (self.stack[-1], time.perf_counter_ns())
        elif self._gc_open is not None:
            parent, start = self._gc_open
            self._gc_open = None
            self.spans.append(["runtime.gc", parent, start, time.perf_counter_ns(), None, None, None])

    # -- installation ------------------------------------------------------

    def install(self, sys_modules) -> None:
        """Wrap every public function of the layer modules, and the verify
        suites, at every binding held by a module of the package."""
        package = [m for k, m in sorted(sys_modules.items()) if k == "frobword" or k.startswith("frobword.")]
        wrapped: dict[int, object] = {}
        for layer in LAYER_MODULES:
            mod = sys_modules["frobword." + layer]
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, fname)
                tallied = name in TALLIED or layer in TALLIED_LAYERS
                wrapped[id(fn)] = (self.tally if tallied else self.span)(name, fn)
        verify = sys_modules["frobword.verify"]
        for fname, fn in vars(verify).items():
            if fname.startswith("suite_") and inspect.isfunction(fn):
                wrapped[id(fn)] = self.span("verify." + fname[6:].replace("_", "-"), fn)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    setattr(mod, attr, w)
        # verify replays the star oracle through its indexed core directly
        indexed = sys_modules["frobword.starlang"]._member_star_indexed
        verify._member_star_indexed = self.tally("starlang.member_star", indexed)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- analysis ----------------------------------------------------------

    def records(self) -> list[tuple]:
        """Uniform view: ``(id, name, parent, calls, dur_ns, size_in,
        size_out, errors)``."""
        out = []
        for i, (name, parent, start, end, n_in, n_out, err) in enumerate(self.spans):
            out.append((i, name, parent, 1, end - start, n_in, n_out, 1 if err else 0))
        for j, (name, parent, calls, total, errors) in enumerate(self.tallies):
            out.append((-1 - j, name, parent, calls, total, None, None, errors))
        return out

    def summarize(self) -> dict:
        """Per-name and per-layer totals, self times and sizes.

        A record's self time is its duration minus the durations of its
        direct children.  A name's (or layer's) total counts only records
        with no ancestor of the same name (layer), so nested calls are not
        counted twice.
        """
        recs = self.records()
        by_id = {r[0]: r for r in recs}
        covered: dict[int, int] = {}
        child_errors: dict[int, int] = {}
        for r in recs:
            if r[2] is not None:
                covered[r[2]] = covered.get(r[2], 0) + r[4]
                child_errors[r[2]] = child_errors.get(r[2], 0) + r[7]

        def has_ancestor(r, same) -> bool:
            p = r[2]
            while p is not None:
                q = by_id[p]
                if same(q):
                    return True
                p = q[2]
            return False

        names: dict[str, dict] = {}
        layers: dict[str, dict] = {}
        failed_ops: list[str] = []
        for r in recs:
            rid, name, _, calls, dur, n_in, n_out, errors = r
            layer = name.split(".", 1)[0]
            self_ns = dur - covered.get(rid, 0)
            e = names.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "in": 0, "out": 0})
            e["calls"] += calls
            e["self_ns"] += self_ns
            e["in"] += n_in or 0
            e["out"] += n_out or 0
            if not has_ancestor(r, lambda q: q[1] == name):
                e["ns"] += dur
            g = layers.setdefault(layer, {"ns": 0, "self_ns": 0})
            g["self_ns"] += self_ns
            if not has_ancestor(r, lambda q: q[1].split(".", 1)[0] == layer):
                g["ns"] += dur
            # an error that no child raised started here
            failed_ops += [name] * max(0, errors - child_errors.get(rid, 0))
        return {"names": names, "layers": layers, "failed_ops": failed_ops, "records": len(recs)}

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "parent", "start_ns", "end_ns", "size_in", "size_out", "error"],
            "spans": self.spans,
            "tally_fields": ["name", "parent", "calls", "total_ns", "errors"],
            "tallies": self.tallies,
        }
