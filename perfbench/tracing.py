"""Spans and counts around the public functions of each hybridcorr module.

The tracer swaps each traced function for a wrapper in every hybridcorr
module namespace that holds it, so calls through imported names (such as
``cli.frame_valid`` or ``alba.preprocess`` looked up by ``alba.run``) are
recorded too.  No file of the package changes.

Spans are kept in memory as columns (name, start, end, parent span,
operation id) and written out once, when the run ends.  A span's self time
is its duration minus the durations of its children; spans are strictly
nested because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "syntax", "classify", "alba", "translate", "semantics", "axioms", "corpus")

# Rule names of alba trace steps, without the "(variable)" suffix some carry.
ALBA_RULES = (
    "dist-dia-or", "dist-down-or", "dist-at-or", "dist-not-or", "dist-and-or-l",
    "dist-and-or-r", "dist-implies-or", "dist-box-and", "dist-down-and", "dist-at-and",
    "dist-not-and", "dist-or-and-l", "dist-or-and-r", "dist-implies-and",
    "split-or-lhs", "split-and-rhs", "eliminate-top", "eliminate-bot", "first-approx",
    "split-conj", "split-disj", "approx-dia", "approx-box", "approx-at", "approx-down",
    "approx-implies", "resid-not-lhs", "resid-not-rhs", "ackermann-right",
    "ackermann-left", "name-svar",
)

# (module, function, span name).  The span name's prefix is its layer.
TRACED = (
    ("cli", "main", "cli.main"),
    ("syntax", "parse", "syntax.parse"),
    ("syntax", "parse_inequality", "syntax.parse_inequality"),
    ("classify", "find_order_type", "classify.find_order_type"),
    ("alba", "run", "alba.run"),
    ("alba", "preprocess", "alba.preprocess"),
    ("alba", "first_approximation", "alba.first_approximation"),
    ("alba", "reduce_substage1", "alba.reduce_substage1"),
    ("alba", "ackermann", "alba.ackermann"),
    ("alba", "finalize", "alba.finalize"),
    ("translate", "verify_tr_equivalence", "translate.verify_tr_equivalence"),
    ("semantics", "enumerate_frames", "semantics.enumerate_frames"),
    ("semantics", "frame_valid", "semantics.frame_valid"),
    ("semantics", "frame_valid_quasi", "semantics.frame_valid_quasi"),
    ("axioms", "check_schemas", "axioms.check_schemas"),
    ("corpus", "run_corpus", "corpus.run_corpus"),
)

# Bookkeeping the benchmark does inside a traced call (reading counts off a
# result) runs under this span, so no layer is charged for it.
COUNT_SPAN = "bench.count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.pass_counts: list[Counter] = []
        self.counts = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._symbol_counts: dict[int, tuple[object, int, int, int]] = {}

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def begin_pass(self) -> None:
        self.counts = Counter()
        self.pass_counts.append(self.counts)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._symbol_counts.clear()

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "hybridcorr" or name.startswith("hybridcorr.")
        }
        for module, attr, span in TRACED:
            original = getattr(package[f"hybridcorr.{module}"], attr)
            wrapped = self._wrap(original, span)
            for mod in package.values():
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        count_id = self._name_id(COUNT_SPAN)
        tracer = self
        tally = _TALLY.get(span)
        after = _AFTER.get(span)

        if span == "semantics.enumerate_frames":

            @functools.wraps(fn)
            def frames(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name_id)
                    try:
                        frame = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counts["semantics.frames"] += 1
                    yield frame

            return frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts[span] += 1
            if tally is not None:
                tally(tracer, args, result)
            if after is not None:
                idx = tracer.open(count_id)
                try:
                    after(tracer.counts, args, result)
                finally:
                    tracer.close(idx)
            return result

        return wrapper

    def symbol_counts(self, item) -> tuple[int, int, int]:
        """(props, nominals, free state variables) of a formula or a
        quasi-inequality, cached per object for the current operation."""
        key = id(item)
        hit = self._symbol_counts.get(key)
        if hit is not None and hit[0] is item:
            return hit[1:]
        from hybridcorr.syntax import free_state_vars, nominals, props

        sides = (
            [item]
            if not hasattr(item, "antecedents")
            else [s for i in (*item.antecedents, item.conclusion) for s in (i.lhs, i.rhs)]
        )
        ps, ns, vs = set(), set(), set()
        for f in sides:
            ps |= props(f)
            ns |= nominals(f)
            vs |= free_state_vars(f)
        counts = (len(ps), len(ns), len(vs))
        self._symbol_counts[key] = (item, *counts)
        return counts

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def span_totals(self) -> tuple[Counter, Counter]:
        """Total duration and total self time per span name, in seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            total[name] += dur[i] / 1e9
            self_time[name] += (dur[i] - child[i]) / 1e9
        return total, self_time


# ---------------------------------------------------------------------------
# Counts read at the boundaries
# ---------------------------------------------------------------------------


def _cases(n: int, props: int, noms: int, svars: int) -> int:
    return (n**noms) * (2 ** (n * props)) * (n**svars)


def _tally_quasi_valid(tracer: Tracer, args, result) -> None:
    frame, item = args[0], args[1]
    p, nn, s = tracer.symbol_counts(item)
    tracer.counts["semantics.cases_bound"] += _cases(frame.size, p, nn, s)


def _tally_frame_valid(tracer: Tracer, args, result) -> None:
    _tally_quasi_valid(tracer, args, result)
    tracer.counts["semantics.frame_valid_true"] += bool(result)


def _after_find_order_type(counts: Counter, args, eps) -> None:
    from hybridcorr.classify import Pol, inequality_props

    counts["classify.searches"] += 1
    n = len(inequality_props(args[0]))
    if eps is None:
        counts["classify.candidates_tried"] += 2**n
        return
    counts["classify.hits"] += 1
    index = 0
    for _, pol in eps.assignment:
        index = 2 * index + (pol is Pol.PARTIAL)
    counts["classify.candidates_tried"] += index + 1


def _after_alba_run(counts: Counter, args, result) -> None:
    from hybridcorr.alba import as_inequality
    from hybridcorr.syntax import nominals

    counts["alba.runs"] += 1
    counts["alba.parts"] += len(result.traces) - 1
    for trace in result.traces:
        counts["alba.trace_steps"] += len(trace.steps)
        for step in trace.steps:
            rule = step.rule.split("(", 1)[0]
            counts[f"alba.rule.{rule}" if rule in ALBA_RULES else "alba.rule.other"] += 1
    if not result.ok:
        counts["alba.failures"] += 1
        return
    ineq = as_inequality(args[0])
    given = nominals(ineq.lhs) | nominals(ineq.rhs)
    for q in result.quasis:
        names = set()
        for i in (*q.antecedents, q.conclusion):
            names |= nominals(i.lhs) | nominals(i.rhs)
        counts["alba.nominals_minted"] += len(names - given)
        counts["alba.output_nominals_max"] = max(counts["alba.output_nominals_max"], len(names))


def _after_tr(counts: Counter, args, report) -> None:
    counts["translate.models_checked"] += report.checked


def _after_check_schemas(counts: Counter, args, checks) -> None:
    counts["axioms.instances"] += sum(c.instances for c in checks)


# Tallies run after every call, outside its span but without a span of their
# own: the validity checks are called once per frame, and the symbol counts
# behind cases_bound are cached per formula for the current operation.
_TALLY = {
    "semantics.frame_valid": _tally_frame_valid,
    "semantics.frame_valid_quasi": _tally_quasi_valid,
}
# Heavier reads of a result run under a bench.count span.
_AFTER = {
    "classify.find_order_type": _after_find_order_type,
    "alba.run": _after_alba_run,
    "translate.verify_tr_equivalence": _after_tr,
    "axioms.check_schemas": _after_check_schemas,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; every traced run reports all of them.  Times and counts are
# per pass (one run of every operation in the workload).
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s/pass" for layer in LAYERS},
    "syntax.parse_s": "s/pass",
    "syntax.parse_calls": "count/pass",
    "classify.find_order_type_s": "s/pass",
    "classify.searches": "count/pass",
    "classify.candidates_tried": "count/pass",
    "classify.hit_ratio": "ratio",
    "alba.run_s": "s/pass",
    "alba.runs": "count/pass",
    "alba.preprocess_s": "s/pass",
    "alba.first_approx_s": "s/pass",
    "alba.substage1_s": "s/pass",
    "alba.ackermann_s": "s/pass",
    "alba.finalize_s": "s/pass",
    "alba.parts": "count/pass",
    "alba.trace_steps": "count/pass",
    **{f"alba.rule.{rule}": "count/pass" for rule in ALBA_RULES},
    "alba.rule.other": "count/pass",
    "alba.nominals_minted": "count/pass",
    "alba.output_nominals_max": "count",
    "alba.failures": "count/pass",
    "translate.tr_check_s": "s/pass",
    "translate.models_checked": "count/pass",
    "semantics.enumerate_frames_s": "s/pass",
    "semantics.frames": "count/pass",
    "semantics.frame_valid_s": "s/pass",
    "semantics.frame_valid_calls": "count/pass",
    "semantics.frame_valid_true_ratio": "ratio",
    "semantics.quasi_valid_s": "s/pass",
    "semantics.quasi_valid_calls": "count/pass",
    "semantics.cases_bound": "count/pass",
    "axioms.check_s": "s/pass",
    "axioms.instances": "count/pass",
    "corpus.run_s": "s/pass",
    "trace.ops_per_s": "1/s",
    "trace.op_s_per_pass": "s/pass",
    "trace.count_s": "s/pass",
    "trace.spans": "count/pass",
}

# Span name behind each "<...>_s" timer.
_TIMERS = {
    "syntax.parse_s": ("syntax.parse", "syntax.parse_inequality"),
    "classify.find_order_type_s": ("classify.find_order_type",),
    "alba.run_s": ("alba.run",),
    "alba.preprocess_s": ("alba.preprocess",),
    "alba.first_approx_s": ("alba.first_approximation",),
    "alba.substage1_s": ("alba.reduce_substage1",),
    "alba.ackermann_s": ("alba.ackermann",),
    "alba.finalize_s": ("alba.finalize",),
    "translate.tr_check_s": ("translate.verify_tr_equivalence",),
    "semantics.enumerate_frames_s": ("semantics.enumerate_frames",),
    "semantics.frame_valid_s": ("semantics.frame_valid",),
    "semantics.quasi_valid_s": ("semantics.frame_valid_quasi",),
    "axioms.check_s": ("axioms.check_schemas",),
    "corpus.run_s": ("corpus.run_corpus",),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics: times averaged over the passes run, counts from
    the first pass (every pass runs the same operations).  The caller fills
    in trace.ops_per_s, which is scaled like the end-to-end metrics."""
    total, self_time = tracer.span_totals()
    c = tracer.pass_counts[0]
    out: dict[str, float] = {name: 0 for name in PER_LAYER}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in self_time.items() if name.startswith(layer + ".")
        ) / passes
    for metric, spans in _TIMERS.items():
        out[metric] = sum(total[s] for s in spans) / passes
    for key in PER_LAYER:
        if key in c:
            out[key] = c[key]
    out["syntax.parse_calls"] = c["syntax.parse"] + c["syntax.parse_inequality"]
    out["classify.hit_ratio"] = c["classify.hits"] / c["classify.searches"] if c["classify.searches"] else 0.0
    out["semantics.frame_valid_calls"] = c["semantics.frame_valid"]
    out["semantics.quasi_valid_calls"] = c["semantics.frame_valid_quasi"]
    calls = c["semantics.frame_valid"]
    out["semantics.frame_valid_true_ratio"] = c["semantics.frame_valid_true"] / calls if calls else 0.0
    out["trace.op_s_per_pass"] = total["cli.main"] / passes
    out["trace.count_s"] = total[COUNT_SPAN] / passes
    out["trace.spans"] = len(tracer.start) / passes
    return out
