"""Spans around the calls into each layer of gcr, recorded from outside.

Each traced function is replaced, in every gcr module that holds it by
name, with a wrapper that times the call and counts its work.  A span's
self time is its duration minus the time its traced child spans cover.
Spans are aggregated in memory per name, and per (job, name) for the trace
file, rather than kept one by one: a round of `optimize` makes hundreds of
thousands of `rref` calls.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict


def _rref_name(args):
    return "linalg.rref_q" if args[0].field.p is None else "linalg.rref_fp"


def _subsets(args):
    t = len(args[0].weights)
    return sum(math.comb(t, k) for k in range(1, min(t, args[0].rank + 1) + 1))


# (module, function, span name or a function of the arguments giving it,
#  work count of a call or None)
TRACED = [
    ("gcr.linalg", "rref", _rref_name, lambda a: a[0].rows * a[0].cols),
    ("gcr.linalg", "spin", "linalg.spin", None),
    ("gcr.linalg", "commutant", "linalg.commutant", None),
    ("gcr.engine", "composition_series", "engine.composition_series", None),
    ("gcr.engine", "has_invariant_complement", "engine.has_invariant_complement",
     lambda a: a[0].dim * a[0].dim),
    ("gcr.instability", "min_norm_point", "instability.min_norm_point", _subsets),
    ("gcr.cochar", "limit_tuple", "cochar.limit_tuple", None),
    ("gcr.jobs", "parse_request", "jobs.parse_request", None),
    ("gcr.jobs", "report_to_json", "jobs.report_to_json", None),
]


class Tracer:
    """Installs the wrappers for the life of the process; `job` names the
    job whose spans follow."""

    def __init__(self):
        self.job = None
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.work = defaultdict(int)
        self.per_job = defaultdict(lambda: [0, 0.0, 0.0])
        self.complement_pairs = set()
        self._stack = []

    def _wrap(self, fn, name, work):
        name_of = name if callable(name) else (lambda args: name)
        record_pair = fn.__name__ == "has_invariant_complement"

        def traced(*args, **kwargs):
            span = name_of(args)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self.calls[span] += 1
                self.seconds[span] += duration
                self.self_seconds[span] += duration - child
                if work is not None:
                    self.work[span] += work(args)
                if record_pair:
                    h, w = args[0], args[1]
                    self.complement_pairs.add(
                        (tuple(c.entries for c in h.components), w.basis.entries))
                agg = self.per_job[(self.job, span)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "gcr" or k.startswith("gcr.")]
        for module, attr, name, work in TRACED:
            fn = getattr(sys.modules[module], attr)
            wrapper = self._wrap(fn, name, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def metrics(self, rounds):
        """Per-layer metrics of one round (rounds repeat the same jobs)."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for span in ("linalg.rref_fp", "linalg.rref_q"):
            put(f"{span}.calls", self.calls[span] // rounds, "count")
            put(f"{span}.cells", self.work[span] // rounds, "count")
            put(f"{span}.s", self.seconds[span] / rounds, "s")
        for span in ("linalg.spin", "linalg.commutant", "engine.composition_series"):
            put(f"{span}.calls", self.calls[span] // rounds, "count")
            put(f"{span}.self_s", self.self_seconds[span] / rounds, "s")
        span = "engine.has_invariant_complement"
        calls = self.calls[span] // rounds
        put(f"{span}.calls", calls, "count")
        put(f"{span}.unknowns", self.work[span] // rounds, "count")
        put(f"{span}.self_s", self.self_seconds[span] / rounds, "s")
        put(f"{span}.distinct_ratio",
            len(self.complement_pairs) / calls if calls else 0.0, "ratio")
        span = "instability.min_norm_point"
        put(f"{span}.calls", self.calls[span] // rounds, "count")
        put(f"{span}.subsets", self.work[span] // rounds, "count")
        put(f"{span}.self_s", self.self_seconds[span] / rounds, "s")
        put("cochar.limit_tuple.calls", self.calls["cochar.limit_tuple"] // rounds,
            "count")
        put("cochar.limit_tuple.s", self.seconds["cochar.limit_tuple"] / rounds, "s")
        put("jobs.parse_request.s", self.seconds["jobs.parse_request"] / rounds, "s")
        put("jobs.report_to_json.s", self.seconds["jobs.report_to_json"] / rounds, "s")
        return out

    def job_table(self, rounds):
        """Per job and span: calls, seconds and self seconds of one round."""
        table = defaultdict(dict)
        for (job, span), (calls, secs, self_secs) in sorted(self.per_job.items()):
            table[job][span] = {"calls": calls // rounds, "s": secs / rounds,
                                "self_s": self_secs / rounds}
        return dict(table)
