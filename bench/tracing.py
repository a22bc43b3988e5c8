"""Spans, counters and layer probes for the traced run.

Spans are recorded by the benchmark around its own calls into the
package's public functions; nothing inside the package is wrapped.  A
tracer keeps the durations of each span name and named counters.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from statistics import median

from workloads import REWRITE_RULES

REPEATS = 5          # timing repeats per algebra operation; the median is kept
ORBIT_POINTS = 120   # inputs whose greedy orbit the algebra replay walks
ORBIT_DEPTH = 24


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.by_name: dict[str, list[int]] = defaultdict(list)  # durations, ns

    def call(self, name, fn, *args):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.by_name[name].append(time.perf_counter_ns() - t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def has(self, name: str) -> bool:
        return name in self.by_name or name in self.counts

    def summary(self) -> dict:
        """Per span name: calls and total time in ms."""
        spans = {name: {"calls": len(d), "total_ms": sum(d) / 1e6}
                 for name, d in self.by_name.items()}
        return {"spans": spans, "counts": dict(self.counts)}


def _per_call_ns(fn, args_list) -> float:
    """Median over REPEATS of the time per call of ``fn`` over the list."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(args_list))
    return median(samples)


def algebra_replay(gb, points, rng) -> dict[str, float]:
    """Per-call time of the field operations of the branching step, by
    replaying each input's greedy orbit (largest valid digit first)."""
    sample = points if len(points) <= ORBIT_POINTS else rng.sample(points, ORBIT_POINTS)
    rems, subs, tests, pairs = [], [], [], []
    for x in sample:
        bound = x.params.interval_bound
        r = x
        for _ in range(ORBIT_DEPTH):
            shifted = r.mul_beta()
            rems.append((r,))
            for e in range(x.params.m, -1, -1):
                r2 = shifted - e
                subs.append((shifted, e))
                tests.append((r2, bound))
                if r2.sign() >= 0 and r2 <= bound:
                    pairs.append((r, r2))
                    r = r2
                    break
    FieldElem = gb.algebra.FieldElem
    return {
        "algebra.mul_beta.ns": _per_call_ns(FieldElem.mul_beta, rems),
        "algebra.sub_int.ns": _per_call_ns(FieldElem.__sub__, subs),
        "algebra.le.ns": _per_call_ns(FieldElem.__le__, tests),
        "algebra.sign.ns": _per_call_ns(FieldElem.sign, [t[:1] for t in tests]),
        "algebra.add.ns": _per_call_ns(FieldElem.__add__, pairs),
        "algebra.div_beta.ns": _per_call_ns(FieldElem.div_beta, rems),
        "algebra.hash.ns": _per_call_ns(hash, rems),
        "algebra.fe_membership.us": _per_call_ns(
            gb.algebra.fe_membership, [(x,) for x in sample]) / 1e3,
    }


def enumerate_peak_kib(gb) -> float:
    """tracemalloc peak of enumerate_prefixes(1/3, 22) at k=1, odd parity."""
    P = gb.algebra.make_params(1, "odd")
    x = gb.algebra.parse_field("1/3", P)
    tracemalloc.start()
    try:
        tree = gb.expand.enumerate_prefixes(x, 22, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tree
    return peak / 1024


def layer_metrics(main: Tracer, probe: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the workload's own spans where it exercised
    the layer, else from the probe spans; also returns each one's source."""
    values, sources = {}, {}

    def pick(name):
        return ("workload", main) if main.has(name) else ("probe", probe)

    def ms(name):
        src, tr = pick(name)
        return src, [d / 1e6 for d in tr.by_name.get(name, ())]

    def put(metric, src, value):
        values[metric], sources[metric] = value, src

    src, d = ms("expand.classify.member")
    put("expand.classify.member.ms_p50", src, median(d))
    put("expand.classify.member.ms_total", src, sum(d))
    src, tr = pick("expand.synth_finite.cert_digits")
    put("expand.synth_finite.cert_digits", src, tr.counts["expand.synth_finite.cert_digits"])
    src, d = ms("expand.branch_witness")
    put("expand.branch_witness.ms_p50", src, median(d))
    put("expand.branch_witness.ms_max", src, max(d))
    put("expand.branch_witness.ms_total", src, sum(d))
    src, d = ms("expand.enumerate_prefixes")
    nodes = (main if src == "workload" else probe).counts["expand.enumerate_prefixes.nodes"]
    put("expand.enumerate_prefixes.nodes", src, nodes)
    put("expand.enumerate_prefixes.nodes_per_s", src, nodes / (sum(d) / 1e3))
    for rule in REWRITE_RULES:
        src, d = ms("rewrite." + rule)
        put(f"rewrite.{rule}.us_p50", src, median(d) * 1e3)
    src, d = ms("words.word_value")
    put("words.word_value.us_p50", src, median(d) * 1e3)
    put("words.word_value.calls", src, len(d))
    src, d = ms("fseq.decompose_F")
    put("fseq.decompose_F.us_p50", src, median(d) * 1e3)
    src, d = ms("expand.construct_route")
    tr = main if src == "workload" else probe
    put("expand.construct_route.ms_total", src, sum(d))
    put("expand.construct_route.calls", src, len(d))
    put("expand.construct_route.success_ratio", src,
        tr.counts["expand.construct_route.success"] / len(d))
    src, d = ms("expand.synth_finite")
    put("expand.synth_finite.ms_total", src, sum(d))
    src, d = ms("cli.census_elements")
    put("cli.census_elements.ms", src, median(d))
    src, d = ms("cli.main.census")
    put("cli.main.census.ms_total", src, sum(d))
    src, d = ms("cli.main.enumerate")
    put("cli.main.enumerate.ms_p50", src, median(d))
    src, tr = pick("cli.output_bytes")
    put("cli.output_bytes", src, tr.counts["cli.output_bytes"])
    return values, sources
