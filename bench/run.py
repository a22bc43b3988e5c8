"""Benchmark of the goldenbeta dichotomy engine.

    python3 bench/run.py --workload dichotomy --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One single-threaded process runs the workload as a
closed loop (each item starts when the previous one has finished and been
checked by the independent oracle in ``oracle.py``).  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics, from a traced replay of the same items plus
layer probes.  The line before it is a JSON report with the machine, the
source, the raw samples, the slowest items and a digest of the outputs.
A metric table goes to stderr.  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from tracing import Tracer, algebra_replay, enumerate_peak_kib, layer_metrics
from workloads import WORKLOADS, plain_call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("algebra", "fseq", "words", "rewrite", "expand", "cli")
SETUPS = 10  # cold set-ups per run, each in a fresh process; setup_s is their median
SLOWEST = 5


class Package:
    """The package's modules, imported from the checkout."""

    def __init__(self):
        top = importlib.import_module("goldenbeta")
        if Path(top.__file__).resolve().parent != SRC / "goldenbeta":
            raise ImportError(f"goldenbeta imported from {top.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module("goldenbeta." + name))


def set_up(name: str, seed: int):
    """Import, parameters, input generation and warm-up; returns the
    workload and the seconds taken.  Only the first call in a process
    imports the package cold."""
    t0 = time.perf_counter()
    gb = Package()
    wl = WORKLOADS[name](gb, random.Random(seed))
    try:
        wl.warm()
    except Exception as exc:  # a broken package fails the timed items instead
        wl.warm_error = repr(exc)
    return wl, time.perf_counter() - t0


def fresh_set_up(name: str, seed: int) -> float:
    """Seconds of set_up in a new process of this script."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


# An item whose first timing took longer than this is not repeated in later
# passes: one such call already averages over the machine's sub-second
# noise, and repeating the slowest items would multiply the run's length.
LONG_ITEM_NS = 1_000_000_000


class Phase:
    """The outcome of running items: times, failures, digest records."""

    def __init__(self):
        self.busy_ns = 0
        self.repeated_ns = 0  # the part spent on items short enough to repeat
        self.units = 0
        self.failed = 0
        self.item_ns: list[int] = []    # every timed item, in run order
        self.item_pos: list[int] = []   # its position in the schedule
        self.item_units: list[int] = []
        self.labels: list[str] = []     # one per schedule position
        self.records: list[str] = []    # canonical outputs of the first pass
        self.failures: list[str] = []

    @property
    def items(self) -> int:
        return len(self.item_ns)

    def means(self) -> dict[int, float]:
        """Per schedule position: the mean of its timings in this phase."""
        times: dict[int, list[int]] = {}
        for i, ns in zip(self.item_pos, self.item_ns):
            times.setdefault(i, []).append(ns)
        return {i: sum(t) / len(t) for i, t in times.items()}


def run_items(wl, seconds: float, tr: Tracer | None = None, count: int | None = None,
              between=None) -> Phase:
    """Closed loop over whole passes of ``wl.schedule``: until ``wl.enough``
    says so, or for exactly ``count`` items.  Only the package calls are
    timed; ``between`` is called, untimed, between two passes.  The oracle
    checks each output of the first pass; a later repeat passes if its
    canonical record equals the first pass's."""
    call = tr.call if tr else plain_call
    size = len(wl.schedule)
    ph = Phase()
    first: list[str | None] = [None] * size
    n = 0
    while (n < count) if count is not None else not wl.enough(n, ph.repeated_ns, seconds):
        i = n % size
        if i == 0 and n and between:
            between()
        n += 1
        if n > size and ph.item_ns[i] > LONG_ITEM_NS:
            continue
        item = wl.schedule[i]
        units = wl.units(item)
        err = None
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(item, call)
        except Exception as exc:  # a failed item is counted, not fatal
            err = exc
        dt = time.perf_counter_ns() - t0
        if err is None:
            if tr:
                wl.extra(item, out, tr)
            try:
                record = wl.canon(item, out)
                bad = 0 if record == first[i] else wl.check(item, out)
            except Exception as exc:  # malformed output
                bad, err = units, exc
        else:
            bad = units
        if n <= size:
            ph.labels.append(wl.label(item))
            ph.item_units.append(units)
        if bad:
            ph.failures.append(f"{wl.label(item)}: {err!r}" if err else wl.label(item))
        elif n <= size:  # the digest covers the first pass
            first[i] = record
        ph.busy_ns += dt
        if n > size or dt <= LONG_ITEM_NS:  # later passes hold no long items
            ph.repeated_ns += dt
        ph.units += units
        ph.failed += bad
        ph.item_ns.append(dt)
        ph.item_pos.append(i)
    ph.records = [r for r in first if r is not None]
    return ph


def end_to_end(ph: Phase, setups: list[float]) -> dict[str, float]:
    # an item's time is the mean of its repeats; a pass takes the sum of
    # these, so an item timed only once (over a second) counts once per pass
    item_ms = [ns / 1e6 for ns in ph.means().values()]
    ok_ratio = (ph.units - ph.failed) / ph.units
    return {
        "setup_s": median(setups),
        "items_per_s": sum(ph.item_units) * ok_ratio / (sum(item_ms) / 1e3),
        "item_ms_p50": median(item_ms),
        "item_ms_p95": quantiles(item_ms, n=100, method="inclusive")[94],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok_ratio,
    }


UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p95": "ms",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("ns", "us", "ms"):
        return last
    if last.startswith(("ms_", "us_")):
        return last[:2]
    return {"nodes_per_s": "1/s", "peak_kib": "KiB", "success_ratio": "ratio",
            "overhead_ratio": "ratio"}.get(last, "count")


def spin_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran during this run, next to the metrics (which it does not
    adjust)."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def source_info() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "goldenbeta").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": git_commit(), "source_sha256": h.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def traced(wl, base: Phase, seed: int) -> tuple[dict, dict, Tracer]:
    """Replay the untraced phase's first pass with spans, run the layer
    probes, and derive the per-layer metrics."""
    main = Tracer()
    ph = run_items(wl, 0, main, count=len(wl.schedule))
    probe = Tracer()
    rng = random.Random(seed)
    probes = [cls(wl.gb, rng, probe=True) for name, cls in WORKLOADS.items() if name != wl.name]
    for p in probes:
        ph_p = run_items(p, 0, probe, count=len(p.schedule))
        ph.failed += ph_p.failed
        ph.units += ph_p.units
        ph.failures += ph_p.failures
    values, sources = layer_metrics(main, probe)
    values.update(algebra_replay(wl.gb, wl.points(), rng))
    values["expand.enumerate_prefixes.peak_kib"] = enumerate_peak_kib(wl.gb)
    # per item, traced over untraced time in the first pass (both passes run
    # the oracle checks between items); the median over items keeps a burst
    # of machine noise from deciding it
    values["trace.overhead_ratio"] = median(t / u for t, u in zip(ph.item_ns, base.item_ns))
    for name in values:
        sources.setdefault(name, "workload")
    return values, {"sources": sources, "phase": ph}, main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "goldenbeta" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl, dt = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": dt}))
        return 0
    setups = [dt]

    def more_set_ups():
        if len(setups) < SETUPS:
            setups.append(fresh_set_up(args.workload, args.seed))

    # the fresh set-ups run between passes, so that they meet the changes
    # of machine speed over the run rather than one moment of it
    t0 = time.perf_counter()
    ph = run_items(wl, args.seconds, between=more_set_ups)
    wall_s = time.perf_counter() - t0
    while len(setups) < SETUPS:
        more_set_ups()
    e2e = end_to_end(ph, setups)
    attempted, failed = ph.units, ph.failed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "spin_ms": spin_ms(),
        "python": platform.python_version(), **source_info(),
        "items": ph.items, "units": ph.units, "failed": ph.failed,
        "failed_ratio": ph.failed / ph.units, "failures": ph.failures[:10],
        "warmup_error": wl.warm_error,
        "busy_s": ph.busy_ns / 1e9, "wall_s": wall_s, "end_to_end": e2e,
        "samples": {"setup_s": setups, "item_ms": [round(ns / 1e6, 4) for ns in ph.item_ns]},
        "slowest": [{"item": ph.labels[i], "ms": ns / 1e6} for i, ns in
                    sorted(ph.means().items(), key=lambda kv: -kv[1])[:SLOWEST]],
        "digest": {"items": len(ph.records),
                   "sha256": hashlib.sha256("\n".join(sorted(ph.records)).encode()).hexdigest()},
    }
    if args.trace:
        metrics, extra, tr = traced(wl, ph, args.seed)
        tph = extra["phase"]
        attempted += tph.units
        failed += tph.failed
        report["traced"] = {"sources": extra["sources"], "failures": tph.failures[:10],
                            **tr.summary()}
        shown = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        shown = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    for k, m in shown.items():
        print(f"{k:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for s in report["slowest"]:
        print(f"slowest {s['ms']:12.3f} ms  {s['item']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
