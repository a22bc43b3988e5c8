"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload enumerate --seeds 1-5

Runs ``bench/run.py`` with ``--trace 0`` once per seed, one after another,
from the checkout root, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to a third of the metric's bound in
BENCHMARK.json.  Raw results go to stdout as one JSON line at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        result["report"] = json.loads(lines[-2])["report"]
        del result["report"]["samples"]
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = median(vals)
        q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        limit = bounds.get(name)
        flag = "" if limit is None else ("ok" if spread < limit / 3 else "WIDE")
        print(f"{name:40s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f} {'' if limit is None else f'(bound/3 {limit / 3:.4f}) '}{flag}")
    print(json.dumps({"workload": args.workload, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
