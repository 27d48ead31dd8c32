#!/usr/bin/env python3
"""Run every workload and print its metrics by name, with units.

    python3 perfbench/report.py                  # one untraced run per workload
    python3 perfbench/report.py --trace          # one traced run per workload
    python3 perfbench/report.py --runs 10 --out runs.json

Run from the repository root. Each run is its own ``run.py`` process, so
``peak_rss_mb`` belongs to one workload. With ``--runs N`` the workloads
take turns, run ``i`` uses seed ``--seed-base + i``, and the table gives
each metric's median and its spread: the distance between the first and
third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for ln in lines:
        if ln.startswith(('{"info"', '{"environment"')):
            result.update(json.loads(ln))
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and spread of each metric over runs, plus the
    share of failed operations."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": spread(values), "unit": m["unit"]}
    metrics["failed_frac"] = {"median": failed / attempted, "q1": None, "q3": None,
                              "spread": None, "unit": "ratio"}
    return {"operations": attempted, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = p.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        seed = args.seed_base + i
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for w in order:
            r = run_once(w, seed, args.trace)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"correct={r['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()
                             if k in ("wall_s", "trace.overhead")),
                  file=sys.stderr, flush=True)

    summary = {w: summarize(results[w]) for w in WORKLOADS}
    for w in WORKLOADS:
        print(f"{w}  ({len(results[w])} runs, {summary[w]['operations']} operations)")
        for name, m in summary[w]["metrics"].items():
            line = f"  {name:44s} {m['median']:12.6g} {m['unit']:6s}"
            if len(results[w]) > 1 and m["spread"] is not None:
                line += f"  spread {m['spread']:.3f}"
            print(line)
    if args.out:
        first = results[WORKLOADS[0]][0]
        args.out.write_text(json.dumps({
            "run_seconds": SECONDS, "runs": args.runs, "traced": args.trace,
            "environment": first["environment"], "summary": summary,
            "results": results}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
