#!/usr/bin/env python3
"""Run the marlab benchmark on several workloads and seeds and summarize.

    python3 perfbench/suite.py --seeds 1-10 [--workloads a,b] [--seconds 20]
                               [--traced] [--out perfbench/results/NAME.json]

Each run is `perfbench/run.py` in its own process, one after another,
cycling through the workloads for each seed.  For every end-to-end metric
and workload it prints the median and quartiles of the runs, and the
quartile spread as a share of the median next to the metric's bound from
BENCHMARK.json.  --traced adds one traced run per workload, at the first
seed.  --out writes every run's result and report lines as JSON.

It exits with 1 when a run is not correct or a spread exceeds its bound
(WIDE); a spread above a third of its bound is marked "loose".
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "result": json.loads(lines[-1]), "report": lines[:-1]}


def spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = []
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, args.seconds, 0)
            print(f"{w:<14} seed {seed:<4} {r['wall_s']:6.1f}s correct={r['result']['correct']} "
                  f"failed={r['result']['failed']}/{r['result']['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["result"]["metrics"].items()),
                  flush=True)
            runs.append(r)
    if args.traced:
        for w in workloads:
            r = run_once(w, seeds[0], args.seconds, 1)
            print(f"{w:<14} traced seed {seeds[0]} {r['wall_s']:6.1f}s correct={r['result']['correct']}",
                  flush=True)
            runs.append(r)

    summary = {}
    steady = True
    print(f"\n{'workload':<14}{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>9}")
    for w in workloads:
        done = [r for r in runs if r["workload"] == w and r["trace"] == 0]
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in done]
            med, q1, q3, s = spread(values)
            mark = "  WIDE" if s > m["bound"] else "  loose" if s > m["bound"] / 3 else ""
            steady &= s <= m["bound"]
            summary.setdefault(w, {})[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": s,
                "values": values}
            print(f"{w:<14}{m['name']:<22}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.4f}"
                  f"{m['bound']:>9.4f}{mark}")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(f"\noperations: {failed} failed of {attempted}; "
          f"all correct: {correct}; steady: {steady}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
