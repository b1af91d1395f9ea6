#!/usr/bin/env python3
"""Run the end-to-end benchmark over every workload and several seeds.

    python3 e2ebench/ladder.py [--runs N] [--first-seed S] [--seconds S]
                               [--workloads a,b] [--trace 0|1]

Run from the root of a checkout. For each workload it runs the benchmark
command from BENCHMARK.json once per seed, then prints every metric by name
and unit with the median and quartiles of its per-run values (Python's
statistics.quantiles, n=4) and, for end-to-end metrics, the spread
(interquartile range over median) next to a third of the metric's bound.
The header names the core count and OCaml version the runs reported.
Exits 1 if any run failed, printed no result or reported a wrong verdict.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--values", action="store_true", help="also print every run's value")
    a = p.parse_args()
    metrics = spec["per_layer"] if a.trace else spec["end_to_end"]
    ok = True
    for wl in a.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        headers = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if len(lines) >= 2:
                headers.append(json.loads(lines[-2])["e2ebench"])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: {result['failed']} failed job(s)", file=sys.stderr)
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        h = headers[0] if headers else {}
        passes = [x["passes"] for x in headers]
        print(f"== {wl}: {len(passes)} runs x {a.seconds}s, passes/run "
              f"{min(passes, default=0)}-{max(passes, default=0)}, cores {h.get('cores')}, "
              f"OCaml {h.get('ocaml')}, seed: {h.get('seed_effect')}")
        for m in metrics:
            xs = values[m["name"]]
            if not xs:
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            line = f"  {m['name']:<30} {q2:>14.6g} {m['unit']:<10} q1 {q1:.6g}  q3 {q3:.6g}"
            if "bound" in m and q2:
                spread = (q3 - q1) / q2
                flag = "" if spread < m["bound"] / 3 else "  WIDE"
                line += f"  spread {spread:.4f} (bound/3 {m['bound'] / 3:.4f}){flag}"
            print(line, flush=True)
            if a.values:
                print("    " + " ".join(f"{x:.6g}" for x in xs), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
