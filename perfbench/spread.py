#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wire-null --runs 10 [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--out results.json]

For each metric: the median over the runs and the spread, which is the
distance between the first and third quartiles (as `statistics.quantiles`
computes them) over the median. A metric with a bound in BENCHMARK.json is
marked steady when its spread is below a third of that bound. With --out,
the raw results are written as JSON so two sets can be compared with
--compare A.json B.json (the second median against the first, per bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run_set(args, run_seconds):
    seconds = args.seconds or run_seconds
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    return results


def report(results, spec):
    names = results[0]["metrics"].keys()
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        line = f"{name:48} median {statistics.median(values):14.6g}"
        if len(values) >= 2:
            s = spread(values)
            line += f"  spread {s:7.4f}"
            if name in spec:
                bound = spec[name]["bound"]
                line += f"  bound {bound}  {'steady' if s < bound / 3 else 'NOT steady'}"
        print(line)
    print(f"all correct: {all(r['correct'] for r in results)}")


def compare(a_path, b_path, spec):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    for name, m in spec.items():
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok" if worse <= m["bound"] else "WORSE than bound"
        print(f"{name:20} first {ma:14.6g} second {mb:14.6g} worse by {worse:+.4f}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    spec, run_seconds = bounds()
    if args.compare:
        compare(*args.compare, spec)
        return
    if not args.workload:
        parser.error("--workload is required")
    results = run_set(args, run_seconds)
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    report(results, spec)


if __name__ == "__main__":
    main()
