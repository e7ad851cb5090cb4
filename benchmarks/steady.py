"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 benchmarks/steady.py --runs 10 [--workloads certify table1] [--save FILE]
        [--against FILE] [--seed-base N]

Each run is ``run.py`` in its own process with another seed and the run
length of ``BENCHMARK.json``.  For every workload and end-to-end metric it
prints the median, the quartile spread (Q3 - Q1 over the median, by
``statistics.quantiles(values, n=4)``) against the metric's bound, and the
share of failed operations, which must be the same in every run.  Each
metric is also shown unscaled (plain seconds, from the run's ``unscaled``
line), as a median and a spread, so that a change read from the scaled
figures can be checked against them.
``--save`` writes the results; ``--against`` compares the medians, scaled
and unscaled, with a saved earlier set and flags any scaled metric that
got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["scale"] = next(float(line.split()[2]) for line in lines if line.startswith("speed scale"))
    result["unscaled"] = next(json.loads(line.split(" ", 1)[1])
                              for line in lines if line.startswith("unscaled "))
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    steady = True
    for workload in names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(spec["command"], workload, args.seed_base + i, spec["run_seconds"]))
            print(f"  {workload} run {i + 1}/{args.runs}: {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: correct={correct} failed shares={sorted(shares)} "
              f"run wall {min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s "
              f"speed scales {' '.join(format(r['scale'], '.3f') for r in runs)}")
        steady &= correct and len(shares) == 1
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            held = s < m["bound"]
            steady &= held
            verdict = "ok" if s < m["bound"] / 3 else "within bound" if held else "TOO WIDE"
            print(f"  {name:<14} median {statistics.median(values):<14.6g} spread {s:7.2%} "
                  f"bound {m['bound']:.0%} {verdict}  [{' '.join(f'{v:.4g}' for v in values)}]")
            raw = [r["unscaled"][name] for r in runs]
            print(f"  {'  unscaled':<14} median {statistics.median(raw):<14.6g} spread {spread(raw):7.2%}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results))
    if args.against:
        earlier = json.loads(args.against.read_text())
        for workload, runs in results.items():
            for name, m in metrics.items():
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                new = statistics.median(r["metrics"][name]["value"] for r in runs)
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "WORSE THAN BOUND" if worse > m["bound"] else "ok"
                steady &= worse <= m["bound"]
                raw_old = statistics.median(r["unscaled"][name] for r in earlier[workload])
                raw_new = statistics.median(r["unscaled"][name] for r in runs)
                print(f"{workload} {name}: median {old:.6g} -> {new:.6g} ({worse:+.2%} worse) {flag}; "
                      f"unscaled {raw_old:.6g} -> {raw_new:.6g} ({raw_new / raw_old - 1.0:+.2%})")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
