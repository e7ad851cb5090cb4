"""Benchmark of mlebounds: bound certification and the Monte Carlo harness.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 15 --trace 0

Runs one workload (table1, trial-heavy or certify) for the given number of
seconds, in whole rounds, checks every output against an independent
oracle, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate, the metrics are the per-layer ones plus the tracing overhead,
and the spans are written to ``benchmarks/out/``.  ``--smoke`` shrinks every workload to a
size that runs in seconds.  The program is imported from ``src/`` of the
checkout the script sits in; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21

# name, unit; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("call_us_p50", "us"),
    ("call_us_tail", "us"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("montecarlo.sample_model.calls", "count"),
    ("montecarlo.sample_model.s", "s"),
    ("montecarlo.sample_model.draws_per_s", "1/s"),
    ("montecarlo.iter_mle_chunks.chunks", "count"),
    ("montecarlo.iter_mle_chunks.self_s", "s"),
    ("montecarlo.run_simulation.self_s", "s"),
    ("moments.expected_h_of_z.calls", "count"),
    ("moments.expected_h_of_z.s", "s"),
    ("moments.third_abs_moment.calls", "count"),
    ("moments.third_abs_moment.s", "s"),
    ("moments.mse_closed_form.calls", "count"),
    ("moments.mse_closed_form.s", "s"),
    ("special.integrate_interval.calls", "count"),
    ("special.integrate_interval.s", "s"),
    ("special.integrate_interval.evals", "count"),
    ("models.make_model.calls", "count"),
    ("models.make_model.s", "s"),
    ("models.d_is_identity.calls", "count"),
    ("models.d_is_identity.s", "s"),
    ("models.sup_abs_d_second.calls", "count"),
    ("models.sup_abs_d_second.s", "s"),
    ("models.fisher_info.calls", "count"),
    ("models.fisher_info.s", "s"),
    ("bounds.expfam_bound.self_s", "s"),
    ("bounds.theorem_bound.s", "s"),
    ("bounds.closed_form.s", "s"),
    ("bounds.TestFunction.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table1", "trial-heavy", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all checks on")
    return parser.parse_args(argv)


def load_program() -> None:
    if not (SRC / "mlebounds" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _set_up_once(keys):
    """Import the program afresh, certify the test function, build the models."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mlebounds"]:
        del sys.modules[name]
    start = time.perf_counter()
    mb = importlib.import_module("mlebounds")
    importlib.import_module("mlebounds.cli")
    h = mb.reference_test_function()
    models = {key: mb.make_model(key[0], **dict(key[1])) for key in keys}
    return start, time.perf_counter(), mb, h, models


def _no_probe(t0: float, t1: float) -> float:
    return 0.0


def set_up(workloads, busy=_no_probe):
    """Set up ``SETUP_REPEATS`` times, each with fresh imports.  Returns every
    set-up as (seconds less probe time, start, end), and the last set-up."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start, end, mb, h, models = _set_up_once(workloads.all_family_keys())
        setups.append((end - start - busy(start, end), start, end))
    if not Path(mb.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mlebounds from {mb.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return setups, workloads.Env(mb, h, models)


class Rounds:
    """Outcomes of the measured rounds.  The first round keeps its values for
    the checks; each later round is compared with it as soon as it ends and
    then keeps only its timings and errors, so memory does not grow with
    the run length."""

    def __init__(self, workloads, ops) -> None:
        self.workloads = workloads
        self.ops = ops
        self.outcomes: list[list] = []
        self.walls: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.problems: list[str] = []

    def run(self, seconds: float, count: int | None = None, busy=_no_probe) -> None:
        """Run whole rounds, at least one, until the time passed plus half the
        last round reaches ``seconds``, or exactly ``count`` more rounds.
        ``busy(t0, t1)`` is the probe time inside [t0, t1], taken out of
        every timing."""
        start = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            outcomes = self.workloads.run_round(self.ops)
            t1 = time.perf_counter()
            self.intervals.append((t0, t1))
            self.walls.append(t1 - t0 - busy(t0, t1))
            for outcome in outcomes:
                outcome.seconds = outcome.end - outcome.start - busy(outcome.start, outcome.end)
                if outcome.error is not None:
                    outcome.error.__traceback__ = None  # keeps no frames alive
            if self.outcomes:
                self.problems += self.workloads.check_repeat(self.ops, self.outcomes[0], outcomes)
                for outcome in outcomes:
                    outcome.value = None
            self.outcomes.append(outcomes)
            done += 1
            if count is not None:
                if done == count:
                    break
            elif time.perf_counter() - start + 0.5 * (t1 - t0) >= seconds:
                break


def tail_latency(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, capped at
    p99 (nearest rank); with fewer than 40 samples that would be no tail,
    and the median stands in."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 40:
        return statistics.median(ordered)
    beyond = max(10, count // 100)
    return ordered[count - beyond - 1]


def end_to_end(rounds: Rounds, failing: dict, setups: list, peak_mb: float, scale) -> dict:
    """The end-to-end metrics, every time multiplied by ``scale(t0, t1)``
    for the interval it was measured in (see speed.py).  Failed operations
    are left out.  Work per second is taken per round and the median
    reported, so a few slowed rounds do not move it."""
    latencies, rates = [], []
    for outcomes, wall, interval in zip(rounds.outcomes, rounds.walls, rounds.intervals):
        factor = scale(*interval)
        work = 0
        for i, (op, outcome) in enumerate(zip(rounds.ops, outcomes)):
            if outcome.error is None and i not in failing:
                latencies.append(outcome.seconds * factor * 1e6)
                work += op.work
        rates.append(work / (wall * factor))
    return {
        "setup_s": statistics.median(s * scale(t0, t1) for s, t0, t1 in setups),
        "work_per_s": statistics.median(rates),
        "call_us_p50": statistics.median(latencies),
        "call_us_tail": tail_latency(latencies),
        "peak_rss_mb": peak_mb,
    }


def _unscaled(t0: float, t1: float) -> float:
    return 1.0


def per_layer(tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer figures per traced round; the traced set-up and warm-up are
    included once, which keeps every layer measured on every workload."""
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for name, _unit in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead_pct":
            out[name] = overhead_pct
        elif stat == "draws_per_s":
            seconds = totals.get(span, {}).get("s", 0.0)
            out[name] = counts[span + ".draws"] / seconds if seconds else 0.0
        elif stat in ("s", "self_s"):
            out[name] = totals.get(span, {}).get(stat, 0.0) / rounds
        else:
            out[name] = counts[name] / rounds
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  -- imported before set-up so set-up times the program alone

    import speed
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        import tracing

        # Traced and untraced rounds alternate, so a drift in the machine's
        # speed does not read as tracing overhead.  Per-layer figures are
        # raw seconds: no speed probe runs inside the spans.
        _, env = set_up(workloads)
        ops = workload.build(env, args.seed, sizes)
        workloads.warm_up(env)
        rounds = Rounds(workloads, ops)
        tracer = tracing.Tracer()
        with tracer:
            env.mb.reference_test_function()
            for key in env.models:
                env.mb.make_model(key[0], **dict(key[1]))
            workloads.warm_up(env)
        start = time.perf_counter()
        while True:
            rounds.run(0.0, count=1)
            with tracer:
                rounds.run(0.0, count=1)
            pair = sum(rounds.walls[-2:])
            if time.perf_counter() - start + 0.5 * pair >= args.seconds:
                break
        untraced, traced = rounds.walls[0::2], rounds.walls[1::2]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    else:
        with speed.SpeedProbe() as probe:
            setups, env = set_up(workloads, probe.busy)
            ops = workload.build(env, args.seed, sizes)
            workloads.warm_up(env)
            rounds = Rounds(workloads, ops)
            rounds.run(args.seconds, busy=probe.busy)
        peak = peak_rss_mb()
        scale = probe.scale(rounds.intervals[0][0], rounds.intervals[-1][1])
        print(f"speed scale {scale:.4f} from {len(probe.starts)} probes over the rounds")

    problems, failing = workload.check(env, ops, rounds.outcomes[0])
    problems += rounds.problems
    faults: dict[str, int] = {}
    attempted = failed = 0
    for outcomes in rounds.outcomes:
        for i, outcome in enumerate(outcomes):
            attempted += 1
            fault = failing.get(i, "unexpected" if outcome.error is not None else None)
            if fault is not None:
                failed += 1
                faults[fault] = faults.get(fault, 0) + 1
    if args.trace:
        metrics = per_layer(tracer, len(traced), overhead)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(rounds, failing, setups, peak, probe.scale)
        units = dict(END_TO_END)
        # The same figures in plain seconds: probe time taken out, not scaled.
        print("unscaled " + json.dumps(end_to_end(rounds, failing, setups, peak, _unscaled)))

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(rounds.outcomes)} rounds, {attempted} attempted, "
        f"{failed} failed {json.dumps(faults)}, {len(problems)} check failures"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
