"""The benchmark's own tests, with a smoke run of every workload.

    python3 -m pytest benchmarks -q

The smoke runs use ``run.py --smoke``: every workload at tiny sizes, one
round, all checks on, traced and untraced, in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("table1", "trial-heavy", "certify")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_tail_latency_leaves_ten_samples_beyond():
    assert run.tail_latency([float(x) for x in range(1, 1001)]) == 990.0
    assert run.tail_latency([float(x) for x in range(1, 5001)]) == 4950.0
    assert run.tail_latency([float(x) for x in range(1, 101)]) == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == 2.0  # too few for a tail: the median


def test_self_time_excludes_child_spans_and_nesting_is_counted_once():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0]]
    totals = tracer.totals()
    assert totals["a"] == {"s": 10.0, "self_s": 7.0}
    assert totals["b"] == {"s": 3.0, "self_s": 3.0}


def test_tracer_wraps_every_namespace_and_restores_it():
    run.load_program()
    import mlebounds
    from mlebounds import bounds, cli, montecarlo

    before = (bounds.expfam_bound, cli.expfam_bound, mlebounds.expfam_bound, montecarlo.sample_model)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.expfam_bound is bounds.expfam_bound is mlebounds.expfam_bound
        assert cli.expfam_bound is not before[0]
        h = mlebounds.reference_test_function()
        m = mlebounds.make_model("exp-canonical")
        mlebounds.expfam_bound(m, 1.0, 10, 0.5, h, mlebounds.mse_closed_form(m, 10, 1.0))
    finally:
        tracer.uninstall()
    assert (bounds.expfam_bound, cli.expfam_bound, mlebounds.expfam_bound,
            montecarlo.sample_model) == before
    names = {span[0] for span in tracer.spans}
    assert {"bounds.expfam_bound", "bounds.theorem_bound", "bounds.TestFunction",
            "models.d_is_identity", "moments.third_abs_moment"} <= names
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["bounds.theorem_bound"] == "bounds.expfam_bound"


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in expected}
    assert all(m["value"] == m["value"] for m in result["metrics"].values())
    if workload == "certify":
        assert 0 < result["failed"] < result["attempted"]
        summary = done.stdout.strip().splitlines()[-2]
        assert '"numpy-int64-n"' in summary and '"gg-mse-factor-roundoff"' in summary
    else:
        assert result["failed"] == 0
    if trace == "0":
        unscaled = json.loads(done.stdout.strip().splitlines()[-3].split(" ", 1)[1])
        assert set(unscaled) == set(result["metrics"])


@pytest.mark.parametrize("mended", (False, True))
def test_pinned_roundoff_requests_fail_until_the_factor_is_mended(monkeypatch, mended):
    """The pinned gg and Weibull requests count as failed by their fault
    today, and pass every check once gg_mse_factor is exact."""
    run.load_program()
    import oracle
    import workloads

    _, env = run.set_up(workloads)
    if mended:
        monkeypatch.setattr(env.mb.moments, "gg_mse_factor", oracle.gg_mse_factor)
        monkeypatch.setattr(env.mb.bounds, "gg_mse_factor", oracle.gg_mse_factor)
    ops = [op for op in workloads.certify_ops(env, 5, workloads.SMOKE)
           if op.fault == workloads.ROUNDOFF_FAULT]
    assert len(ops) == 10
    problems, failing = workloads.check_certify(env, ops, workloads.run_round(ops))
    assert problems == []
    assert failing == ({} if mended else {i: workloads.ROUNDOFF_FAULT for i in range(len(ops))})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
