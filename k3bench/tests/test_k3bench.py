"""Self-tests of the k3bench harness.

    PYTHONPATH=src python3 -m pytest k3bench/tests -q
"""

import argparse
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
SMALL_PRIMES = [p for p in workloads.CENSUS_PRIMES if p <= 31]


def span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
        span("c", 6.0, 11.0, 0),  # overlaps b and runs past its parent's end
        span("other", 12.0, 13.0, -1),
    ]
    # root: children cover [1, 4] and [5, 10] once each -> 10 - 3 - 5
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 2.0, 5.0, 1.0]


def test_percentile_keeps_ten_samples_beyond_what_it_reports():
    for n in range(1, 120):
        values = list(range(n))
        for q in (50, 75, 90, 95, 99):
            got = run.percentile(values, q)
            if got is not None:
                assert sum(v > got for v in values) >= 10, (n, q)
    assert run.percentile(range(40), 75) == 29
    assert run.percentile(range(39), 75) is None


def bench_run(workload, tmp_path):
    args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=0)
    r = run.Run(args, tmp_path)
    r.inputs = workloads.setup(workload, tmp_path)
    return r


def test_wrong_golden_digest_counts_as_failed_operation(tmp_path):
    r = bench_run("census", tmp_path)
    assert all(op.ok for op in r.run_pass([3, 7], r.op_fn()))
    r.golden = json.loads(json.dumps(r.golden))
    r.golden["7"]["invariants"] = "0" * 64
    ops = r.run_pass([3, 7], r.op_fn())
    assert [op.ok for op in ops] == [True, False]
    assert "golden mismatch" in ops[1].note


def test_wrong_golden_digest_fails_a_cli_call(tmp_path):
    r = bench_run("cli", tmp_path)
    mix = [["k3", "fm-count", "-d", "12"], ["lattice", "signature", "--gram", "1,2;3"]]
    assert all(op.ok for op in r.run_pass(mix, r.op_fn()))
    r.golden = json.loads(json.dumps(r.golden))
    r.golden["k3 fm-count -d 12"]["stdout"] = "0" * 64
    assert [op.ok for op in r.run_pass(mix, r.op_fn())] == [False, True]


@pytest.mark.parametrize("workload,items", [
    ("census", SMALL_PRIMES), ("fibers", [(1, 2)])])
def test_traced_and_untraced_outputs_are_identical(workload, items, tmp_path):
    r = bench_run(workload, tmp_path)
    plain = r.run_pass(items, r.op_fn())
    tracer = tracing.Tracer()
    original = r.inputs.k3lat.census.same_genus
    tracer.install()
    try:
        assert r.inputs.k3lat.census.same_genus is not original
        traced = r.run_pass(items, r.op_fn(), tracer)
    finally:
        tracer.uninstall()
    assert r.inputs.k3lat.census.same_genus is original
    assert all(op.ok for op in plain + traced)
    assert [op.observed for op in plain] == [op.observed for op in traced]
    metrics = tracer.metrics()
    busy = "genus.same_genus.calls" if workload == "census" else "cm.solve_lambda.calls"
    assert metrics[busy][0] > 0


def test_printed_metric_names_match_benchmark_json():
    passes = [[workloads.Op("x", 0.5, True)]]
    assert list(run.end_to_end("census", passes, [(1.0, 1.0)])) == [
        m["name"] for m in BENCHMARK["end_to_end"]]
    layers = set(tracing.Tracer().metrics()) | {
        "cli.import_s", "cli.run_ms", "cli.spawn_ms", "trace.overhead_ratio", "host.ref_s"}
    assert layers == {m["name"] for m in BENCHMARK["per_layer"]}
