"""The benchmark's correctness contract, held at Tier-1.

`perfbench/run.py` checks every round it plays against the outcomes and
report digests in `perfbench/reference/`, and traces rounds by swapping
module attributes by name. Block 0 of each workload is played here once
plain and once traced, so that a change of outcome, report bytes or a traced
name fails these tests before it fails the benchmark. A traced name that is
still swapped but no longer called (say, a function the game loop stopped
looking up by that name) would read 0 in a per-layer metric; the traced
round must therefore reach every layer it reached before.
"""

import importlib
from pathlib import Path

import pytest

from rolecomms import bench, cli, table_sim

ROOT = Path(__file__).resolve().parent.parent


_BENCH_SPANS = {
    "bench.run_benchmark",
    "bench.env_hash",
    "bench.run_chunk",
    "bench.report_json",
    "bench.report_csv",
    "bench.evaluate_asserts",
}
_GAME_SPANS = {
    "table_sim.generate_environment",
    "table_sim.run_game",
    "potential_field.field_eval",
    "table_sim.infer_obstacle",
    "table_sim.corrupt",
}
# the span names with at least one call in a traced round of block 0
TRACED_LAYERS = {
    "table1": _BENCH_SPANS | _GAME_SPANS,
    "noise-w2": _BENCH_SPANS
    | _GAME_SPANS
    | {"bench.pool_wait", "trace.merge", "numerics.gaussian", "table_sim.closest_observed_index"},
    "simulate-trace": _GAME_SPANS
    | {"table_sim.closest_observed_index", "table_sim.trajectory_csv_lines"},
}
# calls in a traced round of block 0. Environments: one per (n, geometry) key
# and seed for the bench workloads, one per game for simulate-trace. The noise
# channel: a corrupt call per message or inferred velocity, even at cv = 0, and
# a gaussian call per component at cv > 0; a corrupt that skipped gaussian, or
# reached either by a name the tracer does not swap, would read fewer. The
# listener: one infer_obstacle call per listener step, so an inversion that
# placed its obstacle elsewhere would change the steps played, and these counts.
# The field law: one call per agent per step, so a cheaper law must show as
# cheaper calls, not fewer.
TRACED_CALLS = {
    "table1": {
        "potential_field.field_eval": 43_740,
        "table_sim.generate_environment": 60,
        "table_sim.corrupt": 17_970,
        "table_sim.infer_obstacle": 17_970,
    },
    "noise-w2": {
        "potential_field.field_eval": 74_936,
        "table_sim.generate_environment": 75,
        "table_sim.corrupt": 56_786,
        "numerics.gaussian": 152_208,
        "table_sim.infer_obstacle": 18_150,
    },
    "simulate-trace": {
        "potential_field.field_eval": 14_960,
        "table_sim.generate_environment": 96,
        "table_sim.corrupt": 5_977,
        "table_sim.infer_obstacle": 3_824,
    },
}
# the tracer's inference counters in the same round: inferences of nothing, and
# residuals saturated at the distance floor. Under channel noise (noise-w2)
# the listener never infers nothing; no workload saturates.
TRACED_COUNTERS = {
    "table1": {"table_sim.infer_obstacle.none": 10_284},
    "noise-w2": {},
    "simulate-trace": {"table_sim.infer_obstacle.none": 1_816},
}


@pytest.fixture()
def perfbench_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return run


def test_block_0_matches_the_reference_plain_and_traced(perfbench_run):
    run = perfbench_run
    tracing = importlib.import_module("tracing")
    for name in run.WORKLOADS:
        reference = run.load_reference(name)[0]
        workload = run.Workload(name, ROOT, bench, table_sim, cli)
        plain = workload.play_round(0)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, bench, table_sim)
        try:
            traced = workload.play_round(0)
        finally:
            tracing.uninstall(saved)
        summary = tracer.summary()
        called = {span for span, entry in summary.items() if entry["calls"] > 0}
        assert called == TRACED_LAYERS[name], name
        assert {span: summary[span]["calls"] for span in TRACED_CALLS[name]} == TRACED_CALLS[name], name
        inference = {key: value for key, value in tracer.counters.items() if key.startswith("table_sim.infer_obstacle.")}
        assert inference == TRACED_COUNTERS[name], name
        for result in (plain, traced):
            attempted, failed, problems = run.check_round(result, reference)
            assert (attempted, failed, problems) == (len(reference["rows"]), 0, []), name
