"""The benchmark's correctness contract, held at Tier-1.

`perfbench/run.py` checks every round it plays against the outcomes and
report digests in `perfbench/reference/`, and traces rounds by swapping
module attributes by name. Block 0 of each workload is played here once
plain and once traced, so that a change of outcome, report bytes or a traced
name fails these tests before it fails the benchmark.
"""

import importlib
from pathlib import Path

import pytest

from rolecomms import bench, cli, table_sim

ROOT = Path(__file__).resolve().parent.parent


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
        saved = tracing.install(tracing.Tracer(), bench, table_sim)
        try:
            traced = workload.play_round(0)
        finally:
            tracing.uninstall(saved)
        for result in (plain, traced):
            attempted, failed, problems = run.check_round(result, reference)
            assert (attempted, failed, problems) == (len(reference["rows"]), 0, []), name
