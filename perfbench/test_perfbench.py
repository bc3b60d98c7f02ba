"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import json
import os
import sys
from pathlib import Path

import pytest

import calibrate
import run
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.tail_resolvable(1000, 99)
    assert not stats.tail_resolvable(999, 99)
    assert stats.tail_resolvable(20, 50)
    assert stats.tail_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(999)), 99)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] calls a [1, 3] and b [4, 8]; b calls c [5, 6]
    durations = [10.0, 2.0, 4.0, 1.0]
    parents = [-1, 0, 0, 2]
    assert stats.self_times(durations, parents) == [4.0, 2.0, 3.0, 1.0]


def test_tracer_records_nesting_and_seeds():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    game = tracer.wrap("game", lambda env, seed: leaf(leaf(seed)), seed_arg=1)
    assert game(None, 41) == 43
    summary = tracer.summary()
    assert summary["game"]["calls"] == 1 and summary["leaf"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.seed_of) == [41, 41, 41]
    assert summary["game"]["self_s"] == pytest.approx(summary["game"]["total_s"] - summary["leaf"]["total_s"])
    assert tracer.seed == -1


def test_merge_keeps_worker_roots_as_roots():
    worker = tracing.Tracer()
    worker.wrap("chunk", lambda: worker.wrap("leaf", lambda: None)())()
    worker.add("busy", 1.5)
    parent = tracing.Tracer()
    parent.wrap("bench", lambda: None)()
    parent.merge(worker.export())
    assert list(parent.parent) == [-1, -1, 1]
    assert [parent.names[i] for i in parent.name] == ["bench", "chunk", "leaf"]
    assert parent.counters == {"busy": 1.5}


def test_count_mismatches():
    reference = {"0:1": "73n", "0:2": "41c"}
    assert stats.count_mismatches({"0:1": "73n", "0:2": "41c"}, reference) == (2, 0)
    assert stats.count_mismatches({"0:1": "73n", "0:2": "42c"}, reference) == (2, 1)
    assert stats.count_mismatches({"0:9": "73n"}, reference) == (1, 1)


def test_report_digest_ignores_the_fingerprint():
    a = json.dumps({"fingerprint": "sha256:aa", "conditions": [1]})
    b = json.dumps({"fingerprint": "sha256:bb", "conditions": [1]})
    c = json.dumps({"fingerprint": "sha256:aa", "conditions": [2]})
    assert run.report_digest(a) == run.report_digest(b) != run.report_digest(c)


def test_rates_are_per_reference_second():
    # the loop took twice its reference time: the machine ran at half speed
    slow = calibrate.reference_per_wall(2 * calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S)
    assert slow == pytest.approx(0.5)
    rounds = [{"games": 300, "wall_s": 0.6, "ref_per_wall": slow}]
    assert run.per_round_rate(rounds, "games") == pytest.approx(1000.0)
    assert run.per_round_rate(rounds, "games", scaled=False) == pytest.approx(500.0)


def test_calibration_restores_the_affinity():
    allowed = os.sched_getaffinity(0)
    assert calibrate.loop_seconds(sorted(allowed)) > 0
    assert os.sched_getaffinity(0) == allowed


@pytest.fixture(scope="module")
def table1_round():
    from rolecomms import bench, cli, table_sim

    workload = run.Workload("table1", ROOT, bench, table_sim, cli)
    return workload.play_round(0)


def test_round_matches_the_recorded_reference(table1_round):
    reference = run.load_reference("table1")[0]
    attempted, failed, problems = run.check_round(table1_round, reference)
    assert (attempted, failed, problems) == (300, 0, [])


def test_perturbed_outcome_row_counts_as_failed(table1_round):
    reference = run.load_reference("table1")[0]
    key = sorted(reference["rows"])[7]
    steps = int(reference["rows"][key][:-1])
    reference["rows"][key] = run.outcome_token(steps + 1, "none")
    attempted, failed, _ = run.check_round(table1_round, reference)
    assert failed / attempted == 1 / 300
