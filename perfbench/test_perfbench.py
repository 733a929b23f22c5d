"""Self-tests for the benchmark harness.

    python3 -m pytest -q perfbench

The invocation tests spawn the real CLI on a small histogram run, so they
take some seconds each.
"""

import dataclasses
import json

import pytest

import run
import spans
from workloads import WORKLOADS

TINY = dataclasses.replace(WORKLOADS["histogram_realistic"], overrides=("run.duration_s=0.05",))
SELFTEST = run.WORK / "selftest"


def test_self_time_is_busy_time_minus_child_spans():
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a: together they cover 1..5
        spans.Span("b.leaf", 2.5, 3.0, 2),
        spans.Span("c", 9.0, 12.0, 0),  # runs past the root: only 9..10 is inside it
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 3.0 - 0.5, 0.5, 3.0])


def test_self_time_of_disjoint_children_is_busy_minus_their_sum():
    tree = [spans.Span("root", 0.0, 4.0, -1), spans.Span("x", 0.5, 1.0, 0), spans.Span("y", 2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0 - 0.5 - 1.5)


def _record(calls: dict) -> dict:
    recorded = [["cli.main", 0.0, 1.0, -1]]
    for name, n in calls.items():
        recorded += [[name, 0.1, 0.2, 0]] * n
    return {"import_s": 1.0, "exit_code": 0, "spans": recorded, "counts": {}}


def test_traced_run_fails_when_an_expected_span_records_no_call(tmp_path):
    calls = {name: 1 for group in TINY.spans for name in spans.GROUPS[group]}
    metrics = run.layer_metrics(TINY, _record(calls), tmp_path)
    assert metrics["timetags.select.calls"] == 4
    del calls["timetags.find_coincidences"]
    with pytest.raises(run.BenchmarkError, match="timetags.find_coincidences"):
        run.layer_metrics(TINY, _record(calls), tmp_path)


def test_satellite_scan_check_rejects_a_failed_or_wrong_rate_ratio(tmp_path):
    check = WORKLOADS["scan_satellites"].check
    fits = tmp_path / "fringe_fits.json"
    for payload, failing in (
        ({"satellite_rate_ratio": 1.02}, False),
        ({"satellite_rate_ratio": 1.5}, True),
        ({"satellite_rate_ratio_error": "left scan shows no detectable fringe (V < 0.05)"}, True),
        ({}, True),
    ):
        fits.write_text(json.dumps(payload))
        assert bool(check(tmp_path)) == failing, payload


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tampered_output_and_nonzero_exit_raise_failed_share():
    runner = run.Runner(TINY, seed=3, work=SELFTEST)
    first, _ = runner.invoke("first")
    second, second_dir = runner.invoke("second")
    assert first.problems == [] and second.problems == []
    assert run.make_result({}, {}, [first, second])["failed"] == 0

    csv = second_dir / "histogram.csv"
    csv.write_bytes(csv.read_bytes() + b"0,1\n")
    replayed = run.Outcome(second.wall_s, second.rss_mb, 0, runner.judge(0, second_dir))
    assert any("differ" in p for p in replayed.problems)

    peaks = json.loads((second_dir / "peaks.json").read_text())
    peaks["areas"]["central"] = 0
    (second_dir / "peaks.json").write_text(json.dumps(peaks))
    assert any("peak central" in p for p in run.Judge(TINY)(0, second_dir))

    broken = run.Runner(dataclasses.replace(TINY, overrides=("run.pair_rate_hz=-1",)), seed=3, work=SELFTEST)
    crashed, _ = broken.invoke("crashed")
    assert crashed.problems == ["exit code 2"]

    result = run.make_result({}, {}, [first, replayed, crashed])
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)


def test_traced_invocation_records_spans_and_replays_the_plain_outputs():
    metrics, outcomes = run.run_traced(run.Runner(TINY, seed=4, work=SELFTEST), seconds=0)
    assert [o.problems for o in outcomes] == [[], []]
    assert metrics["timetags.simulate_run.calls"] == 1
    assert metrics["timetags.tags"] > 0
    assert metrics["timetags.coincidences"] <= metrics["timetags.candidate_pairs"]
    assert 0.0 < metrics["cli.main.self_s"] < metrics["cli.main_s"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
