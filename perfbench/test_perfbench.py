"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The arithmetic and the failure accounting are pinned on hand-checked
inputs; each workload runs once at its smoke size through the same entry
point the benchmark uses and must pass every check.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats  # noqa: E402
from perfbench.harness import (  # noqa: E402
    END_TO_END_UNITS, PER_LAYER_UNITS, Report, check_expected,
)
from perfbench.spans import SpanRecorder  # noqa: E402


class TestArithmetic:
    def test_median_odd_and_even(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_of_nothing_raises(self):
        with pytest.raises(ValueError):
            stats.median([])

    def test_quartiles_match_the_standard_library(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 11.0, 2.0, 8.0, 4.0, 6.0]
        assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_quartiles_of_one_sample(self):
        assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)

    def test_iqr_share(self):
        # quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5
        assert stats.iqr_share([float(v) for v in range(1, 10)]) == pytest.approx(1.0)

    def test_iqr_share_rejects_zero_median(self):
        with pytest.raises(ValueError):
            stats.iqr_share([0.0, 0.0, 0.0])

    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert stats.percentile(values, 0) == 10.0
        assert stats.percentile(values, 50) == 30.0
        assert stats.percentile(values, 100) == 50.0
        assert stats.percentile(values, 90) == pytest.approx(46.0)
        assert stats.percentile(list(range(101)), 99) == pytest.approx(99.0)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        assert stats.tail_percentile(10000) == 99.9
        assert stats.tail_percentile(1000) == 99.0
        assert stats.tail_percentile(999) == 90.0
        assert stats.tail_percentile(20) == 50.0

    def test_summarize(self):
        summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary["median"] == 3.0 and summary["n"] == 5
        assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
        assert summary["iqr_share"] == pytest.approx(1.0)


class TestFailureAccounting:
    def test_checks_count_attempts_and_failures(self):
        outcome = stats.Outcome()
        assert outcome.check(True, "fine")
        assert not outcome.check(False, "broken")
        assert (outcome.attempted, outcome.failed) == (2, 1)
        assert outcome.failures == ["broken"]
        assert not outcome.correct

    def test_nothing_attempted_is_not_correct(self):
        assert not stats.Outcome().correct

    def test_batches(self):
        outcome = stats.Outcome()
        outcome.add(10, 0, "replies")
        assert outcome.correct and outcome.attempted == 10
        outcome.add(5, 2, "more")
        assert (outcome.attempted, outcome.failed) == (15, 2)
        assert outcome.failures == ["more: 2 of 5 failed"]

    def test_bad_batch_raises(self):
        with pytest.raises(ValueError):
            stats.Outcome().add(1, 2)


class TestExpectedWitnesses:
    WITNESS = {"counters": {"events": 10}, "fingerprints": {"piece_sets": "ab"}}

    def _report(self, witnesses):
        report = Report("paper_t7", 1, "full", trace=False)
        report.witnesses = witnesses
        return report

    def test_matching_units_pass(self):
        report = self._report({"instance0": self.WITNESS})
        check_expected(report, {"paper_t7": {"full": {"1": {"instance0": self.WITNESS}}}})
        assert report.outcome.correct and report.outcome.attempted == 1

    def test_changed_result_fails(self):
        changed = {"counters": {"events": 11}, "fingerprints": {"piece_sets": "ab"}}
        report = self._report({"instance0": changed, "instance1": self.WITNESS})
        check_expected(report, {"paper_t7": {"full": {"1": {"instance0": self.WITNESS}}}})
        assert (report.outcome.attempted, report.outcome.failed) == (2, 2)

    def test_unrecorded_seed_is_only_noted(self):
        report = self._report({"instance0": self.WITNESS})
        check_expected(report, {"paper_t7": {"full": {"2": {"instance0": self.WITNESS}}}})
        assert report.outcome.attempted == 0
        assert "no committed" in report.notes["expected"]


class TestSpans:
    def test_self_time_excludes_children(self):
        recorder = SpanRecorder()
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        recorder.clock = lambda: next(ticks)
        with recorder.span("engine.event"):
            with recorder.span("select.next_request"):
                pass
        aggregates = recorder.aggregates()
        assert aggregates["engine.event"] == {"calls": 1, "total_s": 10.0, "self_s": 8.0}
        assert aggregates["select.next_request"]["self_s"] == 2.0
        assert list(recorder.parents) == [-1, 0]

    def test_cap_keeps_aggregates_exact(self):
        recorder = SpanRecorder(cap=1)
        for __ in range(3):
            with recorder.span("have.fanout"):
                pass
        assert recorder.aggregates()["have.fanout"]["calls"] == 3
        assert len(recorder.starts) == 1 and recorder.dropped == 2


def _run(workload: str, trace: int, tmp_seed: int = 3):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(tmp_seed), "--seconds", "2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload", ["paper_t7", "mega_swarm", "table1_campaign", "tracker_wire"]
)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        if not trace:
            assert entry["value"] > 0, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
