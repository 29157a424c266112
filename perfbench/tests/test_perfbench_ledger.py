"""The benchmark's own rules: the tail-percentile rule, failure
accounting and self time."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from ledger import (  # noqa: E402
    nearest_rank,
    oracle_failures,
    repeat_failures,
    self_times,
    tail_percentile,
)

ORACLE = {
    "volunteer/a": {"verdict": "violated",
                    "violated_property_ids": ["P06"], "violations": 2},
    "volunteer/b": {"verdict": "safe", "violated_property_ids": [],
                    "violations": 0},
    "volunteer/c": {"verdict": "safe", "violated_property_ids": [],
                    "violations": 0},
}


def _record(key, **overrides):
    record = dict(ORACLE[key], id=key, latency_s=0.1, states=10,
                  transitions=20)
    record.update(overrides)
    return record


class TestTailPercentile:
    def test_p85_at_the_workload_sample_counts(self):
        # 70 volunteer verdicts and 120 service submissions both leave
        # p85 as the highest percentile with ten samples beyond it
        assert tail_percentile(70) == 85
        assert tail_percentile(120) == 85

    def test_more_samples_allow_a_higher_percentile(self):
        assert tail_percentile(200) == 95
        assert tail_percentile(1000) == 99

    def test_fewer_samples_fall_back_or_allow_none(self):
        assert tail_percentile(40) == 75
        assert tail_percentile(20) == 50
        assert tail_percentile(6) is None

    def test_nearest_rank(self):
        values = list(range(1, 71))  # 1..70
        assert nearest_rank(values, 85) == 60  # ten samples beyond
        assert nearest_rank(values, 50) == 35
        assert nearest_rank([3.0], 85) == 3.0


class TestFailureAccounting:
    def test_matching_answers_do_not_fail(self):
        verdicts = [_record(key) for key in ORACLE]
        assert oracle_failures(verdicts, ORACLE) == []

    def test_wrong_answer_and_errored_job_each_fail(self):
        verdicts = [
            _record("volunteer/a", violated_property_ids=["P06", "P08"]),
            {"id": "volunteer/b", "latency_s": 0.2,
             "error": "RuntimeError: boom"},
            _record("volunteer/c"),
        ]
        failures = oracle_failures(verdicts, ORACLE)
        assert [key for key, _ in failures] == ["volunteer/a", "volunteer/b"]
        assert "expected" in failures[0][1]
        assert "boom" in failures[1][1]

    def test_a_wrong_violation_count_fails(self):
        failures = oracle_failures([_record("volunteer/a", violations=3)],
                                   ORACLE)
        assert len(failures) == 1

    def test_unknown_configuration_fails(self):
        failures = oracle_failures(
            [dict(_record("volunteer/a"), id="volunteer/zz")], ORACLE)
        assert failures == [("volunteer/zz", "no oracle answer")]

    def test_traced_pass_must_repeat_counts(self):
        untraced = {"verdicts": [_record("volunteer/a"),
                                 _record("volunteer/b")]}
        traced = {"verdicts": [_record("volunteer/a"),
                               _record("volunteer/b", states=11)]}
        assert repeat_failures(untraced, untraced) == []
        assert [key for key, _ in repeat_failures(untraced, traced)] == [
            "volunteer/b"]


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "verdict", "start": 0.0, "end": 10.0,
         "parent": None},
        {"id": 1, "name": "engine.run", "start": 1.0, "end": 9.0,
         "parent": 0},
        {"id": 2, "name": "engine.explore", "start": 1.0, "end": 7.0,
         "parent": 1},
        {"id": 3, "name": "engine.canonicalize", "start": 7.0, "end": 8.0,
         "parent": 1},
    ]
    table = self_times(spans)
    assert table["verdict"]["self_s"] == 2.0
    assert table["engine.run"]["self_s"] == 1.0
    assert table["engine.explore"]["self_s"] == 6.0
    assert table["engine.run"]["total_s"] == 8.0
