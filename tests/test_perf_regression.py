"""The CI perf-regression diff over the Table-8 bench artifact."""

import importlib.util
import os

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "check_perf_regression.py")
_spec = importlib.util.spec_from_file_location("check_perf_regression",
                                               _SCRIPT)
check_perf_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf_regression)


def _doc(trajectory_sps, compiled_sps, deep_sps=None):
    document = {
        "trajectory": [{"events": 3, "states_per_second": trajectory_sps}],
        "engine_modes": {"compiled": {"states_per_second": compiled_sps}},
    }
    if deep_sps is not None:
        document["deep_run"] = {
            "events": 4,  # scalar entries must be ignored, not crash
            "fingerprint": {"states_per_second": deep_sps},
        }
    return document


class TestCompare:
    def test_no_regression_within_threshold(self):
        regressions = check_perf_regression.compare(
            _doc(10000, 20000), _doc(8500, 17000))
        assert regressions == []

    def test_flags_mode_beyond_threshold(self):
        regressions = check_perf_regression.compare(
            _doc(10000, 20000, deep_sps=9000),
            _doc(10000, 15000, deep_sps=9000))
        assert [name for name, _, _ in regressions] == [
            "engine_modes.compiled"]

    def test_deep_run_modes_compared(self):
        regressions = check_perf_regression.compare(
            _doc(10000, 20000, deep_sps=10000),
            _doc(10000, 20000, deep_sps=1000))
        assert [name for name, _, _ in regressions] == ["deep_run.fingerprint"]

    def test_new_or_missing_modes_are_skipped(self):
        # a baseline without deep_run must not flag the fresh run's new
        # section, and vice versa
        assert check_perf_regression.compare(
            _doc(10000, 20000), _doc(10000, 20000, deep_sps=1)) == []
        assert check_perf_regression.compare(
            _doc(10000, 20000, deep_sps=1), _doc(10000, 20000)) == []

    def test_improvements_never_flagged(self):
        assert check_perf_regression.compare(
            _doc(10000, 20000), _doc(30000, 60000)) == []
