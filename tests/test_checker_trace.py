"""Unit tests for the Fig-7 Spin-log renderer."""

import re

import pytest

from repro.engine import verify
from repro.checker.trace import (
    SpinLogRenderer,
    render_result_logs,
    render_violation_log,
)
from repro.properties import build_properties

_LINE_RE = re.compile(
    r"^SmartThings0\.prom:\d+ \(state \d+\) \[.+\]$")


@pytest.fixture()
def fig7(alice_system):
    result = verify(alice_system, build_properties(), max_events=1)
    return result.counterexample_for("P06")


class TestLogFormat:
    def test_every_body_line_matches_spin_format(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        body = [line for line in log.splitlines()
                if line.startswith("SmartThings0")]
        assert body
        for line in body:
            assert _LINE_RE.match(line), line

    def test_footer_has_assertion(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "spin: _spin_nvr.tmp:3, Error: assertion violated" in log
        assert "spin: text of failed assertion: assert(" in log

    def test_state_numbers_increase(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        states = [int(m.group(1))
                  for m in re.finditer(r"\(state (\d+)\)", log)]
        assert states == sorted(states)

    def test_line_numbers_stable_per_statement(self, alice_system, fig7):
        """The same Promela statement always renders at the same line,
        like a statement at a fixed position in a generated .prom file."""
        log = render_violation_log(alice_system, fig7)
        lines_by_statement = {}
        for match in re.finditer(r":(\d+) \(state \d+\) \[(.+)\]", log):
            line_number, statement = match.groups()
            lines_by_statement.setdefault(statement, set()).add(line_number)
        for statement, line_numbers in lines_by_statement.items():
            assert len(line_numbers) == 1, statement


class TestFig7Vocabulary:
    """The rendered log must use the paper's Figure-7 vocabulary."""

    def test_generated_event(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "generatedEvent.evtType = notpresent" in log

    def test_sub_notifiers(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "subNotifiers" in log

    def test_location_mode_assignment(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "location.mode = Away" in log

    def test_st_command(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "ST_Command.evtType = unlock" in log

    def test_device_array_state_update(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert re.search(r"g_ST\w+Arr\.element\[.+\]\.currentLock = unlocked",
                         log)

    def test_property_comment(self, alice_system, fig7):
        log = render_violation_log(alice_system, fig7)
        assert "P06" in log


class TestFiltering:
    def test_filtered_drops_log_steps(self, alice_system, fig7):
        filtered = render_violation_log(alice_system, fig7, filtered=True)
        raw = render_violation_log(alice_system, fig7, filtered=False)
        assert len(raw.splitlines()) >= len(filtered.splitlines())
        assert "printf" not in filtered


class TestRenderResultLogs:
    def test_all_counterexamples_rendered(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        logs = render_result_logs(alice_system, result)
        assert len(logs) == len(result.counterexamples)
        for property_id, log in logs:
            assert property_id.startswith("P")
            assert "assertion violated" in log

    def test_limit_respected(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=2)
        logs = render_result_logs(alice_system, result, limit=1)
        assert len(logs) == 1

    def test_renderer_reusable(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        renderer = SpinLogRenderer(alice_system)
        ces = list(result.counterexamples.values())
        first = renderer.render(ces[0])
        second = renderer.render(ces[0])
        assert first == second
