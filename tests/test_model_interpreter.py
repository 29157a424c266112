"""Unit tests for the Groovy interpreter: handler semantics end-to-end.

Each test builds a tiny app around one language feature, installs it into
a small system, fires an event, and checks the physical effect - the
interpreter is exercised exactly the way the checker exercises it.
"""

import pytest

from repro.checker.monitor import SafetyMonitor
from repro.config.schema import SystemConfiguration
from repro.model.cascade import Cascade
from repro.model.events import ExternalEvent
from repro.model.generator import ModelGenerator
from repro.properties import build_properties

from tests.helpers import make_app

_PREFS = '''
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "switch1", "capability.switch"
    input "switches", "capability.switch", multiple: true
    input "threshold", "number", required: false
} }
'''


def run_app(body, bindings=None, value="active", extra_devices=()):
    """Install one inline app, fire a motion event, return (state, cascade)."""
    source = ('definition(name: "T", namespace: "t", author: "t", '
              'description: "d", category: "c")\n') + _PREFS + body
    app = make_app(source)
    config = SystemConfiguration()
    config.add_device("m", "smartsense-motion")
    config.add_device("s1", "smart-outlet")
    config.add_device("s2", "smart-outlet")
    for name, type_name in extra_devices:
        config.add_device(name, type_name)
    config.add_app("T", bindings or {"motion1": "m", "switch1": "s1",
                                     "switches": ["s1", "s2"]})
    system = ModelGenerator({"T": app}).build(config)
    state = system.initial_state()
    monitor = SafetyMonitor(system, build_properties())
    cascade = Cascade(system, state, monitor)
    cascade.run_external(ExternalEvent("sensor", device="m",
                                       attribute="motion", value=value))
    return state, cascade


class TestCommandsAndEvents:
    def test_simple_command(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { switch1.on() }
''')
        assert state.attribute("s1", "switch") == "on"

    def test_group_command_hits_every_device(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { switches.on() }
''')
        assert state.attribute("s1", "switch") == "on"
        assert state.attribute("s2", "switch") == "on"

    def test_spread_command(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { switches*.on() }
''')
        assert state.attribute("s2", "switch") == "on"

    def test_event_value_dispatch(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion", h) }
def h(evt) {
    if (evt.value == "active") { switch1.on() } else { switch1.off() }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_value_filter_blocks_other_values(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.inactive", h) }
def h(evt) { switch1.on() }
''', value="active")
        assert state.attribute("s1", "switch") == "off"


class TestControlFlow:
    def test_if_else(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (threshold) { switch1.on() } else { switch1.off() }
}
''')
        assert state.attribute("s1", "switch") == "off"  # threshold unbound

    def test_for_in_over_group(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    for (s in switches) { s.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"
        assert state.attribute("s2", "switch") == "on"

    def test_while_loop(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    def i = 0
    while (i < 2) { switches[i].on()\n i = i + 1 }
}
''')
        assert state.attribute("s2", "switch") == "on"

    def test_switch_statement(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion", h) }
def h(evt) {
    switch (evt.value) {
        case "active": switch1.on()\n break
        default: switch1.off()
    }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_switch_falls_through_until_break(self):
        """Groovy runs the matching case's body and every later body in
        order until a ``break``."""
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion", h) }
def h(evt) {
    switch (evt.value) {
        case "active": switch1.on()
        case "inactive": switches[1].on()
            break
        default: switch1.off()
    }
}
''')
        assert state.attribute("s1", "switch") == "on"
        assert state.attribute("s2", "switch") == "on"

    @pytest.mark.parametrize("subject, s1, s2", [("a", "on", "on"),
                                                 ("b", "off", "on")])
    def test_switch_default_falls_through(self, subject, s1, s2):
        """Without a matching case the run starts at ``default`` and
        falls through the bodies after it."""
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    switch ("%s") {
        default: switch1.on()
        case "b": switches[1].on()
    }
}
''' % subject)
        assert state.attribute("s1", "switch") == s1
        assert state.attribute("s2", "switch") == s2

    def test_ternary_and_elvis(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    def level = threshold ?: 0
    def target = level > 10 ? "skip" : "go"
    if (target == "go") { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_early_return(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (evt.value == "active") { return }
    switch1.on()
}
''')
        assert state.attribute("s1", "switch") == "off"


class TestStateMapAndHelpers:
    def test_persistent_state_map(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    state.count = (state.count ?: 0) + 1
    if (state.count >= 1) { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"
        assert state.app_state("T")["count"] == 1

    def test_private_helper_call(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { turnAllOn() }
private turnAllOn() { switches.on() }
''')
        assert state.attribute("s2", "switch") == "on"

    def test_helper_with_args_and_return(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (pick(switches)) { pick(switches).on() }
}
private pick(list) { return list.first() }
''')
        assert state.attribute("s1", "switch") == "on"

    def test_closure_over_group(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    switches.each { it.on() }
}
''')
        assert state.attribute("s2", "switch") == "on"

    def test_find_all_on_group(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    def offOnes = switches.findAll { it.currentSwitch == "off" }
    offOnes.each { it.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"
        assert state.attribute("s2", "switch") == "on"


class TestDeviceReads:
    def test_current_attribute_read(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (switch1.currentSwitch == "off") { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_current_value_api(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (switch1.currentValue("switch") == "off") { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_latest_value_api(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (switch1.latestValue("switch") != "on") { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"


class TestPlatformAPIs:
    def test_send_sms_recorded(self):
        _state, cascade = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { sendSms("+1-555-0100", "motion!") }
''')
        assert any("SMS" in s.text for s in cascade.steps
                   if s.kind == "message")

    def test_send_push_recorded(self):
        _state, cascade = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { sendPush("motion!") }
''')
        assert any("push" in s.text for s in cascade.steps
                   if s.kind == "message")

    def test_run_in_schedules_callback(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { runIn(600, later) }
def later() { switch1.on() }
''')
        assert ("T", "later", False) in state.schedules

    def test_gstring_interpolation_in_log(self):
        _state, cascade = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { log.debug "motion is ${evt.value}" }
''')
        assert any("motion is active" in s.text for s in cascade.steps
                   if s.kind == "log")

    def test_location_mode_read(self):
        state, _ = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) {
    if (location.mode == "Home") { switch1.on() }
}
''')
        assert state.attribute("s1", "switch") == "on"

    def test_unmodeled_api_logged_not_fatal(self):
        """A call to an unmodeled platform API is logged and skipped -
        exploration must survive arbitrary market-app code."""
        _state, cascade = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { noSuchMethodAnywhere(1, 2, 3)\n switch1.on() }
''')
        assert any("unmodeled API" in s.text for s in cascade.steps
                   if s.kind == "log")

    def test_execution_error_contained(self):
        """A genuine evaluation error is contained to the handler run."""
        state, cascade = run_app('''
def installed() { subscribe(motion1, "motion.active", h) }
def h(evt) { def x = [1]\n x[0][0][0] = 2 }
''')
        assert any("execution error" in s.text for s in cascade.steps
                   if s.kind == "log")
        # the system is still alive: ground truth updated
        assert state.attribute("m", "motion") == "active"
