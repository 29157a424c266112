"""The Table 9 experiment: ten IFTTT rules in one smart home.

"We have validated our basic IFTTT prototype implementation with 10 IoT
rules/applets ... assuming that all of these rules are installed in a
smart home ... we find 7 violations of 4 unsafe physical states." (§11)

The four properties and which rules violate them (Table 9):

=====================================================  ======================
Violated property                                      Related rules
=====================================================  ======================
Siren/strobe is not activated when intruder (motion)   (#1, #4), (#3, #4)
is detected
Siren/strobe is activated when no intruder detected    (#2)
The main/front door is unlocked when no one is home    (#5), (#6)
A phone call is not triggered when intruder detected   (#7, #10), (#8, #10)
=====================================================  ======================
"""

from repro.corpus.loader import corpus_path
from repro.ifttt.applet import load_applets
from repro.ifttt.translator import IFTTTTranslator
from repro.properties.base import InvariantProperty

_CATEGORY = "IFTTT rule safety"


_SOUNDING = ("strobe", "siren", "both")


def _p_siren_on_intrusion(b):
    """Siren/strobe must be activated when motion (intruder) is detected."""
    motion = b.any_equals("motion_sensors", "motion", "active")
    alarm = b.device("alarm", "alarm")

    def check(state):
        if not motion(state):
            return None
        return state.attribute(alarm, "alarm") in _SOUNDING
    return check


def _p_siren_only_on_intrusion(b):
    """Siren/strobe must not be activated without an intruder."""
    motion = b.any_equals("motion_sensors", "motion", "active")
    alarm = b.device("alarm", "alarm")

    def check(state):
        if state.attribute(alarm, "alarm") not in _SOUNDING:
            return None
        return motion(state)
    return check


def _p_door_locked_when_away(b):
    """The front door must be locked when nobody is home."""
    away = b.atom("nobody_home")
    lock = b.device("main_door_lock", "lock")

    def check(state):
        if away(state) is not True:
            return None
        return state.attribute(lock, "lock") == "locked"
    return check


def _p_call_on_intrusion(b):
    """A phone call must be triggered when an intruder is detected.

    Motion or an entry contact opening counts as an intruder (§11)."""
    motion = b.any_equals("motion_sensors", "motion", "active")
    contact = b.any_equals("entry_contacts", "contact", "open")
    phone = b.device("voip_call", "call")

    def check(state):
        if not (motion(state) or contact(state)):
            return None
        return state.attribute(phone, "call") == "calling"
    return check


TABLE9_PROPERTIES = [
    InvariantProperty(
        "I01", "siren/strobe activated when intruder detected", _CATEGORY,
        "The siren/strobe must be activated when an intruder (motion) is "
        "detected.",
        _p_siren_on_intrusion, roles=("motion_sensors", "alarm"),
        ltl="[] (motion_active -> alarm_sounding)"),
    InvariantProperty(
        "I02", "siren/strobe silent without intruder", _CATEGORY,
        "The siren/strobe must not be activated when no intruder is "
        "detected.",
        _p_siren_only_on_intrusion, roles=("motion_sensors", "alarm"),
        ltl="[] (alarm_sounding -> motion_active)"),
    InvariantProperty(
        "I03", "front door locked when nobody home", _CATEGORY,
        "The main/front door must not be unlocked when no one is at home.",
        _p_door_locked_when_away,
        roles=("presence_sensors", "main_door_lock"),
        ltl="[] (nobody_home -> door_locked)"),
    InvariantProperty(
        "I04", "phone call triggered on intrusion", _CATEGORY,
        "A phone call must be triggered when an intruder is detected.",
        _p_call_on_intrusion, roles=("motion_sensors", "voip_call"),
        ltl="[] (motion_active -> call_active)"),
]

#: Table 9's expected violation attribution: property id -> rule-id groups
TABLE9_EXPECTED = {
    "I01": [("rule01", "rule04"), ("rule03", "rule04")],
    "I02": [("rule02",)],
    "I03": [("rule05",), ("rule06",)],
    "I04": [("rule07", "rule10"), ("rule08", "rule10")],
}


def table9_applets():
    """The ten bundled applets, in rule order."""
    return load_applets(corpus_path("ifttt"))


def table9_registry():
    """name -> SmartApp for the ten translated rules."""
    return IFTTTTranslator().translate_all(table9_applets())


def table9_configuration(contacts=("+1-555-0100",)):
    """The smart-home deployment with all ten rules installed."""
    applets = table9_applets()
    config = IFTTTTranslator().build_configuration(applets,
                                                   contacts=contacts)
    config.association.update({
        "motion_sensors": ["smartthingsMotionDevice", "ringDoorbellDevice"],
        "alarm": "ringAlarmDevice",
        "siren": "ringAlarmDevice",
        "main_door_lock": "augustLockDevice",
        "presence_sensors": ["smartthingsPresenceDevice"],
        "voip_call": "voipCallsDevice",
        "entry_contacts": ["smartthingsContactDevice"],
    })
    return config
