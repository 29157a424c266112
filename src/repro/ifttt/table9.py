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
from repro.properties.formula import (
    CONTACT_OPEN,
    MOTION,
    NOBODY_HOME,
    Always,
    Device,
    Implies,
    Or,
)
from repro.properties.physical import ALARM_SOUNDING, DOOR_LOCKED

_CATEGORY = "IFTTT rule safety"

CALL_ACTIVE = Device("call_active", "voip_call", "call", "==", "calling")

TABLE9_PROPERTIES = [
    InvariantProperty(
        "I01", "siren/strobe activated when intruder detected", _CATEGORY,
        "The siren/strobe must be activated when an intruder (motion) is "
        "detected.",
        Always(Implies(MOTION, ALARM_SOUNDING)),
        roles=("motion_sensors", "alarm")),
    InvariantProperty(
        "I02", "siren/strobe silent without intruder", _CATEGORY,
        "The siren/strobe must not be activated when no intruder is "
        "detected.",
        Always(Implies(ALARM_SOUNDING, MOTION)),
        roles=("motion_sensors", "alarm")),
    InvariantProperty(
        "I03", "front door locked when nobody home", _CATEGORY,
        "The main/front door must not be unlocked when no one is at home.",
        Always(Implies(NOBODY_HOME, DOOR_LOCKED)),
        roles=("presence_sensors", "main_door_lock")),
    # motion or an entry contact opening counts as an intruder (§11)
    InvariantProperty(
        "I04", "phone call triggered on intrusion", _CATEGORY,
        "A phone call must be triggered when an intruder is detected.",
        Always(Implies(Or(MOTION, CONTACT_OPEN), CALL_ACTIVE)),
        roles=("motion_sensors", "voip_call")),
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
