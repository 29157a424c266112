"""The 38 safe-physical-state properties (Table 4).

Six categories: Thermostat/AC/Heater (5), Lock and door control (8),
Location mode (3), Security and alarming (14), Water and sprinkler (3),
Others (5).

Each invariant reads device *roles* from the system association (set by
the Configuration Extractor / user, §7: "we have an interface to get the
device association info ... from the user").  A property is applicable
only when the roles it mentions are bound, which is how "the LTL format of
the selected properties are automatically generated" from association
info (§8).

Each invariant is one formula (:mod:`repro.properties.formula`) over
role-bound atoms: the engine's check, the LTL text and the emitted
Promela all come from it.
"""

from repro.properties.base import InvariantProperty
from repro.properties.formula import (
    CO,
    CONTACT_OPEN,
    INTRUSION,
    LEAK,
    MODE_AWAY,
    MODE_HOME,
    MODE_NIGHT,
    MOTION,
    NOBODY_HOME,
    SMOKE,
    SOMEBODY_HOME,
    TEMPERATURE,
    AllOf,
    Always,
    And,
    AnyOf,
    Device,
    Implies,
    InRange,
    NoneOf,
    Not,
    Or,
    Threshold,
)

# Threshold defaults; overridable via association values.
TEMP_LOW = 65
TEMP_HIGH = 85
HUMIDITY_LOW = 20
HUMIDITY_HIGH = 80

SOUNDING = ("strobe", "siren", "both")

# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

TEMP_HIGH_REACHED = Threshold("temp_high", TEMPERATURE, ">=", "temp_high",
                              TEMP_HIGH)
TEMP_LOW_REACHED = Threshold("temp_low", TEMPERATURE, "<=", "temp_low",
                             TEMP_LOW)
HEATER_ON = Device("heater_on", "heater_outlet", "switch", "==", "on")
HEATER_OFF = Device("heater_off", "heater_outlet", "switch", "!=", "on")
AC_ON = Device("ac_on", "ac_outlet", "switch", "==", "on")
AC_OFF = Device("ac_off", "ac_outlet", "switch", "!=", "on")
THERMOSTAT_NOT_OFF = Device("thermostat_not_off", "thermostat",
                            "thermostatMode", "!=", "off")
DOOR_LOCKED = Device("door_locked", "main_door_lock", "lock", "==", "locked")
DOOR_UNLOCKED = Device("door_unlocked", "main_door_lock", "lock", "==",
                       "unlocked")
GARAGE_CLOSED = Device("garage_closed", "garage_door", "door", "==", "closed")
ENTRY_DOOR_NOT_OPEN = Device("entry_door_not_open", "entry_door_control",
                             "door", "!=", "open")
ALL_LOCKED = AllOf("all_locked", "locks", "lock", "locked")
RESIDENTS_ASLEEP = AnyOf("residents_asleep", "sleep_sensors", "sleeping",
                         "sleeping")
ALARM_SOUNDING = Device("alarm_sounding", "alarm", "alarm", "in", SOUNDING)
SIREN_SOUNDING = Device("siren_sounding", "siren", "alarm", "in", SOUNDING)
VALVE_OPEN = Device("valve_open", "water_valve", "valve", "==", "open")
FAN_ON = Device("fan_on", "fan_outlet", "switch", "==", "on")
IMAGE_CAPTURED = Device("image_captured", "camera", "image", "==", "captured")
SHADES_CLOSED = AllOf("shades_closed", "window_shades", "windowShade",
                      "closed")
SPEAKER_NOT_PLAYING = Device("speaker_not_playing", "speaker", "status",
                             "!=", "playing")
HUMIDITY_IN_RANGE = InRange("humidity_in_range", "humidity_sensors",
                            "humidity", low=("humidity_low", HUMIDITY_LOW),
                            high=("humidity_high", HUMIDITY_HIGH))
SPRINKLER_OFF = Device("sprinkler_off", "sprinkler_outlet", "switch", "!=",
                       "on")
SUPPLY_VALVE_CLOSED = Device("supply_valve_closed", "leak_shutoff_valve",
                             "valve", "==", "closed")
SWITCHES_OFF = NoneOf("switches_off", "away_off_switches", "switch", "on")
NIGHT_LIGHT_ON = Device("night_light_on", "night_light", "switch", "==", "on")
COFFEE_OFF = Device("coffee_off", "coffee_outlet", "switch", "!=", "on")
SPACE_HEATER_OFF = Device("space_heater_off", "space_heater_outlet",
                          "switch", "!=", "on")
BULBS_OFF = NoneOf("bulbs_off", "away_off_bulbs", "switch", "on")


def _always(guard, body):
    """``[] (guard -> body)``."""
    return Always(Implies(guard, body))


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------

_THERMO = "Thermostat, AC, and Heater"
_LOCK = "Lock and door control"
_MODE = "Location mode"
_SECURITY = "Security and alarming"
_WATER = "Water and sprinkler"
_OTHERS = "Others"


PHYSICAL_PROPERTIES = [
    # Thermostat, AC, and Heater ---------------------------------------------
    InvariantProperty(
        "P01", "heater not on when temperature above threshold", _THERMO,
        "A heater must not be (left) on when the measured temperature is at"
        " or above the high threshold.",
        _always(TEMP_HIGH_REACHED, HEATER_OFF),
        roles=("temp_sensor", "heater_outlet")),
    InvariantProperty(
        "P02", "AC not on when temperature below threshold", _THERMO,
        "An air conditioner must not be on when the temperature is at or "
        "below the low threshold.",
        _always(TEMP_LOW_REACHED, AC_OFF),
        roles=("temp_sensor", "ac_outlet")),
    InvariantProperty(
        "P03", "AC and heater not both on", _THERMO,
        "An AC and a heater must never run simultaneously.",
        Always(Not(And(HEATER_ON, AC_ON))),
        roles=("heater_outlet", "ac_outlet")),
    InvariantProperty(
        "P04", "heater on when cold and people home", _THERMO,
        "A heater must not be (turned) off when the temperature is below "
        "the low threshold while people are at home.",
        _always(And(TEMP_LOW_REACHED, SOMEBODY_HOME), HEATER_ON),
        roles=("temp_sensor", "heater_outlet", "presence_sensors"),
        triggers=("temperature",)),
    InvariantProperty(
        "P05", "thermostat not off when cold and people home", _THERMO,
        "The thermostat must not be off when it is cold and people are "
        "home.",
        _always(And(TEMP_LOW_REACHED, SOMEBODY_HOME), THERMOSTAT_NOT_OFF),
        roles=("temp_sensor", "thermostat", "presence_sensors"),
        triggers=("temperature",)),

    # Lock and door control --------------------------------------------------
    InvariantProperty(
        "P06", "main door locked when nobody home", _LOCK,
        "The main door must be locked when no one is at home.",
        _always(NOBODY_HOME, DOOR_LOCKED),
        roles=("main_door_lock", "presence_sensors")),
    InvariantProperty(
        "P07", "main door locked at night", _LOCK,
        "The main door must be locked when the home is in night mode "
        "(people are sleeping).",
        _always(MODE_NIGHT, DOOR_LOCKED),
        roles=("main_door_lock",)),
    InvariantProperty(
        "P08", "main door locked in Away mode", _LOCK,
        "The main door must be locked whenever the location mode is Away.",
        _always(MODE_AWAY, DOOR_LOCKED),
        roles=("main_door_lock",)),
    InvariantProperty(
        "P09", "garage door closed when nobody home", _LOCK,
        "The garage door must be closed when no one is at home.",
        _always(NOBODY_HOME, GARAGE_CLOSED),
        roles=("garage_door", "presence_sensors")),
    InvariantProperty(
        "P10", "garage door closed at night", _LOCK,
        "The garage door must be closed during night mode.",
        _always(MODE_NIGHT, GARAGE_CLOSED),
        roles=("garage_door",)),
    InvariantProperty(
        "P11", "all locks locked in Away mode", _LOCK,
        "Every lock must be locked whenever the location mode is Away.",
        _always(MODE_AWAY, ALL_LOCKED),
        roles=("locks",)),
    InvariantProperty(
        "P12", "main door locked while sleeping", _LOCK,
        "The main door must be locked while residents are asleep.",
        _always(Or(RESIDENTS_ASLEEP, MODE_NIGHT), DOOR_LOCKED),
        roles=("main_door_lock",)),
    InvariantProperty(
        "P13", "entry door control not open when nobody home or at night",
        _LOCK,
        "A controlled entry door must not stand open when no one is home or"
        " while the home sleeps (night mode).",
        _always(Or(NOBODY_HOME, MODE_NIGHT), ENTRY_DOOR_NOT_OPEN),
        roles=("entry_door_control", "presence_sensors")),

    # Location mode ----------------------------------------------------------
    InvariantProperty(
        "P14", "mode Away when nobody home", _MODE,
        "The location mode must change to Away when no one is at home.",
        _always(NOBODY_HOME, MODE_AWAY),
        roles=("presence_sensors", "@mode_app")),
    InvariantProperty(
        "P15", "mode not Away when somebody home", _MODE,
        "The location mode must not be Away while someone is at home.",
        _always(SOMEBODY_HOME, Not(MODE_AWAY)),
        roles=("presence_sensors", "@mode_app")),
    InvariantProperty(
        "P16", "mode Home when somebody home (day)", _MODE,
        "Outside night mode, the location mode must be Home while someone "
        "is at home.",
        _always(And(SOMEBODY_HOME, Not(MODE_NIGHT)), MODE_HOME),
        roles=("presence_sensors", "@mode_app")),

    # Security and alarming --------------------------------------------------
    InvariantProperty(
        "P17", "alarm sounds on smoke", _SECURITY,
        "An alarm must strobe/siren when smoke is detected.",
        _always(SMOKE, ALARM_SOUNDING),
        roles=("smoke_detectors", "alarm"),
        triggers=("smoke",)),
    InvariantProperty(
        "P18", "alarm sounds on carbon monoxide", _SECURITY,
        "An alarm must strobe/siren when carbon monoxide is detected.",
        _always(CO, ALARM_SOUNDING),
        roles=("co_detectors", "alarm"),
        triggers=("carbonMonoxide",)),
    InvariantProperty(
        "P19", "alarm quiet without cause", _SECURITY,
        "The alarm must not sound when there is no smoke, CO, leak or "
        "intrusion.",
        _always(ALARM_SOUNDING, Or(SMOKE, CO, INTRUSION, LEAK)),
        roles=("alarm",)),
    InvariantProperty(
        "P20", "water valve open during smoke", _SECURITY,
        "A water valve (sprinkler supply) must not be shut off while smoke "
        "is detected.",
        _always(SMOKE, VALVE_OPEN),
        roles=("smoke_detectors", "water_valve"),
        triggers=("smoke",)),
    InvariantProperty(
        "P21", "alarm on entry contact breach in Away", _SECURITY,
        "Opening an entry contact in Away mode must sound the alarm.",
        _always(And(MODE_AWAY, CONTACT_OPEN), ALARM_SOUNDING),
        roles=("entry_contacts", "alarm"),
        triggers=("contact",)),
    InvariantProperty(
        "P22", "alarm on motion in Away", _SECURITY,
        "Motion in Away mode must sound the alarm.",
        _always(And(MODE_AWAY, MOTION), ALARM_SOUNDING),
        roles=("motion_sensors", "alarm"),
        triggers=("motion",)),
    InvariantProperty(
        "P23", "siren not silenced during smoke", _SECURITY,
        "A dedicated siren must keep sounding while smoke is detected.",
        _always(SMOKE, SIREN_SOUNDING),
        roles=("smoke_detectors", "siren"),
        triggers=("smoke",)),
    InvariantProperty(
        "P24", "fire escape: door unlocked during smoke", _SECURITY,
        "The main door must be unlocked while smoke is detected (escape "
        "route).",
        _always(SMOKE, DOOR_UNLOCKED),
        roles=("smoke_detectors", "main_door_lock"),
        triggers=("smoke",)),
    InvariantProperty(
        "P25", "heater off during smoke", _SECURITY,
        "A heater must be switched off while smoke is detected.",
        _always(SMOKE, HEATER_OFF),
        roles=("smoke_detectors", "heater_outlet"),
        triggers=("smoke",)),
    InvariantProperty(
        "P26", "ventilation on during CO", _SECURITY,
        "A ventilation fan must run while carbon monoxide is detected.",
        _always(CO, FAN_ON),
        roles=("co_detectors", "fan_outlet"),
        triggers=("carbonMonoxide",)),
    InvariantProperty(
        "P27", "camera captures on intrusion", _SECURITY,
        "A camera must capture an image upon intrusion.",
        _always(INTRUSION, IMAGE_CAPTURED),
        roles=("camera",),
        triggers=("motion", "contact")),
    InvariantProperty(
        "P28", "garage closed in Away mode", _SECURITY,
        "The garage door must be closed whenever the mode is Away.",
        _always(MODE_AWAY, GARAGE_CLOSED),
        roles=("garage_door",)),
    InvariantProperty(
        "P29", "window shades closed in Away mode", _SECURITY,
        "Window shades must be closed whenever the mode is Away.",
        _always(MODE_AWAY, SHADES_CLOSED),
        roles=("window_shades",)),
    InvariantProperty(
        "P30", "speaker quiet when nobody home", _SECURITY,
        "A media player must not be playing when no one is at home.",
        _always(NOBODY_HOME, SPEAKER_NOT_PLAYING),
        roles=("speaker", "presence_sensors")),

    # Water and sprinkler ----------------------------------------------------
    InvariantProperty(
        "P31", "soil moisture within range", _WATER,
        "Soil moisture (humidity) must stay within the configured range.",
        Always(HUMIDITY_IN_RANGE),
        roles=("humidity_sensors",),
        triggers=("humidity",)),
    InvariantProperty(
        "P32", "sprinkler off while wet", _WATER,
        "The sprinkler must not run while the rain/moisture sensor is wet.",
        _always(LEAK, SPRINKLER_OFF),
        roles=("water_sensors", "sprinkler_outlet")),
    InvariantProperty(
        "P33", "supply valve closed on leak", _WATER,
        "The water supply valve must be closed when a leak is detected.",
        _always(LEAK, SUPPLY_VALVE_CLOSED),
        roles=("water_sensors", "leak_shutoff_valve"),
        triggers=("water",)),

    # Others -----------------------------------------------------------------
    InvariantProperty(
        "P34", "designated switches off when nobody home", _OTHERS,
        "Designated devices must not be on when no one is at home.",
        _always(NOBODY_HOME, SWITCHES_OFF),
        roles=("away_off_switches", "presence_sensors")),
    InvariantProperty(
        "P35", "night light on with motion at night", _OTHERS,
        "The night light must turn on when motion is sensed at night.",
        _always(And(MODE_NIGHT, MOTION), NIGHT_LIGHT_ON),
        roles=("motion_sensors", "night_light"),
        triggers=("motion",)),
    InvariantProperty(
        "P36", "coffee machine off at night", _OTHERS,
        "The coffee machine outlet must be off during night mode.",
        _always(MODE_NIGHT, COFFEE_OFF),
        roles=("coffee_outlet",)),
    InvariantProperty(
        "P37", "space heater off when nobody home", _OTHERS,
        "A space heater must be off when no one is at home.",
        _always(NOBODY_HOME, SPACE_HEATER_OFF),
        roles=("space_heater_outlet", "presence_sensors")),
    InvariantProperty(
        "P38", "bulbs off in Away mode", _OTHERS,
        "Designated bulbs must be off whenever the mode is Away.",
        _always(MODE_AWAY, BULBS_OFF),
        roles=("away_off_bulbs",)),
]
