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

Each invariant is a *binder* over a
:class:`~repro.properties.base.SystemBinding`: it resolves its roles,
thresholds and mode names once per system and returns a check over
constants, whose ``(device, attribute)`` reads the binding records.
"""

from repro.properties.base import InvariantProperty, number

# Threshold defaults; overridable via association values.
TEMP_LOW = 65
TEMP_HIGH = 85
HUMIDITY_LOW = 20
HUMIDITY_HIGH = 80

_SOUNDING = ("strobe", "siren", "both")


# ---------------------------------------------------------------------------
# Thermostat, AC, and Heater (5)
# ---------------------------------------------------------------------------


def _p_heater_not_on_when_hot(b):
    temperature = b.atom("temperature")
    high = b.threshold("temp_high", TEMP_HIGH)
    heater = b.device("heater_outlet", "switch")

    def check(state):
        temp = temperature(state)
        if temp is None or temp < high:
            return None
        return state.attribute(heater, "switch") != "on"
    return check


def _p_ac_not_on_when_cold(b):
    temperature = b.atom("temperature")
    low = b.threshold("temp_low", TEMP_LOW)
    ac = b.device("ac_outlet", "switch")

    def check(state):
        temp = temperature(state)
        if temp is None or temp > low:
            return None
        return state.attribute(ac, "switch") != "on"
    return check


def _p_ac_heater_not_both_on(b):
    heater = b.device("heater_outlet", "switch")
    ac = b.device("ac_outlet", "switch")

    def check(state):
        return not (state.attribute(heater, "switch") == "on"
                    and state.attribute(ac, "switch") == "on")
    return check


def _cold_at_home(b):
    """``state -> bool``: cold (at or below the low threshold) while
    somebody is home - the guard of P04 and P05."""
    temperature = b.atom("temperature")
    home = b.atom("somebody_home")
    low = b.threshold("temp_low", TEMP_LOW)

    def cold(state):
        temp = temperature(state)
        return (temp is not None and home(state) is True
                and not temp > low)
    return cold


def _p_heater_on_when_cold_at_home(b):
    cold = _cold_at_home(b)
    heater = b.device("heater_outlet", "switch")

    def check(state):
        if not cold(state):
            return None
        return state.attribute(heater, "switch") == "on"
    return check


def _p_thermostat_not_off_when_cold_at_home(b):
    cold = _cold_at_home(b)
    thermostat = b.device("thermostat", "thermostatMode")

    def check(state):
        if not cold(state):
            return None
        return state.attribute(thermostat, "thermostatMode") != "off"
    return check


# ---------------------------------------------------------------------------
# Lock and door control (8)
# ---------------------------------------------------------------------------


def _when_nobody_home(b, role, attribute, test):
    """``[] (nobody_home -> test(role's attribute))``."""
    away = b.atom("nobody_home")
    device = b.device(role, attribute)

    def check(state):
        if away(state) is not True:
            return None
        return test(state.attribute(device, attribute))
    return check


def _in_mode(b, mode, role, attribute, test):
    """``[] (mode == mode -> test(role's attribute))``."""
    device = b.device(role, attribute)

    def check(state):
        if state.mode != mode:
            return None
        return test(state.attribute(device, attribute))
    return check


def _is(value):
    return lambda current: current == value


def _is_not(value):
    return lambda current: current != value


def _p_main_door_locked_when_away(b):
    return _when_nobody_home(b, "main_door_lock", "lock", _is("locked"))


def _p_main_door_locked_at_night(b):
    return _in_mode(b, b.night_mode, "main_door_lock", "lock",
                    _is("locked"))


def _p_main_door_locked_in_away_mode(b):
    return _in_mode(b, b.away_mode, "main_door_lock", "lock", _is("locked"))


def _p_garage_closed_when_away(b):
    return _when_nobody_home(b, "garage_door", "door", _is("closed"))


def _p_garage_closed_at_night(b):
    return _in_mode(b, b.night_mode, "garage_door", "door", _is("closed"))


def _p_all_locks_locked_in_away_mode(b):
    away_mode = b.away_mode
    locked = b.all_equal("locks", "lock", "locked")

    def check(state):
        if state.mode != away_mode:
            return None
        return locked(state)
    return check


def _p_door_locked_when_sleeping(b):
    night_mode = b.night_mode
    sleeping = b.any_equals("sleep_sensors", "sleeping", "sleeping")
    lock = b.device("main_door_lock", "lock")

    def check(state):
        # night mode is the usual stand-in for "everyone asleep"
        if not sleeping(state) and state.mode != night_mode:
            return None
        return state.attribute(lock, "lock") == "locked"
    return check


def _p_entry_door_not_open_when_away(b):
    """Not open when nobody is home, nor at night while people sleep."""
    away = b.atom("nobody_home")
    night_mode = b.night_mode
    door = b.device("entry_door_control", "door")

    def check(state):
        if away(state) is not True and state.mode != night_mode:
            return None
        return state.attribute(door, "door") != "open"
    return check


# ---------------------------------------------------------------------------
# Location mode (3)
# ---------------------------------------------------------------------------


def _p_mode_away_when_nobody_home(b):
    away = b.atom("nobody_home")
    away_mode = b.away_mode

    def check(state):
        if away(state) is not True:
            return None
        return state.mode == away_mode
    return check


def _p_mode_not_away_when_somebody_home(b):
    home = b.atom("somebody_home")
    away_mode = b.away_mode

    def check(state):
        if home(state) is not True:
            return None
        return state.mode != away_mode
    return check


def _p_mode_home_when_arriving(b):
    home = b.atom("somebody_home")
    night_mode = b.night_mode
    home_mode = b.home_mode

    def check(state):
        if home(state) is not True:
            return None
        if state.mode == night_mode:
            return None  # being home at night is fine
        return state.mode == home_mode
    return check


# ---------------------------------------------------------------------------
# Security and alarming (14)
# ---------------------------------------------------------------------------


def _when_atom(b, atom, role, attribute, test):
    """``[] (atom -> test(role's attribute))``."""
    cause = b.atom(atom)
    device = b.device(role, attribute)

    def check(state):
        if not cause(state):
            return None
        return test(state.attribute(device, attribute))
    return check


def _sounding(current):
    return current in _SOUNDING


def _p_alarm_on_smoke(b):
    return _when_atom(b, "smoke", "alarm", "alarm", _sounding)


def _p_alarm_on_co(b):
    return _when_atom(b, "co", "alarm", "alarm", _sounding)


def _p_alarm_quiet_without_cause(b):
    alarm = b.device("alarm", "alarm")
    smoke = b.atom("smoke")
    co = b.atom("co")
    intrusion = b.atom("intrusion")
    leak = b.atom("leak")

    def check(state):
        if state.attribute(alarm, "alarm") not in _SOUNDING:
            return None
        return smoke(state) or co(state) or intrusion(state) or leak(state)
    return check


def _p_valve_open_when_smoke(b):
    """The sprinkler water supply must not be cut while smoke is detected."""
    return _when_atom(b, "smoke", "water_valve", "valve", _is("open"))


def _alarm_on_away_sensor(b, role, attribute, value):
    """``[] ((mode == Away && some role device reads value) ->
    alarm_sounding)``."""
    away_mode = b.away_mode
    triggered = b.any_equals(role, attribute, value)
    alarm = b.device("alarm", "alarm")

    def check(state):
        if state.mode != away_mode or not triggered(state):
            return None
        return state.attribute(alarm, "alarm") in _SOUNDING
    return check


def _p_alarm_on_intrusion_contact(b):
    return _alarm_on_away_sensor(b, "entry_contacts", "contact", "open")


def _p_alarm_on_intrusion_motion(b):
    return _alarm_on_away_sensor(b, "motion_sensors", "motion", "active")


def _p_alarm_not_silenced_during_smoke(b):
    # Equivalent shape to _p_alarm_on_smoke but over the dedicated siren.
    return _when_atom(b, "smoke", "siren", "alarm", _sounding)


def _p_door_unlocked_when_smoke(b):
    """Fire escape: the main door must not stay locked during a fire."""
    return _when_atom(b, "smoke", "main_door_lock", "lock", _is("unlocked"))


def _p_heater_off_when_smoke(b):
    return _when_atom(b, "smoke", "heater_outlet", "switch", _is_not("on"))


def _p_fan_on_when_co(b):
    return _when_atom(b, "co", "fan_outlet", "switch", _is("on"))


def _p_camera_capture_on_intrusion(b):
    return _when_atom(b, "intrusion", "camera", "image", _is("captured"))


def _p_garage_closed_in_away_mode(b):
    return _in_mode(b, b.away_mode, "garage_door", "door", _is("closed"))


def _p_shades_closed_when_away(b):
    away_mode = b.away_mode
    closed = b.all_equal("window_shades", "windowShade", "closed")

    def check(state):
        if state.mode != away_mode:
            return None
        return closed(state)
    return check


def _p_speaker_quiet_when_away(b):
    return _when_nobody_home(b, "speaker", "status", _is_not("playing"))


# ---------------------------------------------------------------------------
# Water and sprinkler (3)
# ---------------------------------------------------------------------------


def _p_humidity_in_range(b):
    sensors = b.devices("humidity_sensors", "humidity")
    low = b.threshold("humidity_low", HUMIDITY_LOW)
    high = b.threshold("humidity_high", HUMIDITY_HIGH)

    def check(state):
        if not sensors:
            return None
        for sensor in sensors:
            value = number(state.attribute(sensor, "humidity"))
            if value is not None and not (low <= value <= high):
                return False
        return True
    return check


def _p_sprinkler_off_when_wet(b):
    return _when_atom(b, "leak", "sprinkler_outlet", "switch", _is_not("on"))


def _p_valve_closed_on_leak(b):
    return _when_atom(b, "leak", "leak_shutoff_valve", "valve",
                      _is("closed"))


# ---------------------------------------------------------------------------
# Others (5)
# ---------------------------------------------------------------------------


def _p_switches_off_when_away(b):
    away = b.atom("nobody_home")
    off = b.none_equal("away_off_switches", "switch", "on")

    def check(state):
        if away(state) is not True:
            return None
        return off(state)
    return check


def _p_night_light_on_motion(b):
    night_mode = b.night_mode
    motion = b.any_equals("motion_sensors", "motion", "active")
    light = b.device("night_light", "switch")

    def check(state):
        if state.mode != night_mode or not motion(state):
            return None
        return state.attribute(light, "switch") == "on"
    return check


def _p_coffee_off_at_night(b):
    return _in_mode(b, b.night_mode, "coffee_outlet", "switch",
                    _is_not("on"))


def _p_space_heater_off_when_away(b):
    return _when_nobody_home(b, "space_heater_outlet", "switch",
                             _is_not("on"))


def _p_bulbs_off_in_away_mode(b):
    away_mode = b.away_mode
    off = b.none_equal("away_off_bulbs", "switch", "on")

    def check(state):
        if state.mode != away_mode:
            return None
        return off(state)
    return check


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------

_THERMO = "Thermostat, AC, and Heater"
_LOCK = "Lock and door control"
_MODE = "Location mode"
_SECURITY = "Security and alarming"
_WATER = "Water and sprinkler"
_OTHERS = "Others"


def _inv(pid, name, category, description, binder, roles, ltl,
         triggers=()):
    return InvariantProperty(pid, name, category, description, binder,
                             roles=roles, ltl=ltl, triggers=triggers)


PHYSICAL_PROPERTIES = [
    # Thermostat, AC, and Heater --------------------------------------------
    _inv("P01", "heater not on when temperature above threshold", _THERMO,
         "A heater must not be (left) on when the measured temperature is at "
         "or above the high threshold.",
         _p_heater_not_on_when_hot, ("temp_sensor", "heater_outlet"),
         "[] (temp >= TEMP_HIGH -> heater_off)"),
    _inv("P02", "AC not on when temperature below threshold", _THERMO,
         "An air conditioner must not be on when the temperature is at or "
         "below the low threshold.",
         _p_ac_not_on_when_cold, ("temp_sensor", "ac_outlet"),
         "[] (temp <= TEMP_LOW -> ac_off)"),
    _inv("P03", "AC and heater not both on", _THERMO,
         "An AC and a heater must never run simultaneously.",
         _p_ac_heater_not_both_on, ("heater_outlet", "ac_outlet"),
         "[] !(heater_on && ac_on)"),
    _inv("P04", "heater on when cold and people home", _THERMO,
         "A heater must not be (turned) off when the temperature is below "
         "the low threshold while people are at home.",
         _p_heater_on_when_cold_at_home,
         ("temp_sensor", "heater_outlet", "presence_sensors"),
         "[] ((temp <= TEMP_LOW && home) -> heater_on)",
         triggers=("temperature",)),
    _inv("P05", "thermostat not off when cold and people home", _THERMO,
         "The thermostat must not be off when it is cold and people are home.",
         _p_thermostat_not_off_when_cold_at_home,
         ("temp_sensor", "thermostat", "presence_sensors"),
         "[] ((temp <= TEMP_LOW && home) -> tstat_mode != off)",
         triggers=("temperature",)),

    # Lock and door control --------------------------------------------------
    _inv("P06", "main door locked when nobody home", _LOCK,
         "The main door must be locked when no one is at home.",
         _p_main_door_locked_when_away, ("main_door_lock", "presence_sensors"),
         "[] (nobody_home -> door_locked)"),
    _inv("P07", "main door locked at night", _LOCK,
         "The main door must be locked when the home is in night mode "
         "(people are sleeping).",
         _p_main_door_locked_at_night, ("main_door_lock",),
         "[] (mode == Night -> door_locked)"),
    _inv("P08", "main door locked in Away mode", _LOCK,
         "The main door must be locked whenever the location mode is Away.",
         _p_main_door_locked_in_away_mode, ("main_door_lock",),
         "[] (mode == Away -> door_locked)"),
    _inv("P09", "garage door closed when nobody home", _LOCK,
         "The garage door must be closed when no one is at home.",
         _p_garage_closed_when_away, ("garage_door", "presence_sensors"),
         "[] (nobody_home -> garage_closed)"),
    _inv("P10", "garage door closed at night", _LOCK,
         "The garage door must be closed during night mode.",
         _p_garage_closed_at_night, ("garage_door",),
         "[] (mode == Night -> garage_closed)"),
    _inv("P11", "all locks locked in Away mode", _LOCK,
         "Every lock must be locked whenever the location mode is Away.",
         _p_all_locks_locked_in_away_mode, ("locks",),
         "[] (mode == Away -> all_locked)"),
    _inv("P12", "main door locked while sleeping", _LOCK,
         "The main door must be locked while residents are asleep.",
         _p_door_locked_when_sleeping, ("main_door_lock",),
         "[] (sleeping -> door_locked)"),
    _inv("P13", "entry door control not open when nobody home or at night",
         _LOCK,
         "A controlled entry door must not stand open when no one is home or while the home sleeps (night mode).",
         _p_entry_door_not_open_when_away,
         ("entry_door_control", "presence_sensors"),
         "[] (nobody_home -> entry_door != open)"),

    # Location mode -----------------------------------------------------------
    _inv("P14", "mode Away when nobody home", _MODE,
         "The location mode must change to Away when no one is at home.",
         _p_mode_away_when_nobody_home, ("presence_sensors", "@mode_app"),
         "[] (nobody_home -> mode == Away)"),
    _inv("P15", "mode not Away when somebody home", _MODE,
         "The location mode must not be Away while someone is at home.",
         _p_mode_not_away_when_somebody_home, ("presence_sensors", "@mode_app"),
         "[] (somebody_home -> mode != Away)"),
    _inv("P16", "mode Home when somebody home (day)", _MODE,
         "Outside night mode, the location mode must be Home while someone "
         "is at home.",
         _p_mode_home_when_arriving, ("presence_sensors", "@mode_app"),
         "[] ((somebody_home && mode != Night) -> mode == Home)"),

    # Security and alarming ---------------------------------------------------
    _inv("P17", "alarm sounds on smoke", _SECURITY,
         "An alarm must strobe/siren when smoke is detected.",
         _p_alarm_on_smoke, ("smoke_detectors", "alarm"),
         "[] (smoke -> alarm_sounding)",
         triggers=("smoke",)),
    _inv("P18", "alarm sounds on carbon monoxide", _SECURITY,
         "An alarm must strobe/siren when carbon monoxide is detected.",
         _p_alarm_on_co, ("co_detectors", "alarm"),
         "[] (co -> alarm_sounding)",
         triggers=("carbonMonoxide",)),
    _inv("P19", "alarm quiet without cause", _SECURITY,
         "The alarm must not sound when there is no smoke, CO, leak or "
         "intrusion.",
         _p_alarm_quiet_without_cause, ("alarm",),
         "[] (alarm_sounding -> cause)"),
    _inv("P20", "water valve open during smoke", _SECURITY,
         "A water valve (sprinkler supply) must not be shut off while smoke "
         "is detected.",
         _p_valve_open_when_smoke, ("smoke_detectors", "water_valve"),
         "[] (smoke -> valve_open)",
         triggers=("smoke",)),
    _inv("P21", "alarm on entry contact breach in Away", _SECURITY,
         "Opening an entry contact in Away mode must sound the alarm.",
         _p_alarm_on_intrusion_contact, ("entry_contacts", "alarm"),
         "[] ((mode == Away && contact_open) -> alarm_sounding)",
         triggers=("contact",)),
    _inv("P22", "alarm on motion in Away", _SECURITY,
         "Motion in Away mode must sound the alarm.",
         _p_alarm_on_intrusion_motion, ("motion_sensors", "alarm"),
         "[] ((mode == Away && motion) -> alarm_sounding)",
         triggers=("motion",)),
    _inv("P23", "siren not silenced during smoke", _SECURITY,
         "A dedicated siren must keep sounding while smoke is detected.",
         _p_alarm_not_silenced_during_smoke, ("smoke_detectors", "siren"),
         "[] (smoke -> siren_sounding)",
         triggers=("smoke",)),
    _inv("P24", "fire escape: door unlocked during smoke", _SECURITY,
         "The main door must be unlocked while smoke is detected (escape "
         "route).",
         _p_door_unlocked_when_smoke, ("smoke_detectors", "main_door_lock"),
         "[] (smoke -> door_unlocked)",
         triggers=("smoke",)),
    _inv("P25", "heater off during smoke", _SECURITY,
         "A heater must be switched off while smoke is detected.",
         _p_heater_off_when_smoke, ("smoke_detectors", "heater_outlet"),
         "[] (smoke -> heater_off)",
         triggers=("smoke",)),
    _inv("P26", "ventilation on during CO", _SECURITY,
         "A ventilation fan must run while carbon monoxide is detected.",
         _p_fan_on_when_co, ("co_detectors", "fan_outlet"),
         "[] (co -> fan_on)",
         triggers=("carbonMonoxide",)),
    _inv("P27", "camera captures on intrusion", _SECURITY,
         "A camera must capture an image upon intrusion.",
         _p_camera_capture_on_intrusion, ("camera",),
         "[] (intrusion -> image_captured)",
         triggers=("motion", "contact")),
    _inv("P28", "garage closed in Away mode", _SECURITY,
         "The garage door must be closed whenever the mode is Away.",
         _p_garage_closed_in_away_mode, ("garage_door",),
         "[] (mode == Away -> garage_closed)"),
    _inv("P29", "window shades closed in Away mode", _SECURITY,
         "Window shades must be closed whenever the mode is Away.",
         _p_shades_closed_when_away, ("window_shades",),
         "[] (mode == Away -> shades_closed)"),
    _inv("P30", "speaker quiet when nobody home", _SECURITY,
         "A media player must not be playing when no one is at home.",
         _p_speaker_quiet_when_away, ("speaker", "presence_sensors"),
         "[] (nobody_home -> !playing)"),

    # Water and sprinkler -----------------------------------------------------
    _inv("P31", "soil moisture within range", _WATER,
         "Soil moisture (humidity) must stay within the configured range.",
         _p_humidity_in_range, ("humidity_sensors",),
         "[] (HUM_LOW <= humidity <= HUM_HIGH)",
         triggers=("humidity",)),
    _inv("P32", "sprinkler off while wet", _WATER,
         "The sprinkler must not run while the rain/moisture sensor is wet.",
         _p_sprinkler_off_when_wet, ("water_sensors", "sprinkler_outlet"),
         "[] (wet -> sprinkler_off)"),
    _inv("P33", "supply valve closed on leak", _WATER,
         "The water supply valve must be closed when a leak is detected.",
         _p_valve_closed_on_leak, ("water_sensors", "leak_shutoff_valve"),
         "[] (leak -> valve_closed)",
         triggers=("water",)),

    # Others --------------------------------------------------------------------
    _inv("P34", "designated switches off when nobody home", _OTHERS,
         "Designated devices must not be on when no one is at home.",
         _p_switches_off_when_away, ("away_off_switches", "presence_sensors"),
         "[] (nobody_home -> switches_off)"),
    _inv("P35", "night light on with motion at night", _OTHERS,
         "The night light must turn on when motion is sensed at night.",
         _p_night_light_on_motion, ("motion_sensors", "night_light"),
         "[] ((mode == Night && motion) -> light_on)",
         triggers=("motion",)),
    _inv("P36", "coffee machine off at night", _OTHERS,
         "The coffee machine outlet must be off during night mode.",
         _p_coffee_off_at_night, ("coffee_outlet",),
         "[] (mode == Night -> coffee_off)"),
    _inv("P37", "space heater off when nobody home", _OTHERS,
         "A space heater must be off when no one is at home.",
         _p_space_heater_off_when_away,
         ("space_heater_outlet", "presence_sensors"),
         "[] (nobody_home -> space_heater_off)"),
    _inv("P38", "bulbs off in Away mode", _OTHERS,
         "Designated bulbs must be off whenever the mode is Away.",
         _p_bulbs_off_in_away_mode, ("away_off_bulbs",),
         "[] (mode == Away -> bulbs_off)"),
]
