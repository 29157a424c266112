"""The eight modeled IFTTT services.

The eight services are Amazon Alexa, Google Assistant, SmartThings (its
motion / contact / presence channels register as three entries here),
Ring (doorbell + alarm channels), August Smart Lock, VoIP Calls, Nest
Thermostat and Philips Hue.

"Each service is mapped onto (modeled as) a sensor device(s) or an
actuator device(s).  We have modeled 8 popular IoT-related services based
on the events/actions they provide on the IFTTT website.  For example,
Amazon Alexa and Google Assistant are modeled as sensor devices; Nest
Thermostat is modeled as an actuator device." (§11)

A :class:`Service` carries the vocabulary needed by the rule translator:
which device type in our catalog backs the service, which *triggers* it
offers (each mapping to a device attribute/value subscription) and which
*actions* (each mapping to a device command).
"""


class Trigger:
    """One trigger a service offers: event name -> attribute/value."""

    __slots__ = ("name", "attribute", "value")

    def __init__(self, name, attribute, value):
        self.name = name
        self.attribute = attribute
        self.value = value

    def __repr__(self):
        return "Trigger(%r -> %s.%s)" % (self.name, self.attribute, self.value)


class Action:
    """One action a service offers: command name -> device command."""

    __slots__ = ("name", "command")

    def __init__(self, name, command):
        self.name = name
        self.command = command

    def __repr__(self):
        return "Action(%r -> %s())" % (self.name, self.command)


class Service:
    """One IFTTT service and its device-model mapping."""

    def __init__(self, name, device_type, capability, triggers=(), actions=()):
        self.name = name
        self.device_type = device_type
        #: the capability the generated app's input declares
        self.capability = capability
        self.triggers = {t.name: t for t in triggers}
        self.actions = {a.name: a for a in actions}

    @property
    def is_sensor(self):
        return bool(self.triggers) and not self.actions

    @property
    def is_actuator(self):
        return bool(self.actions)

    def trigger(self, name):
        trigger = self.triggers.get(name)
        if trigger is None:
            raise KeyError("service %r has no trigger %r" % (self.name, name))
        return trigger

    def action(self, name):
        action = self.actions.get(name)
        if action is None:
            raise KeyError("service %r has no action %r" % (self.name, name))
        return action

    def __repr__(self):
        return "Service(%r, %r)" % (self.name, self.device_type)


SERVICES = {}


def _register(svc):
    SERVICES[svc.name] = svc
    return svc


#: voice assistants are sensors: the user's phrase is the physical event
_register(Service(
    "amazon-alexa", "voice-assistant", "voiceCommand",
    triggers=[Trigger("say-phrase", "phrase", "spoken")]))

_register(Service(
    "google-assistant", "voice-assistant", "voiceCommand",
    triggers=[Trigger("say-phrase", "phrase", "spoken")]))

#: SmartThings exposes its sensor zoo and its switches
_register(Service(
    "smartthings-motion", "smartsense-motion", "motionSensor",
    triggers=[Trigger("motion-detected", "motion", "active"),
              Trigger("motion-stopped", "motion", "inactive")]))

_register(Service(
    "smartthings-contact", "smartsense-multi", "contactSensor",
    triggers=[Trigger("opened", "contact", "open"),
              Trigger("closed", "contact", "closed")]))

_register(Service(
    "smartthings-presence", "smartsense-presence", "presenceSensor",
    triggers=[Trigger("you-arrive", "presence", "present"),
              Trigger("you-leave", "presence", "not present")]))

_register(Service(
    "ring-doorbell", "smartsense-motion", "motionSensor",
    triggers=[Trigger("motion-detected", "motion", "active"),
              Trigger("motion-stopped", "motion", "inactive")]))

#: actuator services
_register(Service(
    "august-lock", "zwave-lock", "lock",
    actions=[Action("unlock", "unlock"), Action("lock", "lock")]))

_register(Service(
    "ring-alarm", "siren-strobe", "alarm",
    actions=[Action("sound-siren", "siren"), Action("strobe", "strobe"),
             Action("turn-off", "off")]))

_register(Service(
    "voip-calls", "voip-call", "phoneCall",
    actions=[Action("call-my-phone", "call"), Action("hang-up", "hangup"),
             Action("mute", "mute")]))

#: "Nest Thermostat is modeled as an actuator device" (§11)
_register(Service(
    "nest-thermostat", "thermostat", "thermostat",
    actions=[Action("set-heat", "heat"), Action("set-cool", "cool"),
             Action("turn-off-thermostat", "setThermostatMode")]))

_register(Service(
    "philips-hue", "smart-bulb", "switch",
    actions=[Action("turn-on", "on"), Action("turn-off", "off")]))


def service(name):
    """Look up a modeled service by name."""
    svc = SERVICES.get(name)
    if svc is None:
        raise KeyError("unknown IFTTT service %r (modeled: %s)"
                       % (name, ", ".join(sorted(SERVICES))))
    return svc
