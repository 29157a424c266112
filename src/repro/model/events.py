"""Events: the cyber and physical occurrences the model reasons about.

Two flavours (Figure 2 of the paper):

* :class:`ExternalEvent` - a *physical* event chosen by the environment
  (Algorithm 1 line 2 selects one per iteration): a sensor attribute change,
  an app-touch, a timer firing, or a sunrise/sunset environment event.
* :class:`Event` - a *cyber* event flowing through the platform: a device
  state-change notification, a location-mode change, or a fake event forged
  by an app.
"""

import itertools

#: event sources
DEVICE = "device"
LOCATION = "location"
APP = "app"
TIMER = "time"
FAKE = "fake"


#: per-process serial numbers for :meth:`Event.__hash__`
_EVENT_SERIALS = itertools.count()


class Event:
    """A cyber event dispatched to subscribed apps.

    Events compare by identity but hash by a serial number, never by
    ``id()``: the concurrent design keeps them in ``state.pending``,
    which enters the state fingerprint, and a fingerprint-only visited
    store holds no reference to them - an address freed and reused by a
    new event would make two different states collide.
    """

    __slots__ = ("source", "device", "attribute", "value", "app", "_serial")

    def __init__(self, source, device=None, attribute=None, value=None, app=None):
        self.source = source
        self.device = device
        self.attribute = attribute
        self.value = value
        self.app = app
        self._serial = next(_EVENT_SERIALS)

    def __hash__(self):
        return self._serial

    def __reduce__(self):
        # a copy (or an event unpickled from another process) is a new
        # event with a serial of its own, never a duplicate
        return (Event, (self.source, self.device, self.attribute,
                        self.value, self.app))

    def describe(self):
        if self.source == DEVICE:
            return "%s/%s=%s" % (self.device, self.attribute, self.value)
        if self.source == LOCATION:
            return "location/%s=%s" % (self.attribute, self.value)
        if self.source == APP:
            return "app/touch(%s)" % (self.app,)
        if self.source == FAKE:
            return "fake/%s=%s" % (self.attribute, self.value)
        return "%s/%s=%s" % (self.source, self.attribute, self.value)

    def __repr__(self):
        return "Event(%s)" % (self.describe(),)


class FailureScenario:
    """Which nonideality (if any) afflicts this external event's cascade.

    The first two fault kinds reproduce §8 of the paper ("the sensor is
    available/online [or] unavailable/offline ... an actuator may be either
    online or offline"); the rest extend the enumeration to the lossy-
    environment profiles in :mod:`repro.model.faults`.
    """

    NONE = "none"
    SENSOR_DROP = "sensor-drop"        # the originating sensor fails to report
    ACTUATOR_DROP = "actuator-drop"    # one actuator drops all commands
    EVENT_DROP = "event-drop"          # the report is lost in transit (lossy)
    DUPLICATE = "duplicate"            # the report is delivered twice
    REORDER = "reorder"                # cascade events delivered newest-first
    DEVICE_DEATH = "device-death"      # one device stops reporting and acting
    STALE_READ = "stale-read"          # app reads see the pre-event value

    __slots__ = ("kind", "device")

    def __init__(self, kind=NONE, device=None):
        self.kind = kind
        self.device = device

    def label(self):
        if self.kind == self.NONE:
            return ""
        if self.kind == self.SENSOR_DROP:
            return " [sensor offline]"
        if self.kind == self.EVENT_DROP:
            return " [report lost]"
        if self.kind == self.DUPLICATE:
            return " [duplicated]"
        if self.kind == self.REORDER:
            return " [delayed]"
        if self.kind == self.DEVICE_DEATH:
            return " [%s dead]" % (self.device,)
        if self.kind == self.STALE_READ:
            return " [stale reads]"
        return " [%s offline]" % (self.device,)

    def drops_command(self, device_name):
        """True when commands sent to ``device_name`` are dropped."""
        if self.kind == self.ACTUATOR_DROP or self.kind == self.DEVICE_DEATH:
            return self.device == device_name
        return False

    def __repr__(self):
        return "FailureScenario(%s, %r)" % (self.kind, self.device)


NO_FAILURE = FailureScenario()


class ExternalEvent:
    """One environment choice at the top of the main event loop.

    ``kind`` distinguishes:

    * ``"sensor"`` - physical change of a sensor attribute
      (``device``/``attribute``/``value`` set);
    * ``"touch"`` - the user taps an app in the companion app (``app`` set);
    * ``"timer"`` - a scheduled callback fires (``app``/``handler`` set);
    * ``"environment"`` - sunrise/sunset (``attribute`` = event name).
    """

    __slots__ = ("kind", "device", "attribute", "value", "app", "handler",
                 "_label")

    def __init__(self, kind, device=None, attribute=None, value=None,
                 app=None, handler=None):
        self.kind = kind
        self.device = device
        self.attribute = attribute
        self.value = value
        self.app = app
        self.handler = handler
        self._label = None

    def describe(self):
        # cached: external events are immutable and (via the system's
        # pre-built choice tables) shared across many transitions, each of
        # which stamps the label into its trace
        label = self._label
        if label is None:
            if self.kind == "sensor":
                label = "%s/%s=%s" % (self.device, self.attribute, self.value)
            elif self.kind == "touch":
                label = "app/touch(%s)" % (self.app,)
            elif self.kind == "timer":
                label = "timer(%s.%s)" % (self.app, self.handler)
            elif self.kind == "mode":
                label = "user/mode=%s" % (self.value,)
            else:
                label = "environment/%s" % (self.attribute,)
            self._label = label
        return label

    def label(self):
        return self.describe()

    def __repr__(self):
        return "ExternalEvent(%s)" % (self.describe(),)
