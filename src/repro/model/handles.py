"""Runtime objects exposed to smart-app code by the interpreter.

These model the "predefined objects or variables (e.g. ``location``) and
APIs ... not defined in vanilla Groovy" whose definitions the paper adds
manually (§6).  Each handle is a thin view over the cascade context (which
owns the mutable :class:`~repro.model.state.ModelState`): reading a property
reads model state, invoking a command goes through the cascade's
``actuator_command`` (Algorithm 1's ``actuator_state_update``).

Handles implement two uniform hooks used by the interpreter:

* ``get_property(name)`` -> ``(handled, value)``
* ``invoke(name, args, named)`` -> ``(handled, result)``
"""

from repro.translator.builtins import to_groovy_string

_UNHANDLED = (False, None)


class DateValue:
    """A ``java.util.Date`` stand-in over the model clock (milliseconds)."""

    __slots__ = ("millis",)

    def __init__(self, millis):
        self.millis = int(millis)

    def get_property(self, name):
        if name == "time":
            return True, self.millis
        return _UNHANDLED

    def invoke(self, name, args, named):
        if name == "getTime":
            return True, self.millis
        if name in ("after", "compareTo"):
            other = args[0].millis if isinstance(args[0], DateValue) else args[0]
            if name == "after":
                return True, self.millis > other
            return True, (self.millis > other) - (self.millis < other)
        if name == "before":
            other = args[0].millis if isinstance(args[0], DateValue) else args[0]
            return True, self.millis < other
        if name == "toString":
            return True, "Date(%d)" % self.millis
        return _UNHANDLED

    def __eq__(self, other):
        return isinstance(other, DateValue) and other.millis == self.millis

    def __lt__(self, other):
        return self.millis < (other.millis if isinstance(other, DateValue) else other)

    def __gt__(self, other):
        return self.millis > (other.millis if isinstance(other, DateValue) else other)

    def __hash__(self):
        return hash(("DateValue", self.millis))

    def __repr__(self):
        return "DateValue(%d)" % self.millis


class StateRecord:
    """A device ``currentState``/event record with ``value`` and ``date``."""

    __slots__ = ("name", "value", "date")

    def __init__(self, name, value, date):
        self.name = name
        self.value = value
        self.date = date

    def get_property(self, name):
        if name == "value":
            return True, self.value
        if name in ("name", "attribute"):
            return True, self.name
        if name == "date":
            return True, self.date
        if name in ("doubleValue", "floatValue", "numericValue", "numberValue"):
            return True, float(self.value)
        if name in ("integerValue", "longValue"):
            return True, int(float(self.value))
        return _UNHANDLED

    def invoke(self, name, args, named):
        handled, value = self.get_property(name)
        if handled:
            return True, value
        return _UNHANDLED

    def __repr__(self):
        return "StateRecord(%s=%r)" % (self.name, self.value)


def _stringify(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return to_groovy_string(value)
    return value


class DeviceHandle:
    """An app's view of one configured device."""

    __slots__ = ("instance", "ctx", "app_name")

    def __init__(self, instance, ctx, app_name):
        self.instance = instance
        self.ctx = ctx
        self.app_name = app_name

    @property
    def name(self):
        return self.instance.name

    def get_property(self, name):
        if name in ("displayName", "label"):
            return True, self.instance.display_name
        if name == "name":
            return True, self.instance.name
        if name == "id":
            return True, self.instance.name
        if name == "capabilities":
            return True, list(self.instance.spec.capabilities)
        if name.startswith("current") and len(name) > len("current"):
            attr = name[len("current"):]
            attr = attr[:1].lower() + attr[1:]
            return True, self._current(attr)
        if name.startswith("latest") and len(name) > len("latest"):
            attr = name[len("latest"):]
            attr = attr[:1].lower() + attr[1:]
            return True, self._current(attr)
        if name in self.instance.spec.attributes:
            return True, self._current(name)
        return _UNHANDLED

    def _current(self, attribute):
        # Raw values: numeric attributes stay numeric (SmartThings'
        # currentTemperature is a number; only evt.value is a string).
        return self.ctx.get_attribute(self.instance.name, attribute)

    def invoke(self, name, args, named):
        if name in ("currentValue", "latestValue"):
            return True, self._current(args[0])
        if name in ("currentState", "latestState"):
            attr = args[0]
            value = self.ctx.get_attribute(self.instance.name, attr)
            return True, StateRecord(attr, value, DateValue(self.ctx.now_millis()))
        if name in ("eventsSince", "statesSince", "events", "eventsBetween"):
            return True, self._events_since(args)
        if name == "hasCapability":
            return True, self.instance.has_capability(str(args[0]))
        if name == "hasCommand":
            return True, self.instance.command(str(args[0])) is not None
        if name == "hasAttribute":
            return True, str(args[0]) in self.instance.spec.attributes
        if name == "getDisplayName" or name == "getLabel":
            return True, self.instance.display_name
        if name == "getId" or name == "getName":
            return True, self.instance.name
        if name == "supportedAttributes":
            return True, list(self.instance.spec.attributes)
        command = self.instance.command(name)
        if command is not None:
            self.ctx.actuator_command(self.instance.name, name, list(args),
                                      self.app_name)
            return True, None
        return _UNHANDLED

    def _events_since(self, args):
        since = 0
        if args and isinstance(args[0], DateValue):
            since = args[0].millis
        records = []
        for attribute, value, time in reversed(self.ctx.get_history(self.instance.name)):
            if time >= since:
                records.append(StateRecord(attribute, value, DateValue(time)))
        return records

    def __eq__(self, other):
        return isinstance(other, DeviceHandle) and other.instance.name == self.instance.name

    def __hash__(self):
        return hash(("DeviceHandle", self.instance.name))

    def __repr__(self):
        return "DeviceHandle(%r)" % (self.instance.name,)


class DeviceGroup:
    """A ``multiple: true`` device input: commands fan out, reads fan in."""

    __slots__ = ("handles",)

    def __init__(self, handles):
        self.handles = list(handles)

    def get_property(self, name):
        values = []
        for handle in self.handles:
            handled, value = handle.get_property(name)
            if not handled:
                return _UNHANDLED
            values.append(value)
        return True, values

    def invoke(self, name, args, named):
        results = []
        handled_any = False
        for handle in self.handles:
            handled, result = handle.invoke(name, args, named)
            if handled:
                handled_any = True
                results.append(result)
        if handled_any:
            return True, results
        return _UNHANDLED

    def __iter__(self):
        return iter(self.handles)

    def __len__(self):
        return len(self.handles)

    def __getitem__(self, index):
        return self.handles[index]

    def __repr__(self):
        return "DeviceGroup(%r)" % ([h.instance.name for h in self.handles],)


class LocationHandle:
    """The global ``location`` object."""

    __slots__ = ("ctx", "app_name")

    def __init__(self, ctx, app_name):
        self.ctx = ctx
        self.app_name = app_name

    def get_property(self, name):
        if name == "mode":
            return True, self.ctx.get_mode()
        if name == "currentMode":
            return True, self.ctx.get_mode()
        if name == "modes":
            return True, list(self.ctx.modes())
        if name == "name":
            return True, "Home"
        if name == "contactBookEnabled":
            return True, False
        return _UNHANDLED

    def set_property(self, name, value):
        if name == "mode":
            self.ctx.set_location_mode(str(value), self.app_name)
            return True
        return False

    def invoke(self, name, args, named):
        if name == "setMode":
            self.ctx.set_location_mode(str(args[0]), self.app_name)
            return True, None
        if name == "getMode":
            return True, self.ctx.get_mode()
        return _UNHANDLED

    def __repr__(self):
        return "LocationHandle(mode=%r)" % (self.ctx.get_mode(),)


class EventHandle:
    """The ``evt`` object passed to an event handler."""

    __slots__ = ("event", "ctx", "device_handle")

    def __init__(self, event, ctx, device_handle=None):
        self.event = event
        self.ctx = ctx
        self.device_handle = device_handle

    def get_property(self, name):
        event = self.event
        if name in ("value", "stringValue"):
            return True, _stringify(event.value)
        if name == "name":
            return True, event.attribute
        if name == "device":
            return True, self.device_handle
        if name == "deviceId":
            return True, event.device
        if name == "displayName":
            if self.device_handle is not None:
                return True, self.device_handle.instance.display_name
            return True, event.device or event.source
        if name == "descriptionText":
            return True, "%s is %s" % (event.device or event.source, event.value)
        if name in ("doubleValue", "floatValue", "numericValue", "numberValue"):
            return True, float(event.value)
        if name in ("integerValue", "longValue"):
            return True, int(float(event.value))
        if name == "date":
            return True, DateValue(self.ctx.now_millis())
        if name == "isPhysical":
            return True, event.source == "device"
        if name == "source":
            return True, event.source
        return _UNHANDLED

    def invoke(self, name, args, named):
        if name == "isStateChange":
            return True, True
        handled, value = self.get_property(name)
        if handled:
            return True, value
        return _UNHANDLED

    def __repr__(self):
        return "EventHandle(%s)" % (self.event.describe(),)


class AppStateMap:
    """The persistent ``state``/``atomicState`` map of an app."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        self.mapping = mapping

    def get_property(self, name):
        return True, self.mapping.get(name)

    def set_property(self, name, value):
        self.mapping[name] = value
        return True

    def invoke(self, name, args, named):
        from repro.translator.builtins import call_builtin
        return call_builtin(self.mapping, name, args, None, None)

    def __repr__(self):
        return "AppStateMap(%r)" % (self.mapping,)


class AppHandle:
    """The ``app`` object (install metadata)."""

    __slots__ = ("app_name",)

    def __init__(self, app_name):
        self.app_name = app_name

    def get_property(self, name):
        if name in ("label", "name"):
            return True, self.app_name
        if name == "id":
            return True, self.app_name
        return _UNHANDLED

    def invoke(self, name, args, named):
        if name in ("getLabel", "getName"):
            return True, self.app_name
        return _UNHANDLED


class LogHandle:
    """``log`` - entries go to the trace recorder, not stdout."""

    __slots__ = ("ctx", "app_name")

    _LEVELS = ("debug", "info", "trace", "warn", "error")

    def __init__(self, ctx, app_name):
        self.ctx = ctx
        self.app_name = app_name

    def get_property(self, name):
        return _UNHANDLED

    def invoke(self, name, args, named):
        if name in self._LEVELS:
            message = " ".join(to_groovy_string(a) for a in args)
            self.ctx.log(self.app_name, name, message)
            return True, None
        return _UNHANDLED


class MathHandle:
    """The ``Math`` class."""

    def get_property(self, name):
        if name == "PI":
            return True, 3.141592653589793
        return _UNHANDLED

    def invoke(self, name, args, named):
        import math
        table = {
            "max": lambda a: max(a), "min": lambda a: min(a),
            "abs": lambda a: abs(a[0]), "round": lambda a: round(a[0]),
            "floor": lambda a: math.floor(a[0]), "ceil": lambda a: math.ceil(a[0]),
            "sqrt": lambda a: math.sqrt(a[0]), "pow": lambda a: a[0] ** a[1],
        }
        if name in table:
            return True, table[name](list(args))
        return _UNHANDLED
