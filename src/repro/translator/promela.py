"""The Promela emitter: regenerate the Spin artifact IotSan feeds Spin.

The paper's pipeline ends in "the Promela model of the IoT system" (§8):
device typedefs with event queues and subscriber notifiers, smart-app event
handlers, an event-generator main loop, and the LTL properties.  Our checker
executes the IR directly, but this module regenerates the equivalent
``.prom`` file so that the artifact users inspect matches the paper's
Figure 7 vocabulary (``g_STLockArr``, ``subNotifiers``, ``ST_Command``,
``generatedEvent``).  The model is generated for inspection: this
repository does not run Spin on it.

The model uses §8's sequential design only: "a single process for the
whole system ... using inline methods to model the behavior of devices
and smart apps", over shared global variables.  The concurrent design
(one proctype per device and app, message passing over channels) is not
emitted; ``repro check --mode concurrent`` explores it in the Python
checker.

App handler bodies are translated statement-by-statement from the lowered
IR; Groovy constructs with no Promela counterpart are preserved as comments
next to a ``skip``, which keeps the artifact well-formed.

Each applicable invariant ends the model as a Spin 6 ``ltl`` block - its
formula's text (:mod:`repro.properties.formula`), from which Spin derives
the never claim - after one ``#define`` per atom the formula uses, over
the model's own globals.  Monitored properties (conflicts, leakage,
robustness) have no claim: the checker watches them during cascades.
"""

import re

from repro.groovy import ast
from repro.properties.base import SystemBinding

#: width of each device's subscriber-notifier array
_NOTIFIER_SLOTS = 8


class PromelaEmitter:
    """Emit a Promela model for one bound IoT system."""

    def __init__(self, system, properties=()):
        self.system = system
        self.properties = list(properties)
        #: mtype symbols the atom defines use
        self._atom_symbols = set()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def emit(self):
        """The full ``.prom`` source text."""
        claims = self._ltl_claims()  # first: it adds mtype symbols
        sections = [
            self._header(),
            self._mtype_declarations(),
            self._typedefs(),
            self._globals(),
            _STATE_UPDATE_INLINES,
            self._app_inlines(),
            self._main_process(),
            claims,
        ]
        return "\n\n".join(section for section in sections if section) + "\n"

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------

    def _header(self):
        lines = [
            "/* Generated by IotSan (reproduction) - sequential design",
            " * devices: %d, apps: %d, subscriptions: %d"
            % (len(self.system.devices), len(self.system.apps),
               len(self.system.subscriptions)),
            " * Generated for inspection: this tool does not run SPIN on",
            " * it (its verdicts come from the Python checker).",
            " */",
        ]
        return "\n".join(lines)

    def _mtype_declarations(self):
        symbols = []
        for instance in self.system.devices.values():
            for attr in instance.spec.attributes.values():
                if attr.kind == "enum":
                    symbols.extend(_symbol(v) for v in attr.values)
            symbols.extend(_symbol(c) for c in instance.spec.commands)
        symbols.extend(_symbol(m) for m in self.system.modes)
        symbols.extend(self._atom_symbols)
        symbols.extend(["appTouch", "timerFired", "nil"])
        unique = sorted(set(s for s in symbols if s))
        return "mtype = { %s };" % ", ".join(unique)

    def _device_types(self):
        """type_name -> (promela typedef name, [DeviceInstance...])."""
        groups = {}
        for name in sorted(self.system.devices):
            instance = self.system.devices[name]
            type_name = instance.spec.type_name
            groups.setdefault(type_name, []).append(instance)
        return groups

    def _typedefs(self):
        blocks = []
        for type_name, instances in sorted(self._device_types().items()):
            spec = instances[0].spec
            typedef = _type_identifier(type_name)
            fields = ["    byte gArrIndex;",
                      "    byte subNotifiers[%d];" % _NOTIFIER_SLOTS,
                      "    bool online;"]
            for attr_name, attr in sorted(spec.attributes.items()):
                if attr.kind == "numeric":
                    fields.append("    short current%s;" % _camel(attr_name))
                else:
                    fields.append("    mtype current%s;" % _camel(attr_name))
            blocks.append("typedef %s {\n%s\n}" % (typedef, "\n".join(fields)))
            blocks.append(
                "typedef %sArray { %s element[%d] }"
                % (typedef, typedef, len(instances)))
        blocks.append("typedef STLocation {\n"
                      "    mtype mode;\n"
                      "    byte subNotifiers[%d];\n}"
                      % max(_NOTIFIER_SLOTS, len(self._location_apps())))
        blocks.append("typedef STEvent {\n"
                      "    mtype evtType;\n"
                      "    byte deviceIndex;\n}")
        return "\n\n".join(blocks)

    def _globals(self):
        lines = []
        for type_name, instances in sorted(self._device_types().items()):
            typedef = _type_identifier(type_name)
            lines.append("%sArray g_%sArr;" % (typedef, typedef))
            for index, instance in enumerate(instances):
                lines.append("#define %s_index %d"
                             % (_identifier(instance.name), index))
        lines.append("STLocation location;")
        for index, app_name in enumerate(self._location_apps()):
            lines.append("#define %s_location %d" % (app_name, index))
        lines.append("STEvent generatedEvent;")
        lines.append("STEvent ST_Command;")
        return "\n".join(lines)

    def _location_apps(self):
        """The identifiers of the apps with a location subscription, in
        subscription order: each owns one slot of
        ``location.subNotifiers``."""
        names = []
        for sub in self.system.subscriptions:
            name = _identifier(sub.app.name)
            if sub.source_kind == "location" and name not in names:
                names.append(name)
        return names

    def _app_inlines(self):
        blocks = []
        for app in self.system.apps:
            for handler_name in self._handler_names(app):
                method = app.method(handler_name)
                if method is None:
                    continue
                blocks.append(self._emit_handler(app, method))
        return "\n\n".join(blocks)

    def _handler_names(self, app):
        names = []
        for sub in app.smart_app.subscriptions:
            if sub.handler not in names:
                names.append(sub.handler)
        for _api, handler, _line in app.smart_app.schedules:
            if handler not in names:
                names.append(handler)
        return names

    def _emit_handler(self, app, method):
        label = "%s_%s" % (_identifier(app.name), method.name)
        body = _StatementPrinter(self, app).print_block(method.body, depth=1)
        return "inline %s(evt) {\n%s\n}" % (label, body)

    def _main_process(self):
        lines = ["active proctype SmartThingsMain() {"]
        lines.append("    byte eventCount = 0;")
        lines.append("    do")
        lines.append("    :: eventCount < MAX_EVENTS ->")
        lines.append("        if")
        for choice in self._event_choices():
            lines.append("        :: %s" % choice)
        lines.append("        fi;")
        lines.append("        eventCount++;")
        lines.append("        dispatch_pending();")
        lines.append("    :: else -> break")
        lines.append("    od")
        lines.append("}")
        define = "#define MAX_EVENTS 3"
        dispatch = self._dispatch_inline()
        return "\n".join([define, dispatch, ""] + lines)

    def _event_choices(self):
        """One nondeterministic option per external event choice."""
        choices = []
        state = self.system.initial_state()
        for ext in self.system.external_choices(state):
            if ext.kind == "sensor":
                choices.append(
                    "generatedEvent.evtType = %s; "
                    "sensor_state_update(%s)"
                    % (_symbol(ext.value), ", ".join(self.device_slot(
                        ext.device, ext.attribute))))
            elif ext.kind == "touch":
                choices.append("generatedEvent.evtType = appTouch  "
                               "/* %s */" % ext.app)
            elif ext.kind == "timer":
                choices.append("generatedEvent.evtType = timerFired  "
                               "/* %s.%s */" % (ext.app, ext.handler))
            else:
                choices.append("generatedEvent.evtType = %s"
                               % _symbol(ext.attribute))
        if not choices:
            choices.append("skip")
        return choices

    def _dispatch_inline(self):
        """Algorithm 1 lines 4-6 as an inline."""
        lines = ["inline dispatch_pending() {"]
        for sub in self.system.subscriptions:
            handler = "%s_%s" % (_identifier(sub.app.name), sub.handler)
            if sub.source_kind == "location":
                guard = "location.subNotifiers[%s_location] > 0" % (
                    _identifier(sub.app.name))
                decrement = ("location.subNotifiers[%s_location]--"
                             % _identifier(sub.app.name))
            elif sub.source_kind == "device" and sub.device:
                instance = self.system.devices.get(sub.device)
                if instance is None:
                    continue
                array = "g_%sArr" % _type_identifier(instance.spec.type_name)
                guard = ("%s.element[%s_index].subNotifiers[0] > 0"
                         % (array, _identifier(sub.device)))
                decrement = ("%s.element[%s_index].subNotifiers[0]--"
                             % (array, _identifier(sub.device)))
            else:
                guard = "generatedEvent.evtType == appTouch"
                decrement = "skip"
            lines.append("    if")
            lines.append("    :: (%s) -> %s; %s(generatedEvent)"
                         % (guard, decrement, handler))
            lines.append("    :: else -> skip")
            lines.append("    fi;")
        lines.append("}")
        return "\n".join(lines)

    def device_slot(self, device_name, attribute):
        """``(array, index, field)`` naming one device attribute's
        global, the arguments of the state-update inlines."""
        instance = self.system.devices[device_name]
        return ("g_%sArr" % _type_identifier(instance.spec.type_name),
                "%s_index" % _identifier(device_name),
                "current%s" % _camel(attribute))

    def _ltl_claims(self):
        """``#define`` per atom, then one ``ltl`` block per applicable
        invariant."""
        binding = SystemBinding(self.system)
        defines = {}
        blocks = []
        for prop in self.properties:
            formula = getattr(prop, "formula", None)
            if formula is None or not prop.applicable(self.system):
                continue
            for atom in formula.atoms():
                defines[atom.name] = "#define %s (%s)" % (
                    atom.name, atom.expression(binding, self))
            blocks.append("ltl %s { %s }  /* %s */"
                          % (prop.id, formula, prop.name))
        if not blocks:
            return ""
        return "\n".join(list(defines.values()) + [""] + blocks)

    # -- atom rendering (see repro.properties.formula.Atom.expression) ------

    def attribute(self, device_name, attribute):
        """The global holding a device attribute; ``0`` (no mtype
        symbol) for a device or attribute the model does not declare."""
        instance = self.system.devices.get(device_name)
        if instance is None or attribute not in instance.spec.attributes:
            return "0"
        return "g_%sArr.element[%s_index].current%s" % (
            _type_identifier(instance.spec.type_name),
            _identifier(device_name), _camel(attribute))

    def symbol(self, value):
        """The mtype symbol of ``value``, declared with the model's."""
        symbol = _symbol(value)
        self._atom_symbols.add(symbol)
        return symbol

    def number(self, value):
        """A numeric literal."""
        return _literal(value)


#: Algorithm 1's device updates (lines 14-21 for commands): an attribute
#: takes its new value and the device's subscribers are notified - on a
#: sensor report always, on a command only when the value changes
_STATE_UPDATE_INLINES = """\
inline sensor_state_update(devices, index, attribute) {
    generatedEvent.deviceIndex = index;
    devices.element[index].attribute = generatedEvent.evtType;
    devices.element[index].subNotifiers[0]++
}

inline actuator_state_update(devices, index, attribute, value) {
    ST_Command.deviceIndex = index;
    if
    :: devices.element[index].attribute != value ->
        devices.element[index].attribute = value;
        devices.element[index].subNotifiers[0]++
    :: else -> skip
    fi
}"""


# ---------------------------------------------------------------------------
# IR -> Promela statement printing
# ---------------------------------------------------------------------------


class _StatementPrinter:
    """Best-effort printer for lowered Groovy statements.

    Device commands become ``ST_Command.evtType = ...`` followed by the
    actuator-state update; reads of device attributes become reads of the
    global arrays; anything without a Promela counterpart is kept as a
    comment so the artifact stays reviewable.
    """

    def __init__(self, emitter, app):
        self.emitter = emitter
        self.app = app

    def print_block(self, block, depth):
        lines = []
        for stmt in block.stmts:
            lines.extend(self.print_stmt(stmt, depth))
        if not lines:
            lines = ["%sskip;" % ("    " * depth)]
        return "\n".join(lines)

    def print_stmt(self, stmt, depth):
        indent = "    " * depth
        if isinstance(stmt, ast.If):
            lines = ["%sif" % indent,
                     "%s:: (%s) ->" % (indent, self.expr(stmt.cond))]
            lines.append(self.print_block(stmt.then, depth + 1))
            if stmt.orelse is not None:
                lines.append("%s:: else ->" % indent)
                lines.append(self.print_block(stmt.orelse, depth + 1))
            else:
                lines.append("%s:: else -> skip" % indent)
            lines.append("%sfi;" % indent)
            return lines
        if isinstance(stmt, ast.While):
            lines = ["%sdo" % indent,
                     "%s:: (%s) ->" % (indent, self.expr(stmt.cond)),
                     self.print_block(stmt.body, depth + 1),
                     "%s:: else -> break" % indent,
                     "%sod;" % indent]
            return lines
        if isinstance(stmt, ast.ForIn):
            comment = "%s/* for (%s in %s) */" % (indent, stmt.var,
                                                  self.expr(stmt.iterable))
            return [comment, self.print_block(stmt.body, depth)]
        if isinstance(stmt, ast.Assign):
            return ["%s%s = %s;" % (indent, self.expr(stmt.target),
                                    self.expr(stmt.value))]
        if isinstance(stmt, ast.VarDecl):
            value = self.expr(stmt.value) if stmt.value is not None else "0"
            return ["%sbyte %s = %s;" % (indent, _identifier(stmt.name), value)]
        if isinstance(stmt, ast.Return):
            return ["%sgoto done_%s;  /* return */"
                    % (indent, _identifier(self.app.name))]
        if isinstance(stmt, ast.ExprStmt):
            return self._expr_stmt(stmt.value, indent)
        if isinstance(stmt, ast.Block):
            return [self.print_block(stmt, depth)]
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return ["%sbreak;" % indent]
        return ["%s/* groovy: %s */ skip;" % (indent, type(stmt).__name__)]

    def _expr_stmt(self, expr, indent):
        if isinstance(expr, ast.MethodCall):
            command = self._device_command(expr)
            if command is not None:
                return (["%sST_Command.evtType = %s;" % (indent, command)]
                        + self._command_updates(expr, indent))
        if isinstance(expr, ast.Call):
            if expr.name == "setLocationMode" and expr.args:
                return ["%slocation.mode = %s;"
                        % (indent, self.expr(expr.args[0]))]
            if expr.name in ("sendSms", "sendSmsMessage", "sendPush",
                             "sendPushMessage", "sendNotificationEvent"):
                return ["%s/* message: %s */ skip;" % (indent, expr.name)]
            if expr.name.startswith("http"):
                return ["%s/* network: %s */ skip;" % (indent, expr.name)]
        return ["%s%s;" % (indent, self.expr(expr))]

    def _command_updates(self, call, indent):
        """One ``actuator_state_update`` per bound device the command
        changes (a comment for a device without the command)."""
        lines = []
        devices = self.emitter.system.devices
        for device_name in self.app.bound_devices(call.obj.id):
            instance = devices.get(device_name)
            effect = (instance.command(call.name)
                      if instance is not None else None)
            if effect is None:
                lines.append("%s/* %s has no command %s */ skip;"
                             % (indent, device_name, call.name))
                continue
            if effect.takes_arg:
                value = self.expr(call.args[0]) if call.args else "0"
            else:
                value = _literal(effect.value)
            lines.append("%sactuator_state_update(%s, %s);" % (
                indent, ", ".join(self.emitter.device_slot(
                    device_name, effect.attribute)), value))
        return lines

    def _device_command(self, call):
        """mtype symbol for obj.command() when obj is a bound device."""
        if not isinstance(call.obj, ast.Name):
            return None
        declaration = self.app.smart_app.input(call.obj.id)
        if declaration is None or not declaration.is_device:
            return None
        return _symbol(call.name)

    # -- expressions ---------------------------------------------------------

    def expr(self, node):
        if node is None:
            return "0"
        if isinstance(node, ast.Literal):
            return _literal(node.value)
        if isinstance(node, ast.Name):
            return _identifier(node.id)
        if isinstance(node, ast.GString):
            return '"%s"' % "".join(
                part if isinstance(part, str) else "%d"
                for part in node.parts)
        if isinstance(node, ast.Binary):
            return "(%s %s %s)" % (self.expr(node.left),
                                   _operator(node.op), self.expr(node.right))
        if isinstance(node, ast.Unary):
            return "%s(%s)" % (_operator(node.op), self.expr(node.operand))
        if isinstance(node, ast.Ternary):
            return "(%s -> %s : %s)" % (self.expr(node.cond),
                                        self.expr(node.then),
                                        self.expr(node.orelse))
        if isinstance(node, ast.Elvis):
            return "(%s)" % self.expr(node.value)
        if isinstance(node, ast.Property):
            return self._property(node)
        if isinstance(node, ast.Index):
            return "%s[%s]" % (self.expr(node.obj), self.expr(node.index))
        if isinstance(node, ast.MethodCall):
            command = self._device_command(node)
            if command is not None:
                return "ST_Command.evtType = %s" % command
            return "%s_%s(%s)" % (self.expr(node.obj), node.name,
                                  ", ".join(self.expr(a) for a in node.args))
        if isinstance(node, ast.Call):
            return "%s(%s)" % (_identifier(node.name),
                               ", ".join(self.expr(a) for a in node.args))
        if isinstance(node, ast.ListLit):
            return "{ %s }" % ", ".join(self.expr(i) for i in node.items)
        return "/* %s */ 0" % type(node).__name__

    def _property(self, node):
        if isinstance(node.obj, ast.Name):
            base = node.obj.id
            if base == "location" and node.name == "mode":
                return "location.mode"
            declaration = self.app.smart_app.input(base)
            if declaration is not None and declaration.is_device:
                devices = self.app.bound_devices(base)
                if devices and devices[0] in self.emitter.system.devices:
                    return self.emitter.attribute(
                        devices[0], _strip_current(node.name))
        return "%s.%s" % (self.expr(node.obj), _identifier(node.name))


# ---------------------------------------------------------------------------
# identifier helpers
# ---------------------------------------------------------------------------


def _identifier(name):
    parts = re.split(r"[^A-Za-z0-9]+", str(name))
    parts = [p for p in parts if p]
    if not parts:
        return "v"
    head = parts[0][:1].lower() + parts[0][1:]
    return head + "".join(p[:1].upper() + p[1:] for p in parts[1:])


def _camel(name):
    parts = re.split(r"[^A-Za-z0-9]+", str(name))
    return "".join(p[:1].upper() + p[1:] for p in parts if p)


def _type_identifier(type_name):
    return "ST" + _camel(type_name)


def _symbol(value):
    text = re.sub(r"[^A-Za-z0-9]+", "", str(value))
    return text or "nil"


def _strip_current(name):
    """``currentLock``/``latestValue`` style reads -> attribute name."""
    if name.startswith("current") and len(name) > len("current"):
        tail = name[len("current"):]
        return tail[:1].lower() + tail[1:]
    return name


def _literal(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "0"
    if isinstance(value, (int, float)):
        return str(int(value)) if float(value).is_integer() else str(value)
    return _symbol(value)


def _operator(op):
    mapping = {"&&": "&&", "||": "||", "==": "==", "!=": "!=", "<": "<",
               ">": ">", "<=": "<=", ">=": ">=", "+": "+", "-": "-",
               "*": "*", "/": "/", "%": "%", "!": "!"}
    return mapping.get(op, op)


def emit_promela(system, properties=()):
    """Emit the Promela model text for one system."""
    return PromelaEmitter(system, properties).emit()
