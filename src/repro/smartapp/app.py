"""The :class:`SmartApp` object: a parsed, analyzed smart app."""

from repro.groovy import parse
from repro.smartapp import dsl


class AppInput:
    """One ``input`` declaration of an app's preferences.

    Device inputs have ``type`` of the form ``capability.<name>``; value
    inputs are ``number``/``decimal``/``enum``/``text``/``bool``/``time``/
    ``phone``/``contact``/``mode``.
    """

    __slots__ = ("name", "type", "title", "required", "multiple", "options",
                 "default", "section", "line")

    def __init__(self, name, type, title=None, required=True, multiple=False,
                 options=None, default=None, section=None, line=0):  # noqa: A002
        self.name = name
        self.type = type
        self.title = title or name
        self.required = required
        self.multiple = multiple
        self.options = options
        self.default = default
        #: text of the enclosing preferences section (intent hints, §2.2)
        self.section = section
        self.line = line

    @property
    def is_device(self):
        return isinstance(self.type, str) and self.type.startswith(dsl.DEVICE_INPUT_PREFIX)

    @property
    def capability(self):
        """Bare capability name for device inputs, else ``None``."""
        if not self.is_device:
            return None
        return self.type[len(dsl.DEVICE_INPUT_PREFIX):]

    def __repr__(self):
        return "AppInput(%r, %r)" % (self.name, self.type)


class Subscription:
    """A statically-extracted event subscription of one app.

    ``source`` is the *input name* the subscription targets (or the special
    sources ``"location"`` / ``"app"``); binding to concrete devices happens
    at model-generation time using the app's configuration.
    """

    __slots__ = ("source", "attribute", "value", "handler", "line")

    def __init__(self, source, attribute, value, handler, line=0):
        self.source = source
        self.attribute = attribute
        self.value = value
        self.handler = handler
        self.line = line

    def __repr__(self):
        return "Subscription(%s/%s/%s -> %s)" % (
            self.source, self.attribute, self.value or "...", self.handler)


class SmartApp:
    """A parsed and statically-analyzed SmartThings smart app."""

    def __init__(self, program, source, source_name):
        self.program = program
        self.source = source
        self.source_name = source_name
        self.metadata = dsl.extract_definition(program)
        self.inputs = [AppInput(**spec) for spec in dsl.extract_inputs(program)]
        self.subscriptions = [Subscription(*spec) for spec in dsl.extract_subscriptions(program)]
        self.schedules = dsl.extract_schedules(program)

    @property
    def definition(self):
        """Alias for :attr:`metadata` (the ``definition(...)`` call)."""
        return self.metadata

    @property
    def name(self):
        return self.metadata.get("name") or self.source_name

    @property
    def description(self):
        return self.metadata.get("description", "")

    @property
    def device_inputs(self):
        return [i for i in self.inputs if i.is_device]

    def input(self, name):
        """Look up an input declaration by name."""
        for app_input in self.inputs:
            if app_input.name == name:
                return app_input
        return None

    def method(self, name):
        return self.program.method(name)

    @property
    def handler_names(self):
        """Names of methods registered as event/schedule handlers."""
        names = []
        for sub in self.subscriptions:
            if sub.handler not in names:
                names.append(sub.handler)
        for _api, handler, _line in self.schedules:
            if handler not in names:
                names.append(handler)
        return names

    def __repr__(self):
        return "SmartApp(%r)" % (self.name,)


def load_app(source, source_name="<app>"):
    """Parse Groovy source text into a :class:`SmartApp`."""
    program = parse(source, source_name)
    return SmartApp(program, source, source_name)


def load_app_file(path):
    """Load a smart app from a ``.groovy`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    name = str(path).rsplit("/", 1)[-1]
    return load_app(source, name)
