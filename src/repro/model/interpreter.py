"""The IR interpreter: executes smart-app event handlers against the model.

This is the execution back-end of the translation pipeline.  Where the paper
compiles the (type-inferred, lowered) app into Promela and lets Spin run it,
we interpret the lowered AST directly; every side effect is routed through
the cascade context so that Algorithm 1's ``actuator_state_update`` sees all
commands and the safety monitors see all sensitive operations.

Execution of one handler is *atomic* (§8 Concurrency Model: "the execution
of an app's event handler can be considered as atomic") and *bounded*: an
operation budget guards against non-terminating loops in app code.
"""

from repro.groovy import ast
from repro.groovy.errors import GroovyError
from repro.model import handles
from repro.model.state import _copy_value
from repro.translator.builtins import (
    call_builtin,
    is_groovy_truthy,
    to_groovy_string,
)


class ExecutionError(GroovyError):
    """Raised when app code cannot be executed (budget, bad operation)."""


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _GroovyThrow(Exception):
    def __init__(self, value):
        self.value = value


class MethodRef:
    """A reference to an app method used as a value (handler arguments)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "MethodRef(%r)" % (self.name,)


class ClosureValue:
    """A closure bound to its defining scope chain."""

    __slots__ = ("params", "body", "scopes")

    def __init__(self, params, body, scopes):
        self.params = params
        self.body = body
        self.scopes = scopes

    def __repr__(self):
        return "ClosureValue(params=%r)" % ([p.name for p in self.params],)


#: maximum interpreter operations per handler invocation
DEFAULT_OP_BUDGET = 50000


#: platform APIs that register subscriptions at runtime (already statically
#: extracted, so they are no-ops during model execution)
_RUNTIME_NOOPS = frozenset([
    "subscribe", "definition", "preferences", "page", "section", "paragraph",
    "label", "mode", "initialize_marker", "mappings", "dynamicPage",
    "updated_marker", "refresh",
])


#: the ``Math`` handle is stateless, so one instance serves every executor
_MATH = handles.MathHandle()


class Interpreter:
    """Executes one app's handlers.  One instance per (app, cascade)."""

    def __init__(self, app_instance, ctx, op_budget=DEFAULT_OP_BUDGET):
        self.app = app_instance
        self.ctx = ctx
        self.budget = op_budget
        self._globals = self._build_globals()

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_handler(self, handler_name, event_handle):
        """Invoke an event handler with an event object (or ``None``)."""
        method = self.app.method(handler_name)
        if method is None:
            self.ctx.log(self.app.name, "warn",
                         "handler %s not found" % handler_name)
            return None
        args = []
        if method.params:
            args = [event_handle] + [None] * (len(method.params) - 1)
        return self.call_method(method, args)

    def call_method(self, method, args, named=None):
        """Invoke a user-defined method with positional arguments."""
        scope = {}
        for index, param in enumerate(method.params):
            if index < len(args):
                scope[param.name] = args[index]
            elif param.default is not None:
                scope[param.name] = self.eval(param.default, [scope])
            else:
                scope[param.name] = None
        if named:
            # Groovy collects leading named args into a Map first parameter.
            named_map = {entry.key: None for entry in named}
            for entry in named:
                named_map[entry.key] = self.eval(entry.value, [scope])
            if method.params and method.params[0].name not in scope or not args:
                if method.params:
                    scope[method.params[0].name] = named_map
        scopes = [scope]
        try:
            last = self.exec_block(method.body, scopes)
        except _Return as ret:
            return ret.value
        return last

    def invoke_closure(self, closure, args):
        """Invoke a closure value (used by built-ins like ``each``)."""
        scope = {}
        params = closure.params
        if not params:
            scope["it"] = args[0] if args else None
        else:
            if len(args) < len(params) and len(params) == 2 and len(args) == 1:
                # map-entry style: closure { k, v -> } called with an entry
                entry = args[0]
                if isinstance(entry, handles.StateRecord):
                    args = [entry.name, entry.value]
            for index, param in enumerate(params):
                scope[param.name] = args[index] if index < len(args) else None
        scopes = list(closure.scopes) + [scope]
        try:
            return self.exec_block(closure.body, scopes)
        except _Return as ret:
            return ret.value

    # ------------------------------------------------------------------
    # environment
    # ------------------------------------------------------------------

    def _build_globals(self):
        # "state"/"atomicState" bind lazily in _lookup: ctx.app_state()
        # deep-copies the app's persistent map, and the cascade stores
        # the copy back and rehashes it when it ends, so stateless
        # handlers must not pay for a handle they never touch
        ctx = self.ctx
        app_name = self.app.name
        env = {
            "location": handles.LocationHandle(ctx, app_name),
            "log": handles.LogHandle(ctx, app_name),
            "app": handles.AppHandle(app_name),
            "Math": _MATH,
        }
        settings = {}
        devices = ctx.system.devices
        for input_name, is_device, payload, wants_group in (
                self.app.binding_plan()):
            if is_device:
                bound = []
                for name in payload:
                    instance = devices.get(name)
                    if instance is not None:
                        bound.append(handles.DeviceHandle(instance, ctx,
                                                          app_name))
                if wants_group or len(bound) > 1:
                    value = handles.DeviceGroup(bound)
                else:
                    value = bound[0] if bound else None
            else:
                # a handler may grow a list setting in place; each run
                # gets its own copy so nothing leaks into the next one
                value = _copy_value(payload)
            env[input_name] = value
            settings[input_name] = value
        env["settings"] = settings
        return env

    def _tick(self):
        self.budget -= 1
        if self.budget <= 0:
            raise ExecutionError("operation budget exhausted (possible "
                                 "non-terminating loop in app code)")

    def _lookup(self, name, scopes):
        for scope in reversed(scopes):
            if name in scope:
                return True, scope[name]
        if name in self._globals:
            return True, self._globals[name]
        if name in ("state", "atomicState"):
            handle = handles.AppStateMap(self.ctx.app_state(self.app.name))
            self._globals["state"] = handle
            self._globals["atomicState"] = handle
            return True, handle
        if self.app.method(name) is not None:
            return True, MethodRef(name)
        return False, None

    def _assign_name(self, name, value, scopes):
        for scope in reversed(scopes):
            if name in scope:
                scope[name] = value
                return
        if name in self._globals and not isinstance(
                self._globals[name], (handles.AppStateMap, handles.LocationHandle,
                                      handles.LogHandle, handles.AppHandle)):
            # apps occasionally overwrite a setting-backed global locally
            self._globals[name] = value
            return
        scopes[-1][name] = value

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def exec_block(self, block, scopes):
        last = None
        for stmt in block.stmts:
            last = self.exec_stmt(stmt, scopes)
        return last

    def exec_stmt(self, stmt, scopes):
        self._tick()
        kind = type(stmt).__name__
        method = getattr(self, "_exec_%s" % kind, None)
        if method is None:
            raise ExecutionError("cannot execute %s" % kind,
                                 stmt.line, stmt.col)
        return method(stmt, scopes)

    def _exec_ExprStmt(self, stmt, scopes):
        return self.eval(stmt.value, scopes)

    def _exec_VarDecl(self, stmt, scopes):
        value = self.eval(stmt.value, scopes) if stmt.value is not None else None
        scopes[-1][stmt.name] = value
        return None

    def _exec_Assign(self, stmt, scopes):
        value = self.eval(stmt.value, scopes)
        target = stmt.target
        if isinstance(target, ast.Name):
            self._assign_name(target.id, value, scopes)
        elif isinstance(target, ast.Property):
            obj = self.eval(target.obj, scopes)
            if obj is None and target.safe:
                return None
            if hasattr(obj, "set_property") and obj.set_property(
                    target.name, value):
                pass
            elif isinstance(obj, dict):
                obj[target.name] = value
            else:
                raise ExecutionError(
                    "cannot assign property %r on %r" % (target.name, obj),
                    stmt.line, stmt.col)
        elif isinstance(target, ast.Index):
            obj = self.eval(target.obj, scopes)
            index = self.eval(target.index, scopes)
            if isinstance(obj, list):
                while len(obj) <= index:
                    obj.append(None)
                obj[index] = value
            elif isinstance(obj, dict):
                obj[index] = value
            elif isinstance(obj, handles.AppStateMap):
                obj.mapping[index] = value
            else:
                raise ExecutionError("cannot index-assign %r" % (obj,),
                                     stmt.line, stmt.col)
        else:
            raise ExecutionError("invalid assignment target", stmt.line, stmt.col)
        return None

    def _exec_If(self, stmt, scopes):
        if is_groovy_truthy(self.eval(stmt.cond, scopes)):
            return self.exec_block(stmt.then, scopes + [{}])
        if stmt.orelse is not None:
            return self.exec_block(stmt.orelse, scopes + [{}])
        return None

    def _exec_While(self, stmt, scopes):
        while is_groovy_truthy(self.eval(stmt.cond, scopes)):
            self._tick()
            try:
                self.exec_block(stmt.body, scopes + [{}])
            except _Break:
                break
            except _Continue:
                continue
        return None

    def _exec_ForIn(self, stmt, scopes):
        iterable = self._iterate(self.eval(stmt.iterable, scopes))
        for item in iterable:
            self._tick()
            scope = {stmt.var: item}
            try:
                self.exec_block(stmt.body, scopes + [scope])
            except _Break:
                break
            except _Continue:
                continue
        return None

    def _exec_Return(self, stmt, scopes):
        value = self.eval(stmt.value, scopes) if stmt.value is not None else None
        raise _Return(value)

    def _exec_Break(self, stmt, scopes):
        raise _Break()

    def _exec_Continue(self, stmt, scopes):
        raise _Continue()

    def _exec_Block(self, stmt, scopes):
        return self.exec_block(stmt, scopes + [{}])

    def _exec_Switch(self, stmt, scopes):
        """Groovy's switch: run the body of the first matching case (of
        ``default`` when none matches) and every later body in order,
        until a ``break``."""
        subject = self.eval(stmt.subject, scopes)
        cases = stmt.cases
        start = next((index for index, case in enumerate(cases)
                      if any(self._case_matches(subject,
                                                self.eval(value, scopes))
                             for value in case.values)), None)
        if start is None:
            start = next((index for index, case in enumerate(cases)
                          if not case.values), None)
        if start is None:
            return None
        scope = scopes + [{}]
        last = None
        try:
            for case in cases[start:]:
                last = self.exec_block(case.body, scope)
        except _Break:
            return None
        return last

    def _case_matches(self, subject, value):
        if isinstance(value, list):
            return subject in value
        return self._equals(subject, value)

    def _exec_Try(self, stmt, scopes):
        try:
            self.exec_block(stmt.body, scopes + [{}])
        except (_GroovyThrow, ExecutionError) as exc:
            if stmt.catches:
                _type, var, block = stmt.catches[0]
                value = exc.value if isinstance(exc, _GroovyThrow) else str(exc)
                self.exec_block(block, scopes + [{var: value}])
            elif isinstance(exc, ExecutionError):
                raise
        finally:
            if stmt.finally_body is not None:
                self.exec_block(stmt.finally_body, scopes + [{}])
        return None

    def _exec_Throw(self, stmt, scopes):
        raise _GroovyThrow(self.eval(stmt.value, scopes))

    def _exec_MethodDef(self, stmt, scopes):
        return None  # nested defs are ignored (not used by smart apps)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval(self, expr, scopes):
        self._tick()
        kind = type(expr).__name__
        method = getattr(self, "_eval_%s" % kind, None)
        if method is None:
            raise ExecutionError("cannot evaluate %s" % kind,
                                 expr.line, expr.col)
        return method(expr, scopes)

    def _eval_Literal(self, expr, scopes):
        return expr.value

    def _eval_GString(self, expr, scopes):
        parts = []
        for part in expr.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                parts.append(to_groovy_string(self.eval(part, scopes)))
        return "".join(parts)

    def _eval_Name(self, expr, scopes):
        found, value = self._lookup(expr.id, scopes)
        if found:
            return value
        # Unbound names resolve to null, matching unset optional inputs.
        return None

    def _eval_ListLit(self, expr, scopes):
        return [self.eval(item, scopes) for item in expr.items]

    def _eval_MapLit(self, expr, scopes):
        mapping = {}
        for entry in expr.entries:
            key = entry.key
            if isinstance(key, ast.Node):
                key = self.eval(key, scopes)
            mapping[key] = self.eval(entry.value, scopes)
        return mapping

    def _eval_RangeLit(self, expr, scopes):
        lo = self._to_number(self.eval(expr.lo, scopes))
        hi = self._to_number(self.eval(expr.hi, scopes))
        return list(range(int(lo), int(hi) + 1))

    def _eval_Property(self, expr, scopes):
        obj = self.eval(expr.obj, scopes)
        if obj is None:
            if expr.safe:
                return None
            return None  # Groovy would NPE; null-tolerance keeps corpus robust
        return self._get_property(obj, expr.name, expr)

    def _get_property(self, obj, name, node):
        if hasattr(obj, "get_property"):
            handled, value = obj.get_property(name)
            if handled:
                return value
        if isinstance(obj, dict):
            return obj.get(name)
        if isinstance(obj, handles.DeviceGroup):
            return [self._get_property(h, name, node) for h in obj.handles]
        if isinstance(obj, list):
            if name == "size":
                return len(obj)
            return [self._get_property(item, name, node) for item in obj]
        if isinstance(obj, str) and name == "length":
            return len(obj)
        return None

    def _eval_Index(self, expr, scopes):
        obj = self.eval(expr.obj, scopes)
        index = self.eval(expr.index, scopes)
        if isinstance(obj, (list, tuple, str)):
            if isinstance(index, (int, float)) and -len(obj) <= index < len(obj):
                return obj[int(index)]
            return None
        if isinstance(obj, dict):
            return obj.get(index)
        if isinstance(obj, handles.AppStateMap):
            return obj.mapping.get(index)
        if isinstance(obj, handles.DeviceGroup):
            return obj[int(index)] if int(index) < len(obj) else None
        return None

    def _eval_Closure(self, expr, scopes):
        return ClosureValue(expr.params, expr.body, list(scopes))

    def _eval_Unary(self, expr, scopes):
        if expr.op == "!":
            return not is_groovy_truthy(self.eval(expr.operand, scopes))
        if expr.op in ("++", "--"):
            value = self._to_number(self.eval(expr.operand, scopes)) or 0
            delta = 1 if expr.op == "++" else -1
            new = value + delta
            if isinstance(expr.operand, ast.Name):
                self._assign_name(expr.operand.id, new, scopes)
            return new
        value = self.eval(expr.operand, scopes)
        if expr.op == "-":
            return -self._to_number(value)
        if expr.op == "+":
            return self._to_number(value)
        if expr.op == "~":
            return ~int(self._to_number(value))
        raise ExecutionError("unknown unary %r" % expr.op, expr.line, expr.col)

    def _eval_Postfix(self, expr, scopes):
        value = self._to_number(self.eval(expr.operand, scopes)) or 0
        delta = 1 if expr.op == "++" else -1
        if isinstance(expr.operand, ast.Name):
            self._assign_name(expr.operand.id, value + delta, scopes)
        return value

    def _eval_Ternary(self, expr, scopes):
        if is_groovy_truthy(self.eval(expr.cond, scopes)):
            return self.eval(expr.then, scopes)
        return self.eval(expr.orelse, scopes)

    def _eval_Elvis(self, expr, scopes):
        value = self.eval(expr.value, scopes)
        if is_groovy_truthy(value):
            return value
        return self.eval(expr.fallback, scopes)

    def _eval_Cast(self, expr, scopes):
        value = self.eval(expr.value, scopes)
        target = expr.type_name
        if target in ("int", "Integer", "long", "Long", "short", "BigInteger"):
            return int(float(value)) if value is not None else None
        if target in ("float", "double", "Float", "Double", "BigDecimal"):
            return float(value) if value is not None else None
        if target in ("String", "GString"):
            return to_groovy_string(value)
        if target in ("boolean", "Boolean"):
            return is_groovy_truthy(value)
        if target in ("List", "ArrayList", "Collection"):
            return list(self._iterate(value)) if value is not None else []
        return value

    def _eval_New(self, expr, scopes):
        args = [self.eval(a, scopes) for a in expr.args]
        type_name = expr.type_name
        if type_name == "Date":
            if args:
                millis = args[0]
                if isinstance(millis, handles.DateValue):
                    millis = millis.millis
                return handles.DateValue(self._to_number(millis))
            return handles.DateValue(self.ctx.now_millis())
        if type_name in ("ArrayList", "LinkedList"):
            return list(args[0]) if args else []
        if type_name in ("HashMap", "LinkedHashMap", "TreeMap"):
            return dict(args[0]) if args else {}
        if type_name in ("HashSet", "TreeSet"):
            return list(args[0]) if args else []
        if type_name in ("String", "StringBuilder", "StringBuffer"):
            return to_groovy_string(args[0]) if args else ""
        raise ExecutionError("cannot construct %r" % type_name,
                             expr.line, expr.col)

    def _eval_Binary(self, expr, scopes):
        op = expr.op
        if op == "&&":
            left = self.eval(expr.left, scopes)
            if not is_groovy_truthy(left):
                return False
            return is_groovy_truthy(self.eval(expr.right, scopes))
        if op == "||":
            left = self.eval(expr.left, scopes)
            if is_groovy_truthy(left):
                return True
            return is_groovy_truthy(self.eval(expr.right, scopes))
        left = self.eval(expr.left, scopes)
        right = self.eval(expr.right, scopes)
        return self._binary(op, left, right, expr)

    def _binary(self, op, left, right, node):
        if op == "==":
            return self._equals(left, right)
        if op == "!=":
            return not self._equals(left, right)
        if op in ("<", "<=", ">", ">="):
            return self._compare(op, left, right)
        if op == "<=>":
            ln, rn = self._coerce_pair(left, right)
            return (ln > rn) - (ln < rn)
        if op == "+":
            return self._plus(left, right)
        if op == "-":
            if isinstance(left, list):
                rights = right if isinstance(right, list) else [right]
                return [item for item in left if item not in rights]
            return self._to_number(left) - self._to_number(right)
        if op == "*":
            return self._to_number(left) * self._to_number(right)
        if op == "/":
            divisor = self._to_number(right)
            if divisor == 0:
                raise _GroovyThrow("division by zero")
            return self._to_number(left) / divisor
        if op == "%":
            return self._to_number(left) % self._to_number(right)
        if op == "**":
            return self._to_number(left) ** self._to_number(right)
        if op == "in":
            return self._membership(left, right)
        if op == "instanceof":
            return self._instanceof(left, right)
        if op == "<<":
            if isinstance(left, list):
                left.append(right)
                return left
            return int(self._to_number(left)) << int(self._to_number(right))
        if op == ">>":
            return int(self._to_number(left)) >> int(self._to_number(right))
        if op in ("&", "|", "^"):
            ln, rn = int(self._to_number(left)), int(self._to_number(right))
            return {"&": ln & rn, "|": ln | rn, "^": ln ^ rn}[op]
        if op == "==~":
            import re
            return re.fullmatch(str(right), str(left)) is not None
        raise ExecutionError("unknown operator %r" % op, node.line, node.col)

    def _equals(self, left, right):
        if isinstance(left, bool) or isinstance(right, bool):
            if isinstance(left, bool) and isinstance(right, bool):
                return left == right
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        return left == right

    def _compare(self, op, left, right):
        ln, rn = self._coerce_pair(left, right)
        if op == "<":
            return ln < rn
        if op == "<=":
            return ln <= rn
        if op == ">":
            return ln > rn
        return ln >= rn

    def _coerce_pair(self, left, right):
        if isinstance(left, handles.DateValue) or isinstance(right, handles.DateValue):
            ln = left.millis if isinstance(left, handles.DateValue) else self._to_number(left)
            rn = right.millis if isinstance(right, handles.DateValue) else self._to_number(right)
            return ln, rn
        if isinstance(left, str) and isinstance(right, str):
            try:
                return float(left), float(right)
            except ValueError:
                return left, right
        return self._to_number(left), self._to_number(right)

    def _plus(self, left, right):
        if isinstance(left, list):
            if isinstance(right, list):
                return left + right
            return left + [right]
        if isinstance(left, str) or isinstance(right, str):
            return to_groovy_string(left) + to_groovy_string(right)
        if isinstance(left, dict) and isinstance(right, dict):
            merged = dict(left)
            merged.update(right)
            return merged
        if isinstance(left, handles.DateValue):
            return handles.DateValue(left.millis + self._to_number(right))
        return self._to_number(left) + self._to_number(right)

    def _membership(self, item, container):
        if container is None:
            return False
        if isinstance(container, (list, tuple, str)):
            return item in container
        if isinstance(container, dict):
            return item in container
        if isinstance(container, handles.DeviceGroup):
            return item in container.handles
        return False

    def _instanceof(self, value, type_name):
        table = {
            "String": str, "Integer": int, "Long": int, "Number": (int, float),
            "Double": float, "Float": float, "BigDecimal": float,
            "Boolean": bool, "List": list, "ArrayList": list, "Map": dict,
            "Collection": (list, tuple),
        }
        python_type = table.get(str(type_name))
        if python_type is None:
            return False
        if python_type is int and isinstance(value, bool):
            return False
        return isinstance(value, python_type)

    def _to_number(self, value):
        if value is None:
            return 0
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, handles.DateValue):
            return value.millis
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                try:
                    return float(value)
                except ValueError:
                    raise _GroovyThrow("cannot coerce %r to number" % value)
        raise _GroovyThrow("cannot coerce %r to number" % (value,))

    def _iterate(self, value):
        if value is None:
            return []
        if isinstance(value, handles.DeviceGroup):
            return list(value.handles)
        if isinstance(value, dict):
            return [handles.StateRecord(k, v, None) for k, v in value.items()]
        if isinstance(value, (list, tuple, str)):
            return list(value)
        return [value]

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _eval_Call(self, expr, scopes):
        name = expr.name
        args = [self.eval(a, scopes) for a in expr.args]
        named = {entry.key: self.eval(entry.value, scopes)
                 for entry in expr.named if isinstance(entry.key, str)}
        closure = self._eval_Closure(expr.closure, scopes) if expr.closure else None

        method = self.app.method(name)
        if method is not None:
            if named and not args:
                args = [named]
            if closure is not None:
                args.append(closure)
            return self.call_method(method, args)

        # local closure variables are callable: `def c = {...}; c(1)`
        found, value = self._lookup(name, scopes)
        if found and isinstance(value, ClosureValue):
            return self.invoke_closure(value, args)

        return self._platform_api(name, args, named, closure, expr)

    def _eval_MethodCall(self, expr, scopes):
        obj = self.eval(expr.obj, scopes)
        if obj is None:
            if expr.safe:
                return None
            return None
        args = [self.eval(a, scopes) for a in expr.args]
        named = {entry.key: self.eval(entry.value, scopes)
                 for entry in expr.named if isinstance(entry.key, str)}
        closure = self._eval_Closure(expr.closure, scopes) if expr.closure else None

        if expr.spread:
            results = []
            for item in self._iterate(obj):
                results.append(self._invoke_on(item, expr.name, args, named,
                                               closure, expr))
            return results
        return self._invoke_on(obj, expr.name, args, named, closure, expr)

    def _invoke_on(self, obj, name, args, named, closure, node):
        if isinstance(obj, ClosureValue) and name == "call":
            return self.invoke_closure(obj, args)
        if isinstance(obj, MethodRef) and name == "call":
            method = self.app.method(obj.name)
            return self.call_method(method, args)
        if hasattr(obj, "invoke"):
            handled, result = obj.invoke(name, args, named)
            if handled:
                return result
        receiver = obj
        if isinstance(obj, handles.DeviceGroup):
            receiver = obj.handles
        handled, result = call_builtin(receiver, name, args, closure,
                                       self.invoke_closure)
        if handled:
            return result
        if isinstance(obj, handles.MapEntryValue):
            if name == "getKey":
                return obj.key
            if name == "getValue":
                return obj.value
        # `this.someMethod(...)` and helper dispatch on unknown receivers
        method = self.app.method(name)
        if method is not None:
            if closure is not None:
                args = list(args) + [closure]
            return self.call_method(method, args)
        self.ctx.log(self.app.name, "warn",
                     "unmodeled method %s on %r" % (name, type(obj).__name__))
        return None

    # ------------------------------------------------------------------
    # platform APIs
    # ------------------------------------------------------------------

    def _platform_api(self, name, args, named, closure, node):
        ctx, app_name = self.ctx, self.app.name

        if name in _RUNTIME_NOOPS:
            return None
        if name == "unsubscribe":
            ctx.security_sensitive_command(app_name, "unsubscribe", node.line)
            return None
        if name in ("sendSms", "sendSmsMessage"):
            recipient = str(args[0]) if args else ""
            message = to_groovy_string(args[1]) if len(args) > 1 else ""
            ctx.send_sms(app_name, recipient, message, node.line)
            return None
        if name in ("sendPush", "sendPushMessage"):
            ctx.send_push(app_name, to_groovy_string(args[0]) if args else "",
                          node.line)
            return None
        if name == "sendNotification":
            ctx.send_push(app_name, to_groovy_string(args[0]) if args else "",
                          node.line)
            return None
        if name == "sendNotificationToContacts":
            message = to_groovy_string(args[0]) if args else ""
            recipients = args[1] if len(args) > 1 else []
            for recipient in self._iterate(recipients):
                ctx.send_sms(app_name, str(recipient), message, node.line)
            return None
        if name == "sendNotificationEvent":
            return None  # display-only notification in the companion app
        if name in ("httpPost", "httpPostJson", "httpGet", "httpPut",
                    "httpPutJson", "httpDelete", "asynchttp_v1"):
            url = ""
            if args:
                first = args[0]
                if isinstance(first, dict):
                    url = str(first.get("uri", ""))
                else:
                    url = str(first)
            elif named:
                url = str(named.get("uri", ""))
            ctx.http_request(app_name, name, url, node.line)
            return None
        if name in ("runIn", "runOnce", "runDaily"):
            handler = args[1] if len(args) > 1 else None
            handler_name = self._handler_arg(handler)
            if handler_name:
                ctx.schedule(app_name, handler_name, periodic=False)
            return None
        if name == "schedule":
            handler_name = self._handler_arg(args[1] if len(args) > 1 else None)
            if handler_name:
                ctx.schedule(app_name, handler_name, periodic=True)
            return None
        if name.startswith("runEvery"):
            handler_name = self._handler_arg(args[0] if args else None)
            if handler_name:
                ctx.schedule(app_name, handler_name, periodic=True)
            return None
        if name == "unschedule":
            handler_name = self._handler_arg(args[0]) if args else None
            ctx.unschedule(app_name, handler_name)
            return None
        if name == "setLocationMode":
            ctx.set_location_mode(str(args[0]), app_name)
            return None
        if name == "sendLocationEvent":
            event_name = named.get("name") or (args[0] if args else None)
            value = named.get("value")
            if event_name == "mode" and value is not None:
                ctx.set_location_mode(str(value), app_name)
            else:
                ctx.fake_event(app_name, str(event_name), value, node.line)
            return None
        if name == "sendEvent":
            payload = named or (args[0] if args and isinstance(args[0], dict) else {})
            event_name = payload.get("name")
            value = payload.get("value")
            if event_name is not None:
                ctx.fake_event(app_name, str(event_name), value, node.line)
            return None
        if name == "createEvent":
            return dict(named) if named else (args[0] if args else {})
        if name == "now":
            return ctx.now_millis()
        if name == "getSunriseAndSunset":
            return {"sunrise": handles.DateValue(ctx.now_millis()),
                    "sunset": handles.DateValue(ctx.now_millis() + 1)}
        if name == "timeOfDayIsBetween":
            # Over-approximation: time-window guards stay open so guarded
            # behaviours are explored (documented in DESIGN.md).
            return True
        if name in ("timeToday", "timeTodayAfter", "toDateTime"):
            return handles.DateValue(ctx.now_millis())
        if name == "parseJson":
            return {}
        if name == "textToSpeech":
            return {"uri": "tts://" + (to_groovy_string(args[0]) if args else "")}
        if name in ("getChildDevices", "getAllChildDevices", "getChildDevice"):
            # Dynamic device discovery is out of scope (paper §11 limitation 2).
            ctx.log(app_name, "warn", "dynamic device discovery is unsupported")
            return []
        if name in ("pause", "updateAppLabel", "createAccessToken",
                    "revokeAccessToken", "getApiServerUrl"):
            return None
        if name == "canSchedule":
            return True
        if name == "getTemperatureScale" or name == "temperatureScale":
            return "F"
        ctx.log(app_name, "warn", "unmodeled API %s()" % name)
        return None

    def _handler_arg(self, value):
        if isinstance(value, MethodRef):
            return value.name
        if isinstance(value, str):
            return value
        if isinstance(value, ClosureValue):
            return None
        return None
