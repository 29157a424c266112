"""Source-level code generation of the transition relation.

The tree interpreter (:mod:`repro.model.interpreter`) re-walks the
lowered Groovy AST on every handler invocation.  In the spirit of SPIN
generating a C ``pan`` verifier from the model, this module instead
emits one real Python **module** per app from the lowered handler IR -
straight-line functions specialized against the concrete
:class:`~repro.model.system.IoTSystem` - then ``compile()``/``exec``'s
the source so handlers execute as ordinary CPython bytecode.

Three cooperating layers:

* :class:`SourceEmitter` mirrors the interpreter construct-for-construct
  and emits deterministic Python source.  Control flow (``if``/
  ``while``/``for``/``switch``/``try``) becomes native Python control
  flow; known intra-app calls dispatch **statically** (the callee is
  resolved to its generated function at generation time); scope chains,
  platform APIs and Groovy operator semantics route through the same
  :class:`~repro.model.interpreter.Interpreter` helpers the interpreter
  uses, keeping it a meaningful differential oracle.
* :class:`GeneratedExecutor` subclasses :class:`Interpreter`, so every
  semantic helper is shared; it replaces the entry points that would
  walk the AST, adds the small ``_g_*`` runtime surface the generated
  code calls and - unlike the per-handler-run construction of the
  interpreter - supports :meth:`~GeneratedExecutor.rebind` pooling: the
  environment is built once and re-armed per handler run with two dict
  copies.
* :class:`CodegenPlan` owns a system's generated programs, the executor
  pool, the digest-keyed on-disk source cache, and the **lean**
  transition relation: a traceless :class:`Cascade` subclass that skips
  all ``TraceStep`` recording and label formatting during search
  (violating paths are replayed through the traced relation by the
  engine, so reported traces are byte-identical to the interpreter's).

Divergences from the interpreter, by design:

* the operation budget ticks once per *statement* and per loop
  iteration instead of per AST node, so generated code spends the
  50k-op budget more slowly; runaway loops still trip it;
* a construct the emitter cannot handle raises :class:`CodegenError`
  at generation time and the whole app falls back to the tree
  interpreter (ticking the budget per AST node again), whereas the
  interpreter would fail only if the node were actually executed.

Generated sources are cached under ``~/.cache/repro/codegen/<digest>/``
(override with ``EngineOptions.codegen_cache`` or the
``$REPRO_CODEGEN_CACHE`` environment variable), keyed by the system's
semantic digest: generation is pay-once-per-corpus, and pool workers
regenerate executors from the cache by digest.  Emission is deterministic - a fixed digest maps to
byte-identical module text - so cached modules can be linted and
diffed.  Apps whose IR defeats the emitter are listed in
:attr:`CodegenPlan.fallbacks` and run on the :class:`Interpreter`, in
the lean relation and in :meth:`Cascade._executor` alike.
"""

import hashlib
import io
import os
import tempfile
import threading

from repro.checker.violations import TraceStep
from repro.groovy import ast
from repro.model import handles
from repro.model.cascade import (
    MAX_INTERNAL_EVENTS,
    NO_FAILURE,
    TIME_QUANTUM_MS,
    Cascade,
    FailureScenario,
    _coerce_attribute_value,
    _freeze_arg,
)
from repro.model.events import APP, DEVICE, LOCATION, Event
from repro.model.handles import DeviceHandle, EventHandle
from repro.model.interpreter import (
    DEFAULT_OP_BUDGET,
    ClosureValue,
    ExecutionError,
    Interpreter,
    _Break,
    _Continue,
    _GroovyThrow,
    _Return,
    assign_index_value,
    assign_property_value,
    get_property_value,
    index_value,
)
from repro.translator.builtins import is_groovy_truthy, to_groovy_string

__all__ = [
    "CODEGEN_SCHEMA_VERSION",
    "CodegenError",
    "CodegenPlan",
    "GenClosure",
    "GeneratedExecutor",
    "GeneratedProgram",
    "GenMethod",
    "GenParam",
    "SourceEmitter",
    "default_cache_dir",
    "generate_source",
]

#: bumped whenever emitted-source semantics change; part of the cache
#: directory name so stale modules from an older emitter never load
#: (v2: closures build :class:`GenClosure`, not the retired
#: ``CompiledClosure``)
CODEGEN_SCHEMA_VERSION = 2


class CodegenError(Exception):
    """Raised when an app's IR contains a construct we cannot emit
    (callers fall back to the interpreter)."""


class _Pos:
    """A source position constant embedded in generated modules (the
    shared runtime helpers report errors at ``node.line``/``node.col``)."""

    __slots__ = ("line", "col")

    def __init__(self, line, col):
        self.line = line
        self.col = col

    def __repr__(self):
        return "_Pos(%d, %d)" % (self.line, self.col)


class GenParam:
    """A generated method/closure parameter (name only: default thunks
    live in the method's ``defaults`` tuple)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "GenParam(%r)" % (self.name,)


class GenMethod:
    """One generated method: parameters, default thunks, body function.

    ``defaults`` holds one ``fn(rt, scopes)`` per parameter (``None``
    for parameters without a default) and ``body`` is the module-level
    generated ``fn(rt, s0)``.
    """

    __slots__ = ("name", "params", "defaults", "body")

    def __init__(self, name, params, defaults, body):
        self.name = name
        self.params = params
        self.defaults = defaults
        self.body = body

    def __repr__(self):
        return "GenMethod(%r)" % (self.name,)


class GenClosure(ClosureValue):
    """A closure literal whose body is a generated function.

    Subclasses :class:`ClosureValue` so every ``isinstance`` check in the
    shared interpreter machinery (``_invoke_on``, ``_handler_arg``, the
    local-closure call path) treats it like an ordinary closure value;
    ``body`` holds the generated ``fn(rt, scopes)`` instead of an AST
    block.
    """

    __slots__ = ()


class GeneratedProgram:
    """All generated methods of one app, plus cache provenance."""

    __slots__ = ("methods", "app_name", "source_path")

    def __init__(self, methods, app_name, source_path=None):
        self.methods = methods
        self.app_name = app_name
        self.source_path = source_path

    def __repr__(self):
        return "GeneratedProgram(%r, methods=%d)" % (self.app_name,
                                                     len(self.methods))


# ----------------------------------------------------------------------
# source emission
# ----------------------------------------------------------------------

_IDENT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

_CAST_INT = ("int", "Integer", "long", "Long", "short", "BigInteger")
_CAST_FLOAT = ("float", "double", "Float", "Double", "BigDecimal")


def _is_identifier(name):
    return (name and name[0] not in "0123456789"
            and all(ch in _IDENT_OK for ch in name)
            and not name.startswith("__"))


class _Writer:
    """An indented line buffer for one generated function."""

    __slots__ = ("lines", "indent")

    def __init__(self):
        self.lines = []
        self.indent = 1

    def emit(self, text):
        self.lines.append("    " * self.indent + text)

    def block(self):
        self.indent += 1

    def end(self):
        self.indent -= 1


class SourceEmitter:
    """Emits one deterministic Python module from an app's lowered IR.

    Mirrors :class:`~repro.model.interpreter.Interpreter`
    construct-for-construct; every semantic decision below cites the
    interpreter behaviour it reproduces.  Statement emission returns
    ``True`` when the emitted code definitely left the function
    (``return``/``raise``/``break``/``continue`` on every path we
    emit), which is how tail blocks decide whether a trailing
    ``return None`` is needed.
    """

    def __init__(self, program):
        self.program = program
        # later definitions win, exactly like ``AppInstance.method``
        self.methods_by_name = {m.name: m for m in program.methods}
        self.functions = []       # finished function line-lists, in order
        self.positions = {}       # (line, col) -> "_P<n>"
        self.used = set()         # runtime names to import
        self.counter = 0
        self._fn_names = {}       # groovy method name -> generated fn name

    # -- small helpers -------------------------------------------------

    def _tmp(self, prefix):
        self.counter += 1
        return "_%s%d" % (prefix, self.counter)

    def _pos(self, node):
        key = (node.line, node.col)
        name = self.positions.get(key)
        if name is None:
            name = "_P%d" % len(self.positions)
            self.positions[key] = name
            self.used.add("_Pos")
        return name

    def _fn_name(self, method_name, index):
        name = self._fn_names.get(method_name)
        if name is None:
            name = ("m_%s" % method_name if _is_identifier(method_name)
                    else "m_x%d" % index)
            self._fn_names[method_name] = name
        return name

    # -- module --------------------------------------------------------

    def emit_module(self, app_name, digest):
        """The whole module text: header, runtime imports, position
        constants, one function per method, default and closure, and
        the ``METHODS`` table of :class:`GenMethod` records."""
        methods = self.program.methods
        for index, method in enumerate(methods):
            self._fn_name(method.name, index)  # pre-bind: static call targets
        entries = []
        for index, method in enumerate(methods):
            entries.append(self._emit_method(method, index))

        out = io.StringIO()
        out.write('"""Generated handler module for app %r.\n\n'
                  "System digest: %s (codegen schema v%d).\n"
                  "Auto-generated by repro.model.codegen - do not edit.\n"
                  '"""\n' % (app_name, digest, CODEGEN_SCHEMA_VERSION))
        if entries:
            self.used.update(("GenMethod", "GenParam"))
        imports = sorted(self.used)
        if imports:
            out.write("\nfrom repro.model.codegen import (\n")
            for name in imports:
                out.write("    %s,\n" % name)
            out.write(")\n")
        if self.positions:
            out.write("\n")
            for (line, col), name in sorted(self.positions.items(),
                                            key=lambda item: item[1]):
                out.write("%s = _Pos(%d, %d)\n" % (name, line, col))
        for lines in self.functions:
            out.write("\n\n")
            out.write("\n".join(lines))
            out.write("\n")
        out.write("\n\nMETHODS = {\n")
        for entry in entries:
            out.write("    %s,\n" % entry)
        out.write("}\n")
        return out.getvalue()

    def _emit_method(self, method, index):
        fn = self._fn_name(method.name, index)
        defaults = []
        for pidx, param in enumerate(method.params):
            if param.default is None:
                defaults.append("None")
                continue
            dname = "_d_%s_%d" % (fn, pidx)
            w = _Writer()
            w.lines.append("def %s(rt, s0):" % dname)
            w.emit("return %s" % self._expr(w, param.default, "s0"))
            self.functions.append(w.lines)
            defaults.append(dname)
        self._emit_function(fn, method.body)
        params = ", ".join("GenParam(%r)" % p.name for p in method.params)
        if params:
            params += ","
        return '%r: GenMethod(%r, (%s), (%s%s), %s)' % (
            method.name, method.name, params,
            ", ".join(defaults), "," if defaults else "", fn)

    def _emit_function(self, fn, block):
        """One ``def fn(rt, s0)`` whose body is the block in tail
        position (mirrors ``_call_generated``/``invoke_closure`` calling
        ``body(self, [scope])`` and returning its value)."""
        w = _Writer()
        w.lines.append("def %s(rt, s0):" % fn)
        if not block.stmts:
            w.emit("return None")
        else:
            w.emit("_t = rt._tick")
            exited = self._stmts(w, block, "s0", [], tail=True)
            if not exited:
                w.emit("return None")
        self.functions.append(w.lines)

    # -- statements ----------------------------------------------------

    def _stmts(self, w, block, sv, hctx, tail):
        """Emit a statement list into the *current* scope ``sv`` (scope
        creation is the caller's job).  ``rt._tick()`` precedes every
        statement, as in ``compile_block``."""
        stmts = block.stmts
        if not stmts:
            w.emit("pass")
            return False
        exited = False
        for index, stmt in enumerate(stmts):
            w.emit("_t()")
            exited = self._stmt(w, stmt, sv, hctx,
                                tail and index == len(stmts) - 1)
        return exited

    def _scoped_stmts(self, w, block, sv, hctx, tail, seed=None):
        """Emit a block in a fresh lexical scope ``sv + [{}]`` (created
        only when the body actually references it, keeping the emitted
        source lint-clean)."""
        new_sv = self._tmp("s")
        inner = _Writer()
        inner.indent = w.indent
        exited = self._stmts(inner, block, new_sv, hctx, tail)
        body = "\n".join(inner.lines)
        if new_sv in body:
            w.emit("%s = %s + [%s]" % (new_sv, sv, seed or "{}"))
        w.lines.extend(inner.lines)
        return exited

    def _stmt(self, w, stmt, sv, hctx, tail):
        kind = type(stmt).__name__
        method = getattr(self, "_stmt_%s" % kind, None)
        if method is None:
            raise CodegenError("cannot emit statement %s" % kind)
        return method(w, stmt, sv, hctx, tail)

    def _stmt_ExprStmt(self, w, stmt, sv, hctx, tail):
        value = self._expr(w, stmt.value, sv)
        if tail:
            w.emit("return %s" % value)
            return True
        w.emit(value)
        return False

    def _stmt_VarDecl(self, w, stmt, sv, hctx, tail):
        if stmt.value is None:
            w.emit("%s[-1][%r] = None" % (sv, stmt.name))
        else:
            w.emit("%s[-1][%r] = %s" % (sv, stmt.name,
                                        self._expr(w, stmt.value, sv)))
        return False

    def _stmt_Assign(self, w, stmt, sv, hctx, tail):
        target = stmt.target
        if isinstance(target, ast.Name):
            w.emit("rt._assign_name(%r, %s, %s)"
                   % (target.id, self._expr(w, stmt.value, sv), sv))
            return False
        if isinstance(target, ast.Property):
            # value first, then the object, exactly like ``assign_property``
            self.used.add("assign_property_value")
            value_tmp = self._tmp("v")
            obj_tmp = self._tmp("o")
            w.emit("%s = %s" % (value_tmp, self._expr(w, stmt.value, sv)))
            w.emit("%s = %s" % (obj_tmp, self._expr(w, target.obj, sv)))
            call = "assign_property_value(%s, %r, %s, %s)" % (
                obj_tmp, target.name, value_tmp, self._pos(stmt))
            if target.safe:
                w.emit("if %s is not None:" % obj_tmp)
                w.block()
                w.emit(call)
                w.end()
            else:
                w.emit(call)
            return False
        if isinstance(target, ast.Index):
            self.used.add("assign_index_value")
            value_tmp = self._tmp("v")
            obj_tmp = self._tmp("o")
            w.emit("%s = %s" % (value_tmp, self._expr(w, stmt.value, sv)))
            w.emit("%s = %s" % (obj_tmp, self._expr(w, target.obj, sv)))
            w.emit("assign_index_value(%s, %s, %s, %s)"
                   % (obj_tmp, self._expr(w, target.index, sv), value_tmp,
                      self._pos(stmt)))
            return False
        self.used.add("ExecutionError")
        w.emit("raise ExecutionError(%r, %d, %d)"
               % ("invalid assignment target", stmt.line, stmt.col))
        return True

    def _stmt_If(self, w, stmt, sv, hctx, tail):
        self.used.add("is_groovy_truthy")
        w.emit("if is_groovy_truthy(%s):" % self._expr(w, stmt.cond, sv))
        w.block()
        then_exited = self._scoped_stmts(w, stmt.then, sv, hctx, tail)
        w.end()
        if stmt.orelse is None:
            return False
        w.emit("else:")
        w.block()
        else_exited = self._scoped_stmts(w, stmt.orelse, sv, hctx, tail)
        w.end()
        return then_exited and else_exited

    def _stmt_While(self, w, stmt, sv, hctx, tail):
        self.used.add("is_groovy_truthy")
        self.used.update(("_Break", "_Continue"))
        w.emit("while is_groovy_truthy(%s):" % self._expr(w, stmt.cond, sv))
        w.block()
        w.emit("_t()")
        self._emit_loop_body(w, stmt.body, sv, hctx)
        w.end()
        return False

    def _stmt_ForIn(self, w, stmt, sv, hctx, tail):
        self.used.update(("_Break", "_Continue"))
        item = self._tmp("i")
        w.emit("for %s in rt._iterate(%s):"
               % (item, self._expr(w, stmt.iterable, sv)))
        w.block()
        w.emit("_t()")
        self._emit_loop_body(w, stmt.body, sv, hctx,
                             seed="{%r: %s}" % (stmt.var, item))
        w.end()
        return False

    def _emit_loop_body(self, w, block, sv, hctx, seed=None):
        """The ``try: <body> except _Break: break except _Continue:
        continue`` iteration wrapper shared by both loops (the raising
        forms still arrive from nested closures)."""
        w.emit("try:")
        w.block()
        self._scoped_stmts(w, block, sv, hctx + ["loop"], tail=False,
                           seed=seed)
        w.end()
        w.emit("except _Break:")
        w.block()
        w.emit("break")
        w.end()
        w.emit("except _Continue:")
        w.block()
        w.emit("continue")
        w.end()

    def _stmt_Return(self, w, stmt, sv, hctx, tail):
        if stmt.value is None:
            w.emit("return None")
        else:
            w.emit("return %s" % self._expr(w, stmt.value, sv))
        return True

    def _stmt_Break(self, w, stmt, sv, hctx, tail):
        if hctx and hctx[-1] == "loop":
            w.emit("break")
        else:
            # nearest handler is a switch arm (or the function boundary):
            # raise, as the interpreter does
            self.used.add("_Break")
            w.emit("raise _Break()")
        return True

    def _stmt_Continue(self, w, stmt, sv, hctx, tail):
        if "loop" in hctx:
            # ``continue`` binds to the nearest enclosing Python loop,
            # matching _Continue propagating through switch-arm handlers
            w.emit("continue")
        else:
            self.used.add("_Continue")
            w.emit("raise _Continue()")
        return True

    def _stmt_Block(self, w, stmt, sv, hctx, tail):
        return self._scoped_stmts(w, stmt, sv, hctx, tail)

    def _stmt_Switch(self, w, stmt, sv, hctx, tail):
        self.used.add("_Break")
        subject = self._tmp("sw")
        w.emit("%s = %s" % (subject, self._expr(w, stmt.subject, sv)))
        default_body = None
        keyword = "if"
        for case in stmt.cases:
            if not case.values:
                default_body = case.body  # position-independent, runs last
                continue
            tests = " or ".join(
                "rt._case_matches(%s, %s)" % (subject, self._expr(w, value, sv))
                for value in case.values)
            w.emit("%s %s:" % (keyword, tests))
            keyword = "elif"
            w.block()
            self._emit_switch_arm(w, case.body, sv, hctx, tail)
            w.end()
        if default_body is not None:
            if keyword == "if":  # degenerate switch: only a default arm
                self._emit_switch_arm(w, default_body, sv, hctx, tail)
            else:
                w.emit("else:")
                w.block()
                self._emit_switch_arm(w, default_body, sv, hctx, tail)
                w.end()
        return False

    def _emit_switch_arm(self, w, block, sv, hctx, tail):
        """One matched arm: ``try: <body> except _Break: ...`` -
        ``break`` inside an arm exits the switch, not any outer loop."""
        w.emit("try:")
        w.block()
        self._scoped_stmts(w, block, sv, hctx + ["arm"], tail)
        w.end()
        w.emit("except _Break:")
        w.block()
        if tail:
            w.emit("return None")
        else:
            w.emit("pass")
        w.end()

    def _stmt_Try(self, w, stmt, sv, hctx, tail):
        self.used.update(("_GroovyThrow", "ExecutionError"))
        exc = self._tmp("e")
        w.emit("try:")
        w.block()
        self._scoped_stmts(w, stmt.body, sv, hctx, tail=False)
        w.end()
        w.emit("except (_GroovyThrow, ExecutionError) as %s:" % exc)
        w.block()
        if stmt.catches:
            _type, catch_var, catch_block = stmt.catches[0]
            seed = ("{%r: %s.value if isinstance(%s, _GroovyThrow) "
                    "else str(%s)}" % (catch_var, exc, exc, exc))
            inner = _Writer()
            inner.indent = w.indent
            self._scoped_stmts(inner, catch_block, sv, hctx, tail=False,
                               seed=seed)
            if exc not in "\n".join(inner.lines):
                inner.lines.insert(0, "    " * w.indent + "del %s" % exc)
            w.lines.extend(inner.lines)
        else:
            w.emit("if isinstance(%s, ExecutionError):" % exc)
            w.block()
            w.emit("raise")
            w.end()
        w.end()
        if stmt.finally_body is not None:
            w.emit("finally:")
            w.block()
            self._scoped_stmts(w, stmt.finally_body, sv, hctx, tail=False)
            w.end()
        return False

    def _stmt_Throw(self, w, stmt, sv, hctx, tail):
        self.used.add("_GroovyThrow")
        w.emit("raise _GroovyThrow(%s)" % self._expr(w, stmt.value, sv))
        return True

    def _stmt_MethodDef(self, w, stmt, sv, hctx, tail):
        w.emit("pass")  # nested defs are ignored, as interpreted
        return False

    # -- expressions ---------------------------------------------------

    def _expr(self, w, expr, sv):
        kind = type(expr).__name__
        method = getattr(self, "_expr_%s" % kind, None)
        if method is None:
            raise CodegenError("cannot emit expression %s" % kind)
        return method(w, expr, sv)

    def _expr_Literal(self, w, expr, sv):
        return repr(expr.value)

    def _expr_GString(self, w, expr, sv):
        if not expr.parts:
            return "''"
        self.used.add("to_groovy_string")
        pieces = []
        for part in expr.parts:
            if isinstance(part, str):
                pieces.append(repr(part))
            else:
                pieces.append("to_groovy_string(%s)"
                              % self._expr(w, part, sv))
        return "(%s)" % " + ".join(pieces)

    def _expr_Name(self, w, expr, sv):
        return "rt._g_name(%s, %r)" % (sv, expr.id)

    def _expr_ListLit(self, w, expr, sv):
        return "[%s]" % ", ".join(self._expr(w, item, sv)
                                  for item in expr.items)

    def _expr_MapLit(self, w, expr, sv):
        entries = []
        for entry in expr.entries:
            key = (self._expr(w, entry.key, sv)
                   if isinstance(entry.key, ast.Node) else repr(entry.key))
            entries.append("%s: %s" % (key, self._expr(w, entry.value, sv)))
        return "{%s}" % ", ".join(entries)

    def _expr_RangeLit(self, w, expr, sv):
        return "rt._g_range(%s, %s)" % (self._expr(w, expr.lo, sv),
                                        self._expr(w, expr.hi, sv))

    def _expr_Property(self, w, expr, sv):
        # null-tolerant whether safe or not, matching the interpreter
        self.used.add("get_property_value")
        tmp = self._tmp("o")
        return ("(get_property_value(%s, %r) if (%s := %s) is not None "
                "else None)" % (tmp, expr.name, tmp,
                                self._expr(w, expr.obj, sv)))

    def _expr_Index(self, w, expr, sv):
        self.used.add("index_value")
        return "index_value(%s, %s)" % (self._expr(w, expr.obj, sv),
                                        self._expr(w, expr.index, sv))

    def _expr_Closure(self, w, expr, sv):
        self.used.add("GenClosure")
        fn = self._tmp("c")
        self._emit_function(fn, expr.body)
        params = ", ".join("GenParam(%r)" % p.name for p in expr.params)
        if params:
            self.used.add("GenParam")
            params += ","
        return "GenClosure((%s), %s, list(%s))" % (params, fn, sv)

    def _expr_Unary(self, w, expr, sv):
        op = expr.op
        if op == "!":
            self.used.add("is_groovy_truthy")
            return ("(not is_groovy_truthy(%s))"
                    % self._expr(w, expr.operand, sv))
        if op in ("++", "--"):
            name = (expr.operand.id
                    if isinstance(expr.operand, ast.Name) else None)
            return "rt._g_incr(%s, %r, %s, %d)" % (
                sv, name, self._expr(w, expr.operand, sv),
                1 if op == "++" else -1)
        if op == "-":
            return "(-rt._to_number(%s))" % self._expr(w, expr.operand, sv)
        if op == "+":
            return "rt._to_number(%s)" % self._expr(w, expr.operand, sv)
        if op == "~":
            return "(~int(rt._to_number(%s)))" % self._expr(w, expr.operand, sv)
        raise CodegenError("unknown unary %r" % op)

    def _expr_Postfix(self, w, expr, sv):
        name = expr.operand.id if isinstance(expr.operand, ast.Name) else None
        return "rt._g_postfix(%s, %r, %s, %d)" % (
            sv, name, self._expr(w, expr.operand, sv),
            1 if expr.op == "++" else -1)

    def _expr_Ternary(self, w, expr, sv):
        self.used.add("is_groovy_truthy")
        return "(%s if is_groovy_truthy(%s) else %s)" % (
            self._expr(w, expr.then, sv), self._expr(w, expr.cond, sv),
            self._expr(w, expr.orelse, sv))

    def _expr_Elvis(self, w, expr, sv):
        self.used.add("is_groovy_truthy")
        tmp = self._tmp("v")
        return "(%s if is_groovy_truthy(%s := %s) else %s)" % (
            tmp, tmp, self._expr(w, expr.value, sv),
            self._expr(w, expr.fallback, sv))

    def _expr_Cast(self, w, expr, sv):
        target = expr.type_name
        value = self._expr(w, expr.value, sv)
        if target in _CAST_INT:
            tmp = self._tmp("v")
            return ("(int(float(%s)) if (%s := %s) is not None else None)"
                    % (tmp, tmp, value))
        if target in _CAST_FLOAT:
            tmp = self._tmp("v")
            return ("(float(%s) if (%s := %s) is not None else None)"
                    % (tmp, tmp, value))
        if target in ("String", "GString"):
            self.used.add("to_groovy_string")
            return "to_groovy_string(%s)" % value
        if target in ("boolean", "Boolean"):
            self.used.add("is_groovy_truthy")
            return "is_groovy_truthy(%s)" % value
        if target in ("List", "ArrayList", "Collection"):
            tmp = self._tmp("v")
            return ("(list(rt._iterate(%s)) if (%s := %s) is not None "
                    "else [])" % (tmp, tmp, value))
        return value

    def _expr_New(self, w, expr, sv):
        return "rt._construct(%r, [%s], %s)" % (
            expr.type_name,
            ", ".join(self._expr(w, a, sv) for a in expr.args),
            self._pos(expr))

    def _expr_Binary(self, w, expr, sv):
        op = expr.op
        if op == "&&":
            self.used.add("is_groovy_truthy")
            return ("(is_groovy_truthy(%s) if is_groovy_truthy(%s) "
                    "else False)" % (self._expr(w, expr.right, sv),
                                     self._expr(w, expr.left, sv)))
        if op == "||":
            self.used.add("is_groovy_truthy")
            return ("(True if is_groovy_truthy(%s) else "
                    "is_groovy_truthy(%s))" % (self._expr(w, expr.left, sv),
                                               self._expr(w, expr.right, sv)))
        left = self._expr(w, expr.left, sv)
        right = self._expr(w, expr.right, sv)
        if op == "==":
            return "rt._equals(%s, %s)" % (left, right)
        if op == "!=":
            return "(not rt._equals(%s, %s))" % (left, right)
        if op in ("<", "<=", ">", ">="):
            return "rt._compare(%r, %s, %s)" % (op, left, right)
        if op == "+":
            return "rt._plus(%s, %s)" % (left, right)
        return "rt._binary(%r, %s, %s, %s)" % (op, left, right,
                                               self._pos(expr))

    def _call_pieces(self, w, expr, sv):
        """(args, named, closure) expression strings, evaluated in the
        same order both tiers use: positional, then named, then the
        trailing closure."""
        args = "[%s]" % ", ".join(self._expr(w, a, sv) for a in expr.args)
        named_entries = ", ".join(
            "%r: %s" % (entry.key, self._expr(w, entry.value, sv))
            for entry in expr.named if isinstance(entry.key, str))
        named = "{%s}" % named_entries
        closure = (self._expr_Closure(w, expr.closure, sv)
                   if expr.closure is not None else "None")
        return args, named, closure

    def _expr_Call(self, w, expr, sv):
        name = expr.name
        if name in self.methods_by_name:
            return self._known_call(w, expr, sv)
        args, named, closure = self._call_pieces(w, expr, sv)
        return "rt._g_dyncall(%r, %s, %s, %s, %s, %s)" % (
            name, args, named, closure, sv, self._pos(expr))

    def _known_call(self, w, expr, sv):
        """An intra-app call whose callee is statically known: dispatch
        straight to the generated function when the shapes line up,
        else through ``_g_call_known`` (the generated-call rules)."""
        method = self.methods_by_name[expr.name]
        named_entries = [e for e in expr.named if isinstance(e.key, str)]
        simple = (not named_entries and expr.closure is None
                  and len(expr.args) <= len(method.params)
                  and all(p.default is None
                          for p in method.params[len(expr.args):]))
        if simple:
            fn = self._fn_names[expr.name]
            scope = ", ".join(
                "%r: %s" % (p.name, self._expr(w, expr.args[i], sv)
                            if i < len(expr.args) else "None")
                for i, p in enumerate(method.params))
            return "%s(rt, [{%s}])" % (fn, scope)
        args, named, closure = self._call_pieces(w, expr, sv)
        return "rt._g_call_known(METHODS[%r], %s, %s, %s)" % (
            expr.name, args, named, closure)

    def _expr_MethodCall(self, w, expr, sv):
        obj = self._expr(w, expr.obj, sv)
        tmp = self._tmp("o")
        args, named, closure = self._call_pieces(w, expr, sv)
        if expr.spread:
            invoke = "rt._g_spread(%s, %r, %s, %s, %s, %s)" % (
                tmp, expr.name, args, named, closure, self._pos(expr))
        else:
            invoke = "rt._invoke_on(%s, %r, %s, %s, %s, %s)" % (
                tmp, expr.name, args, named, closure, self._pos(expr))
        # the object evaluates first; None short-circuits before the
        # arguments run, safe-call or not, matching the interpreter
        return "(None if (%s := %s) is None else %s)" % (tmp, obj, invoke)


def generate_source(app_instance, digest=""):
    """Deterministic module text for one app's lowered IR.

    Raises :class:`CodegenError` when the IR defeats the emitter (the
    caller falls back to the interpreter for this app).
    """
    emitter = SourceEmitter(app_instance._ir)
    return emitter.emit_module(app_instance.name, digest)


# ----------------------------------------------------------------------
# digest-keyed source cache
# ----------------------------------------------------------------------

def default_cache_dir():
    """``$REPRO_CODEGEN_CACHE`` or ``~/.cache/repro/codegen``."""
    override = os.environ.get("REPRO_CODEGEN_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "codegen")


def _app_slug(app_name):
    """A stable, collision-free file name for one app instance."""
    safe = "".join(ch if ch in _IDENT_OK else "-" for ch in app_name)
    tag = hashlib.sha1(app_name.encode("utf-8")).hexdigest()[:8]
    return "%s.%s.py" % (safe[:48] or "app", tag)


def module_cache_path(cache_dir, digest, app_name):
    """Where one app's generated module lives for one system digest."""
    return os.path.join(cache_dir, "v%d" % CODEGEN_SCHEMA_VERSION,
                        digest, _app_slug(app_name))


def _atomic_write(path, text):
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _exec_module(source, path, app_name):
    """``compile()``/``exec`` one generated module; returns its
    :class:`GeneratedProgram`."""
    code = compile(source, path or "<repro-codegen:%s>" % app_name, "exec")
    namespace = {}
    exec(code, namespace)
    return GeneratedProgram(namespace["METHODS"], app_name, source_path=path)


#: most programs the in-process memo of :func:`load_program` keeps,
#: oldest evicted first: repeat runs of one system reuse them, while a
#: process that checks system after system (a batch sweep, the vetting
#: service) stays bounded
MEMO_LIMIT = 64
_MEMO_LOCK = threading.Lock()


def load_program(app_instance, digest, cache_dir=None, _memory_cache={}):
    """The generated program for one app under one system digest.

    Reads the cached module byte-for-byte when present, else emits,
    persists atomically, and loads.  Returns ``None`` when generation
    fails (the caller falls back tier-by-tier).  ``cache_dir=False``
    disables the disk cache entirely (generation is in-memory only).
    """
    key = (cache_dir, digest, app_instance.name)
    cached = _memory_cache.get(key)
    if cached is not None:
        return cached or None
    path = None
    source = None
    if cache_dir is not False:
        path = module_cache_path(cache_dir or default_cache_dir(), digest,
                                 app_instance.name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            source = None
    try:
        if source is None:
            source = generate_source(app_instance, digest)
            if path is not None:
                try:
                    _atomic_write(path, source)
                except OSError:
                    path = None  # cache dir unwritable: stay in-memory
        program = _exec_module(source, path, app_instance.name)
    except Exception:
        program = False
    with _MEMO_LOCK:
        _memory_cache[key] = program
        if len(_memory_cache) > MEMO_LIMIT:
            del _memory_cache[next(iter(_memory_cache))]
    return program or None


# ----------------------------------------------------------------------
# generated-code runtime
# ----------------------------------------------------------------------

class _PoolContext:
    """The construction-time stand-in context for pooled executors
    (environment building only needs ``ctx.system``; handles capture
    the live cascade through :meth:`GeneratedExecutor.rebind`)."""

    __slots__ = ("system",)

    def __init__(self, system):
        self.system = system


class GeneratedExecutor(Interpreter):
    """Runs one app's *generated* methods.

    Construction, environment building, lookup/assignment rules, the
    platform-API surface and the built-in dispatch are all inherited
    from :class:`Interpreter`; only the entry points that would walk the
    AST (``run_handler``/``call_method``/``invoke_closure``) are
    replaced by calls into the generated functions, and the ``_g_*``
    methods below are the compact runtime surface the emitted source
    calls for the operations that must stay dynamic.

    Unlike the interpreter - which builds a fresh executor (and
    environment) per handler run - a pooled instance is re-armed with
    :meth:`rebind`: the pristine environment is snapshotted once and a
    run costs two dict copies plus re-pointing the handles at the new
    cascade.
    """

    def __init__(self, app_instance, ctx, program,
                 op_budget=DEFAULT_OP_BUDGET):
        super().__init__(app_instance, ctx, op_budget)
        self._program = program
        self._op_budget = op_budget
        self._pristine = None

    # -- entry points --------------------------------------------------

    def run_handler(self, handler_name, event_handle):
        """Run one subscribed handler through its generated function
        (missing handlers log a warning, exactly like the interpreter)."""
        method = self._program.methods.get(handler_name)
        if method is None:
            self.ctx.log(self.app.name, "warn",
                         "handler %s not found" % handler_name)
            return None
        args = []
        if method.params:
            args = [event_handle] + [None] * (len(method.params) - 1)
        return self._call_generated(method, args)

    def call_method(self, method, args, named=None):
        """AST-level entry used by shared machinery (``_invoke_on``)."""
        generated = self._program.methods.get(method.name)
        if generated is None:
            return super().call_method(method, args, named)
        return self._call_generated(generated, args)

    def _call_generated(self, method, args):
        scope = {}
        for index, param in enumerate(method.params):
            if index < len(args):
                scope[param.name] = args[index]
            else:
                default_t = method.defaults[index]
                scope[param.name] = (default_t(self, [scope])
                                     if default_t is not None else None)
        try:
            return method.body(self, [scope])
        except _Return as ret:
            return ret.value

    def invoke_closure(self, closure, args):
        """Call a closure value: AST closures go to the interpreter,
        generated ones run their function with a fresh scope."""
        if not isinstance(closure, GenClosure):
            return super().invoke_closure(closure, args)
        try:
            return closure.body(self, self._closure_scopes(closure, args))
        except _Return as ret:
            return ret.value

    # -- pooling -------------------------------------------------------

    def _freeze_environment(self):
        env = dict(self._globals)
        settings = dict(env.get("settings") or {})
        ctx_handles = []
        for value in env.values():
            if isinstance(value, handles.DeviceGroup):
                ctx_handles.extend(value.handles)
            elif isinstance(value, (handles.DeviceHandle,
                                    handles.LocationHandle,
                                    handles.LogHandle)):
                ctx_handles.append(value)
        self._pristine = (env, settings, tuple(ctx_handles))

    def rebind(self, ctx):
        """Re-arm this executor for one handler run under ``ctx``."""
        if self._pristine is None:
            self._freeze_environment()
        env, settings, ctx_handles = self._pristine
        self.ctx = ctx
        self.budget = self._op_budget
        fresh = dict(env)
        fresh["settings"] = dict(settings)
        self._globals = fresh
        for handle in ctx_handles:
            handle.ctx = ctx

    # -- the generated-code runtime surface ----------------------------

    def _g_name(self, scopes, name):
        found, value = self._lookup(name, scopes)
        return value if found else None

    def _g_dyncall(self, name, args, named, closure, scopes, pos):
        # the static method table was consulted at generation time, so
        # only the local-closure and platform-API cases remain
        found, value = self._lookup(name, scopes)
        if found and isinstance(value, ClosureValue):
            return self.invoke_closure(value, args)
        return self._platform_api(name, args, named, closure, pos)

    def _g_call_known(self, method, args, named, closure):
        if named and not args:
            args = [named]
        if closure is not None:
            args.append(closure)
        return self._call_generated(method, args)

    def _g_incr(self, scopes, name, value, delta):
        new = (self._to_number(value) or 0) + delta
        if name is not None:
            self._assign_name(name, new, scopes)
        return new

    def _g_postfix(self, scopes, name, value, delta):
        old = self._to_number(value) or 0
        if name is not None:
            self._assign_name(name, old + delta, scopes)
        return old

    def _g_spread(self, obj, name, args, named, closure, pos):
        return [self._invoke_on(item, name, args, named, closure, pos)
                for item in self._iterate(obj)]

    def _g_range(self, lo, hi):
        return list(range(int(self._to_number(lo)),
                          int(self._to_number(hi)) + 1))


# ----------------------------------------------------------------------
# the lean transition relation
# ----------------------------------------------------------------------

class _LeanCascade(Cascade):
    """A :class:`Cascade` that records a *skeleton* trace.

    Every state mutation, event, and monitor callback is identical to
    the traced cascade; the full ``TraceStep`` log (and its per-step
    label formatting) is dropped, and handler runs draw pooled
    executors from the plan.  Only the steps that feed violation
    attribution survive - app-attributed ``command``/``mode`` records,
    whose text carries exactly the ``device.command`` prefix the
    engine's actor refinement splits on - so dedup keys and app lists
    match the traced relation, and the engine regenerates the full
    rendered trace for the few *reported* counterexamples by replaying
    their label sequences through the traced relation.
    """

    def __init__(self, plan, system, state, monitor, scenario=NO_FAILURE):
        Cascade.__init__(self, system, state, monitor, scenario=scenario)
        self._plan = plan

    def run_external(self, ext):
        """:meth:`Cascade.run_external`, run to completion, without the
        external, failure and mode trace steps; returns the violations
        found."""
        self.state.time += TIME_QUANTUM_MS
        if ext.kind == "sensor":
            if self.scenario.drops_report(ext.device):
                # SENSOR_DROP / EVENT_DROP / DEVICE_DEATH of the origin:
                # ground truth updates silently, no app is notified
                self.state.set_attribute(ext.device, ext.attribute, ext.value)
            elif self.scenario.kind == FailureScenario.DUPLICATE:
                changed = (self.state.attribute(ext.device, ext.attribute)
                           != ext.value)
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                if changed:
                    self._enqueue(Event(DEVICE, device=ext.device,
                                        attribute=ext.attribute,
                                        value=ext.value))
            elif self.scenario.kind == FailureScenario.STALE_READ:
                stale = self.get_attribute(ext.device, ext.attribute)
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                self._stale_reads = {(ext.device, ext.attribute): stale}
            else:
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
        elif ext.kind == "touch":
            self._enqueue(Event(APP, app=ext.app))
        elif ext.kind == "mode":
            if ext.value != self.state.mode:
                self.state.mode = ext.value
                self._enqueue(Event(LOCATION, attribute="mode",
                                    value=ext.value))
        elif ext.kind == "timer":
            self._fire_timer(ext.app, ext.handler)
        elif ext.kind == "environment":
            self._enqueue(Event(LOCATION, attribute=ext.attribute,
                                value=ext.attribute))
        self._drain()
        return self.monitor.finish(self.state)

    def sensor_state_update(self, device_name, attribute, value):
        """:meth:`Cascade.sensor_state_update` without its trace step."""
        if self.state.attribute(device_name, attribute) == value:
            return
        self.state.set_attribute(device_name, attribute, value)
        self.state.record_event(device_name, attribute, value)
        self._enqueue(Event(DEVICE, device=device_name, attribute=attribute,
                            value=value))

    def actuator_command(self, device_name, command, args, app_name):
        """:meth:`Cascade.actuator_command` keeping only the skeleton
        ``command`` step that violation attribution reads."""
        instance = self.system.devices.get(device_name)
        effect = instance.command(command) if instance is not None else None
        payload = tuple(_freeze_arg(a) for a in args)
        self._step("command", "%s.%s" % (device_name, command),
                   app=app_name)
        self.monitor.on_command(device_name, command, payload, app_name,
                                effect)
        self.state.cascade_commands = self.state.cascade_commands + (
            (device_name, command, payload, app_name),)
        if effect is None:
            return
        if self.scenario.drops_command(device_name):
            reason = ("device dead"
                      if self.scenario.kind == FailureScenario.DEVICE_DEATH
                      else "actuator offline")
            self.monitor.on_command_dropped(device_name, command, app_name,
                                            reason)
            return
        value = effect.value
        if effect.takes_arg:
            value = payload[0] if payload else None
        value = _coerce_attribute_value(instance, effect.attribute, value)
        if self.state.attribute(device_name, effect.attribute) == value:
            return
        self.state.set_attribute(device_name, effect.attribute, value)
        self.state.record_event(device_name, effect.attribute, value)
        self._enqueue(Event(DEVICE, device=device_name,
                            attribute=effect.attribute, value=value))

    def dispatch_event(self, event):
        """:meth:`Cascade.dispatch_event` without the notify and
        budget-exhausted trace steps, running handlers on executors
        from the plan."""
        self._dispatched += 1
        if self._dispatched > MAX_INTERNAL_EVENTS:
            return
        for app_instance, handler, value_filter in (
                self.system.subscribers_for(event)):
            if (value_filter is not None
                    and str(event.value) != str(value_filter)):
                continue
            self._run_handler(app_instance, handler, event)

    def _run_handler(self, app_instance, handler, event):
        device_handle = None
        if event.device is not None:
            instance = self.system.devices.get(event.device)
            if instance is not None:
                device_handle = DeviceHandle(instance, self,
                                             app_instance.name)
        event_handle = EventHandle(event, self, device_handle)
        interp = self._plan.acquire(app_instance, self)
        try:
            interp.run_handler(handler, event_handle)
        except ExecutionError:
            pass  # the traced replay re-renders the log step

    def _step(self, kind, text, app=None, line=None):
        # skeleton trace: keep only what violation attribution reads
        if app is not None and (kind == "command" or kind == "mode"):
            self.steps.append(TraceStep(kind, text, app=app))

    def log(self, app_name, level, message):
        pass


class CodegenPlan:
    """One system's generated programs, executor pool and lean relation.

    Installed by the engine when ``options.engine == "codegen"``: the
    plan's :meth:`executor_factory` hooks :meth:`Cascade._executor` (so
    traced replays run generated code too), and :meth:`transitions`
    replaces :meth:`IoTSystem.transitions` on the search path with
    traceless lean cascades over pooled executors.  :meth:`release`
    ends a run.
    """

    def __init__(self, system, cache_dir=None, digest=None):
        self.system = system
        self.digest = digest if digest is not None else system.digest()
        self.cache_dir = cache_dir
        self.programs = {}
        self.generated = 0
        self.fallbacks = []
        self._pool = {}
        self._pool_ctx = _PoolContext(system)
        for app in system.apps:
            program = load_program(app, self.digest, cache_dir=cache_dir)
            self.programs[app.name] = program
            if program is None:
                self.fallbacks.append(app.name)
            else:
                self.generated += 1
                self._pool[app.name] = GeneratedExecutor(app, self._pool_ctx,
                                                         program)
        # Subscriptions are static per system, so whether any handler
        # would run for a concrete (device, attribute, value) sensor
        # event is decided here, once.  Those no installed app hears
        # take a cascade-free path in :meth:`transitions` (the dominant
        # case on sensor-rich systems); it replicates exactly one lean
        # cascade shape - single NO_FAILURE scenario, one sensor update,
        # nothing dispatched - so failure enumeration or a faulted
        # profile sends every event through the full cascade
        self._quiet = set()
        if not system.enable_failures and system.scenario_profile.is_clean:
            for device, attribute, events in system._sensor_events():
                for value, ext in events:
                    event = Event(DEVICE, device=device, attribute=attribute,
                                  value=value)
                    if not any(value_filter is None
                               or str(value) == str(value_filter)
                               for _app, _handler, value_filter
                               in system.subscribers_for(event)):
                        self._quiet.add(ext)

    # -- executors -----------------------------------------------------

    def executor_factory(self, app_instance, ctx):
        """:attr:`IoTSystem.executor_factory` hook for traced cascades
        (fresh executor per handler run, like the interpreter; ``None``
        for a fallback app, which :meth:`Cascade._executor` then runs
        on the :class:`Interpreter`)."""
        program = self.programs.get(app_instance.name)
        if program is None:
            return None
        return GeneratedExecutor(app_instance, ctx, program)

    def acquire(self, app_instance, ctx):
        """A run-ready executor for one lean handler run: pooled and
        rebound when the app generated, else a per-run
        :class:`Interpreter` (the app is on :attr:`fallbacks`)."""
        pooled = self._pool.get(app_instance.name)
        if pooled is not None:
            pooled.rebind(ctx)
            return pooled
        return Interpreter(app_instance, ctx)

    def release(self):
        """End of run: uninstall the traced-cascade hook and re-point
        every pooled executor at the construction context.

        The hook is a bound method of this plan, and a pooled executor
        keeps the last lean cascade it ran under, which points back at
        the plan: left alone, both cycles keep the whole system alive
        until a full collection."""
        self.system.executor_factory = None
        for pooled in self._pool.values():
            pooled.rebind(self._pool_ctx)

    # -- the lean relation ---------------------------------------------

    def transitions(self, state, monitor_factory, event_filter=None):
        """Traceless mirror of :meth:`IoTSystem.transitions` (labels,
        successor states, violations identical; ``steps`` a skeleton)."""
        out = []
        quiet = self._quiet
        probe = None
        for ext in self.system.external_choices(state):
            if event_filter is not None and not event_filter(ext):
                continue
            if ext not in quiet:
                self._run_event(out, state, ext, monitor_factory)
                continue
            # cascade-free: time quantum, the sensor write, the event
            # record, the final invariant check - byte-identical to a
            # lean cascade with an empty dispatch.  Such a cascade
            # reports exactly its invariant failures, so the (memoized)
            # compiled-invariant probe decides whether a monitor is
            # needed at all; when it is, the monitor re-checks through
            # the ordinary path and yields the identical violation list
            if probe is None:
                probe = monitor_factory()._compiled.failed_invariants
            new_state = state.copy()
            new_state.cascade_commands = ()
            new_state.time += TIME_QUANTUM_MS
            new_state.set_attribute(ext.device, ext.attribute, ext.value)
            new_state.record_event(ext.device, ext.attribute, ext.value)
            violations = (monitor_factory().finish(new_state)
                          if probe(new_state) else [])
            new_state.seal()
            out.append((ext.label(), new_state, True, violations, []))
        return out

    def _run_event(self, out, state, ext, monitor_factory):
        """One external event's cascades (all failure scenarios)."""
        system = self.system
        for scenario in system.failure_scenarios(ext):
            new_state = state.copy()
            new_state.cascade_commands = ()
            monitor = monitor_factory()
            cascade = _LeanCascade(self, system, new_state, monitor,
                                   scenario)
            violations = cascade.run_external(ext)
            new_state.seal()
            suffix = scenario.label()
            out.append((ext.label() + suffix if suffix else ext.label(),
                        new_state, True, violations, cascade.steps))
