"""Docstring-presence lint for the least-documented packages.

The CI docs job runs ruff's pydocstyle rules (``ruff check --select
D10`` scoped by ``ruff.toml``); this script enforces the same contract
with the standard library's ``ast`` only, so the plain test environment
(and ``tests/test_docs.py``) can gate on it without installing ruff:

    python scripts/check_docstrings.py

Scope: ``repro/engine``, ``repro/service``, ``repro/model/cascade.py``
(the context app code runs against), ``repro/model/schema.py``,
``repro/model/state.py`` (the state vector every cascade writes),
``repro/model/lean.py``, ``repro/model/replay.py`` and
``repro/properties/formula.py`` (the language every invariant is
written in).  Required:

* a module docstring per file;
* a docstring on every *public* class and every public function/method
  (name not starting with ``_``), except trivial delegations - single
  ``pass``/``raise``/``return``/expression bodies under 3 statements
  are exempt only when overriding a documented parent (dunder methods
  and ``__init__`` are always exempt: the class docstring covers them).
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: packages/files whose public surface must be documented
TARGETS = (
    "src/repro/engine",
    "src/repro/service",
    "src/repro/model/cascade.py",
    "src/repro/model/schema.py",
    "src/repro/model/state.py",
    "src/repro/model/lean.py",
    "src/repro/model/replay.py",
    "src/repro/properties/formula.py",
)


def target_files():
    for target in TARGETS:
        path = os.path.join(ROOT, target)
        if os.path.isfile(path):
            yield path
            continue
        for directory, _subdirs, files in sorted(os.walk(path)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _public(name):
    return not name.startswith("_")


def _is_trivial(node):
    """Short delegation bodies (≤2 statements, no docstring slot used)."""
    return len(node.body) <= 2


def check_file(path, problems):
    rel = os.path.relpath(path, ROOT)
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=rel)
    if ast.get_docstring(tree) is None:
        problems.append("%s:1: missing module docstring" % rel)

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _public(child.name) and ast.get_docstring(child) is None:
                    problems.append("%s:%d: missing docstring on class %s%s"
                                    % (rel, child.lineno, prefix, child.name))
                walk(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (_public(child.name)
                        and ast.get_docstring(child) is None
                        and not (in_class and _is_trivial(child))):
                    problems.append(
                        "%s:%d: missing docstring on %s%s()"
                        % (rel, child.lineno, prefix, child.name))

    walk(tree, "", False)


def main():
    problems = []
    count = 0
    for path in target_files():
        count += 1
        check_file(path, problems)
    for problem in sorted(problems):
        print("DOCSTRING: %s" % problem)
    if problems:
        print("%d public definition(s) without docstrings across %d files"
              % (len(problems), count))
        return 1
    print("docstring check: %d files, every module and public definition "
          "documented" % count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
