"""The test modules themselves: no top-level name is bound twice.

A second ``class TestX`` (or ``def _helper``) in one module silently
replaces the first, so pytest collects only the later copy and the
earlier one is dead code that reads as coverage.  Plain stdlib ``ast``,
no import of the modules under test.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))


def _bound_names(statement):
    """The names one module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets
                if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name):
        return [statement.target.id]
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0]
                for alias in statement.names]
    return []


def duplicate_top_level_names(source):
    """``[(name, first line, repeat line), ...]`` for one module."""
    first = {}
    duplicates = []
    for statement in ast.parse(source).body:
        for name in _bound_names(statement):
            if name in first:
                duplicates.append((name, first[name], statement.lineno))
            else:
                first[name] = statement.lineno
    return duplicates


def _test_modules():
    return sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))


class TestNoShadowedDefinitions:
    def test_detector_sees_a_second_binding(self):
        source = ("import os\n"
                  "class TestA:\n    pass\n"
                  "def helper():\n    pass\n"
                  "class TestA:\n    pass\n"
                  "helper = 1\n")
        assert duplicate_top_level_names(source) == [
            ("TestA", 2, 6), ("helper", 4, 8)]

    @pytest.mark.parametrize("module", _test_modules())
    def test_no_top_level_name_is_bound_twice(self, module):
        with open(os.path.join(TESTS, module), encoding="utf-8") as handle:
            assert duplicate_top_level_names(handle.read()) == []
