"""The documentation satellite: site pages, links, docstrings, CLI drift.

Four contracts keep the docs honest without any docs dependency:

* the mkdocs site has every promised page, populated (no stubs);
* every internal link and anchor in ``docs/`` and the README resolves
  (``scripts/check_docs_links.py`` - the offline twin of
  ``mkdocs build --strict``);
* the least-documented packages carry module and public-API docstrings
  (``scripts/check_docstrings.py`` - the stdlib twin of the CI ruff
  D1xx rule);
* every ``python -m repro ...`` invocation shown in the README or the
  docs uses a real subcommand with real flags - the audit that catches
  README/--help drift the moment a command changes.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(ROOT, "docs")

EXPECTED_PAGES = ("index.md", "architecture.md", "performance.md",
                  "service-api.md", "schemas.md")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _run_script(name):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name)],
        capture_output=True, text=True)


# -- site shape ---------------------------------------------------------------


class TestDocsSite:
    @pytest.mark.parametrize("page", EXPECTED_PAGES)
    def test_page_exists_and_is_populated(self, page):
        path = os.path.join(DOCS, page)
        assert os.path.exists(path), "docs/%s is missing" % page
        text = _read(path)
        # "populated, no stub pages": real prose and real structure
        assert len(text) > 2000, "docs/%s looks like a stub" % page
        assert text.startswith("# "), "docs/%s has no title" % page
        assert text.count("\n## ") >= 2, "docs/%s has no sections" % page

    def test_mkdocs_config_lists_every_page(self):
        config = _read(os.path.join(ROOT, "mkdocs.yml"))
        for page in EXPECTED_PAGES:
            assert page in config, "mkdocs nav misses %s" % page
        assert "strict: true" in config

    def test_linkcheck_passes(self):
        outcome = _run_script("check_docs_links.py")
        assert outcome.returncode == 0, outcome.stdout + outcome.stderr

    def test_docstring_lint_passes(self):
        outcome = _run_script("check_docstrings.py")
        assert outcome.returncode == 0, outcome.stdout + outcome.stderr


# -- CLI drift audit ----------------------------------------------------------


def _subcommands():
    """verb -> set of option strings, introspected from the real parser."""
    parser = build_parser()
    subactions = None
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            subactions = action.choices
            break
    assert subactions, "repro CLI has no subcommands?"
    table = {}
    for verb, subparser in subactions.items():
        options = set()
        for sub_action in subparser._actions:
            options.update(sub_action.option_strings)
        table[verb] = options
    return table


#: ``python -m repro <verb> <args...>`` up to the end of line/pipe
_INVOCATION = re.compile(r"python -m repro\s+([a-z]+)([^\n|#]*)")
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")


def _documented_invocations():
    sources = [os.path.join(ROOT, "README.md")]
    sources += [os.path.join(DOCS, entry) for entry in sorted(os.listdir(DOCS))
                if entry.endswith(".md")]
    for path in sources:
        for match in _INVOCATION.finditer(_read(path)):
            verb, rest = match.group(1), match.group(2)
            yield (os.path.relpath(path, ROOT), verb,
                   set(_FLAG.findall(rest)))


class TestCliDriftAudit:
    def test_every_documented_invocation_is_real(self):
        table = _subcommands()
        problems = []
        for source, verb, flags in _documented_invocations():
            if verb not in table:
                problems.append("%s documents unknown command %r"
                                % (source, verb))
                continue
            for flag in sorted(flags - table[verb]):
                problems.append("%s: `repro %s` has no flag %s"
                                % (source, verb, flag))
        assert not problems, "\n".join(problems)

    def test_readme_covers_every_subcommand(self):
        """The README's CLI overview must at least name every verb the
        parser registers - the PR-4 serve/submit/results/gc drift bar."""
        readme = _read(os.path.join(ROOT, "README.md"))
        for verb in _subcommands():
            assert re.search(r"`(?:repro )?%s`" % verb, readme) or (
                "repro %s" % verb) in readme, (
                "README never mentions the %r subcommand" % verb)

