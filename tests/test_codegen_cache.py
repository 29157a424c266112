"""Digest-keyed codegen source cache: invalidation, reuse, hygiene.

The cache contract: generated modules are addressed by
``(schema version, system digest, app)``; any semantic change to the
deployment (handler source, bound devices, catalog surface) moves the
digest and therefore the cache key; an unchanged digest must reuse the
cached bytes without regenerating; and regeneration must reproduce the
cached file byte-for-byte (deterministic emission).
"""

import os
import py_compile
import shutil
import subprocess

import pytest

from repro.config.schema import SystemConfiguration
from repro.corpus import load_all_apps
from repro.model.codegen import (
    CODEGEN_SCHEMA_VERSION,
    MEMO_LIMIT,
    CodegenPlan,
    default_cache_dir,
    generate_source,
    load_program,
    module_cache_path,
)
from repro.model.generator import ModelGenerator

from tests.conftest import _load_or_skip


@pytest.fixture()
def registry():
    return _load_or_skip(load_all_apps)


def _alice_config(lock_device="zwave-lock"):
    config = SystemConfiguration(contacts=["+1-555-0100"])
    config.add_device("alicePresence", "smartsense-presence")
    config.add_device("doorLock", lock_device)
    config.association["main_door_lock"] = "doorLock"
    config.add_app("Auto Mode Change", {"people": ["alicePresence"],
                                        "awayMode": "Away",
                                        "homeMode": "Home"})
    config.add_app("Unlock Door", {"lock1": "doorLock"})
    return config


class TestCacheKeying:
    def test_unchanged_system_reuses_digest_and_paths(self, registry,
                                                      tmp_path):
        gen = ModelGenerator(registry)
        a = gen.build(_alice_config())
        b = gen.build(_alice_config())
        assert a.digest() == b.digest()
        app = a.apps[0]
        assert (module_cache_path(str(tmp_path), a.digest(), app.name)
                == module_cache_path(str(tmp_path), b.digest(), app.name))

    def test_deployment_edit_moves_the_cache_key(self, registry, tmp_path):
        """Changing the bound system (here: a different device type with
        a different spec surface) must change the digest and therefore
        the generated-module location - stale modules can never be
        picked up for an edited deployment."""
        gen = ModelGenerator(registry)
        original = gen.build(_alice_config())
        config = _alice_config()
        config.add_device("spareSwitch", "smart-outlet")
        edited = gen.build(config)
        assert original.digest() != edited.digest()
        app = original.apps[0].name
        assert (module_cache_path(str(tmp_path), original.digest(), app)
                != module_cache_path(str(tmp_path), edited.digest(), app))

    def test_schema_version_partitions_the_cache(self, tmp_path):
        path = module_cache_path(str(tmp_path), "d" * 8, "App")
        assert ("v%d" % CODEGEN_SCHEMA_VERSION) in path
        assert path.startswith(str(tmp_path))

    def test_default_cache_dir_honors_environment(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")
        monkeypatch.delenv("REPRO_CODEGEN_CACHE")
        assert default_cache_dir().endswith(os.path.join(
            ".cache", "repro", "codegen"))


class TestCacheReuse:
    def test_generation_persists_then_reuses_byte_for_byte(self, registry,
                                                           tmp_path):
        system = ModelGenerator(registry).build(_alice_config())
        app = system.apps[0]
        digest = system.digest()
        cache_dir = str(tmp_path)

        program = load_program(app, digest, cache_dir=cache_dir,
                               _memory_cache={})
        assert program is not None
        path = module_cache_path(cache_dir, digest, app.name)
        assert os.path.exists(path)

        # poison the cached file with a valid module: a reload must run
        # the on-disk bytes (proof it did not regenerate), so the
        # poisoned METHODS table shows through
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("METHODS = {'poisoned': None}\n")
        reloaded = load_program(app, digest, cache_dir=cache_dir,
                                _memory_cache={})
        assert set(reloaded.methods) == {"poisoned"}

        # a different digest misses the poisoned entry and regenerates
        fresh = load_program(app, "0" * 64, cache_dir=cache_dir,
                             _memory_cache={})
        assert "poisoned" not in set(fresh.methods)
        assert set(fresh.methods) == set(program.methods)

    def test_regeneration_reproduces_cached_bytes(self, registry,
                                                  tmp_path):
        """Deterministic emission: wiping the cache and regenerating
        must write the identical file."""
        system = ModelGenerator(registry).build(_alice_config())
        app = system.apps[0]
        digest = system.digest()
        cache_dir = str(tmp_path)
        load_program(app, digest, cache_dir=cache_dir, _memory_cache={})
        path = module_cache_path(cache_dir, digest, app.name)
        with open(path, encoding="utf-8") as handle:
            first = handle.read()
        os.unlink(path)
        load_program(app, digest, cache_dir=cache_dir, _memory_cache={})
        with open(path, encoding="utf-8") as handle:
            second = handle.read()
        assert first == second
        assert digest in first  # the header pins the generating digest

    def test_memo_keeps_the_latest_programs_only(self, registry):
        """A process that checks many systems must not keep every
        program it ever loaded: the memo evicts its oldest entries."""
        app = ModelGenerator(registry).build(_alice_config()).apps[0]
        memo = {}
        digests = ["%064x" % index for index in range(MEMO_LIMIT + 5)]
        for digest in digests:
            load_program(app, digest, cache_dir=False, _memory_cache=memo)
        assert len(memo) == MEMO_LIMIT
        assert (False, digests[-1], app.name) in memo
        assert (False, digests[0], app.name) not in memo

    def test_disk_cache_disabled_still_generates(self, registry):
        system = ModelGenerator(registry).build(_alice_config())
        app = system.apps[0]
        program = load_program(app, system.digest(), cache_dir=False,
                               _memory_cache={})
        assert program is not None
        assert program.source_path is None

    def test_plan_populates_cache_for_every_generated_app(self, registry,
                                                          tmp_path):
        system = ModelGenerator(registry).build(_alice_config())
        plan = CodegenPlan(system, cache_dir=str(tmp_path))
        assert plan.generated == len(system.apps)
        for app in system.apps:
            assert os.path.exists(
                module_cache_path(str(tmp_path), plan.digest, app.name))


class TestGeneratedSourceHygiene:
    """Generated modules are real source artifacts: they must pass the
    same static checks hand-written code would."""

    def test_generated_modules_py_compile(self, registry, tmp_path):
        system = ModelGenerator(registry).build(_alice_config())
        plan = CodegenPlan(system, cache_dir=str(tmp_path))
        assert plan.generated
        for app in system.apps:
            path = module_cache_path(str(tmp_path), plan.digest, app.name)
            py_compile.compile(path, doraise=True)

    def test_generated_modules_pass_ruff(self, registry, tmp_path):
        """Lint the generated sources for real errors (syntax,
        undefined names) when ruff is installed; containers without it
        skip - py_compile above is the floor."""
        ruff = shutil.which("ruff")
        if ruff is None:
            pytest.skip("ruff not installed")
        system = ModelGenerator(registry).build(_alice_config())
        plan = CodegenPlan(system, cache_dir=str(tmp_path))
        assert plan.generated
        proc = subprocess.run(
            [ruff, "check", "--select", "E9,F821,F811,F401",
             "--isolated", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_source_header_names_app_and_digest(self, registry):
        system = ModelGenerator(registry).build(_alice_config())
        app = system.apps[0]
        source = generate_source(app, digest="cafebabe")
        assert "cafebabe" in source
        assert app.name in source
