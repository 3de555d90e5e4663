from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from sum2act.cli import main
from sum2act.core import (
    Action,
    Instruction,
    State,
    Step,
    Terminal,
    ToolSpec,
    new_episode,
    read_trace,
    serialize_episode,
)
from sum2act.parsing import load_templates


def _copy_pair(src_dir: Path, name: str, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for suffix in (".scenario.json", ".policy.json"):
        shutil.copy(src_dir / f"{name}{suffix}", dst / f"{name}{suffix}")


def _trace_with_budget(tmp_path: Path, budget) -> Path:
    """A one-episode trace file whose ``step_budget`` is set to ``budget``."""
    episode = new_episode(Instruction(id="b", text="t"), [ToolSpec(name="alpha", description="a")], 1, "sum2act")
    episode = episode.with_step(
        Step(Action(kind="Finish", args={"Answer": "ok"}), None, State.empty())
    ).with_terminal(Terminal.finished("ok"))
    record = json.loads(serialize_episode(episode))
    record["step_budget"] = budget
    trace = tmp_path / "budget.jsonl"
    trace.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return trace


def _trace_with_field(core_dir: Path, tmp_path: Path, path: tuple, value) -> Path:
    """The weather_miami sum2act trace with the field at ``path`` set to ``value``."""
    assert main([
        "run",
        "--scenario", str(core_dir / "weather_miami.scenario.json"),
        "--policy", str(core_dir / "weather_miami.policy.json"),
        "--out", str(tmp_path / "run"),
    ]) == 0
    trace = tmp_path / "run" / "sum2act__weather_miami.jsonl"
    record = json.loads(trace.read_text(encoding="utf-8"))
    _set_path(record, path, value)
    trace.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return trace


def _set_path(record, path: tuple, value) -> None:
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value


def _malformed_pair(core_dir: Path, suite: Path, kind: str, path: tuple, value) -> Path:
    """The weather_miami pair copied to ``suite``, with the field at ``path``
    of its ``kind`` file ("scenario" or "policy") set to ``value``."""
    _copy_pair(core_dir, "weather_miami", suite)
    target = suite / f"weather_miami.{kind}.json"
    record = json.loads(target.read_text(encoding="utf-8"))
    _set_path(record, path, value)
    target.write_text(json.dumps(record), encoding="utf-8")
    return suite


def _write_bad_regex_policy(path: Path) -> Path:
    """A policy whose only entry is a regex that does not compile."""
    path.write_text(json.dumps({"entries": [{"match": "(", "is_regex": True, "response": "x"}]}))
    return path


_FINISH_REPLY = json.dumps(
    {"thought": "done", "action": "Finish", "args": {"Answer": "FINISH-REPLY"}}
)


def _live_stub(http_stub, monkeypatch):
    """A chat-completions stub answering every call with a Finish proposal,
    with the PROVIDER_* variables pointing at it."""
    stub = http_stub([(200, json.dumps({"choices": [{"message": {"content": _FINISH_REPLY}}]}))])
    monkeypatch.setenv("PROVIDER_BASE_URL", stub.url)
    monkeypatch.setenv("PROVIDER_MODEL", "stub-model")
    monkeypatch.delenv("PROVIDER_API_KEY", raising=False)
    return stub


def _run_live_tools(core_dir: Path, tmp_path: Path, endpoint: dict, *flags: str) -> int:
    """``run`` over a one-tool catalog whose endpoint spec entry is an
    unreachable url plus ``endpoint``, with ``flags`` added."""
    tools_path = tmp_path / "catalog.json"
    tools_path.write_text(json.dumps([{"name": "fetch_page", "description": "Fetch."}]))
    endpoints_path = tmp_path / "endpoints.json"
    endpoints_path.write_text(json.dumps({"fetch_page": {"url": "http://127.0.0.1:9/x", **endpoint}}))
    return main([
        "run",
        "--instruction", "Check the status page.",
        "--tools", str(tools_path),
        "--endpoint-spec", str(endpoints_path),
        "--policy", str(core_dir / "weather_miami.policy.json"),
        "--out", str(tmp_path / "out"),
        *flags,
    ])


def _assert_names_bad_regex(err: str, name: str) -> None:
    assert name in err
    assert "'entries': entry 0: 'match' is not a valid regex: missing ), unterminated subpattern" in err
    assert "Traceback" not in err


WRONGLY_TYPED_SCALARS = [
    (("terminal", "answer"), 5),
    (("terminal", "status"), 5),
    (("instruction", "subset_label"), 5),
]


# Malformed scenario and policy fields; each must exit 2 naming the file and,
# where the path ends in a key, that key.
_BEHAVIOR = ("behaviors", "get_weather", 0)
MALFORMED_INPUTS = [
    ("scenario", _BEHAVIOR + ("filler_chars",), "abc"),
    ("scenario", _BEHAVIOR, "not an object"),
    ("scenario", ("behaviors",), []),
    ("scenario", _BEHAVIOR + ("payload",), 5),
    ("scenario", _BEHAVIOR + ("code",), "x"),
    ("scenario", ("id",), 7),
    ("scenario", ("pass_condition",), {"regex": "("}),
    ("scenario", ("pass_condition",), {"contains_all": "sunny"}),
    ("scenario", ("pass_condition",), {"exact": 5}),
    ("scenario", ("pass_condition",), {"contains_all": []}),
    ("scenario", ("tools", 0, "params", 0, "required"), 5),
    ("scenario", ("tools", 0, "params", 0, "required"), -1),
    ("policy", ("entries",), 5),
    ("policy", ("entries",), None),
    ("policy", ("entries", 0, "match"), 5),
    ("policy", ("entries", 0, "is_regex"), -1),
    ("policy", ("entries", 0, "is_regex"), 2),
    # A misspelled key is refused, not dropped.
    ("scenario", _BEHAVIOR + ("filler_char",), 100),
    ("scenario", ("tools", 0, "params", 0, "requird"), True),
    ("scenario", ("instruction", "subset"), "G1"),
    ("policy", ("entries", 0, "isregex"), True),
    # ... at the top of a file too.
    ("policy", ("defualt",), "x"),
    ("scenario", ("behaviours",), {}),
    ("scenario", ("pass_condition",), {"regex": "sunny", "exact": "never"}),
]


def _field_id(value) -> str:
    return ".".join(map(str, value)) if isinstance(value, tuple) else repr(value)


@pytest.fixture
def core_dir(scenarios_root) -> Path:
    return scenarios_root / "core"


class TestRun:
    def test_happy_path(self, core_dir, tmp_path, capsys):
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "answer:" in out
        assert "pass: True" in out
        trace_path = tmp_path / "sum2act__weather_miami.jsonl"
        assert trace_path.exists()
        episodes = read_trace(trace_path)
        assert len(episodes) == 1
        assert episodes[0].terminal.status == "Finished"

    def test_never_finish_exits_1(self, scenarios_root, tmp_path, capsys):
        adversarial = scenarios_root / "adversarial"
        code = main([
            "run",
            "--scenario", str(adversarial / "never_finish.scenario.json"),
            "--policy", str(adversarial / "never_finish.policy.json"),
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "BudgetExhausted" in out

    def test_missing_policy_exits_2(self, core_dir, tmp_path, capsys):
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(tmp_path / "nope.policy.json"),
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_invalid_regex_policy_exits_2(self, core_dir, tmp_path, capsys):
        policy = _write_bad_regex_policy(tmp_path / "bad.policy.json")
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_cairo.scenario.json"),
            "--policy", str(policy),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        _assert_names_bad_regex(capsys.readouterr().err, "bad.policy.json")

    @pytest.mark.parametrize("kind, path, value", MALFORMED_INPUTS, ids=_field_id)
    def test_malformed_input_exits_2_naming_it(self, core_dir, tmp_path, capsys, kind, path, value):
        suite = _malformed_pair(core_dir, tmp_path / "suite", kind, path, value)
        code = main([
            "run",
            "--scenario", str(suite / "weather_miami.scenario.json"),
            "--policy", str(suite / "weather_miami.policy.json"),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"weather_miami.{kind}.json" in err
        if isinstance(path[-1], str):
            assert repr(path[-1]) in err
        assert "Traceback" not in err

    def test_live_base_url_without_scheme_exits_2(self, core_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PROVIDER_BASE_URL", "localhost:9")
        monkeypatch.setenv("PROVIDER_MODEL", "stub-model")
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--provider", "live",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "PROVIDER_BASE_URL must start with http:// or https://, got 'localhost:9'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_templates_dir_exits_2_naming_it(self, core_dir, tmp_path, capsys):
        missing = tmp_path / "no-such-templates"
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--templates-dir", str(missing),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_templates_dir_overriding_some_templates_runs(self, core_dir, tmp_path):
        # A template the directory lacks comes from the built-in set.
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "dfsdt.txt").write_text(load_templates()["dfsdt"], encoding="utf-8")
        traces = []
        for name, extra in (("plain", []), ("override", ["--templates-dir", str(templates)])):
            assert main([
                "run",
                "--scenario", str(core_dir / "weather_miami.scenario.json"),
                "--policy", str(core_dir / "weather_miami.policy.json"),
                "--out", str(tmp_path / name), *extra,
            ]) == 0
            traces.append((tmp_path / name / "sum2act__weather_miami.jsonl").read_bytes())
        assert traces[0] == traces[1]

    def test_no_input_exits_2(self, tmp_path, capsys):
        code = main(["run", "--policy", str(tmp_path), "--out", str(tmp_path)])
        assert code == 2

    def test_method_flag_selects_engine(self, core_dir, tmp_path):
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--method", "react",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "react__weather_miami.jsonl").exists()

    def test_live_tools_with_scripted_provider(self, http_stub, tmp_path):
        # Endpoint-spec execution path end to end, driven by a scripted
        # provider against a local HTTP stub.
        stub = http_stub([(200, '{"status": "fresh data STUB-OK"}')])
        tools_path = tmp_path / "catalog.json"
        tools_path.write_text(json.dumps([
            {"name": "fetch_page", "description": "Fetch the status page.", "params": []},
        ]))
        endpoints_path = tmp_path / "endpoints.json"
        endpoints_path.write_text(json.dumps({
            "fetch_page": {"url": stub.url + "/status", "method": "GET"},
        }))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            "entries": [
                {"match": "(?s)STUB-OK", "is_regex": True,
                 "response": json.dumps({"thought": "done", "action": "Finish",
                                         "args": {"Answer": "The page holds fresh data."}})},
            ],
            "default": json.dumps({"thought": "fetch", "action": "fetch_page", "args": {}}),
        }))
        code = main([
            "run",
            "--instruction", "Check the status page and summarize it.",
            "--tools", str(tools_path),
            "--endpoint-spec", str(endpoints_path),
            "--policy", str(policy_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert stub.calls == 1

    @pytest.mark.parametrize("key, value", [("method", 5), ("timeout", "x"), ("auth_env", 7)])
    def test_wrongly_typed_endpoint_key_exits_2(self, core_dir, tmp_path, capsys, key, value):
        assert _run_live_tools(core_dir, tmp_path, {key: value}) == 2
        assert f"'fetch_page': {key!r} must be" in capsys.readouterr().err

    def test_unknown_endpoint_key_exits_2(self, core_dir, tmp_path, capsys):
        assert _run_live_tools(core_dir, tmp_path, {"timout": 5}) == 2
        err = capsys.readouterr().err
        assert "endpoints.json: malformed endpoint spec: 'fetch_page': Endpoint has no key 'timout'" in err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_exits_2(self, core_dir, tmp_path, capsys, top_k):
        assert _run_live_tools(core_dir, tmp_path, {}, "--top-k", top_k) == 2
        assert f"k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("record", [{"description": "x"}, "oops"])
    def test_malformed_catalog_exits_2(self, core_dir, tmp_path, capsys, record):
        tools_path = tmp_path / "catalog.json"
        tools_path.write_text(json.dumps([record]))
        code = main([
            "run",
            "--instruction", "Check the status page.",
            "--tools", str(tools_path),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "catalog.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("budget", "abc"),
        ("budget", "12"),
        ("budget", True),
        ("state_cap", 4096.5),
        ("decompose", "no"),
        ("decompose", 0),
        ("max_children", [3]),
        ("templates_dir", 7),
        ("method", ["react"]),
        ("provider", 1),
    ])
    def test_wrong_typed_config_value_exits_2(self, core_dir, tmp_path, capsys, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--config", str(config_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, name", [
        ("--scenario", "deep.scenario.json"),
        ("--tools", "deep.catalog.json"),
        ("--endpoint-spec", "deep.endpoints.json"),
        ("--policy", "deep.policy.json"),
        ("--config", "deep.config.json"),
    ])
    @pytest.mark.parametrize(
        "data", [b"[" * 100_000, b"{broken", b"\xff{}"], ids=["over_deep", "invalid", "not_utf8"]
    )
    def test_unreadable_json_file_exits_2_naming_it(self, core_dir, tmp_path, capsys, flag, name, data):
        (tmp_path / name).write_bytes(data)
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"name": "fetch_page", "description": "Fetch."}]))
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps({"fetch_page": {"url": "http://127.0.0.1:9/x"}}))
        files = {
            "--instruction": "Check the status page.",
            "--tools": str(catalog),
            "--endpoint-spec": str(endpoints),
            "--policy": str(core_dir / "weather_miami.policy.json"),
            "--out": str(tmp_path / "out"),
        }
        if flag == "--scenario":
            files = {"--policy": files["--policy"], "--out": files["--out"]}
        files[flag] = str(tmp_path / name)
        code = main(["run"] + [part for item in files.items() for part in item])
        assert code == 2
        assert name in capsys.readouterr().err

    def test_engine_defaults_follow_the_method(self, core_dir, tmp_path):
        # Only the given keys override: dfsdt keeps its own 200-step budget.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"method": "dfsdt", "max_children": 2}))
        assert main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--config", str(config_path),
            "--out", str(tmp_path),
        ]) == 0
        assert read_trace(tmp_path / "dfsdt__weather_miami.jsonl")[0].step_budget == 200

    def test_config_file_provides_defaults(self, core_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "policy": str(core_dir / "weather_miami.policy.json"),
            "out": str(tmp_path / "from-config"),
        }))
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--config", str(config_path),
        ])
        assert code == 0
        assert (tmp_path / "from-config" / "sum2act__weather_miami.jsonl").exists()


class TestBench:
    def test_counting_contract(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo", "quote_copper"):
            _copy_pair(core_dir, name, suite)
        out_dir = tmp_path / "out"
        code = main([
            "bench", "--scenario-dir", str(suite),
            "--methods", "sum2act,react", "--out", str(out_dir),
        ])
        assert code == 0
        traces = sorted((out_dir / "traces").glob("*/*.jsonl"))
        assert len(traces) == 6  # 3 scenarios x 2 methods
        table = capsys.readouterr().out
        assert "sum2act" in table and "react" in table
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["methods"]) == {"sum2act", "react"}
        assert report["methods"]["sum2act"]["average"]["pass_rate"] == 100.0

    def test_average_equals_recomputed_mean(self, scenarios_root, tmp_path):
        suite = tmp_path / "suite"
        _copy_pair(scenarios_root / "core", "weather_miami", suite)
        _copy_pair(scenarios_root / "differential", "vault_1", suite)
        out_dir = tmp_path / "out"
        code = main([
            "bench", "--scenario-dir", str(suite),
            "--methods", "react", "--out", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        subsets = report["methods"]["react"]["subsets"]
        rates = [entry["pass_rate"] for entry in subsets]
        recomputed = sum(rates) / len(rates)
        assert report["methods"]["react"]["average"]["pass_rate"] == pytest.approx(
            recomputed, abs=0.05
        )
        # react passes the plain weather scenario but not the long-horizon one
        assert sorted(rates) == [0.0, 100.0]

    def test_concurrency_produces_identical_trace_sets(self, core_dir, tmp_path):
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo", "quote_copper", "track_pkt4821"):
            _copy_pair(core_dir, name, suite)
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react",
                     "--out", str(out_serial)]) == 0
        assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react",
                     "--out", str(out_parallel), "--concurrency", "4"]) == 0
        serial_files = sorted(p.relative_to(out_serial) for p in (out_serial / "traces").glob("*/*.jsonl"))
        parallel_files = sorted(p.relative_to(out_parallel) for p in (out_parallel / "traces").glob("*/*.jsonl"))
        assert serial_files == parallel_files
        for relative in serial_files:
            assert (out_serial / relative).read_bytes() == (out_parallel / relative).read_bytes()

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    def test_shipped_corpus_bytes_are_pinned(self, scenarios_root, tmp_path, concurrency):
        # sha256 over report.json, report.txt and every trace, each preceded
        # by its path relative to the output directory.
        out_dir = tmp_path / "out"
        assert main([
            "bench", "--scenario-dir", str(scenarios_root),
            "--methods", "sum2act,react,dfsdt", "--concurrency", concurrency,
            "--out", str(out_dir),
        ]) == 0
        files = [out_dir / "report.json", out_dir / "report.txt"]
        files += sorted((out_dir / "traces").glob("*/*.jsonl"))
        assert len(files) == 92  # 2 reports + 30 scenarios x 3 methods
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\n")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "396dcec731eef6d3303055c686475680c82f21e92b560e0b291be398d28352ed"
        )

    @pytest.mark.parametrize("value", ["abc", "4", 2.5, True])
    def test_wrong_typed_concurrency_exits_2(self, core_dir, tmp_path, capsys, value):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"concurrency": value}))
        code = main(["bench", "--scenario-dir", str(suite), "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'concurrency'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_method_prefix_selects_only_that_method(self, core_dir, tmp_path):
        # bench has no --method; argparse reads it as the prefix of --methods.
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out_dir = tmp_path / "out"
        assert main(["bench", "--scenario-dir", str(suite), "--method", "react",
                     "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in (out_dir / "traces").iterdir()) == ["react"]
        report = json.loads((out_dir / "report.json").read_text())
        assert list(report["methods"]) == ["react"]

    @pytest.mark.parametrize("flag, config", [(",", None), (None, {"methods": ""})])
    def test_empty_method_list_exits_2(self, core_dir, tmp_path, capsys, flag, config):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        argv = ["bench", "--scenario-dir", str(suite), "--out", str(tmp_path / "out")]
        if flag is not None:
            argv += ["--methods", flag]
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            argv += ["--config", str(config_path)]
        assert main(argv) == 2
        assert "no method" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_method_exits_2(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--methods", "react,sum2act,react",
                     "--out", str(out_dir)])
        assert code == 2
        assert "method 'react' is listed more than once" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_duplicate_scenario_id_exits_2(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        for suffix in (".scenario.json", ".policy.json"):
            shutil.copy(core_dir / f"weather_miami{suffix}", suite / f"weather_copy{suffix}")
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(out_dir),
                     "--concurrency", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario id 'weather_miami'" in err
        assert "weather_copy.scenario.json" in err and "weather_miami.scenario.json" in err
        assert not out_dir.exists()

    def test_fail_fast_on_corrupt_scenario(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        (suite / "broken.scenario.json").write_text("{nope")
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(out_dir)])
        assert code == 2
        assert not (out_dir / "traces").exists()

    def test_invalid_regex_sibling_policy_exits_2(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        _write_bad_regex_policy(suite / "weather_miami.policy.json")
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(out_dir)])
        assert code == 2
        _assert_names_bad_regex(capsys.readouterr().err, "weather_miami.policy.json")
        assert not (out_dir / "traces").exists()

    def test_malformed_sibling_policy_exits_2(self, core_dir, tmp_path, capsys):
        suite = _malformed_pair(core_dir, tmp_path / "suite", "policy", ("entries", 0, "match"), 5)
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "weather_miami.policy.json: malformed policy: 'entries': entry 0: 'match' must be str" in err
        assert not (out_dir / "traces").exists()

    def test_missing_sibling_policy_fails(self, core_dir, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        shutil.copy(core_dir / "weather_miami.scenario.json", suite / "weather_miami.scenario.json")
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_live_provider_serves_every_episode(self, core_dir, tmp_path, http_stub, monkeypatch):
        stub = _live_stub(http_stub, monkeypatch)
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo"):
            _copy_pair(core_dir, name, suite)
        out_dir = tmp_path / "out"
        assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react",
                     "--provider", "live", "--out", str(out_dir)]) == 0
        # One Finish proposal per episode: 2 scenarios x 2 methods.
        assert stub.calls == 4
        assert set(stub.paths) == {"/chat/completions"}
        for name in ("weather_miami", "flight_bos_sfo"):
            text = json.loads((suite / f"{name}.scenario.json").read_text())["instruction"]["text"]
            assert sum(text in body.decode("utf-8") for body in stub.bodies) == 2
        report = json.loads((out_dir / "report.json").read_text())
        assert [e["terminal"] for e in report["episodes"]] == ["Finished"] * 4
        # One provider serves the whole run, over one client connection.
        assert len(set(stub.clients)) == 1

    def test_live_provider_is_shared_across_threads(self, core_dir, tmp_path, http_stub, monkeypatch):
        stub = _live_stub(http_stub, monkeypatch)
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo"):
            _copy_pair(core_dir, name, suite)
        reports = []
        for concurrency in ("1", "4"):
            out_dir = tmp_path / f"out-{concurrency}"
            assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react",
                         "--provider", "live", "--concurrency", concurrency,
                         "--out", str(out_dir)]) == 0
            reports.append((out_dir / "report.json").read_bytes())
        assert len(stub.paths) == 8
        assert [e["terminal"] for e in json.loads(reports[1])["episodes"]] == ["Finished"] * 4
        assert reports[1] == reports[0]

    def test_global_policy_serves_every_scenario(self, core_dir, tmp_path):
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo"):
            _copy_pair(core_dir, name, suite)
        policy = tmp_path / "global.policy.json"
        policy.write_text(json.dumps({"entries": [], "default": _FINISH_REPLY}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react",
                     "--policy", str(policy), "--out", str(out_dir)]) == 0
        traces = sorted((out_dir / "traces").glob("*/*.jsonl"))
        assert len(traces) == 4
        for trace in traces:
            assert read_trace(trace)[0].terminal.answer == "FINISH-REPLY"


def _provider_argv(command: str, core_dir: Path, tmp_path: Path) -> list[str]:
    """The inputs ``command`` needs to reach its provider: the weather_miami
    pair copied to a suite for ``run`` and ``bench``, and a trace for
    ``compare --judge llm``."""
    suite = tmp_path / "suite"
    _copy_pair(core_dir, "weather_miami", suite)
    trace = _trace_with_budget(tmp_path, 1)
    return {
        "run": ["--scenario", str(suite / "weather_miami.scenario.json"),
                "--policy", str(suite / "weather_miami.policy.json")],
        "bench": ["--scenario-dir", str(suite)],
        "compare": ["--traces-a", str(trace), "--traces-b", str(trace), "--judge", "llm"],
    }[command]


@pytest.mark.parametrize("command", ["run", "bench", "compare"])
def test_unknown_provider_mode_exits_2_before_any_call(
    core_dir, tmp_path, capsys, http_stub, monkeypatch, command
):
    stub = _live_stub(http_stub, monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": "Scripted"}))
    argv = _provider_argv(command, core_dir, tmp_path)
    out_dir = tmp_path / "out"
    assert main([command, *argv, "--config", str(config), "--out", str(out_dir)]) == 2
    assert "unknown provider mode: 'Scripted'" in capsys.readouterr().err
    assert stub.calls == 0
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "bench", "compare"])
def test_misspelled_config_key_exits_2_naming_file_and_key(core_dir, tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budgte": 3}))
    argv = _provider_argv(command, core_dir, tmp_path)
    out_dir = tmp_path / "out"
    assert main([command, *argv, "--config", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "'budgte'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("flag", ["--decompose", "--no-decompose"])
def test_removed_decompose_flag_is_a_usage_error(core_dir, tmp_path, capsys, command, flag):
    argv = _provider_argv(command, core_dir, tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, *argv, "--out", str(tmp_path / "out"), flag])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_one_config_file_with_every_key_serves_every_command(core_dir, tmp_path):
    suite = tmp_path / "suite"
    _copy_pair(core_dir, "weather_miami", suite)
    (tmp_path / "templates").mkdir()
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "sum2act", "methods": "sum2act", "provider": "scripted",
        "policy": str(suite / "weather_miami.policy.json"), "out": str(out_dir),
        "concurrency": 1, "judge": "rule", "budget": 30, "state_cap": 4096,
        "observation_window": 4096, "react_window": 4096, "max_children": 3,
        "templates_dir": str(tmp_path / "templates"),
    }))
    traces = str(out_dir / "traces")
    for argv in (
        ["run", "--scenario", str(suite / "weather_miami.scenario.json")],
        ["bench", "--scenario-dir", str(suite)],
        ["compare", "--traces-a", traces, "--traces-b", traces, "--scenario-dir", str(suite)],
    ):
        assert main([*argv, "--config", str(config)]) == 0
    assert (out_dir / "sum2act__weather_miami.jsonl").exists()
    assert (out_dir / "report.json").exists() and (out_dir / "winrate.json").exists()


@pytest.mark.parametrize(
    "command, name, placeholder",
    [("run", "router", "{observation}"), ("bench", "react", "{state}")],
)
def test_template_placeholder_its_prompt_does_not_fill_exits_2(
    core_dir, tmp_path, capsys, command, name, placeholder
):
    templates = tmp_path / "templates"
    templates.mkdir()
    override = templates / f"{name}.txt"
    override.write_text(load_templates()[name] + f"\n{placeholder}\n", encoding="utf-8")
    argv = _provider_argv(command, core_dir, tmp_path)
    methods = ["--methods", "sum2act,react"] if command == "bench" else []
    code = main([command, *argv, *methods, "--templates-dir", str(templates),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(override) in err and placeholder in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "bench"])
def test_template_that_is_not_utf8_exits_2_naming_it(core_dir, tmp_path, capsys, command):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "router.txt").write_bytes(b"## Rules\n{rules}\n\xff\xfe\n")
    argv = _provider_argv(command, core_dir, tmp_path)
    code = main([command, *argv, "--templates-dir", str(templates), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(templates / "router.txt") in err and "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_template_braces_naming_no_placeholder_are_literal(core_dir, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    router = load_templates()["router"] + '\nFor example {city}, or {"city": "Miami"}.\n'
    (templates / "router.txt").write_text(router, encoding="utf-8")
    assert load_templates(str(templates))["router"] == router
    argv = _provider_argv("run", core_dir, tmp_path)
    assert main(["run", *argv, "--templates-dir", str(templates), "--out", str(tmp_path / "out")]) == 0


class TestCompare:
    def _bench(self, suite: Path, out: Path, methods: str) -> None:
        assert main(["bench", "--scenario-dir", str(suite), "--methods", methods,
                     "--out", str(out)]) == 0

    def test_identical_sets_tie_everywhere(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo"):
            _copy_pair(core_dir, name, suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act")
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "sum2act"),
            "--judge", "rule", "--scenario-dir", str(suite),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "cmp" / "winrate.json").read_text())
        assert report["average"] == 50.0
        assert all(rate == 50.0 for rate in report["subsets"].values())
        assert all(j["outcome"] == "Tie" for j in report["judgments"])

    def test_all_pass_beats_all_fail(self, scenarios_root, tmp_path):
        suite = tmp_path / "suite"
        for k in range(1, 6):
            _copy_pair(scenarios_root / "differential", f"vault_{k}", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act,react")
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "react"),
            "--judge", "rule", "--scenario-dir", str(suite),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "cmp" / "winrate.json").read_text())
        assert report["average"] == 100.0
        assert report["method_a"] == "sum2act"

    def test_shipped_corpus_rule_winrate_bytes_are_pinned(self, scenarios_root, tmp_path):
        # sha256 over winrate.txt and winrate.json of sum2act against react
        # on the whole shipped corpus, each preceded by its file name.
        out = tmp_path / "bench"
        self._bench(scenarios_root, out, "sum2act,react")
        cmp_dir = tmp_path / "cmp"
        assert main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "react"),
            "--judge", "rule", "--scenario-dir", str(scenarios_root),
            "--out", str(cmp_dir),
        ]) == 0
        digest = hashlib.sha256()
        for name in ("winrate.txt", "winrate.json"):
            digest.update(name.encode("utf-8") + b"\n")
            digest.update((cmp_dir / name).read_bytes())
        assert digest.hexdigest() == (
            "7f6c174e01cd73cb600f32ed1d4a38244c2449fec130dc2d077cde88a282d4c0"
        )

    def test_mismatched_ids_error_names_them(self, core_dir, tmp_path, capsys):
        suite_a = tmp_path / "suite_a"
        suite_b = tmp_path / "suite_b"
        _copy_pair(core_dir, "weather_miami", suite_a)
        _copy_pair(core_dir, "flight_bos_sfo", suite_b)
        out_a = tmp_path / "ba"
        out_b = tmp_path / "bb"
        self._bench(suite_a, out_a, "sum2act")
        self._bench(suite_b, out_b, "sum2act")
        code = main([
            "compare",
            "--traces-a", str(out_a / "traces" / "sum2act"),
            "--traces-b", str(out_b / "traces" / "sum2act"),
            "--judge", "rule", "--scenario-dir", str(suite_a),
            "--out", str(tmp_path / "cmp"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "weather_miami" in err
        assert "flight_bos_sfo" in err

    def test_duplicate_instruction_id_exits_2_naming_both_files(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act")
        # A second scenario for the same instruction that no answer passes:
        # whichever file were read last would decide every pass.
        record = json.loads((suite / "weather_miami.scenario.json").read_text())
        record["id"] = "weather_copy"
        record["pass_condition"] = {"exact": "never"}
        (suite / "weather_copy.scenario.json").write_text(json.dumps(record))
        cmp_dir = tmp_path / "cmp"
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "sum2act"),
            "--judge", "rule", "--scenario-dir", str(suite),
            "--out", str(cmp_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"instruction id {record['instruction']['id']!r}" in err
        assert "weather_copy.scenario.json" in err and "weather_miami.scenario.json" in err
        assert not cmp_dir.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--method", "react"), ("--budget", "3"), ("--state-cap", "1"),
        ("--observation-window", "4096"), ("--react-window", "4096"),
        ("--max-children", "2"), ("--decompose", None), ("--templates-dir", "t"),
    ])
    def test_engine_flags_are_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["compare", "--traces-a", "a", "--traces-b", "b", flag]
                 + ([value] if value is not None else []))
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_non_utf8_trace_exits_2_naming_it(self, tmp_path, capsys):
        trace = tmp_path / "latin.jsonl"
        trace.write_bytes(b"\xff{}\n")
        code = main(["compare", "--traces-a", str(trace), "--traces-b", str(trace),
                     "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "latin.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["x", None])
    def test_non_integer_step_budget_exits_2(self, tmp_path, capsys, budget):
        trace = _trace_with_budget(tmp_path, budget)
        code = main(["compare", "--traces-a", str(trace), "--traces-b", str(trace),
                     "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "step_budget" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", WRONGLY_TYPED_SCALARS, ids=_field_id)
    def test_wrongly_typed_scalar_exits_2(self, core_dir, tmp_path, capsys, path, value):
        trace = _trace_with_field(core_dir, tmp_path, path, value)
        code = main(["compare", "--traces-a", str(trace), "--traces-b", str(trace),
                     "--judge", "rule", "--scenario-dir", str(core_dir),
                     "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert f"{path[-1]!r} must be" in capsys.readouterr().err

    def test_llm_judge_with_scripted_provider(self, core_dir, tmp_path):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act,react")
        judge_policy = tmp_path / "judge.policy.json"
        judge_policy.write_text(json.dumps({
            "entries": [],
            "default": json.dumps({"winner": "A", "rationale": "A was cleaner"}),
        }))
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "react"),
            "--judge", "llm", "--provider", "scripted", "--policy", str(judge_policy),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "cmp" / "winrate.json").read_text())
        assert report["average"] == 100.0


    def test_invalid_regex_judge_policy_exits_2(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act,react")
        capsys.readouterr()
        policy = _write_bad_regex_policy(tmp_path / "judge.policy.json")
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "react"),
            "--judge", "llm", "--provider", "scripted", "--policy", str(policy),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 2
        _assert_names_bad_regex(capsys.readouterr().err, "judge.policy.json")


class TestReplay:
    def _trace(self, core_dir, tmp_path) -> Path:
        assert main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--policy", str(core_dir / "weather_miami.policy.json"),
            "--out", str(tmp_path),
        ]) == 0
        return tmp_path / "sum2act__weather_miami.jsonl"

    def test_renders_every_step(self, core_dir, tmp_path, capsys):
        trace = self._trace(core_dir, tmp_path)
        capsys.readouterr()
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        step_lines = [line for line in out.splitlines() if line.startswith("step ")]
        assert len(step_lines) == 3
        assert "terminal: Finished" in out

    def test_stable_across_runs(self, core_dir, tmp_path, capsys):
        trace = self._trace(core_dir, tmp_path)
        capsys.readouterr()
        main(["replay", str(trace)])
        first = capsys.readouterr().out
        main(["replay", str(trace)])
        second = capsys.readouterr().out
        assert first == second

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["replay", str(empty)]) == 2

    def test_line_separator_in_text_replays(self, tmp_path, capsys):
        # Traces keep U+2028 unescaped inside strings; only "\n" ends a record.
        instruction = Instruction(id="sep", text="first\u2028second")
        episode = new_episode(instruction, [ToolSpec(name="alpha", description="a")], 1, "sum2act")
        episode = episode.with_step(
            Step(Action(kind="Finish", args={"Answer": "ok"}), None, State.empty())
        ).with_terminal(Terminal.finished("ok"))
        trace = tmp_path / "sep.jsonl"
        trace.write_text(serialize_episode(episode) + "\n", encoding="utf-8")
        assert main(["replay", str(trace)]) == 0
        assert "terminal: Finished answer: ok" in capsys.readouterr().out

    def test_over_deep_trace_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "\n")
        assert main(["replay", str(deep)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_trace_exits_2_naming_it(self, tmp_path, capsys):
        trace = tmp_path / "latin.jsonl"
        trace.write_bytes(b"\xff{}\n")
        assert main(["replay", str(trace)]) == 2
        assert "latin.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["x", None])
    def test_non_integer_step_budget_exits_2(self, tmp_path, capsys, budget):
        assert main(["replay", str(_trace_with_budget(tmp_path, budget))]) == 2
        assert "step_budget" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", WRONGLY_TYPED_SCALARS, ids=_field_id)
    def test_wrongly_typed_scalar_exits_2(self, core_dir, tmp_path, capsys, path, value):
        assert main(["replay", str(_trace_with_field(core_dir, tmp_path, path, value))]) == 2
        assert f"{path[-1]!r} must be" in capsys.readouterr().err

    def test_unknown_record_key_exits_2_naming_it(self, core_dir, tmp_path, capsys):
        trace = _trace_with_field(core_dir, tmp_path, ("terminal", "anwser"), "sunny")
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "Terminal has no key 'anwser'" in err
        assert "Traceback" not in err

    def test_corrupt_trace_exits_2(self, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("{broken\n")
        assert main(["replay", str(corrupt)]) == 2
