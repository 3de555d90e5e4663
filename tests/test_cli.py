from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from sum2act import cli, engine
from sum2act.cli import main
from sum2act.core import (
    Action,
    Episode,
    Instruction,
    Observation,
    ResultEntry,
    State,
    Step,
    Terminal,
    ToolSpec,
    read_trace,
    serialize_episode,
)
from sum2act.parsing import load_templates
from sum2act.provider import ScriptedProvider


def _copy_pair(src_dir: Path, name: str, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for suffix in (".scenario.json", ".policy.json"):
        shutil.copy(src_dir / f"{name}{suffix}", dst / f"{name}{suffix}")


def _write_verbose_pair(suite: Path) -> None:
    """Scenario "verbose": tool alpha first answers a payload of 200,000
    filler chars; its policy always calls alpha and judges every observation
    a Success."""
    suite.mkdir(parents=True, exist_ok=True)
    (suite / "verbose.scenario.json").write_text(json.dumps({
        "id": "verbose",
        "instruction": {"id": "verbose", "text": "find the needle"},
        "tools": [{"name": "alpha", "description": "tool alpha"}],
        "behaviors": {"alpha": [
            {"kind": "verbose", "payload": "needle", "filler_chars": 200_000, "repeat": "once"},
            {"kind": "success", "payload": "last", "repeat": "forever"},
        ]},
        "pass_condition": {"contains_all": ["needle"]},
    }))
    (suite / "verbose.policy.json").write_text(json.dumps({
        "entries": [{"match": "You are the state manager",
                     "response": json.dumps({"verdict": "Success", "summary": "found it"})}],
        "default": json.dumps({"thought": "look", "action": "alpha", "args": {}}),
    }))


def _finished_episode(instruction: Instruction) -> Episode:
    """A one-step episode that answers "ok" at once."""
    finish = Step(Action(kind="Finish", args={"Answer": "ok"}), None, State.empty())
    tools = (ToolSpec(name="alpha", description="a"),)
    return Episode(instruction, tools, (finish,), Terminal.finished("ok"), "sum2act", 1)


def _trace_with_budget(tmp_path: Path, budget) -> Path:
    """A one-episode trace file whose ``step_budget`` is set to ``budget``."""
    record = json.loads(serialize_episode(_finished_episode(Instruction(id="b", text="t"))))
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

    # A run of a scenario reads none of the live-tools flags; the error
    # names the first given, in the order the README lists them.
    @pytest.mark.parametrize("flags, named", [
        (["--instruction", "x"], "--instruction"),
        (["--instruction-id", "x"], "--instruction-id"),
        (["--tools", "/nonexistent"], "--tools"),
        (["--endpoint-spec", "/nonexistent"], "--endpoint-spec"),
        (["--top-k", "0"], "--top-k"),
        (["--top-k", "5", "--tools", "/nonexistent"], "--tools"),
    ], ids=["instruction", "instruction-id", "tools", "endpoint-spec", "top-k", "top-k-and-tools"])
    def test_live_tools_flag_with_scenario_exits_2_naming_it(
        self, core_dir, tmp_path, capsys, http_stub, monkeypatch, flags, named
    ):
        stub = _live_stub(http_stub, monkeypatch)
        code = main([
            "run",
            "--scenario", str(core_dir / "weather_miami.scenario.json"),
            "--provider", "live",
            "--out", str(tmp_path / "out"),
            *flags,
        ])
        assert code == 2
        assert f"--scenario cannot be combined with {named}" in capsys.readouterr().err
        assert stub.calls == 0
        assert not (tmp_path / "out").exists()

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

    def test_live_tools_of_one_run_share_one_connection(self, http_stub, tmp_path):
        # Two tool calls, then Finish once the second payload is in the state.
        stub = http_stub([(200, '{"status": "stale"}'), (200, '{"status": "fresh STUB-OK"}')])
        tools_path = tmp_path / "catalog.json"
        tools_path.write_text(json.dumps([{"name": "fetch_page", "description": "Fetch."}]))
        endpoints_path = tmp_path / "endpoints.json"
        endpoints_path.write_text(json.dumps({"fetch_page": {"url": stub.url + "/status"}}))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            "entries": [{"match": "STUB-OK", "response": _FINISH_REPLY}],
            "default": json.dumps({"thought": "fetch", "action": "fetch_page", "args": {}}),
        }))
        code = main([
            "run", "--instruction", "Fetch the page until it is fresh.",
            "--tools", str(tools_path), "--endpoint-spec", str(endpoints_path),
            "--policy", str(policy_path), "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert stub.paths == ["/status", "/status"]
        assert len(set(stub.clients)) == 1

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
        ("max_children", 3.5),
        ("judge", 1),
        ("policy", False),
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

    def test_largest_step_budget_starts_first(self, core_dir, tmp_path, monkeypatch):
        suite = tmp_path / "suite"
        for name in ("weather_miami", "flight_bos_sfo"):
            _copy_pair(core_dir, name, suite)
        started = []
        run_episode = cli.run_episode

        def recording(method, *rest):
            started.append(method)
            return run_episode(method, *rest)

        monkeypatch.setattr(cli, "run_episode", recording)
        assert main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react,dfsdt",
                     "--out", str(tmp_path / "out")]) == 0
        # dfsdt (200 steps) first, then the 30-step methods in the order given.
        assert started == ["dfsdt"] * 2 + ["sum2act"] * 2 + ["react"] * 2
        # The report keeps the order of --methods.
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [e["method"] for e in report["episodes"]] == ["sum2act"] * 2 + ["react"] * 2 + ["dfsdt"] * 2

    @pytest.mark.filterwarnings("error")
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

    def test_episode_over_the_request_limit_is_reported_and_the_run_goes_on(
        self, core_dir, tmp_path, capsys
    ):
        # dfsdt keeps the 200,000-char payload in its branch memory, unclipped
        # (a known defect), so its second router prompt is over the limit.
        suite = tmp_path / "suite"
        _write_verbose_pair(suite)
        _copy_pair(core_dir, "weather_miami", suite)
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--methods", "sum2act,react,dfsdt",
                     "--budget", "2", "--max-children", "1", "--out", str(out_dir)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "error: dfsdt/verbose: rendered request is 200928 chars, over the 200000-char limit"
        ]
        # The table is printed, with a row for every method.
        assert [line.split()[0] for line in out.splitlines()[1:4]] == ["sum2act", "react", "dfsdt"]
        traces = sorted(p.relative_to(out_dir / "traces").as_posix()
                        for p in (out_dir / "traces").glob("*/*.jsonl"))
        assert traces == [
            "dfsdt/weather_miami.jsonl", "react/verbose.jsonl", "react/weather_miami.jsonl",
            "sum2act/verbose.jsonl", "sum2act/weather_miami.jsonl",
        ]
        report = json.loads((out_dir / "report.json").read_text())
        raised = [e for e in report["episodes"] if e["terminal"] == "RequestTooLarge"]
        assert raised == [{"method": "dfsdt", "scenario": "verbose", "subset": "default",
                           "pass": False, "terminal": "RequestTooLarge", "steps": None}]
        assert len(report["episodes"]) == 6
        # The raised episode counts as failed: dfsdt's "default" subset holds
        # only it.
        subsets = {s["label"]: s for s in report["methods"]["dfsdt"]["subsets"]}
        assert subsets["default"] == {"label": "default", "pass_rate": 0.0, "win_rate": None, "n": 1}
        assert (out_dir / "report.txt").exists()

    def test_other_episode_error_ends_the_run(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        # No entry matches and no default is set: the policy is wrong.
        (suite / "weather_miami.policy.json").write_text(json.dumps({"entries": []}))
        out_dir = tmp_path / "out"
        code = main(["bench", "--scenario-dir", str(suite), "--out", str(out_dir)])
        assert code == 2
        assert "no policy entry matched the prompt" in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()

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


REMOVED_ENGINE_KEYS = ("state_cap", "observation_window", "react_window")


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("key", REMOVED_ENGINE_KEYS)
def test_removed_engine_flag_is_a_usage_error(
    core_dir, tmp_path, capsys, http_stub, monkeypatch, command, key
):
    # The state cap and both windows are fixed at 4,096 chars; a flag that
    # would set one is not parsed, so no episode starts.
    stub = _live_stub(http_stub, monkeypatch)
    argv = _provider_argv(command, core_dir, tmp_path)
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        main([command, *argv, "--provider", "live", "--out", str(tmp_path / "out"), flag, "1000000"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 1000000" in capsys.readouterr().err
    assert stub.calls == 0


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("key", REMOVED_ENGINE_KEYS)
def test_removed_engine_config_key_exits_2_naming_it(core_dir, tmp_path, capsys, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 4096}))
    argv = _provider_argv(command, core_dir, tmp_path)
    out_dir = tmp_path / "out"
    assert main([command, *argv, "--config", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and repr(key) in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, methods, loads", [
    ("run", [], 1),
    ("bench", ["--methods", "sum2act,react,dfsdt"], 3),
], ids=["run", "bench"])
def test_templates_are_loaded_once_per_method(
    core_dir, tmp_path, monkeypatch, command, methods, loads
):
    calls = []
    real = engine.load_templates

    def counting(templates_dir):
        calls.append(templates_dir)
        return real(templates_dir)

    monkeypatch.setattr(engine, "load_templates", counting)
    argv = _provider_argv(command, core_dir, tmp_path)
    main([command, *argv, *methods, "--out", str(tmp_path / "out")])
    assert len(calls) == loads


def test_one_config_file_with_every_key_serves_every_command(core_dir, tmp_path):
    suite = tmp_path / "suite"
    _copy_pair(core_dir, "weather_miami", suite)
    (tmp_path / "templates").mkdir()
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "sum2act", "methods": "sum2act", "provider": "scripted",
        "policy": str(suite / "weather_miami.policy.json"), "out": str(out_dir),
        "concurrency": 1, "judge": "rule", "budget": 30, "max_children": 3,
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


# command, key, flag value, config value, built-in default. The flag value
# differs from the config value, and the config value from the default.
PRECEDENCE = [
    ("run", "out", "flag-out", "config-out", "runs"),
    ("bench", "out", "flag-out", "config-out", "bench-out"),
    ("compare", "out", "flag-out", "config-out", "compare-out"),
    ("bench", "methods", "react", "dfsdt", "sum2act"),
    ("bench", "concurrency", 3, 2, 1),
    ("compare", "judge", "rule", "llm", "rule"),
    ("run", "budget", 5, 7, engine.SUM2ACT_STEP_BUDGET),
]


def _settings_used(command: str, core_dir: Path, root: Path, monkeypatch, flags: list, config,
                   judge: str = "rule") -> dict:
    """Run ``command`` over the weather_miami pair from ``root`` with
    ``flags`` and, unless None, a config file holding ``config``; return the
    out directory and each other PRECEDENCE key of ``command`` as the run's
    outputs show them. ``compare`` gets ``--scenario-dir`` only when
    ``judge`` is "rule": the llm judge exits 2 given one, and the rule judge
    without one, so a run that picks the other judge fails."""
    suite = root / "suite"
    _copy_pair(core_dir, "weather_miami", suite)
    run_argv = ["--scenario", str(suite / "weather_miami.scenario.json"),
                "--policy", str(suite / "weather_miami.policy.json")]
    argv = {"run": run_argv, "bench": ["--scenario-dir", str(suite)]}.get(command)
    if argv is None:
        assert main(["run", *run_argv, "--out", str(root / "traces")]) == 0
        judge_policy = root / "judge.policy.json"
        judge_policy.write_text(json.dumps({
            "entries": [], "default": json.dumps({"winner": "Tie", "rationale": "scripted verdict"}),
        }))
        trace = str(root / "traces" / "sum2act__weather_miami.jsonl")
        argv = ["--traces-a", trace, "--traces-b", trace,
                "--provider", "scripted", "--policy", str(judge_policy)]
        if judge == "rule":
            argv += ["--scenario-dir", str(suite)]
    if config is not None:
        (root / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(root / "config.json")]
    workers = []
    real_pool = cli.ThreadPoolExecutor

    def recording_pool(max_workers):
        workers.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
    monkeypatch.chdir(root)
    assert main([command, *argv, *flags]) == 0

    built_in_out = next(row[4] for row in PRECEDENCE if row[:2] == (command, "out"))
    outs = [name for name in ("flag-out", "config-out", built_in_out) if (root / name).is_dir()]
    assert len(outs) == 1, outs
    out_dir = root / outs[0]
    if command == "run":
        trace = read_trace(out_dir / "sum2act__weather_miami.jsonl")[0]
        return {"out": outs[0], "budget": trace.step_budget}
    if command == "bench":
        report = json.loads((out_dir / "report.json").read_text())
        return {"out": outs[0], "methods": ",".join(report["methods"]), "concurrency": workers[0]}
    judgment = json.loads((out_dir / "winrate.json").read_text())["judgments"][0]
    return {"out": outs[0], "judge": "llm" if judgment["rationale"] == "scripted verdict" else "rule"}


@pytest.mark.parametrize("command, key, flag, config, built_in", PRECEDENCE,
                         ids=[f"{row[0]}-{row[1]}" for row in PRECEDENCE])
def test_flag_beats_config_key_beats_built_in_default(
    core_dir, tmp_path, monkeypatch, command, key, flag, config, built_in
):
    cases = [
        (["--" + key, str(flag)], {key: config}, flag),
        ([], {key: config}, config),
        ([], None, built_in),
    ]
    for index, (flags, keys, expected) in enumerate(cases):
        used = _settings_used(command, core_dir, tmp_path / str(index), monkeypatch, flags, keys,
                              judge=expected if key == "judge" else "rule")
        assert used[key] == expected, (flags, keys)


@pytest.mark.parametrize("command, keys", [
    ("run", {"methods": "react", "concurrency": 2, "judge": "llm"}),
    ("bench", {"judge": "llm", "method": "react"}),
    ("compare", {"method": "dfsdt", "methods": "react", "budget": 3}),
])
def test_config_key_of_another_command_leaves_the_built_in_default(
    core_dir, tmp_path, monkeypatch, command, keys
):
    built_in = {row[1]: row[4] for row in PRECEDENCE if row[0] == command}
    assert _settings_used(command, core_dir, tmp_path, monkeypatch, [], keys) == built_in


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
        assert ("trace sets cover different instructions; "
                "missing from B: weather_miami; missing from A: flight_bos_sfo\n") in err
        assert not (tmp_path / "cmp").exists()

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

    def test_duplicate_trace_instruction_id_exits_2_naming_both_files(self, core_dir, tmp_path, capsys):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act")
        traces = out / "traces" / "sum2act"
        shutil.copy(traces / "weather_miami.jsonl", traces / "weather_again.jsonl")
        cmp_dir = tmp_path / "cmp"
        code = main([
            "compare", "--traces-a", str(traces), "--traces-b", str(traces),
            "--judge", "rule", "--scenario-dir", str(suite), "--out", str(cmp_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "instruction id 'weather_miami'" in err
        assert "weather_again.jsonl" in err and "weather_miami.jsonl" in err
        assert not cmp_dir.exists()

    @pytest.mark.parametrize("scenario_dir", ["suite", "/nonexistent"])
    def test_llm_judge_with_scenario_dir_exits_2_naming_it(
        self, core_dir, tmp_path, capsys, monkeypatch, scenario_dir
    ):
        suite = tmp_path / "suite"
        _copy_pair(core_dir, "weather_miami", suite)
        out = tmp_path / "bench"
        self._bench(suite, out, "sum2act,react")
        judge_policy = tmp_path / "judge.policy.json"
        judge_policy.write_text(json.dumps({
            "entries": [],
            "default": json.dumps({"winner": "A", "rationale": "A was cleaner"}),
        }))
        monkeypatch.setattr(ScriptedProvider, "complete",
                            lambda *args, **kwargs: pytest.fail("the judge called its provider"))
        cmp_dir = tmp_path / "cmp"
        code = main([
            "compare",
            "--traces-a", str(out / "traces" / "sum2act"),
            "--traces-b", str(out / "traces" / "react"),
            "--judge", "llm", "--provider", "scripted", "--policy", str(judge_policy),
            "--scenario-dir", str(tmp_path / scenario_dir), "--out", str(cmp_dir),
        ])
        assert code == 2
        assert "--scenario-dir" in capsys.readouterr().err
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

    def test_merged_state_shows_dropped_and_added_entries(self, tmp_path, capsys):
        # Step 2 merges the two results of step 1 into one and adds a third:
        # the state keeps its count of two results but is not unchanged.
        first = State(current_results=(ResultEntry("north: 4", 1), ResultEntry("south: 7", 1)))
        second = State(current_results=(ResultEntry("north: 4; south: 7", 1), ResultEntry("east: 2", 2)))
        steps = tuple(
            Step(
                Action(kind="ToolCall", tool_name="alpha", args={"n": index}),
                Observation(status="Success", payload="p", tool_name="alpha", args_echo={"n": index}),
                state,
            )
            for index, state in ((1, first), (2, second))
        )
        tools = (ToolSpec(name="alpha", description="a"),)
        episode = Episode(
            Instruction(id="m", text="t"), tools, steps, Terminal.budget_exhausted(), "sum2act", 2
        )
        trace = tmp_path / "merged.jsonl"
        trace.write_text(serialize_episode(episode) + "\n", encoding="utf-8")
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        step_2 = out.split("step 2: ", 1)[1].split("\nterminal: ", 1)[0].splitlines()[1:]
        assert step_2 == [
            "    observation: Success",
            "    - result: north: 4",
            "    - result: south: 7",
            "    + result: north: 4; south: 7",
            "    + result: east: 2",
        ]

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["replay", str(empty)]) == 2

    def test_line_separator_in_text_replays(self, tmp_path, capsys):
        # Traces written before records were ASCII keep U+2028 unescaped
        # inside strings; only "\n" ends a record.
        instruction = Instruction(id="sep", text="first\u2028second")
        record = json.loads(serialize_episode(_finished_episode(instruction)))
        trace = tmp_path / "sep.jsonl"
        trace.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert "\u2028" in trace.read_text(encoding="utf-8")
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
