from __future__ import annotations

import json
import re
import threading

import pytest
from hypothesis import given, settings

from sum2act.core import Instruction, ParamSpec, ToolSpec
from sum2act.errors import ConfigurationError
from sum2act.provider import MAX_REQUEST_CHARS
from sum2act.sandbox import (
    Behavior,
    Endpoint,
    PassCondition,
    Scenario,
    ScenarioSession,
    check_pass,
    embed_in_filler,
    invoke_live,
    load_endpoint_spec,
    load_scenario,
)

from .episode_strategies import episodes

WEATHER_TOOL = ToolSpec(
    name="get_weather",
    description="weather by city",
    params=(ParamSpec(name="city", required=True),),
)


def _weather_scenario() -> Scenario:
    return Scenario(
        id="wx",
        instruction=Instruction(id="wx", text="weather in Miami"),
        tools=(WEATHER_TOOL,),
        behaviors={
            "get_weather": (
                Behavior(kind="error", code=500, message="boom", repeat="once"),
                Behavior(kind="success", payload="sunny 29C", repeat="forever"),
            )
        },
        pass_condition=PassCondition(contains_all=("sunny", "29")),
    )


class TestLoadScenario:
    def test_shipped_scenario_loads(self, scenarios_root):
        scenario = load_scenario(scenarios_root / "core" / "flight_bos_sfo.scenario.json")
        assert len(scenario.behaviors) == 2
        assert scenario.instruction.subset_label == "core"
        assert scenario.pass_condition == PassCondition(contains_all=("UA482", "412"))

    def test_behavior_for_undeclared_tool(self, tmp_path):
        path = tmp_path / "bad.scenario.json"
        path.write_text(json.dumps({
            "id": "bad",
            "instruction": {"id": "bad", "text": "x"},
            "tools": [{"name": "alpha", "description": "a"}],
            "behaviors": {"zeta": [{"kind": "success", "payload": "p"}]},
            "pass_condition": {"contains_all": ["x"]},
        }))
        with pytest.raises(ConfigurationError, match="zeta"):
            load_scenario(path)

    def test_unknown_behavior_kind(self, tmp_path):
        path = tmp_path / "bad.scenario.json"
        path.write_text(json.dumps({
            "id": "bad",
            "instruction": {"id": "bad", "text": "x"},
            "tools": [{"name": "alpha", "description": "a"}],
            "behaviors": {"alpha": [{"kind": "explode"}]},
            "pass_condition": {"contains_all": ["x"]},
        }))
        with pytest.raises(ConfigurationError, match="explode"):
            load_scenario(path)

    def test_pass_condition_loads_verbatim(self, tmp_path):
        path = tmp_path / "ok.scenario.json"
        path.write_text(json.dumps({
            "id": "ok",
            "instruction": {"id": "ok", "text": "x"},
            "tools": [{"name": "alpha", "description": "a"}],
            "behaviors": {"alpha": [{"kind": "success", "payload": "p", "repeat": "forever"}]},
            "pass_condition": {"contains_all": ["29", "sunny"]},
        }))
        scenario = load_scenario(path)
        assert scenario.pass_condition.contains_all == ("29", "sunny")

    def test_tool_description_defaults_empty(self, tmp_path):
        path = tmp_path / "ok.scenario.json"
        path.write_text(json.dumps({
            "id": "ok",
            "instruction": {"id": "ok", "text": "x"},
            "tools": [{"name": "alpha", "params": [{"name": "q"}]}],
            "pass_condition": {"exact": "x"},
        }))
        tool = load_scenario(path).tools[0]
        assert tool.description == ""
        assert tool.params == (ParamSpec(name="q"),)

    @pytest.mark.parametrize("written, read", [(1, True), (0, False)])
    def test_param_required_reads_as_bool(self, tmp_path, written, read):
        path = tmp_path / "ok.scenario.json"
        path.write_text(json.dumps({
            "id": "ok",
            "instruction": {"id": "ok", "text": "x"},
            "tools": [{"name": "alpha", "params": [{"name": "q", "required": written}]}],
            "pass_condition": {"exact": "x"},
        }))
        assert load_scenario(path).tools[0].params[0].required is read

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.scenario.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigurationError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, "{broken"], ids=["over_deep", "invalid"])
    def test_unreadable_file_names_it(self, tmp_path, text):
        path = tmp_path / "deep.scenario.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="deep.scenario.json"):
            load_scenario(path)


class TestSession:
    def test_ordered_consumption(self):
        session = ScenarioSession(_weather_scenario())
        first = session.invoke("get_weather", {"city": "Miami"})
        second = session.invoke("get_weather", {"city": "Miami"})
        third = session.invoke("get_weather", {"city": "Miami"})
        assert first.status == "ToolError"
        assert "HTTP 500" in first.error
        assert second.status == "Success"
        assert second.payload == "sunny 29C"
        assert third.status == "Success"  # forever persists

    def test_missing_required_param_does_not_consume(self):
        session = ScenarioSession(_weather_scenario())
        bad = session.invoke("get_weather", {})
        assert bad.status == "ToolError"
        assert bad.error == "missing required parameter: city"
        # The once-error is still first in the queue.
        assert session.invoke("get_weather", {"city": "Miami"}).status == "ToolError"
        assert session.invoke("get_weather", {"city": "Miami"}).status == "Success"

    def test_unknown_tool(self):
        session = ScenarioSession(_weather_scenario())
        obs = session.invoke("get_flights", {})
        assert obs.status == "ToolError"
        assert "unknown tool" in obs.error

    def test_exhausted_queue(self):
        scenario = Scenario(
            id="once", instruction=Instruction(id="once", text="x"),
            tools=(ToolSpec(name="solo", description="s"),),
            behaviors={"solo": (Behavior(kind="success", payload="one shot", repeat="once"),)},
            pass_condition=PassCondition(exact="x"),
        )
        session = ScenarioSession(scenario)
        assert session.invoke("solo", {}).status == "Success"
        exhausted = session.invoke("solo", {})
        assert exhausted.status == "ToolError"
        assert "exhausted" in exhausted.error

    def test_timeout_behavior(self):
        scenario = Scenario(
            id="slow", instruction=Instruction(id="slow", text="x"),
            tools=(ToolSpec(name="slow_tool", description="s"),),
            behaviors={"slow_tool": (Behavior(kind="timeout", repeat="forever"),)},
            pass_condition=PassCondition(exact="x"),
        )
        obs = ScenarioSession(scenario).invoke("slow_tool", {})
        assert obs.status == "Timeout"
        assert obs.error

    def test_verbose_embedding(self):
        needle = "flight UA123 $240"
        scenario = Scenario(
            id="v", instruction=Instruction(id="v", text="x"),
            tools=(ToolSpec(name="search", description="s"),),
            behaviors={"search": (
                Behavior(kind="verbose", payload=needle, filler_chars=8000, repeat="forever"),
            )},
            pass_condition=PassCondition(contains_all=("UA123",)),
        )
        obs = ScenarioSession(scenario).invoke("search", {})
        assert obs.status == "Success"
        assert len(obs.payload) == 8000
        assert needle in obs.payload

    def test_verbose_filler_must_cover_payload(self):
        with pytest.raises(ConfigurationError):
            Behavior(kind="verbose", payload="long payload here", filler_chars=4)

    def test_embed_exact_length(self):
        out = embed_in_filler("abc", 501)
        assert len(out) == 501
        assert "abc" in out

    def test_session_determinism(self):
        calls = [("get_weather", {}), ("get_weather", {"city": "a"}),
                 ("nope", {}), ("get_weather", {"city": "b"})]
        runs = []
        for _ in range(2):
            session = ScenarioSession(_weather_scenario())
            runs.append([(o.status, o.payload, o.error) for o in
                         (session.invoke(name, args) for name, args in calls)])
        assert runs[0] == runs[1]

    def test_once_behavior_conservation(self):
        # Once-behaviors consumed == valid invocations, however invalid calls
        # are interleaved.
        scenario = Scenario(
            id="c", instruction=Instruction(id="c", text="x"),
            tools=(WEATHER_TOOL,),
            behaviors={"get_weather": tuple(
                Behavior(kind="success", payload=f"shot-{i}", repeat="once") for i in range(3)
            )},
            pass_condition=PassCondition(exact="x"),
        )
        session = ScenarioSession(scenario)
        payloads = []
        for call_args in ({}, {"city": "a"}, {}, {"city": "b"}, {}, {"city": "c"}, {"city": "d"}):
            obs = session.invoke("get_weather", call_args)
            if obs.status == "Success":
                payloads.append(obs.payload)
        assert payloads == ["shot-0", "shot-1", "shot-2"]

    def test_concurrent_sessions_do_not_interfere(self):
        scenario = _weather_scenario()
        serial_session = ScenarioSession(scenario)
        expected = [
            (o.status, o.payload)
            for o in (serial_session.invoke("get_weather", {"city": "m"}) for _ in range(4))
        ]
        results: dict[int, list] = {}

        def worker(worker_id: int) -> None:
            session = ScenarioSession(scenario)
            observed = []
            for _ in range(4):
                obs = session.invoke("get_weather", {"city": "m"})
                observed.append((obs.status, obs.payload))
            results[worker_id] = observed

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for observed in results.values():
            assert observed == expected


class TestCheckPass:
    def test_contains_all_pass(self, scenarios_root):
        from sum2act.engine import EngineConfig, run_episode
        from sum2act.provider import ScriptedProvider, load_policy

        scenario = load_scenario(scenarios_root / "core" / "weather_miami.scenario.json")
        policy = load_policy(scenarios_root / "core" / "weather_miami.policy.json")
        episode = run_episode(
            "sum2act", ScriptedProvider(policy), scenario.instruction, list(scenario.tools),
            EngineConfig(), ScenarioSession(scenario).invoke,
        )
        assert episode.terminal.answer is not None
        assert check_pass(scenario, episode)

    def test_wrong_answer_fails(self):
        from sum2act.core import Action, Episode, State, Step, Terminal

        scenario = _weather_scenario()
        finish = Step(Action(kind="Finish", args={"Answer": "unknown"}), None, State())
        episode = Episode(
            scenario.instruction, scenario.tools, (finish,), Terminal("Finished", "unknown"), "sum2act", 5
        )
        assert not check_pass(scenario, episode)

    @settings(max_examples=50, deadline=None)
    @given(episode=episodes())
    def test_non_finished_never_passes(self, episode):
        scenario = Scenario(
            id=episode.instruction.id,
            instruction=episode.instruction,
            tools=episode.tools,
            behaviors={},
            pass_condition=PassCondition(regex=""),  # matches anything
        )
        if episode.terminal.status != "Finished":
            assert not check_pass(scenario, episode)
        else:
            assert check_pass(scenario, episode)

    def test_exact_and_regex_conditions(self):
        exact = PassCondition(exact="42")
        assert exact.evaluate("42")
        assert not exact.evaluate("42!")
        regex = PassCondition(regex=r"\b29\b")
        assert regex.evaluate("it is 29 degrees")
        assert not regex.evaluate("2950 degrees")


@pytest.fixture
def session():
    import requests

    with requests.Session() as live_session:
        yield live_session


class TestInvokeLive:
    def test_success_maps_body(self, http_stub, session):
        stub = http_stub([(200, '{"ok": true}')])
        spec = {"probe": Endpoint(url=stub.url + "/probe", method="GET")}
        obs = invoke_live(spec, "probe", {"q": "x"}, session)
        assert obs.status == "Success"
        assert obs.payload == '{"ok": true}'
        assert obs.latency > 0

    def test_404_maps_tool_error(self, http_stub, session):
        stub = http_stub([(404, "not here")])
        spec = {"probe": Endpoint(url=stub.url, method="GET")}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.status == "ToolError"
        assert "HTTP 404" in obs.error

    def test_timeout_maps(self, http_stub, session):
        stub = http_stub([(200, "slow body")], delay=0.6)
        spec = {"probe": Endpoint(url=stub.url, method="GET", timeout=0.1)}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.status == "Timeout"

    def test_body_stalled_past_the_timeout_maps_timeout(self, http_stub, session):
        # The headers arrive in time; the body read is what times out.
        stub = http_stub([(200, "late body")], stall=0.6)
        spec = {"probe": Endpoint(url=stub.url, method="GET", timeout=0.1)}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.status == "Timeout"
        assert obs.error.startswith("timeout: ")
        assert obs.latency < 0.6

    def test_transport_error_maps(self, session):
        spec = {"probe": Endpoint(url="http://127.0.0.1:9/x", method="GET", timeout=0.2)}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.status == "ToolError"
        assert "transport error" in obs.error

    def test_unknown_tool(self, session):
        obs = invoke_live({}, "ghost", {}, session)
        assert obs.status == "ToolError"
        assert "unknown tool" in obs.error

    def test_body_of_several_mb_is_clipped_at_the_request_limit(self, http_stub, session):
        size = 5_000_000
        stub = http_stub([(200, "x" * size)])
        spec = {"probe": Endpoint(url=stub.url, method="GET")}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.status == "Success"
        assert obs.payload[:MAX_REQUEST_CHARS] == "x" * MAX_REQUEST_CHARS
        marker = re.fullmatch(r"\[truncated (\d+) chars\]", obs.payload[MAX_REQUEST_CHARS:])
        assert marker
        # Reading stopped soon after the limit, far short of the whole body.
        assert 0 < int(marker.group(1)) < size // 10

    def test_multibyte_body_at_the_limit_is_kept_whole(self, http_stub, session):
        # Two-byte chars straddle the read chunks' boundaries.
        stub = http_stub([(200, "é" * MAX_REQUEST_CHARS)])
        spec = {"probe": Endpoint(url=stub.url, method="GET")}
        obs = invoke_live(spec, "probe", {}, session)
        assert obs.payload == "é" * MAX_REQUEST_CHARS

    def test_unknown_charset_decodes_as_utf8(self, http_stub, session):
        stub = http_stub([(200, "café ☕", {"Content-Type": "text/plain; charset=no-such-codec"})])
        spec = {"probe": Endpoint(url=stub.url, method="GET")}
        obs = invoke_live(spec, "probe", {}, session)
        assert (obs.status, obs.payload) == ("Success", "café ☕")

    @pytest.mark.parametrize("value, sent", [("Bearer s3cret", "Bearer s3cret"), (None, None), ("", None)])
    def test_auth_env_value_is_the_authorization_header(self, http_stub, session, monkeypatch, value, sent):
        if value is None:
            monkeypatch.delenv("PROBE_TOKEN", raising=False)
        else:
            monkeypatch.setenv("PROBE_TOKEN", value)
        stub = http_stub([(200, "ok")])
        spec = {"probe": Endpoint(url=stub.url, method="GET", auth_env="PROBE_TOKEN")}
        assert invoke_live(spec, "probe", {}, session).status == "Success"
        assert stub.headers[0].get("Authorization") == sent

    def test_url_template_substitution(self, http_stub, session):
        stub = http_stub([(200, "ok")])
        spec = {"probe": Endpoint(url=stub.url + "/items/{item_id}", method="GET")}
        obs = invoke_live(spec, "probe", {"item_id": "41"}, session)
        assert obs.status == "Success"
        assert stub.paths == ["/items/41"]

    def test_url_placeholder_is_one_quoted_segment(self, http_stub, session):
        stub = http_stub([(200, "ok")])
        spec = {"probe": Endpoint(url=stub.url + "/users/{id}/profile", method="GET")}
        obs = invoke_live(spec, "probe", {"id": "../../admin?x=1#"}, session)
        assert obs.status == "Success"
        assert stub.paths == ["/users/..%2F..%2Fadmin%3Fx%3D1%23/profile"]

    def test_endpoint_spec_file(self, tmp_path):
        path = tmp_path / "endpoints.json"
        path.write_text(json.dumps({"probe": {"url": "http://example.invalid", "method": "GET"}}))
        assert load_endpoint_spec(path) == {"probe": Endpoint(url="http://example.invalid")}

    @pytest.mark.parametrize("key, value", [
        ("url", 5),
        ("method", 5),
        ("method", None),
        ("auth_env", ["TOKEN"]),
        ("timeout", "x"),
        ("timeout", 0),
        ("timeout", -1.5),
        ("timeout", True),
        ("timeout", float("inf")),
    ])
    def test_wrongly_typed_endpoint_key_names_it(self, tmp_path, key, value):
        path = tmp_path / "endpoints.json"
        path.write_text(json.dumps({"probe": {"url": "http://127.0.0.1:9/x", key: value}}))
        with pytest.raises(ConfigurationError, match=f"'probe': {key!r} must be"):
            load_endpoint_spec(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, "{broken"], ids=["over_deep", "invalid"])
    def test_unreadable_endpoint_spec_names_it(self, tmp_path, text):
        path = tmp_path / "deep.endpoints.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="deep.endpoints.json"):
            load_endpoint_spec(path)
