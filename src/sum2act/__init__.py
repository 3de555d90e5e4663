"""Tool-invocation agent pipeline: a proposal/summarization loop over a tool
catalog, ReAct and depth-first baselines, a deterministic API sandbox, and a
pass/win-rate evaluation harness."""

from .core import (
    Action,
    Episode,
    Instruction,
    Observation,
    ParamSpec,
    State,
    Step,
    Terminal,
    ToolSpec,
    deserialize_episode,
    serialize_episode,
)
from .engine import EngineConfig, default_config, run_episode
from .errors import Sum2ActError
from .provider import (
    CompletionRequest,
    LiveProvider,
    RecordingProvider,
    ScriptedPolicy,
    ScriptedProvider,
    load_policy,
)
from .sandbox import Scenario, ScenarioSession, check_pass, load_scenario

__all__ = [
    "Action",
    "CompletionRequest",
    "EngineConfig",
    "Episode",
    "Instruction",
    "LiveProvider",
    "Observation",
    "ParamSpec",
    "RecordingProvider",
    "Scenario",
    "ScenarioSession",
    "ScriptedPolicy",
    "ScriptedProvider",
    "State",
    "Step",
    "Sum2ActError",
    "Terminal",
    "ToolSpec",
    "check_pass",
    "default_config",
    "deserialize_episode",
    "load_policy",
    "load_scenario",
    "run_episode",
    "serialize_episode",
]

__version__ = "0.1.0"
