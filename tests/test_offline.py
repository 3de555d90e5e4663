"""The offline path (scripted provider, sandbox, replay, rule-judged compare)
never loads the HTTP stack: it runs with ``requests`` made unimportable, from
the source tree and from a build of the package."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Setting a module's sys.modules entry to None makes importing it raise.
_OFFLINE_RUN = """
import sys
from pathlib import Path

sys.modules["requests"] = None
from sum2act.cli import main

core, out = Path(sys.argv[1]), Path(sys.argv[2])
traces = out / "bench" / "traces"
codes = [
    main(["bench", "--scenario-dir", str(core), "--methods", "sum2act,react,dfsdt",
          "--out", str(out / "bench")]),
    main(["replay", str(traces / "sum2act" / "weather_miami.jsonl")]),
    main(["compare", "--traces-a", str(traces / "sum2act"), "--traces-b", str(traces / "dfsdt"),
          "--judge", "rule", "--scenario-dir", str(core), "--out", str(out / "cmp")]),
]
loaded = [name for name in ("requests", "urllib3", "email.utils", "http.client")
          if sys.modules.get(name) is not None]
print("CODES", codes, "LOADED", loaded, file=sys.stderr)
"""


def test_bench_replay_and_rule_compare_run_without_requests(scenarios_root, tmp_path):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN, str(scenarios_root / "core"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip().splitlines()[-1] == "CODES [0, 0, 0] LOADED []"
    assert (tmp_path / "cmp" / "winrate.json").exists()


def test_built_package_holds_its_templates_and_runs_offline(scenarios_root, tmp_path):
    pytest.importorskip("setuptools")
    # build_py writes src/sum2act.egg-info into the tree it builds from.
    tree = tmp_path / "tree"
    shutil.copytree(SRC, tree / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "build_py", "-d", str(lib)],
        cwd=tree, capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    package = lib / "sum2act"
    assert (package / "engine.py").is_file()
    assert sorted(path.name for path in (package / "templates").iterdir()) == [
        "dfsdt.txt", "react.txt", "router.txt", "state.txt",
    ]

    # From outside the checkout, with only the build on the path.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    report = 'import sum2act; print("FROM", sum2act.__file__, file=sys.stderr)\n'
    result = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN + report, str(scenarios_root / "core"), str(run_dir)],
        cwd=run_dir, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(lib)},
    )
    assert result.returncode == 0, result.stderr
    codes, origin = result.stderr.strip().splitlines()[-2:]
    assert codes == "CODES [0, 0, 0] LOADED []"
    assert origin == f"FROM {package / '__init__.py'}"
