from __future__ import annotations

import importlib.util
from pathlib import Path

BUILDER = Path(__file__).resolve().parent.parent / "scripts" / "build_scenario_suite.py"


def _files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_builder_reproduces_shipped_corpus(tmp_path, scenarios_root):
    spec = importlib.util.spec_from_file_location("build_scenario_suite", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    builder.main([str(tmp_path)])
    built, shipped = _files(tmp_path), _files(scenarios_root)
    assert sorted(built) == sorted(shipped)
    assert [name for name in built if built[name] != shipped[name]] == []
