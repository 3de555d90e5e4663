"""Prompt template loading with optional filesystem overrides."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

TEMPLATE_NAMES = ("router", "state", "react", "dfsdt")


@lru_cache(maxsize=None)
def load_template(name: str, templates_dir: str | None = None) -> str:
    """Read a template by name, preferring ``templates_dir`` when given."""
    if name not in TEMPLATE_NAMES:
        raise KeyError(f"unknown template: {name!r}")
    if templates_dir is not None:
        override = Path(templates_dir) / f"{name}.txt"
        if override.exists():
            return override.read_text(encoding="utf-8")
    return (
        resources.files("sum2act.templates").joinpath(f"{name}.txt").read_text("utf-8")
    )
