"""Text utilities shared by the prompt builders and output parsers, the
prompt templates they fill, and the one re-ask loop every structured model
reply goes through."""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

from .errors import ConfigurationError, MalformedOutput
from .provider import CompletionRequest

# Corrective re-asks after the first attempt, for every structured reply.
REASK_RETRIES = 2

# Longest reply parsed, in chars. A longer one is unusable and is re-asked
# like any other, so no reply makes parsing walk an unbounded text. Every
# scripted reply, shipped or generated by the benchmark, is under 3,000 chars.
MAX_REPLY_CHARS = 32_768

# Each prompt template by name, with the placeholders its prompt fills. Any
# other brace content in a template is literal, so JSON examples inside rule
# blocks never need escaping.
TEMPLATE_PLACEHOLDERS = {
    "router": ("instruction", "tools", "rules", "state"),
    "state": ("instruction", "state", "observation"),
    "react": ("instruction", "tools", "rules", "transcript"),
    "dfsdt": ("instruction", "tools", "rules", "transcript", "attempted"),
}
_PLACEHOLDER = re.compile(
    r"\{(" + "|".join(sorted(set().union(*TEMPLATE_PLACEHOLDERS.values()))) + r")\}"
)
_BUILT_IN = Path(__file__).with_name("templates")


@lru_cache(maxsize=64)
def _split_template(template: str) -> tuple[str, ...]:
    # Literal text at even indices, placeholder names at odd ones.
    return tuple(_PLACEHOLDER.split(template))


def fill_template(template: str, **values: str) -> str:
    """Substitute ``{name}`` placeholders, leaving all other braces alone.
    Values are inserted as they are: a placeholder inside one is not filled."""
    parts = list(_split_template(template))
    try:
        parts[1::2] = [values[name] for name in parts[1::2]]
    except KeyError as exc:
        raise KeyError(f"template placeholder {{{exc.args[0]}}} has no value") from None
    return "".join(parts)


def load_templates(templates_dir: str | None = None) -> dict[str, str]:
    """Each template's text by name: ``templates_dir``'s ``<name>.txt`` where
    it exists, else the built-in. A missing directory, a file that is not UTF-8
    or a placeholder its prompt does not fill raises ConfigurationError."""
    if templates_dir is not None and not Path(templates_dir).is_dir():
        raise ConfigurationError(f"templates_dir is not a directory: {templates_dir}")
    templates = {}
    for name, filled in TEMPLATE_PLACEHOLDERS.items():
        source = Path(_BUILT_IN if templates_dir is None else templates_dir, f"{name}.txt")
        if not source.exists():
            source = _BUILT_IN / f"{name}.txt"
        try:
            templates[name] = text = source.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"template {source}: not UTF-8: {exc}") from None
        unfilled = [part for part in _split_template(text)[1::2] if part not in filled]
        if unfilled:
            raise ConfigurationError(
                f"template {source}: the {name} prompt fills no {{{unfilled[0]}}}"
            )
    return templates


def truncate_with_marker(text: str, cap: int) -> str:
    """Clip to ``cap`` chars, appending an explicit ``[truncated N chars]`` marker."""
    if len(text) <= cap:
        return text
    return text[:cap] + f"[truncated {len(text) - cap} chars]"


# Where a JSON object can start: "{", optional whitespace, then a complete
# first key and its colon, or the closing brace of an empty object. ``\s``
# covers JSON whitespace, so no object start is missed, and a run of ``{"``
# that can never decode is skipped without a decode attempt.
_OBJECT_START = re.compile(r'\{\s*(?:"(?:[^"\\]|\\.)*"\s*:|\})')
_DECODER = json.JSONDecoder()


def extract_first_json_object(text: str, required_key: str):
    """Return the first JSON object in ``text`` holding ``required_key``, or None.

    Candidates are the positions of ``{`` that can open an object, tried in
    text order; each is decoded up to its own closing brace, so prose before
    and after the object is ignored. A candidate is skipped when it does not
    decode, decodes to something other than a dict, lacks ``required_key``,
    or nests deeper than the interpreter's recursion limit, so
    incidental braces in prose never shadow the real payload. Never raises
    on any ``str``. One regex scan finds the candidates and each is decoded
    in C, so no Python loop walks the text.
    """
    for match in _OBJECT_START.finditer(text):
        try:
            obj, _ = _DECODER.raw_decode(text, match.start())
        except (json.JSONDecodeError, RecursionError):
            continue
        if isinstance(obj, dict) and required_key in obj:
            return obj
    return None


def ask_json(provider, prompt: str, parse, reask: str, swallow=()):
    """Send ``prompt`` and return ``(parse(reply), attempt)``.

    ``attempt`` counts the re-asks that were needed (0 on the happy path). A
    re-ask sends ``prompt`` again with ``reask`` appended, its ``{error}``
    field filled with the last error; it follows a ``parse`` that raised
    MalformedOutput or a provider call that raised one of the ``swallow``
    exception types, or a reply longer than ``MAX_REPLY_CHARS``, which is
    never parsed. Any other exception escapes. Once ``REASK_RETRIES``
    re-asks are spent, MalformedOutput is raised carrying the last error.
    """
    last_error: Exception | None = None
    for attempt in range(REASK_RETRIES + 1):
        text = prompt if attempt == 0 else prompt + reask.format(error=last_error)
        try:
            reply = provider.complete(CompletionRequest(text))
        except swallow as exc:
            last_error = exc
            continue
        try:
            if len(reply) > MAX_REPLY_CHARS:
                raise MalformedOutput(f"reply of {len(reply)} chars is over {MAX_REPLY_CHARS}")
            return parse(reply), attempt
        except MalformedOutput as exc:
            last_error = exc
    raise MalformedOutput(
        f"model output stayed unparseable after {REASK_RETRIES} retries: {last_error}"
    ) from last_error
