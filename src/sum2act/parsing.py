"""Text utilities shared by the prompt builders and output parsers, and the
one re-ask loop every structured model reply goes through."""

from __future__ import annotations

import json
import re

from .errors import MalformedOutput
from .provider import user_request

# Corrective re-asks after the first attempt, for every structured reply.
REASK_RETRIES = 2

# Known placeholder names; any other brace content in a template is literal,
# so JSON examples inside rule blocks never need escaping.
_PLACEHOLDER = re.compile(
    r"\{(instruction|state|tools|rules|observation|transcript|attempted)\}"
)


def fill_template(template: str, **values: str) -> str:
    """Substitute ``{name}`` placeholders, leaving all other braces alone."""

    def _sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise KeyError(f"template placeholder {{{name}}} has no value")
        return values[name]

    return _PLACEHOLDER.sub(_sub, template)


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
    exception types. Any other exception escapes. Once ``REASK_RETRIES``
    re-asks are spent, MalformedOutput is raised carrying the last error.
    """
    last_error: Exception | None = None
    for attempt in range(REASK_RETRIES + 1):
        text = prompt if attempt == 0 else prompt + reask.format(error=last_error)
        try:
            reply = provider.complete(user_request(text))
        except swallow as exc:
            last_error = exc
            continue
        try:
            return parse(reply), attempt
        except MalformedOutput as exc:
            last_error = exc
    raise MalformedOutput(
        f"model output stayed unparseable after {REASK_RETRIES} retries: {last_error}"
    ) from last_error
