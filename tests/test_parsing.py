from __future__ import annotations

import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sum2act import parsing
from sum2act.errors import ConfigurationError
from sum2act.parsing import TEMPLATE_PLACEHOLDERS, extract_first_json_object, fill_template, load_templates


def _reference_extract(text: str, required_key: str):
    """The brace-matching extractor the decoder scan replaced: pair every
    ``{`` with its closing brace in Python, then ``json.loads`` the slice."""
    for start in (index for index, char in enumerate(text) if char == "{"):
        candidate = _balanced_slice(text, start)
        if candidate is None:
            continue
        try:
            obj = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and required_key in obj:
            return obj
    return None


def _balanced_slice(text: str, start: int) -> str | None:
    depth = 0
    in_string = False
    escaped = False
    for index in range(start, len(text)):
        char = text[index]
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            in_string = not in_string
        elif in_string:
            continue
        elif char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return text[start : index + 1]
    return None


# Heavy in JSON punctuation, with JSON and non-JSON whitespace.
_NOISE = st.text(
    alphabet=st.sampled_from(
        list('{}[]"\\:,') * 4 + list(" \t\n\r\x0b\x0c\xa0") + list("0123456789-.eE") + list("aktuNIfl")
    ),
    max_size=40,
)
_KEYS = st.sampled_from(["action", "a", "", "verdict", "{", '"}'])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(alphabet='ab{}"\\ \n', max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=8,
)
_OBJECTS = st.builds(
    lambda obj, indent, separators: json.dumps(obj, indent=indent, separators=separators),
    st.dictionaries(_KEYS, _JSON_VALUES, max_size=3),
    st.sampled_from([None, 0, 2]),
    st.sampled_from([None, (",", ":"), (" , ", " : ")]),
)
# A spliced object may be cut short on either side.
_FRAGMENTS = _NOISE | _OBJECTS | _OBJECTS.flatmap(
    lambda text: st.tuples(st.integers(0, len(text)), st.integers(0, len(text))).map(
        lambda cut: text[min(cut) : max(cut)]
    )
)
_REPLIES = st.lists(_FRAGMENTS, max_size=8).map("".join)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(text=_REPLIES, required_key=st.sampled_from(["action", "a", ""]))
    def test_same_value_as_brace_matcher(self, text, required_key):
        assert extract_first_json_object(text, required_key) == _reference_extract(text, required_key)

    def test_prose_around_object(self):
        text = 'I think {so} the answer is {"action": "Finish", "args": {"Answer": "4"}} ok'
        assert extract_first_json_object(text, "action") == {"action": "Finish", "args": {"Answer": "4"}}

    def test_keyless_and_non_dict_candidates_skipped(self):
        text = '{"x": 1} [{"y": 2}] {"action": "a"}'
        assert extract_first_json_object(text, "action") == {"action": "a"}
        assert extract_first_json_object(text, "z") is None

    def test_braces_inside_strings(self):
        text = '{"thought": "use {braces} and \\"quotes\\" {", "action": "t"}'
        assert extract_first_json_object(text, "action")["thought"] == 'use {braces} and "quotes" {'


class TestRobustness:
    def test_over_deep_candidate_is_unparseable(self):
        deep = '{"a":' * 3000 + "1" + "}" * 3000
        reply = '{"thought": "t", "action": "Finish", "args": {"Answer": ' + deep + "}}"
        assert extract_first_json_object(reply, "action") is None

    def test_over_deep_candidate_does_not_shadow_a_later_object(self):
        reply = '{"a":' * 3000 + ' then {"action": "t"}'
        assert extract_first_json_object(reply, "action") == {"action": "t"}

    def test_no_object(self):
        assert extract_first_json_object("", "action") is None
        assert extract_first_json_object("no json here {", "action") is None


class TestBounds:
    """Brace floods that took seconds when every ``{`` was paired in Python
    (4,000 took 1.03 s, 16,000 took 17 s)."""

    def _timed(self, text: str) -> float:
        start = time.perf_counter()
        extract_first_json_object(text, "action")
        extract_first_json_object(text, "verdict")
        return time.perf_counter() - start

    def test_four_thousand_open_braces(self):
        assert self._timed("{" * 4000) < 0.25

    def test_brace_flood(self):
        rng = random.Random(7)
        pieces = ["{"] * 8 + ["}"] * 3 + list("[]:, \nabcxyz")
        flood = "".join(rng.choice(pieces) for _ in range(200_000))
        assert flood.count("{") > 16_000
        reply = flood + ' {"action": "Finish", "args": {"Answer": "x"}}'
        assert extract_first_json_object(reply, "action") == {"action": "Finish", "args": {"Answer": "x"}}
        assert self._timed(reply) < 0.25
        assert self._timed("{" * 200_000) < 0.25

    def test_unclosed_key_flood_is_never_decoded(self, monkeypatch):
        """A ``{"`` with no complete key and colon after it is not a candidate,
        so a flood of them costs no decode attempt (each failed attempt counts
        lines from the start of the text)."""
        attempts = []

        class CountingDecoder:
            def raw_decode(self, text, index):
                attempts.append(index)
                return json.JSONDecoder().raw_decode(text, index)

        monkeypatch.setattr(parsing, "_DECODER", CountingDecoder())
        flood = '{"' * 10_000
        assert extract_first_json_object(flood, "action") is None
        assert attempts == []
        assert extract_first_json_object(flood + '{"action": 1}', "action") == {"action": 1}
        assert attempts == [len(flood)]


class TestLoadTemplates:
    def test_each_built_in_template_holds_exactly_the_placeholders_it_fills(self):
        templates = load_templates()
        assert list(templates) == list(TEMPLATE_PLACEHOLDERS)
        for name, text in templates.items():
            assert set(re.findall(r"\{(\w+)\}", text)) == set(TEMPLATE_PLACEHOLDERS[name])

    def test_a_missing_file_is_the_built_in(self, tmp_path):
        (tmp_path / "state.txt").write_text("{state}", encoding="utf-8")
        built_in = load_templates()
        assert load_templates(str(tmp_path)) == {**built_in, "state": "{state}"}

    def test_a_missing_directory_raises_naming_it(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no-such-dir"):
            load_templates(str(tmp_path / "no-such-dir"))


class TestFillTemplate:
    def test_unknown_placeholder_raises_naming_it(self):
        with pytest.raises(KeyError, match=r"\{state\}"):
            fill_template("## State\n{state}\n## Tools\n{tools}", tools="t")

    def test_non_placeholder_braces_are_left_alone(self):
        template = '{instruction}\nReply {"thought": "...", "args": {}} or {unknown} {{x}} }{'
        assert fill_template(template, instruction="go") == (
            'go\nReply {"thought": "...", "args": {}} or {unknown} {{x}} }{'
        )

    def test_placeholder_inside_doubled_braces_is_filled(self):
        assert fill_template("{{state}}", state="s") == "{s}"

    def test_substituted_value_is_not_substituted_again(self):
        filled = fill_template("{instruction} / {state}", instruction="say {state}", state="S")
        assert filled == "say {state} / S"

    def test_placeholder_used_twice_is_filled_both_times(self):
        assert fill_template("{tools}|{rules}|{tools}", tools="T", rules="R") == "T|R|T"

    def test_values_the_template_does_not_name_are_ignored(self):
        assert fill_template("no placeholders {x}", state="unused") == "no placeholders {x}"
