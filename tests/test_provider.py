from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from email.utils import formatdate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sum2act.errors import (
    ConfigurationError,
    ProviderRejected,
    ProviderUnavailable,
    RequestTooLarge,
    ScriptError,
)
from sum2act import provider as provider_module
from sum2act.provider import (
    MAX_BACKOFF_SECONDS,
    MAX_REQUEST_CHARS,
    CompletionRequest,
    LiveProvider,
    PolicyEntry,
    ScriptedPolicy,
    ScriptedProvider,
    load_policy,
)


def _chat_body(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


class TestScriptedProvider:
    def test_first_match_wins(self):
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(match="weather", response='{"action":"get_weather","args":{}}'),
                PolicyEntry(match="weather", response="second"),
            )
        )
        provider = ScriptedProvider(policy)
        out = provider.complete(CompletionRequest("what is the weather like"))
        assert out == '{"action":"get_weather","args":{}}'

    def test_default_when_nothing_matches(self):
        policy = ScriptedPolicy(entries=(PolicyEntry(match="nope", response="n"),), default="X")
        assert ScriptedProvider(policy).complete(CompletionRequest("hello")) == "X"

    def test_no_match_no_default_raises(self):
        provider = ScriptedProvider(ScriptedPolicy())
        with pytest.raises(ScriptError):
            provider.complete(CompletionRequest("anything"))

    def test_deterministic(self):
        policy = ScriptedPolicy(entries=(PolicyEntry(match="a", response="r"),), default="d")
        provider = ScriptedProvider(policy)
        request = CompletionRequest("aaa")
        assert provider.complete(request) == provider.complete(request)

    def test_regex_entry(self):
        policy = ScriptedPolicy(
            entries=(PolicyEntry(match=r"(?s)start.*end", response="ok", is_regex=True),)
        )
        provider = ScriptedProvider(policy)
        assert provider.complete(CompletionRequest("start\nmiddle\nend")) == "ok"

    def test_over_long_request_raises(self):
        provider = ScriptedProvider(ScriptedPolicy(default="x"))
        with pytest.raises(RequestTooLarge):
            provider.complete(CompletionRequest("y" * (MAX_REQUEST_CHARS + 1)))


# Patterns over a small alphabet, each drawn with a text that its pieces
# spell out (case-swapped under (?i)), so that matches are common. Plain and
# escaped characters, class escapes, classes, anchors and quantifiers, then
# groups and alternation on top, behind each of the leading flags. Half the
# bodies have neither groups nor alternation, the only patterns with
# literals.
_ATOMS = [("a", "a"), ("b", "b"), ("A", "A"), (" ", " "), (r"\.", "."), (r"\(", "("),
          (r"\ ", " "), (r"\\", "\\"), (r"\d", "1"), (".", "b"), ("[ab]", "a")]
_QUANTIFIERS = [("", 1), ("", 1), ("", 1), ("", 1), ("?", 0), ("+", 2), ("*", 0), ("*?", 1),
                ("{2}", 2)]
_OTHER_PIECES = [("^", ""), ("$", ""), (r"\b", ""), (".*", "ab"), (".*?", ""), ("a b", "a b")]
_PROMPT_FRAGMENTS = ["a", "b", "A", " ", ".", "(", "\\", "1", "\n", "aa", "ab", "a b", "aA"]
PROMPTS = st.lists(st.sampled_from(_PROMPT_FRAGMENTS), max_size=6).map("".join)


@st.composite
def _sequence(draw, atoms, unquantified):
    # At most four pieces over short prompts, and no quantified group, keep
    # the backtracking of patterns like ".*.*.*" small.
    pattern, text = "", ""
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)):
            (atom, sample), (quantifier, times) = draw(atoms), draw(st.sampled_from(_QUANTIFIERS))
        else:
            (atom, sample), quantifier, times = draw(unquantified), "", 1
        pattern, text = pattern + atom + quantifier, text + sample * times
    return pattern, text


def _spelled(pieces: list[tuple[str, str]], flag: str):
    if flag == "(?i)":
        pieces = [(piece, text.swapcase()) for piece, text in pieces]
    if flag == "(?x)":  # a plain space spells nothing
        pieces = [(piece, text if piece == r"\ " else text.replace(" ", "")) for piece, text in pieces]
    return st.sampled_from(pieces)


def _cases(flag: str):
    atoms, others = _spelled(_ATOMS, flag), _spelled(_OTHER_PIECES, flag)
    plain = _sequence(atoms, others)
    groups = plain.map(lambda case: (f"(?:{case[0]})", case[1]))
    nested = st.lists(
        _sequence(atoms, others | groups), min_size=1, max_size=2
    ).map(lambda branches: ("|".join(b for b, _ in branches), branches[-1][1]))
    return (plain | nested).map(lambda case: (flag + case[0], case[1]))


def _compiles(case) -> bool:
    try:
        re.compile(case[0])
    except re.error:  # (?x) drops spaces, so "a* *" repeats twice
        return False
    return True


CASES = st.sampled_from(["", "(?s)", "(?i)", "(?x)", "(?m)"]).flatmap(_cases).filter(_compiles)


def _prompt_around(text: str):
    fragment = st.sampled_from([""] + _PROMPT_FRAGMENTS)
    return st.tuples(fragment, fragment).map(lambda p: p[0] + text + p[1])


class TestPolicyMatching:
    @pytest.mark.parametrize("pattern, literals", [
        ("(?i)abc", ()),
        ("ab*c", ("a", "c")),
        ("x{2}yz", ()),
        ("a|b", ()),
        (r"a\.b\(c\)", ("a.b(c)",)),
        (r"(?s)state manager.*## Newest Observation", ("state manager", "## Newest Observation")),
        (r"(?ms)^key \d+$", ("key ",)),
        (r"(?x)a b", ()),
        (r"a\x41b", ()),
        (r"a\db+?c", ("a", "c")),
        ("[ab]c", ()),
    ])
    def test_required_literals(self, pattern, literals):
        assert PolicyEntry(match=pattern, response="r", is_regex=True).literals == literals

    def test_substring_literal_is_the_whole_match(self):
        assert PolicyEntry(match="a.b*", response="r").literals == ("a.b*",)

    def test_pattern_compiled_once_at_construction(self, monkeypatch):
        entry = PolicyEntry(match=r"(?s)start.*end", response="ok", is_regex=True)
        assert isinstance(entry.pattern, re.Pattern) and entry.pattern.pattern == entry.match
        assert PolicyEntry(match="start", response="ok").pattern is None
        # Matching goes through the stored pattern, never the re module.
        monkeypatch.setattr(provider_module, "re", None)
        provider = ScriptedProvider(ScriptedPolicy(entries=(entry,), default="no"))
        assert provider.complete(CompletionRequest("start\nmiddle\nend")) == "ok"
        assert provider.complete(CompletionRequest("start only")) == "no"

    def test_invalid_regex_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="'match' is not a valid regex: missing"):
            PolicyEntry(match="(", response="x", is_regex=True)

    @settings(max_examples=1000, deadline=None)
    @given(case=CASES, data=st.data())
    def test_prefilter_agrees_with_re_search(self, case, data):
        pattern, text = case
        policy = ScriptedPolicy(
            entries=(PolicyEntry(match=pattern, response="yes", is_regex=True),), default="no"
        )
        prompts = st.lists((_prompt_around(text) | PROMPTS).filter(bool), min_size=1, max_size=6)
        for prompt in data.draw(prompts):
            expected = "yes" if re.search(pattern, prompt) is not None else "no"
            assert ScriptedProvider(policy).complete(CompletionRequest(prompt)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(CASES.map(lambda case: (*case, True)), PROMPTS.map(lambda p: (p, p, False))),
            max_size=8,
        ),
        data=st.data(),
    )
    def test_provider_picks_the_first_matching_entry(self, entries, data):
        policy = ScriptedPolicy(
            entries=tuple(
                PolicyEntry(match=match, response=str(index), is_regex=is_regex)
                for index, (match, _, is_regex) in enumerate(entries)
            ),
            default="none",
        )
        provider = ScriptedProvider(policy)
        around = st.sampled_from([text for _, text, _ in entries] or [""]).flatmap(_prompt_around)
        for prompt in data.draw(st.lists((around | PROMPTS).filter(bool), min_size=1, max_size=4)):
            expected = next(
                (
                    str(index)
                    for index, (match, _, is_regex) in enumerate(entries)
                    if (re.search(match, prompt) is not None if is_regex else match in prompt)
                ),
                "none",
            )
            assert provider.complete(CompletionRequest(prompt)) == expected


def _reference_reply(policy: ScriptedPolicy, prompt: str) -> str:
    """The reply a plain scan gives: the first entry ``re.search`` or ``in``
    finds anywhere in the prompt, else the default."""
    for entry in policy.entries:
        if re.search(entry.match, prompt) if entry.is_regex else entry.match in prompt:
            return entry.response
    if policy.default is None:
        raise ScriptError("no entry matched")
    return policy.default


# Prompts open with one of a few fixed heads, as the templates do. Runs of
# "z", which no entry below spells, make them long enough for a shared prefix
# to span several compared blocks; the regexes have several literals or none
# and backtrack little over such runs.
_HEADS = [
    "You are the action router for a tool-using assistant.\n",
    "You are the state manager for a tool-using assistant.\n",
    "Merge these two progress notes into one.\n",
]
_TAILS = st.lists(
    st.sampled_from(_PROMPT_FRAGMENTS) | st.integers(1, 150).map(lambda n: "z" * n), max_size=5
).map("".join)
_REUSE_ENTRIES = st.one_of(
    st.lists(st.sampled_from(_PROMPT_FRAGMENTS + ["z"]), min_size=1, max_size=3).map(
        lambda pieces: ("".join(pieces), False)
    ),
    st.sampled_from([r"a.b", r"(?s)a.*1", r"ab*A", r"\(a", r"(?m)^a b$", r"1\\", r"(?i)Ab",
                     r"z\na", r"a|1", r"b\.?\(", r"[ab]z"]).map(lambda pattern: (pattern, True)),
)


@st.composite
def _prompt_sequences(draw):
    """Each prompt derives from the last one of its kind: an exact repeat,
    that whole prompt with a tail appended (so a literal can start inside the
    shared prefix and end after it), one character of it replaced, a cut of
    it with a new tail, or a new body."""
    prompts, last = [], {}
    for _ in range(draw(st.integers(1, 8))):
        head = draw(st.sampled_from(_HEADS))
        before = last.get(head, head)
        how = draw(st.sampled_from(["repeat", "grow", "edit", "cut", "new"]))
        if how == "repeat":
            prompt = before
        elif how == "edit":
            at = draw(st.integers(len(head), len(before)))
            prompt = before[:at] + draw(st.sampled_from("ab1z\n")) + before[at + 1:]
        else:
            keep = {"grow": len(before), "new": len(head)}.get(how)
            if keep is None:
                keep = draw(st.integers(len(head), len(before)))
            prompt = before[:keep] + draw(_TAILS)
        last[head] = prompt
        prompts.append(prompt)
    return prompts


class TestPromptReuse:
    # A cost of 0 records every prompt, so each call after the first of its
    # kind measures a shared prefix; at the real cost these short prompts
    # are searched whole.
    @pytest.mark.parametrize("prefix_cost", [0, provider_module._PREFIX_COST_CHARS])
    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(_REUSE_ENTRIES, max_size=8),
        default=st.none() | st.just("default"),
        prompts=_prompt_sequences(),
    )
    def test_reused_provider_agrees_with_a_fresh_scan(self, prefix_cost, entries, default, prompts):
        policy = ScriptedPolicy(
            entries=tuple(
                PolicyEntry(match=match, response=str(index), is_regex=is_regex)
                for index, (match, is_regex) in enumerate(entries)
            ),
            default=default,
        )
        provider = ScriptedProvider(policy)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(provider_module, "_PREFIX_COST_CHARS", prefix_cost)
            for prompt in prompts:
                try:
                    expected = _reference_reply(policy, prompt)
                except ScriptError:
                    # Raised again on a repeat: a failed call leaves nothing behind.
                    with pytest.raises(ScriptError):
                        provider.complete(CompletionRequest(prompt))
                else:
                    assert provider.complete(CompletionRequest(prompt)) == expected

    @pytest.mark.parametrize("length", [63, 64, 65, 192, 300])
    @pytest.mark.parametrize("stored, prompt, reply", [
        ("", "b", "ab"),  # "ab" starts inside the shared prefix and ends after it
        ("z", "b", "ab"),  # the same, where the prompts differ right after the "a"
        ("b", "", "none"),  # the stored prompt held "ab"; the new one ends inside it
    ])
    def test_literal_at_the_end_of_the_shared_prefix(self, monkeypatch, length, stored, prompt, reply):
        # "ab" is looked up against the shared prefix: the ``length`` chars
        # of ``head``, which ends in "a".
        monkeypatch.setattr(provider_module, "_PREFIX_COST_CHARS", 0)
        policy = ScriptedPolicy(
            entries=(PolicyEntry(match="zb", response="zb"), PolicyEntry(match="ab", response="ab")),
            default="none",
        )
        provider = ScriptedProvider(policy)
        head = _HEADS[0] + "z" * (length - len(_HEADS[0]) - 1) + "a"
        provider.complete(CompletionRequest(head + stored))
        assert provider.complete(CompletionRequest(head + prompt)) == reply

    def test_threads_sharing_a_provider_get_the_reference_replies(self, monkeypatch):
        monkeypatch.setattr(provider_module, "_PREFIX_COST_CHARS", 0)
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(match="needle-1", response="one"),
                PolicyEntry(match=r"(?s)step 2.*needle-2", response="two", is_regex=True),
                PolicyEntry(match="needle-3", response="three"),
            ),
            default="none",
        )
        provider = ScriptedProvider(policy)
        pieces = ["z" * 100, "needle-", "1", "2", "3", "step 2", "\n", "x"]
        head = _HEADS[0]
        calls, wrong = [], []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            prompt = head
            for _ in range(300):
                keep = rng.randrange(len(head), len(prompt) + 1)
                prompt = prompt[:keep] + "".join(rng.choices(pieces, k=3))
                reply = provider.complete(CompletionRequest(prompt))
                if reply != _reference_reply(policy, prompt):
                    wrong.append((prompt, reply))
                calls.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 8 * 300
        assert wrong == []


class TestRequestValidation:
    def test_prompt_must_be_non_empty(self):
        with pytest.raises(ValueError):
            CompletionRequest("")


class TestLoadPolicy:
    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "entries": [
                {"match": "one", "response": "1"},
                {"match": "two", "response": "2", "is_regex": True},
                {"match": "three", "response": "3"},
            ]
        }))
        policy = load_policy(path)
        assert [e.match for e in policy.entries] == ["one", "two", "three"]
        assert policy.entries[1].is_regex

    @pytest.mark.parametrize("written, read", [(1, True), (0, False)])
    def test_is_regex_reads_as_bool(self, tmp_path, written, read):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"entries": [{"match": "a.c", "response": "r", "is_regex": written}]}))
        entry = load_policy(path).entries[0]
        assert entry.is_regex is read
        assert (entry.pattern is not None) is read

    def test_empty_file_gives_empty_policy(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("")
        policy = load_policy(path)
        assert policy.entries == ()
        assert policy.default is None
        with pytest.raises(ScriptError):
            ScriptedProvider(policy).complete(CompletionRequest("anything"))

    def test_duplicate_matchers_earlier_wins(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "entries": [
                {"match": "same", "response": "first"},
                {"match": "same", "response": "second"},
            ]
        }))
        policy = load_policy(path)
        assert len(policy.entries) == 2
        assert ScriptedProvider(policy).complete(CompletionRequest("same same")) == "first"

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{\n  "entries": [,]\n}')
        with pytest.raises(ConfigurationError, match="line"):
            load_policy(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, "{broken"], ids=["over_deep", "invalid"])
    def test_unreadable_file_names_it(self, tmp_path, text):
        path = tmp_path / "deep.policy.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="deep.policy.json"):
            load_policy(path)

    def test_entry_missing_keys(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"entries": [{"match": "x"}]}))
        with pytest.raises(ConfigurationError, match="entry 0"):
            load_policy(path)

    def test_invalid_regex_names_file_entry_and_error(self, tmp_path):
        path = tmp_path / "bad.policy.json"
        path.write_text(json.dumps({"entries": [
            {"match": "(", "response": "fine as a substring"},
            {"match": "(", "is_regex": True, "response": "x"},
        ]}))
        with pytest.raises(ConfigurationError) as caught:
            load_policy(path)
        message = str(caught.value)
        assert "bad.policy.json" in message
        assert "entry 1" in message
        assert "missing ), unterminated subpattern" in message


@pytest.fixture
def waits(monkeypatch) -> list[float]:
    """The live provider's waits, recorded instead of slept, on a fake clock.
    Each thread's clock starts at 0, as if every thread started at the same
    moment, and each recorded sleep advances the sleeping thread's clock."""
    recorded: list[float] = []
    clock = threading.local()

    def monotonic() -> float:
        return getattr(clock, "now", 0.0)

    def sleep(seconds: float) -> None:
        recorded.append(seconds)
        clock.now = monotonic() + seconds

    monkeypatch.setattr(provider_module, "time", SimpleNamespace(sleep=sleep, monotonic=monotonic))
    return recorded


def _in_threads(count: int, call) -> list:
    """``call()`` in ``count`` new threads at once; their results in thread order."""
    results: list = [None] * count

    def run(index: int) -> None:
        results[index] = call()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestLiveProvider:
    def test_success_response(self, http_stub):
        stub = http_stub([(200, _chat_body("hello back"))])
        provider = LiveProvider(base_url=stub.url, api_key="k", model="m", retries=0)
        assert provider.complete(CompletionRequest("hi")) == "hello back"
        assert stub.calls == 1

    def test_request_body_is_pinned(self, http_stub):
        stub = http_stub([(200, _chat_body("ok"))])
        provider = LiveProvider(base_url=stub.url, api_key="k", model="m", retries=0)
        provider.complete(CompletionRequest("hi"))
        assert stub.bodies == [
            b'{"model": "m", "messages": [{"role": "user", "content": "hi"}], '
            b'"temperature": 0.0, "max_tokens": 1024}'
        ]

    def test_retries_5xx_then_succeeds(self, http_stub):
        stub = http_stub([(500, "boom"), (503, "boom"), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert provider.complete(CompletionRequest("hi")) == "ok"
        assert stub.calls == 3

    def test_4xx_rejected_without_retry(self, http_stub):
        stub = http_stub([(404, "missing")])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        with pytest.raises(ProviderRejected):
            provider.complete(CompletionRequest("hi"))
        assert stub.calls == 1

    def test_unreachable_after_retries(self):
        provider = LiveProvider(
            base_url="http://127.0.0.1:9", api_key="k", model="m",
            retries=1, backoff_base=0.01, timeout=0.2,
        )
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest("hi"))

    def test_exhausted_retries_on_5xx(self, http_stub):
        stub = http_stub([(500, "down")])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=2, backoff_base=0.01
        )
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest("hi"))
        assert stub.calls == 3

    def test_429_then_success_waits_retry_after_seconds(self, http_stub, waits):
        stub = http_stub([(429, "slow down", {"Retry-After": "7"}), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert provider.complete(CompletionRequest("hi")) == "ok"
        assert stub.calls == 2
        assert waits == [7.0]

    def test_retry_after_http_date(self, http_stub, waits):
        soon = formatdate(time.time() + 10, usegmt=True)
        past = formatdate(time.time() - 3600, usegmt=True)
        late = formatdate(time.time() + 3600, usegmt=True)
        stub = http_stub([
            (429, "", {"Retry-After": soon}),
            (429, "", {"Retry-After": past}),
            (503, "", {"Retry-After": late}),
            (200, _chat_body("ok")),
        ])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert provider.complete(CompletionRequest("hi")) == "ok"
        assert stub.calls == 4
        assert 5.0 <= waits[0] <= 10.0
        assert waits[1:] == [0.0, MAX_BACKOFF_SECONDS]

    def test_retry_after_http_date_without_zone_is_utc(self, http_stub, waits):
        # "-0000" marks a date whose zone is unknown; it is read as UTC.
        soon = formatdate(time.time() + 10)
        assert soon.endswith(" -0000")
        stub = http_stub([(429, "", {"Retry-After": soon}), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert provider.complete(CompletionRequest("hi")) == "ok"
        assert 5.0 <= waits[0] <= 10.0

    def test_retry_after_holds_back_every_thread(self, http_stub, waits):
        stub = http_stub([(429, "slow down", {"Retry-After": "1"}), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        # One thread is told to retry after a second, and waits it out.
        assert _in_threads(1, lambda: provider.complete(CompletionRequest("hi"))) == ["ok"]
        assert (stub.calls, waits) == (2, [1.0])
        # Three threads starting in that second each wait it out before
        # their first request, which then succeeds.
        assert _in_threads(3, lambda: provider.complete(CompletionRequest("hi"))) == ["ok"] * 3
        assert (stub.calls, waits) == (5, [1.0] * 4)

    def test_threads_get_the_success_after_a_5xx(self, http_stub, waits):
        stub = http_stub([(503, "busy", {"Retry-After": "1"}), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert _in_threads(4, lambda: provider.complete(CompletionRequest("hi"))) == ["ok"] * 4
        # One 503, then one success per thread; every wait is the one second.
        assert stub.calls == 5
        assert 1 <= len(waits) <= 4 and set(waits) == {1.0}

    def test_unreadable_retry_after_falls_back_to_backoff(self, http_stub, waits):
        stub = http_stub([(503, "", {"Retry-After": "soon"}), (200, _chat_body("ok"))])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=3, backoff_base=0.01
        )
        assert provider.complete(CompletionRequest("hi")) == "ok"
        assert waits == [0.01]

    def test_408_retries_run_out(self, http_stub, waits):
        stub = http_stub([(408, "request timeout")])
        provider = LiveProvider(
            base_url=stub.url, api_key="k", model="m", retries=2, backoff_base=0.01
        )
        with pytest.raises(ProviderUnavailable, match="HTTP 408"):
            provider.complete(CompletionRequest("hi"))
        assert stub.calls == 3
        assert waits == [0.01, 0.02]

    def test_malformed_body_surfaces(self, http_stub):
        stub = http_stub([(200, '{"nope": true}')])
        provider = LiveProvider(base_url=stub.url, api_key="k", model="m", retries=0)
        with pytest.raises(ProviderUnavailable, match="malformed"):
            provider.complete(CompletionRequest("hi"))

    def test_missing_configuration(self, monkeypatch):
        monkeypatch.delenv("PROVIDER_BASE_URL", raising=False)
        monkeypatch.delenv("PROVIDER_MODEL", raising=False)
        with pytest.raises(ProviderUnavailable):
            LiveProvider()

    def test_missing_model_is_refused(self, monkeypatch):
        monkeypatch.setenv("PROVIDER_BASE_URL", "http://127.0.0.1:9")
        monkeypatch.delenv("PROVIDER_MODEL", raising=False)
        with pytest.raises(ProviderUnavailable, match="PROVIDER_MODEL is not configured"):
            LiveProvider()

    @pytest.mark.parametrize("content", [None, 7, ["hi"], {"text": "hi"}])
    def test_content_that_is_not_a_string_is_refused(self, http_stub, content):
        body = json.dumps({"choices": [{"message": {"content": content}}]})
        stub = http_stub([(200, body)])
        provider = LiveProvider(base_url=stub.url, api_key="k", model="m", retries=0)
        with pytest.raises(ProviderUnavailable, match="completion content is not a string"):
            provider.complete(CompletionRequest("hi"))

    @pytest.mark.parametrize("base_url", ["localhost:9", "ftp://127.0.0.1:9", "127.0.0.1:9/v1"])
    def test_base_url_without_http_scheme_is_refused(self, base_url):
        with pytest.raises(ProviderUnavailable, match="PROVIDER_BASE_URL must start with http"):
            LiveProvider(base_url=base_url, model="m")

    def test_base_url_scheme_is_case_insensitive(self):
        assert LiveProvider(base_url="HTTPS://127.0.0.1:9/", model="m").base_url == "HTTPS://127.0.0.1:9"
