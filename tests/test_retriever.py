from __future__ import annotations

import json

import pytest

from sum2act.core import ToolSpec
from sum2act.errors import ConfigurationError
from sum2act.retriever import load_catalog, rank, tokenize

CATALOG = [
    ToolSpec(
        name="weather_forecast",
        description="Hourly and daily weather forecast by city or region.",
    ),
    ToolSpec(
        name="flight_search",
        description="Search flights between airports with fares and times.",
    ),
    ToolSpec(
        name="currency_convert",
        description="Convert an amount between two currencies at market rates.",
    ),
]

QUERY = "What is the weather in Florida?"


def _overlap(query: str, tool: ToolSpec) -> int:
    # Independent oracle: raw token-overlap count between the query and the
    # tool document, no weighting.
    query_tokens = set(tokenize(query))
    doc_tokens = tokenize(f"{tool.name} {tool.description}")
    return sum(1 for token in doc_tokens if token in query_tokens)


class TestRank:
    def test_top1_matches_token_overlap_oracle(self):
        best_by_overlap = max(CATALOG, key=lambda t: _overlap(QUERY, t))
        assert best_by_overlap.name == "weather_forecast"
        ranked = rank(QUERY, CATALOG, k=1)
        assert ranked[0].tool.name == best_by_overlap.name
        assert ranked[0].score > 0

    def test_empty_catalog(self):
        assert rank(QUERY, [], k=5) == []

    def test_k_clamped_to_catalog(self):
        ranked = rank(QUERY, CATALOG, k=10)
        assert len(ranked) == 3
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            rank(QUERY, CATALOG, k=0)

    def test_deterministic(self):
        first = rank(QUERY, CATALOG, k=3)
        second = rank(QUERY, CATALOG, k=3)
        assert [(r.tool.name, r.score) for r in first] == [
            (r.tool.name, r.score) for r in second
        ]

    def test_tie_break_by_name(self):
        twins = [
            ToolSpec(name="zeta", description="identical text here"),
            ToolSpec(name="alpha", description="identical text here"),
        ]
        ranked = rank("identical text", twins, k=2)
        assert [r.tool.name for r in ranked] == ["alpha", "zeta"]
        assert ranked[0].score == ranked[1].score

    def test_scores_invariant_under_document_duplication(self):
        single = {r.tool.name: r.score for r in rank(QUERY, CATALOG, k=3)}
        doubled = rank(QUERY, CATALOG + CATALOG, k=6)
        for ranked in doubled:
            assert ranked.score == pytest.approx(single[ranked.tool.name])

    def test_no_shared_vocabulary_scores_zero(self):
        ranked = rank("zzz qqq", CATALOG, k=3)
        assert all(r.score == 0.0 for r in ranked)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("What's the Weather, in Florida?") == [
            "what", "s", "the", "weather", "in", "florida",
        ]


class TestFiles:
    def test_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"name": "alpha", "description": "first",
             "params": [{"name": "x", "required": True}]},
            {"name": "beta", "description": "second"},
        ]))
        catalog = load_catalog(path)
        assert [t.name for t in catalog] == ["alpha", "beta"]
        assert catalog[0].params[0].required

    def test_catalog_description_defaults_empty(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "alpha"}]))
        assert load_catalog(path)[0].description == ""

    @pytest.mark.parametrize("written, read", [(1, True), (0, False)])
    def test_param_required_reads_as_bool(self, tmp_path, written, read):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "alpha", "params": [{"name": "q", "required": written}]}]))
        assert load_catalog(path)[0].params[0].required is read

    @pytest.mark.parametrize("record", [{"description": "x"}, "oops", {"name": "has space"}])
    def test_malformed_record_names_the_file(self, tmp_path, record):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ConfigurationError, match="catalog.json"):
            load_catalog(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, "{broken"], ids=["over_deep", "invalid"])
    @pytest.mark.parametrize("loader", [load_catalog])
    def test_unreadable_file_names_it(self, tmp_path, loader, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="deep.json"):
            loader(path)
