"""Candidate-tool selection: lexical TF-IDF ranking over a tool catalog.

Tokenization contract (stable): lowercase, ASCII punctuation stripped,
split on Unicode whitespace. Term frequency is the raw token count; inverse
document frequency is ln(N / df) over the catalog documents (name plus
description), so scores are invariant under duplicating every document.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

from .core import CatalogTool, ToolSpec, load_record, tool_names
from .errors import ConfigurationError

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass(frozen=True)
class RankedTool:
    tool: ToolSpec
    score: float


def rank(instruction_text: str, catalog: list[ToolSpec], k: int) -> list[RankedTool]:
    """Top-k tools by cosine similarity of TF-IDF vectors, ties broken by
    ascending tool name so the ordering is total and deterministic."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not catalog:
        return []

    documents = [Counter(tokenize(f"{tool.name} {tool.description}")) for tool in catalog]
    df = Counter(term for counts in documents for term in counts)
    total = len(documents)
    idf = {term: math.log(total / count) for term, count in df.items()}

    query_counts = Counter(tokenize(instruction_text))
    query_vector = {
        term: tf * idf[term] for term, tf in query_counts.items() if term in idf
    }
    query_norm = math.sqrt(sum(w * w for w in query_vector.values()))

    ranked = []
    for tool, counts in zip(catalog, documents):
        vector = {term: tf * idf[term] for term, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in vector.values()))
        if query_norm == 0 or norm == 0:
            score = 0.0
        else:
            dot = sum(
                weight * vector[term]
                for term, weight in query_vector.items()
                if term in vector
            )
            score = dot / (query_norm * norm)
        ranked.append(RankedTool(tool=tool, score=score))

    ranked.sort(key=lambda r: (-r.score, r.tool.name))
    return ranked[: min(k, len(ranked))]


def load_catalog(path) -> list[ToolSpec]:
    """Tool catalog file: JSON list of ToolSpec records, at least one, no
    two with one name."""
    tools = load_record(path, tuple[CatalogTool, ...], "tool catalog")
    try:
        tool_names(tools)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: malformed tool catalog: {exc}") from exc
    return list(tools)
