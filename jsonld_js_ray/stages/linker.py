"""Mention detection + entity-link scoring.

North-star stage: "each turn's text is run through batched mention
detection and entity-link scoring (actor-pool map_batches holding the
linker model and a cached @context/term-definition resolver)".

The "model" is deterministic and self-contained (no external data): a
token rule + a scoring function; real deployments would load an NER/EL
model in ``__init__`` — the Ray-side shape (actor pool, state loaded
once, batched scoring) is identical. ``MentionDetector``'s Arrow kernel
is the one engine implementation of the rule: the mention stream
(``detect_mentions``) and per-turn linking during document assembly
(``link_turn_mentions``) both run it.

Mention rule (SQL-mirrorable, see MENTIONS_SQL): alphabetic tokens of
length >= 3, lowercased. Deliberately tiny surface-form cardinality on the
events-derived corpus → the designated skew source (SURVEY.md §7.4.5).
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.transcripts import TRANSCRIPTS_SQL
from .assemble import ENTITY_NS

MENTION_PATTERN = r"[A-Za-z]{3,}"

MENTIONS_SQL = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx,
       lower(unnest(regexp_extract_all(text, '{MENTION_PATTERN}')))
           AS surface
FROM transcripts
"""


SCORE_BASE = 0.5
SCORE_SLOPE = 1 / 20.0     # per surface character
SCORE_DIGITS = 3


class MentionDetector:
    """Actor: transcript batches → mention rows.

    (conv_id, turn_idx, text) → (conv_id, turn_idx, surface, score,
    entity_iri). Fully vectorized: ``findall('[A-Za-z]{3,}')`` is
    equivalent to splitting on non-alpha runs and keeping tokens of
    length ≥ 3, which Arrow's split + list kernels express without a
    per-row Python loop (order preserved by list_flatten)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        texts = pc.fill_null(batch["text"].combine_chunks()
                             if isinstance(batch["text"], pa.ChunkedArray)
                             else batch["text"], "")
        tokens = pc.split_pattern_regex(texts, pattern="[^A-Za-z]+")
        tokens = tokens.combine_chunks() if \
            isinstance(tokens, pa.ChunkedArray) else tokens
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens)
        keep = pc.greater_equal(pc.utf8_length(flat), 3)
        flat = pc.filter(flat, keep)
        parents = pc.filter(parents, keep)

        surface = pc.utf8_lower(flat)
        lengths = pc.utf8_length(surface).to_numpy(zero_copy_only=False)
        scores = np.round(
            np.minimum(1.0, SCORE_BASE + lengths * SCORE_SLOPE),
            SCORE_DIGITS)
        conv = pc.take(batch["conv_id"], parents)
        turn = pc.take(batch["turn_idx"], parents)
        return pa.table({
            "conv_id": conv.cast(pa.string()),
            "turn_idx": turn.cast(pa.int32()),
            "surface": surface.cast(pa.string()),
            "score": pa.array(scores, pa.float64()),
            "entity_iri": pc.binary_join_element_wise(
                pa.array([ENTITY_NS] * len(surface), pa.string()),
                surface.cast(pa.string()), ""),
        })


def link_turn_mentions(turns: pa.Table,
                       mapping: dict[str, str]) -> dict[int, list[str]]:
    """One conversation's turns (conv_id, turn_idx, text) → turn_idx →
    entity IRIs. Each mention's surface links to ``mapping[surface]``
    (surface → canonical surface), or to itself when unmapped; a turn
    keeps one IRI per canonical surface, in first-seen order."""
    found = MentionDetector()(turns)
    by_turn: dict[int, list[str]] = {}
    seen: set[tuple[int, str]] = set()
    for turn_idx, surface in zip(found["turn_idx"].to_pylist(),
                                 found["surface"].to_pylist()):
        canonical = mapping.get(surface, surface)
        if (turn_idx, canonical) not in seen:
            seen.add((turn_idx, canonical))
            by_turn.setdefault(turn_idx, []).append(ENTITY_NS + canonical)
    return by_turn


def detect_mentions(transcripts, concurrency=None):
    """transcripts Dataset → mention Dataset (actor-pool map_batches)."""
    return transcripts.map_batches(
        MentionDetector, batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency if concurrency else (1, 8))
