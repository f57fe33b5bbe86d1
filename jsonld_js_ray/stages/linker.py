"""Mention detection + entity-link scoring.

North-star stage: "each turn's text is run through batched mention
detection and entity-link scoring (actor-pool map_batches holding the
linker model and a cached @context/term-definition resolver)".

The "model" is deterministic and self-contained (no external data): a
token rule + a scoring function; real deployments would load an NER/EL
model in ``__init__`` — the Ray-side shape (actor pool, state loaded
once, batched scoring) is identical. ``_mention_surfaces`` is the one
engine implementation of the rule: the mention stream
(``detect_mentions``) and per-turn linking during document assembly
(``link_mentions``, once per block of turns) both run it.

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


def _mention_surfaces(texts) -> tuple[pa.Array, pa.Array]:
    """Texts → (surface, row): every mention's lowercased surface and
    the index of its text, in text order then token order.

    ``findall('[A-Za-z]{3,}')`` is equivalent to splitting on non-alpha
    runs and keeping tokens of length ≥ 3, which Arrow's split + list
    kernels express without a per-row Python loop (order preserved by
    list_flatten)."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    tokens = pc.split_pattern_regex(pc.fill_null(texts, ""),
                                    pattern="[^A-Za-z]+")
    flat = pc.list_flatten(tokens)
    keep = pc.greater_equal(pc.utf8_length(flat), 3)
    return (pc.utf8_lower(pc.filter(flat, keep)),
            pc.filter(pc.list_parent_indices(tokens), keep))


class MentionDetector:
    """Actor: transcript batches → mention rows.

    (conv_id, turn_idx, text) → (conv_id, turn_idx, surface, score,
    entity_iri), fully vectorized (``_mention_surfaces``)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        surface, parents = _mention_surfaces(batch["text"])
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


def link_mentions(texts, mapping: dict[str, str]) -> list[list[str] | None]:
    """Turn texts → each turn's entity IRIs (None when it has none).
    Each mention's surface links to ``mapping[surface]`` (surface →
    canonical surface), or to itself when unmapped; a turn keeps one
    IRI per canonical surface, in first-seen order. One detector call
    for a whole block of turns."""
    surface, rows = _mention_surfaces(texts)
    out: list[list[str] | None] = [None] * len(texts)
    for row, s in zip(rows.to_pylist(), surface.to_pylist()):
        iri = ENTITY_NS + mapping.get(s, s)
        found = out[row]
        if found is None:
            out[row] = [iri]
        elif iri not in found:
            found.append(iri)
    return out


def detect_mentions(transcripts, concurrency=None):
    """transcripts Dataset → mention Dataset (actor-pool map_batches)."""
    return transcripts.map_batches(
        MentionDetector, batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency if concurrency else (1, 8))
