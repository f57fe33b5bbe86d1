"""Mention detection + entity-link scoring.

North-star stage: "each turn's text is run through batched mention
detection and entity-link scoring".

The "model" is deterministic and self-contained (no external data): a
token rule + a scoring function, pure Arrow over a batch, so it runs as
plain ``map_batches`` tasks with no state to hold. ``_mention_surfaces``
is the one engine implementation of the rule: the entity phase's
mention stream (``event_mentions``, one map over the event rows), the
per-turn mention table (``detect_mentions``) and per-turn linking
during document assembly (``link_mentions``, once per block of turns)
all run it.

Mention rule (SQL-mirrorable, see MENTIONS_SQL): alphabetic tokens of
length >= 3, lowercased. Deliberately tiny surface-form cardinality on the
events-derived corpus → the designated skew source (SURVEY.md §7.4.5).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import event_files, read_events
from ..sources.transcripts import TRANSCRIPTS_SQL, turn_text
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
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    tokens = pc.split_pattern_regex(pc.fill_null(texts, ""),
                                    pattern="[^A-Za-z]+")
    flat = pc.list_flatten(tokens)
    keep = pc.greater_equal(pc.utf8_length(flat), 3)
    return (pc.utf8_lower(pc.filter(flat, keep)),
            pc.filter(pc.list_parent_indices(tokens), keep))


def mention_rows(batch: pa.Table) -> pa.Table:
    """Transcript rows → mention rows: (conv_id, turn_idx, text) →
    (conv_id, turn_idx, surface, score, entity_iri), fully vectorized
    (``_mention_surfaces``)."""
    import numpy as np

    surface, parents = _mention_surfaces(batch["text"])
    lengths = pc.utf8_length(surface).to_numpy(zero_copy_only=False)
    scores = np.round(
        np.minimum(1.0, SCORE_BASE + lengths * SCORE_SLOPE), SCORE_DIGITS)
    return pa.table({
        "conv_id": pc.take(batch["conv_id"], parents).cast(pa.string()),
        "turn_idx": pc.take(batch["turn_idx"], parents).cast(pa.int32()),
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


def detect_mentions(transcripts):
    """transcripts Dataset → mention Dataset (``mention_rows`` as
    tasks)."""
    return transcripts.map_batches(mention_rows, batch_format="pyarrow",
                                   batch_size=4096)


def event_mentions_block(events: pa.Table) -> pa.Table:
    """Event rows → one (conv_id, surface) row per mention in each row's
    turn text (``turn_text``), with ``conv_id = 'conv-' || user_id``.
    No turn order or ``turn_idx`` is needed, so no sort either."""
    surface, rows = _mention_surfaces(
        turn_text(events["event_type"], events["props"]))
    conv = pc.binary_join_element_wise(
        "conv-", events["user_id"].cast(pa.string()), "")
    return pa.table({"conv_id": pc.take(conv, rows).cast(pa.string()),
                     "surface": surface.cast(pa.string())})


def event_mentions(sf_dir: str):
    """events parquet → (conv_id, surface) mention Dataset: one map over
    the events read (``event_mentions_block``), no shuffle. The input of
    the entity phase (``entity_merge.surface_stats``)."""
    return read_events(event_files(sf_dir), fn=event_mentions_block)
