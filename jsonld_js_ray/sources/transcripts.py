"""Transcript table sources.

The engine's primary input is a Parquet table of multi-turn conversation
transcripts ``(conv_id:string, turn_idx:int32, role:string,
text:large_string, tool:string, ts:timestamp[us])`` (BASELINE.json
input_hint). The driver's testdata has no such table, so transcripts are
derived DETERMINISTICALLY from the ``events`` table — the same derivation
is expressed both as a Ray Data pipeline (here) and as DuckDB SQL
(``TRANSCRIPTS_SQL``) so the oracle can verify it row-for-row:

    conv_id  = 'conv-' || user_id
    turn_idx = row_number() over (partition by user_id
                                  order by ts, event_id) - 1
    role     = fixed map of event_type (tiny cardinality → skew source)
    text     = event_type || ' ' || props
    tool     = event_type
    ts       = ts

Ray derives every user of a block at once (``transcripts_block``);
the flagship's block kernel shares its turn sort and rules.
"""

from __future__ import annotations

import pyarrow as pa

from ..rayutil import event_files, per_block, read_events, run_starts

ROLE_MAP = {
    "click": "user",
    "view": "user",
    "signup": "system",
    "purchase": "assistant",
    "error": "tool",
}

ROLE_CASE_SQL = (
    "CASE event_type WHEN 'click' THEN 'user' WHEN 'view' THEN 'user' "
    "WHEN 'signup' THEN 'system' WHEN 'purchase' THEN 'assistant' "
    "WHEN 'error' THEN 'tool' ELSE 'other' END"
)

# DuckDB view of the same derivation (sf tables are pre-registered views).
TRANSCRIPTS_SQL = f"""
SELECT 'conv-' || CAST(user_id AS VARCHAR) AS conv_id,
       CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
            - 1 AS INTEGER) AS turn_idx,
       {ROLE_CASE_SQL} AS role,
       event_type || ' ' || props AS text,
       event_type AS tool,
       ts
FROM events
"""

TRANSCRIPT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.large_string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])


def turn_roles(event_type: list) -> list[str]:
    """``role`` of each turn: ``ROLE_MAP`` of its event type, else
    'other' (``ROLE_CASE_SQL``)."""
    return [ROLE_MAP.get(e, "other") for e in event_type]


def turn_text(event_type, props):
    """``text`` of each turn, ``event_type || ' ' || props``: NULL when
    either side is NULL, as in SQL."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(event_type, props, " ")


def sort_turns(events: pa.Table, keys: list[str]
               ) -> tuple[pa.Table, list[int]]:
    """``events`` sorted on ``(*keys, ts, event_id)`` and the offsets of
    its runs of equal ``keys`` (``run_starts``): each run is one
    conversation, its rows the turns in ``turn_idx`` order."""
    import pyarrow.compute as pc

    t = events.take(pc.sort_indices(events, sort_keys=[
        (k, "ascending") for k in (*keys, "ts", "event_id")]))
    return t, run_starts(t, keys)


def transcripts_block(events: pa.Table) -> pa.Table:
    """Events of any number of users → their transcript rows: one sort,
    then ``turn_idx`` = row − start of its user's run."""
    import pyarrow.compute as pc

    t, starts = sort_turns(events, ["user_id"])
    return pa.table({
        "conv_id": pc.binary_join_element_wise(
            "conv-", t["user_id"].cast(pa.string()), ""),
        "turn_idx": pa.array([i for a, b in zip(starts, starts[1:])
                              for i in range(b - a)], pa.int32()),
        "role": turn_roles(t["event_type"].to_pylist()),
        "text": turn_text(t["event_type"], t["props"]),
        "tool": t["event_type"],
        "ts": t["ts"],
    }, schema=TRANSCRIPT_SCHEMA)


def read_transcripts(sf_dir: str):
    """events parquet (one file or an ``events/`` directory of shards) →
    transcript Dataset: the shared events read, then ``per_block`` on
    ``user_id`` (the one shuffle) and ``transcripts_block`` per block,
    so a user's events in several files make one conversation."""
    return per_block(read_events(event_files(sf_dir)), "user_id",
                     transcripts_block)


def synthesize_transcripts(n_convs: int = 20, max_turns: int = 12,
                           seed: int = 7) -> pa.Table:
    """Deterministic synthetic transcript table for unit tests
    (FIXTURES.md §1): seed-stable, no external data."""
    import random

    rng = random.Random(seed)
    rows: dict[str, list] = {k: [] for k in
                             ("conv_id", "turn_idx", "role", "text", "tool",
                              "ts")}
    roles = ["user", "assistant", "system", "tool"]
    tools = [None, "search", "calculator", "browser"]
    words = ["alpha", "Beta", "gamma", "Delta Flyer", "epsilon", "Zeta One",
             "hello", "run", "fix", "deploy"]
    base_ts = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in µs
    for c in range(n_convs):
        conv_id = f"synth-{c:04d}"
        n_turns = 1 + rng.randrange(max_turns)
        for t in range(n_turns):
            rows["conv_id"].append(conv_id)
            rows["turn_idx"].append(t)
            rows["role"].append(roles[(c + t) % len(roles)])
            rows["text"].append(
                " ".join(rng.choice(words)
                         for _ in range(3 + rng.randrange(8))))
            rows["tool"].append(tools[rng.randrange(len(tools))])
            rows["ts"].append(base_ts + c * 3_600_000_000 + t * 60_000_000)
    return pa.table(rows, schema=TRANSCRIPT_SCHEMA)
