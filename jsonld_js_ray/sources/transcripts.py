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
"""

from __future__ import annotations

import pyarrow as pa

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


def derive_turns_from_events(group: pa.Table) -> pa.Table:
    """One events group (single user_id) → transcript rows, sorted by
    (ts, event_id). Used inside ``groupby('user_id').map_groups``."""
    import pyarrow.compute as pc

    order = pc.sort_indices(
        group, sort_keys=[("ts", "ascending"), ("event_id", "ascending")])
    g = group.take(order)
    n = g.num_rows
    user_id = g["user_id"][0].as_py()
    return pa.table({
        "conv_id": [f"conv-{user_id}"] * n,
        "turn_idx": range(n),
        "role": turn_roles(g["event_type"].to_pylist()),
        "text": turn_text(g["event_type"], g["props"]).cast(
            pa.large_string()),
        "tool": g["event_type"],
        "ts": g["ts"],
    }, schema=TRANSCRIPT_SCHEMA)


def read_transcripts(sf_dir: str, parallelism: int | None = None):
    """events parquet → transcript Dataset (one shuffle: groupby user_id).

    Column-pruned at the read; the groupby is the pipeline's first (and,
    fused with document assembly, usually only) all-to-all exchange.
    """
    import ray.data as rd

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "props"],
    ).map_batches(lambda t: t.replace_schema_metadata(None),
                  batch_format="pyarrow", zero_copy_batch=True)
    return events.groupby("user_id").map_groups(
        derive_turns_from_events, batch_format="pyarrow")


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
