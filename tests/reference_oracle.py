"""The one way to ask the reference implementation (jsonld.js under node).

Every test and tool that compares the engine with the reference goes
through this module: ``AVAILABLE``/``SKIP_REASON`` guard it, ``run``
is the one node invocation of ``refharness/ref_run.js``, and
``classify`` judges one request's pair of outcomes the same way for
every caller. Not a test module; pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess

from jsonld_js_ray.core.errors import JsonLdError

HARNESS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "refharness")
HARNESS = os.path.join(HARNESS_DIR, "ref_run.js")

# the reference library is wherever the harness loads jsonld.js from
with open(HARNESS, encoding="utf-8") as _f:
    REFERENCE_LIB = re.search(r"require\('([^']+)/jsonld\.js'\)",
                              _f.read()).group(1)

if shutil.which("node") is None:
    SKIP_REASON = "reference oracle unavailable: node is not on PATH"
elif not os.path.isdir(REFERENCE_LIB):
    SKIP_REASON = f"reference oracle unavailable: {REFERENCE_LIB} is missing"
else:
    SKIP_REASON = ""
AVAILABLE = not SKIP_REASON

# outcome kinds returned by ``classify`` (None means the sides agree)
DIV, SKIP = "div", "skip"


def run(reqs: list[dict], timeout: float = 600) -> list[dict]:
    """Send ``reqs`` to the harness as JSON lines; return its replies,
    one ``{"ok", "result" | "error", "code"?}`` per request. Raises with
    the tail of node's stderr when node fails or a reply is missing."""
    if not reqs:
        return []
    proc = subprocess.run(
        ["node", HARNESS],
        input="\n".join(json.dumps(r) for r in reqs),
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ,
             "NODE_PATH": os.path.join(HARNESS_DIR, "node_modules")},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference harness exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    out = proc.stdout.strip()
    replies = [json.loads(x) for x in out.split("\n")] if out else []
    if len(replies) != len(reqs):
        raise RuntimeError(f"reference harness answered {len(replies)} of "
                           f"{len(reqs)} requests: {proc.stderr[-2000:]}")
    return replies


def raw_crash(ref: dict) -> bool:
    """The fork died in a raw JS TypeError with no JsonLdError code (e.g.
    ``iri.startsWith is not a function`` in compactIri on non-string
    ids): a known reference bug class, never an engine divergence."""
    err = str(ref.get("error", ""))
    return (not ref["ok"] and not ref.get("code")
            and ("is not a function" in err or "Cannot read" in err
                 or "of undefined" in err))


def ref_quads(quads: list[dict]) -> list[tuple]:
    """The harness's RDF/JS quads as the engine's term tuples."""
    def term(t: dict) -> tuple:
        if t["termType"] == "Literal":
            return ("Literal", t["value"], t["datatype"]["value"],
                    t.get("language") or None)
        return (t["termType"], t.get("value", ""))

    return [(term(q["subject"]), term(q["predicate"]), term(q["object"]),
             term(q["graph"])) for q in quads]


def classify(ref: dict, mine, compare, crash_skip: bool = True):
    """Judge one request. ``mine`` is the engine's result, or the
    ``JsonLdError`` it raised; ``compare(mine, ref_result)`` judges two
    results the same way. Returns None when the sides agree, else
    ``(DIV, kind)`` or ``(SKIP, class)``. A both-errored pair agrees
    when the codes match and is skipped as ``no-code`` when the
    reference gave none; ``crash_skip`` skips the raw-crash class."""
    if crash_skip and raw_crash(ref):
        return SKIP, "ref-raw-crash"
    if isinstance(mine, JsonLdError):
        if ref["ok"]:
            return DIV, "engine-error-ref-ok"
        if ref.get("code") and mine.code != ref["code"]:
            return DIV, "code"
        if not ref.get("code"):
            return SKIP, "no-code"
        return None
    if not ref["ok"]:
        return DIV, "engine-ok-ref-error"
    return compare(mine, ref["result"])
