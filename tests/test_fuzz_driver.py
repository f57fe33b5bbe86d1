"""tools/fuzz.py and tests/reference_oracle.py without node or the
reference.

The request stream of every axis is pinned by digest: seeds 1000..1019
against a stand-in oracle that answers each request line from
sha256(line) % 5 (a raw crash, a coded error, an uncoded error, or ok
with [] for toRdf and a dict otherwise). The digests were taken from
the per-axis sweep scripts tools/fuzz.py replaced, run under a fake
``node`` giving the same answers; merge's stream includes its per-doc
expand requests, so it also pins when that second call is made. Then
each reply shape is judged by its axis's rules, and ``run`` is held to
one reply per request.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from jsonld_js_ray.core.errors import JsonLdError

import reference_oracle
from reference_oracle import DIV, SKIP

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import fuzz  # noqa: E402

DIGESTS = {
    "expand_tordf":
        "d7ade9feab48b365d8f4e89ca77748c636350b587c1d117b86e1ed6e16176c41",
    "compact":
        "6c14773afa5c22ce322a377ee267e94043262e18d2277dcce0ffbda43316e87e",
    "expandopts":
        "30ef3b138e9506abeba6627cf409d10ff687cd5151e92075ec5b04e6405ce7f1",
    "flatten":
        "418eb916729c86e039905e7b2e4f0334a057449b032ca4752781cd9573979d4c",
    "frame":
        "5b7b97a192cae6ad757c5ad94d662dd5ec440c59413b30af8f79f0237e53bebd",
    "fromrdf":
        "d2e0d6af401653e46010d608eafdc2ea94376e5375b0d4286d1d9957bda028bd",
    "literal":
        "5fe51b16da42ccd0fd75501062c32ec08a517a979800f7b867920e724c63771f",
    "merge":
        "18437bf9ee26a8d791983b30fa107333e494e3db6b60cea652b1b2a8357da5fb",
    "mode10":
        "1468bae1853d6306ce0b0481a2bd03b0915be1e2678f535249eaef629a1da984",
    "remotectx":
        "22575a150ff7461e84c8abdefdcfb2ba727dce670e83491f35c0b87935713c01",
    "urlbase":
        "519b1e01728f935ed78b0fabedfcd984939204170dd8a2cf30723fe7489b3c15",
}

RAW = {"ok": False, "error": "TypeError: iri.startsWith is not a function"}
CODED = {"ok": False, "error": "jsonld.SyntaxError: fake",
         "code": "invalid reverse property value"}
UNCODED = {"ok": False, "error": "Error: fake uncoded failure"}
STACK = {"ok": False,
         "error": "RangeError: Maximum call stack size exceeded"}


def fake_reply(line: str) -> dict:
    h = int(hashlib.sha256(line.encode()).hexdigest(), 16) % 5
    if h < 3:
        return [RAW, CODED, UNCODED][h]
    return {"ok": True, "result": [] if json.loads(line)["op"] == "toRdf"
            else {"@id": "fake"}}


@pytest.fixture
def sent(monkeypatch):
    """Stub ``run`` with the stand-in oracle; collects the request lines."""
    lines = []

    def run(reqs, timeout=600):
        batch = [json.dumps(r) for r in reqs]
        lines.extend(batch)
        return [fake_reply(x) for x in batch]
    monkeypatch.setattr(reference_oracle, "run", run)
    return lines


def test_every_axis_is_pinned():
    assert set(DIGESTS) == set(fuzz.AXES)


@pytest.mark.parametrize("axis", sorted(DIGESTS))
def test_request_stream_matches_the_replaced_script(axis, sent):
    fuzz.sweep(axis, 1000, 1020, 100)
    digest = hashlib.sha256(
        "".join(x + "\n" for x in sent).encode()).hexdigest()
    assert digest == DIGESTS[axis]


def _leg(axis, seed, engine):
    leg = fuzz.AXES[axis].build(seed)[-1]
    leg.engine = engine
    return leg


def _judge(axis, reply, engine, seed=1000):
    ax = fuzz.AXES[axis]
    return ax.judge(_leg(axis, seed, engine), reply, ax.crash_skip)[0]


def _ok(value):
    return lambda: value


def _err(code):
    def engine():
        raise JsonLdError("engine error", code=code)
    return engine


SAME = {"@id": "x"}
C, D = CODED["code"], "invalid value object"


@pytest.mark.parametrize("axis", ["compact", "expandopts", "flatten",
                                  "frame", "merge", "mode10", "remotectx"])
def test_shared_rules(axis, monkeypatch):
    # merge's per-doc expand finds no matching code: no excuse
    monkeypatch.setattr(reference_oracle, "run",
                        lambda reqs, timeout=600: [{"ok": True}] * len(reqs))
    ok = {"ok": True, "result": SAME}
    assert _judge(axis, ok, _ok(SAME)) is None
    assert _judge(axis, ok, _ok({"@id": "y"})) == (DIV, "value")
    assert _judge(axis, RAW, _ok(SAME)) == (SKIP, "ref-raw-crash")
    assert _judge(axis, RAW, _err(C)) == (SKIP, "ref-raw-crash")
    assert _judge(axis, CODED, _ok(SAME)) == (DIV, "engine-ok-ref-error")
    assert _judge(axis, UNCODED, _ok(SAME)) == (DIV, "engine-ok-ref-error")
    assert _judge(axis, ok, _err(C)) == (DIV, "engine-error-ref-ok")
    assert _judge(axis, CODED, _err(C)) is None
    assert _judge(axis, CODED, _err(D)) == (DIV, "code")
    assert _judge(axis, UNCODED, _err(C)) == (SKIP, "no-code")


@pytest.mark.parametrize("axis", ["literal", "fromrdf"])
def test_no_raw_crash_skip(axis):
    # seed 1001's toRdf succeeds, so fromrdf builds a leg for it
    assert _judge(axis, RAW, _ok([]), 1001) == (DIV, "engine-ok-ref-error")
    assert _judge(axis, RAW, _err(C), 1001) == (SKIP, "no-code")
    assert _judge(axis, UNCODED, _err(C), 1001) == (SKIP, "no-code")


def test_literal_compares_through_float64():
    ref = {"ok": True, "result": [{"@id": "s", "p": [{"@value": 1000}]}]}
    assert _judge("literal", ref,
                  _ok([{"@id": "s", "p": [{"@value": 1000.0}]}])) is None


def test_fromrdf_skips_before_the_request(sent):
    # seed 1006's doc makes the engine's toRdf raise: no request for it
    assert fuzz.AXES["fromrdf"].build(1006) == "toRdf-error"
    counts = fuzz.sweep("fromrdf", 1005, 1008, 100)
    assert len(sent) == 2
    assert counts["ops"] == 3 and counts["toRdf-error"] == 1


QUAD = {"termType": "NamedNode", "value": "http://e/s"}
DG = {"termType": "DefaultGraph", "value": ""}


@pytest.mark.parametrize("axis,seed", [("expand_tordf", 1000),
                                       ("urlbase", 1001)])  # a toRdf leg
def test_quad_rules(axis, seed):
    null_quad = {"ok": True, "result": [
        {"subject": QUAD, "predicate": QUAD, "object": None, "graph": DG}]}
    assert _judge(axis, null_quad, _ok([]), seed) == (SKIP, "null-quad")
    assert _judge(axis, {"ok": True, "result": []}, _ok([]), seed) is None
    quad = (("NamedNode", "http://e/s"),) * 3 + (("DefaultGraph", ""),)
    assert _judge(axis, {"ok": True, "result": []}, _ok([quad]),
                  seed) == (DIV, "quads")


def test_frame_rules():
    def never():
        raise AssertionError("the engine must not run")

    def deep():
        raise RecursionError
    assert _judge("frame", STACK, never) == (SKIP, "ref-stack-overflow")
    assert _judge("frame", {"ok": True, "result": SAME}, deep) == \
        (DIV, "engine-recursion-ref-ok")
    assert _judge("frame", RAW, deep) is None
    assert _judge("frame", CODED, deep) is None


def test_merge_excuses_a_per_doc_code(monkeypatch):
    calls = []

    def run(reqs, timeout=600):
        calls.append([r["op"] for r in reqs])
        return [{"ok": True}, {"ok": False, "error": "e", "code": D}]
    monkeypatch.setattr(reference_oracle, "run", run)
    assert _judge("merge", CODED, _err(D)) is None
    assert calls == [["expand", "expand"]]
    assert _judge("merge", CODED, _err("other code")) == (DIV, "code")


def test_skips_are_counted_per_op(monkeypatch):
    monkeypatch.setattr(reference_oracle, "run",
                        lambda reqs, timeout=600: [RAW] * len(reqs))
    counts = fuzz.sweep("expand_tordf", 1000, 1010, 4)
    assert counts == {"docs": 10, "ops": 20, "divergences": 0,
                      "null-quad": 0, "ref-raw-crash": 20, "no-code": 0}


def _stub_node(tmp_path, monkeypatch, body):
    node = tmp_path / "node"
    node.write_text(f"#!{sys.executable}\nimport sys\n"
                    "lines = sys.stdin.read().split('\\n')\n" + body)
    node.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}"
                               f"{os.environ['PATH']}")


def test_run_raises_when_a_reply_is_missing(tmp_path, monkeypatch):
    _stub_node(tmp_path, monkeypatch,
               "sys.stderr.write('stub lost a reply')\n"
               "print('\\n'.join('{\"ok\": true, \"result\": 1}'"
               " for _ in lines[:-1]))\n")
    reqs = [{"op": "expand", "input": {}}, {"op": "expand", "input": []}]
    with pytest.raises(RuntimeError, match="answered 1 of 2.*stub lost"):
        reference_oracle.run(reqs)


def test_run_raises_with_stderr_on_a_failed_node(tmp_path, monkeypatch):
    _stub_node(tmp_path, monkeypatch,
               "sys.stderr.write('Cannot find module')\nsys.exit(1)\n")
    with pytest.raises(RuntimeError, match="exited 1.*Cannot find module"):
        reference_oracle.run([{"op": "expand", "input": {}}])


def test_run_returns_one_reply_per_request(tmp_path, monkeypatch):
    _stub_node(tmp_path, monkeypatch,
               "print('\\n'.join('{\"ok\": true, \"result\": %d}' % i"
               " for i, _ in enumerate(lines)))\n")
    reqs = [{"op": "expand", "input": i} for i in range(3)]
    assert [r["result"] for r in reference_oracle.run(reqs)] == [0, 1, 2]
    assert reference_oracle.run([]) == []
