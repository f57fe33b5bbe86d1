"""Differential fuzz of the engine against the reference (jsonld.js under
node, through tests/reference_oracle.py), one axis per run.

Usage: python tools/fuzz.py AXIS LO HI [CHUNK]

Sweeps seeds LO..HI-1 in chunks of CHUNK seeds (default 2000;
remotectx 1000), one node invocation per chunk. A seed names the same
documents in every run: they come from the seeded generators in
tests/test_fuzz_parity.py. Prints one ``DIV`` line per divergence
(axis op, kind, seed, engine code, reference code and error), a
cumulative line per chunk and a ``DONE`` line; exits 1 on any
divergence. Skips are counted per op, never compared:

  ref-raw-crash       the fork died in a raw JS TypeError with no code
  no-code             both sides errored, the reference without a code
  null-quad           the fork's null-term quad for a relative-IRI list
                      tail (unserializable there, dropped here)
  ref-stack-overflow  frame: the fork's compact recursed past the native
                      stack over a cyclic linked result (this engine stops)
  toRdf-error         fromrdf: the engine's toRdf raised, so there is no
                      quad set to decode

Campaign. One block per axis: the script it replaces, what it
compares, and its recorded runs (round 5, 2026-08-18/19; every range
had 0 divergences at the HEAD that fixed its findings). BASELINE.md
holds the full log.

expand_tordf   was fuzz_sweep.py
  compares     expand (JSON) and toRdf (canonized quads): 2 ops per doc
  ranges       18 fresh ranges over 50000..1102200; the last nine
               (332200..1052200, 720k docs / 1.44M ops) at round-5 HEADs
  volume       1,050,000 docs / 2.1M ops in the 18 ranges: 188 null-quad
               op skips, 0 raw-crash, 0 no-code; 2.74M docs / 5.48M ops
               cumulative
  findings     seed 864917 (range 16): the fork emits a duplicate value
               quad on its @type-container+@list path; canonicalization
               input is now a set (core/canonize.relabel_dataset)
compact        was fuzz_compact_sweep.py
  compares     compact under a generated context, compactArrays x graph
  ranges       2000000..2040000 (defaults: 40,000 docs, 35 raw-crash
               skips); 2040000..2081000 (option matrix: 41,000 docs)
  volume       391k docs cumulative
  findings     seed 10321550: container-map crash on mixed graph and
               non-graph items (core/compact.py)
expandopts     was fuzz_expandopts_sweep.py
  compares     expand under expandContext x base, inline or by URL
  ranges       3500500..3540500 (40,000 docs); 5000000..5044000 (44,000
               docs, with the URL legs)
  volume       184k docs cumulative
  findings     the key-presence base semantics, jsonld.js:319-321
               (api.py; tests/test_base_option_semantics.py)
flatten        was fuzz_flatten_sweep.py
  compares     flatten, with a context on odd seeds
  ranges       3000000..3060500 (60,500 docs)
  volume       280.5k docs cumulative
  findings     seeds 3001834, 3002138, 3003576, 3007668, 3011192,
               3015714: a visible "@id": "undefined" on bare-@list graph
               content (core/nodemap.py); seed 3031914: deep-equality
               dedup where compareValues uses === (core/util.py)
frame          was fuzz_frame_sweep.py
  compares     frame with a random @embed (incl. @link), decycled
  ranges       3200000..3260500 (60,500 docs)
  volume       340.5k docs cumulative
  findings     seed 3201777: cleanup_null on an index-map entry keyed
               "@id" (core/frame.py); seed 3200865 and 11 more: the
               compact re-entrancy guard acted as an identity cache
               (core/compact.py)
fromrdf        was fuzz_fromrdf_sweep.py
  compares     fromRdf of the engine's own quads
  ranges       3100000..3160500 (60,500 docs: 1,060 toRdf-error and 12
               null-quad skips)
  volume       316.5k docs cumulative
  findings     none
literal        was fuzz_literal_sweep.py
  compares     fromRdf of adversarial literal lexicals, through float64
  ranges       13000000..13100000 (100,000 quadsets)
  volume       250,000 quadsets / 1M literals cumulative
  findings     seed 13001043: the strict ES radix grammar; the fromRdf
               isNumeric two-leg gate and JCS bigint rounding came from
               the probes around it (tests/test_review_r5d.py)
merge          was fuzz_merge_sweep.py
  compares     merge of two docs against the crash-guarded mergeGuarded
  ranges       3300000..3330500 (31,500 pairs); 4000000..4011000 (11,000
               pairs, compact tail)
  volume       126.5k pairs cumulative
  findings     seed 3309338: Promise.all surfaces whichever doc's
               rejection wins, so a code that matches a doc's own
               reference code is accepted
mode10         was fuzz_mode10_sweep.py
  compares     expand under processingMode json-ld-1.0
  ranges       3400000..3420500 (20,500 docs, 0 skips)
  volume       110.5k docs cumulative
  findings     none
remotectx      was fuzz_remotectx_sweep.py
  compares     expand over per-seed remote context graphs
  ranges       none recorded
  volume       144k docs cumulative
  findings     caught the scoped-context cycle-set regression within one
               chunk; came with the @import merge order, falsy @protected
               and eager scoped-context fixes (tests/test_review_r5d.py)
urlbase        was fuzz_urlbase_sweep.py
  compares     compact/flatten/toRdf of URL input x the base option
  ranges       6000000..6044000 (44,000 docs: 30 raw-crash, 5 null-quad
               skips)
  volume       144k docs cumulative
  findings     none (built around the key-presence base fix)

tests/test_fuzz_driver.py pins each axis's request stream and rules
without node or the reference.
"""
from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
sys.path.insert(0, os.path.join(REPO, "tests"))

import reference_oracle as oracle  # noqa: E402
from reference_oracle import DIV, SKIP, classify  # noqa: E402
from test_frame_link_parity import _gen_frame, decycle  # noqa: E402
from test_fuzz_parity import _gen_context, _gen_doc  # noqa: E402

from jsonld_js_ray import api  # noqa: E402
from jsonld_js_ray.core import canonize as canonize_mod  # noqa: E402
from jsonld_js_ray.core.errors import JsonLdError  # noqa: E402

DOC_URL = "https://fuzz.test/dir/doc.jsonld"
OPT_BASE = "http://optbase.example/dir/doc"


def _copy(x):
    return json.loads(json.dumps(x))


# -- comparisons: (mine, ref result) -> None | (DIV, kind) | (SKIP, class)

def same_json(mine, ref_result):
    return None if _copy(mine) == ref_result else (DIV, "value")


def _f64(x):
    """Numeric leaves through float64: JS has one number type, and its
    shortest-repr JSON of a >2^53 double (e.g. 90071992547409940) reads
    back in Python as an exact int that != the engine's float64."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, list):
        return [_f64(v) for v in x]
    if isinstance(x, dict):
        return {k: _f64(v) for k, v in x.items()}
    return x


def same_f64(mine, ref_result):
    return None if _f64(_copy(mine)) == _f64(ref_result) else (DIV, "value")


def same_quads(mine, ref_result):
    if any(t is None for q in ref_result
           for t in (q["subject"], q["predicate"], q["object"], q["graph"])):
        return SKIP, "null-quad"
    if canonize_mod.canonize(mine) != \
            canonize_mod.canonize(oracle.ref_quads(ref_result)):
        return DIV, "quads"
    return None


@dataclass
class Leg:
    """One compared op: the reference request and the engine call."""
    label: str                     # the op a DIV line names
    req: dict
    engine: Callable[[], object]   # may raise JsonLdError
    compare: Callable = same_json


# -- per-seed legs: seed -> [Leg], or the class of a pre-request skip

def _expand_tordf(s):
    doc = _gen_doc(s)
    return [Leg("expand", {"op": "expand", "input": doc},
                lambda: api.expand(_copy(doc))),
            Leg("tordf", {"op": "toRdf", "input": doc},
                lambda: api.to_rdf(_copy(doc)), same_quads)]


def _compact(s):
    doc, ctx = _gen_doc(s), _gen_context(random.Random(s * 31 + 7))
    # singleton-preserving and @graph-wrapping legs
    opts = {"compactArrays": s % 3 != 0, "graph": s % 5 == 0}
    return [Leg("compact", {"op": "compact", "input": doc, "ctx": ctx,
                            "options": opts},
                lambda: api.compact(_copy(doc), _copy(ctx), dict(opts)))]


def _expandopts(s):
    """seed % 8: 0 expandContext, 1 base, 2 both, 3 base '';
    4-7 URL input through the loader with base absent / null / '' /
    set (jsonld.js checks `'base' in options`, not truthiness)."""
    which, doc = s % 8, _gen_doc(s)
    opts: dict = {}
    if which in (0, 2):
        opts["expandContext"] = _gen_context(random.Random(s * 43 + 17))
    if which in (1, 2, 7):
        opts["base"] = OPT_BASE
    if which in (3, 6):
        opts["base"] = ""
    if which == 5:
        opts["base"] = None
    url = which >= 4
    req = {"op": "expand", "input": DOC_URL if url else doc,
           "options": opts, **({"documents": {DOC_URL: doc}} if url else {})}

    def engine():
        eng_opts = _copy(opts)
        if url:
            eng_opts["documents"] = {DOC_URL: _copy(doc)}
            return api.expand(DOC_URL, eng_opts)
        return api.expand(_copy(doc), eng_opts)
    return [Leg("expandopts", req, engine)]


def _flatten(s):
    doc = _gen_doc(s)
    # odd seeds compact the flattened graph; even seeds stay context-free
    ctx = _gen_context(random.Random(s * 37 + 11)) if s % 2 else None
    return [Leg("flatten", {"op": "flatten", "input": doc, "ctx": ctx},
                lambda: api.flatten(_copy(doc), _copy(ctx)))]


def _frame(s):
    doc, frame = _gen_doc(s), _gen_frame(s * 41 + 13)
    # @link output is cyclic: both sides apply the same decycle
    return [Leg("frame", {"op": "frameDecycled", "input": doc,
                          "frame": frame},
                lambda: decycle(api.frame(_copy(doc), _copy(frame)),
                                set()))]


def _fromrdf(s):
    """The engine's own quads for the doc (toRdf parity is the
    expand_tordf axis) through both decoders; useNativeTypes on odd
    seeds, useRdfType when seed % 4 >= 2."""
    try:
        quads = api.to_rdf(_gen_doc(s))
    except JsonLdError:
        return "toRdf-error"
    if any(t is None for q in quads for t in q):
        return "null-quad"
    opts = {"useNativeTypes": s % 2 == 1, "useRdfType": s % 4 >= 2}
    return [Leg("fromrdf", {"op": "fromRdf",
                            "input": [[list(t) for t in q] for q in quads],
                            "options": opts},
                lambda: api.from_rdf(quads, dict(opts)))]


XSD = "http://www.w3.org/2001/XMLSchema#"
I18N = "https://www.w3.org/ns/i18n#"
DTYPES = [XSD + "integer", XSD + "double", XSD + "boolean",
          XSD + "string", XSD + "decimal",
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#JSON",
          I18N + "en_ltr", I18N + "_rtl", "http://ex.test/custom"]
PIECES = ["0", "1", "5", "9007199254740993", "007", "-0", "+", "-",
          ".", "e", "E", "x", "b", "o", "10", "3.14", "1e3", "1e310",
          "Infinity", "NaN", "true", "false", " ", "abc", "_", "A",
          "\t", "0x", "2f"]


def _literal(s):
    """4 quads of often non-canonical lexicals (the serializer never
    emits them) over a drawn datatype; rdf:JSON gets valid JSON only.
    Options cycle useNativeTypes x useRdfType x rdfDirection."""
    rng = random.Random(s * 77 + 5)
    quads = []
    for k in range(4):
        dt = rng.choice(DTYPES)
        if dt.endswith("JSON"):
            lex = json.dumps(rng.choice(
                [1, [True, None], {"a": rng.random()}, "s"]))
        else:
            lex = "".join(rng.choice(PIECES)
                          for _ in range(rng.randint(1, 5)))
        quads.append((("NamedNode", f"http://e/s{k % 2}"),
                      ("NamedNode", f"http://e/p{k}"),
                      ("Literal", lex, dt, None),
                      ("DefaultGraph", "")))
    opts = {"useNativeTypes": bool(s & 1), "useRdfType": bool(s & 2),
            **({"rdfDirection": "i18n-datatype"} if s % 3 == 0 else {})}
    return [Leg("literal", {"op": "fromRdf",
                            "input": [[list(t) for t in q] for q in quads],
                            "options": opts},
                lambda: api.from_rdf(quads, dict(opts)), same_f64)]


def _merge(s):
    """Two docs; odd seeds pass mergeNodes=False, seed % 4 >= 2 a
    compaction context (merge's compact tail)."""
    a, b = _gen_doc(s), _gen_doc(s * 29 + 101)
    ctx = _gen_context(random.Random(s * 53 + 29)) if s % 4 >= 2 else None
    opts = {"mergeNodes": False} if s % 2 else {}
    return [Leg("merge", {"op": "mergeGuarded", "input": [a, b],
                          "ctx": ctx, "options": opts},
                lambda: api.merge([_copy(a), _copy(b)], _copy(ctx),
                                  dict(opts)))]


MODE10 = {"processingMode": "json-ld-1.0"}


def _mode10(s):
    doc = _gen_doc(s)
    return [Leg("mode10", {"op": "expand", "input": doc,
                           "options": dict(MODE10)},
                lambda: api.expand(_copy(doc), dict(MODE10)))]


def _remotectx(s):
    """seed % 5: 0 a context chain (doc -> ctxB = [ctxA-url, inline]),
    1 @import plus local overrides, 2 a term-scoped remote context,
    3 an array of two remote contexts, 4 the doc itself by URL. URLs
    and context contents are salted per seed: the fork's shared
    content-keyed _resolvedContextCache is mutated on the @import path,
    so colliding seeds would poison each other in one harness process."""
    rng = random.Random(s * 53 + 11)
    u = f"https://ctx{s}.test/"
    ctx_a, ctx_b = _gen_context(rng), _gen_context(rng)
    for c in (ctx_a, ctx_b):
        if isinstance(c, dict):
            c[f"uniq{s}"] = f"http://uniq.test/{s}"
    doc = _gen_doc(s)
    if isinstance(doc, dict):
        doc.pop("@context", None)
    body = doc if isinstance(doc, dict) else {"http://e/p": doc}
    shape = s % 5
    docs = {u + "a": {"@context": ctx_a}}
    if shape == 0:
        docs[u + "b"] = {"@context": [u + "a", ctx_b]}
        input_ = {"@context": u + "b", **body}
    elif shape == 1:
        if not isinstance(ctx_a, dict):
            ctx_a = {"t": "http://e/t"}
            docs[u + "a"] = {"@context": ctx_a}
        imp = {"@import": u + "a"}
        if isinstance(ctx_b, dict):
            imp.update({k: v for k, v in ctx_b.items()
                        if not k.startswith("@")})
        docs[u + "c"] = {"@context": imp}
        input_ = {"@context": u + "c", **body}
    elif shape == 2:
        input_ = {"@context": {"s": {"@id": "http://e/s",
                                     "@context": u + "a"}},
                  "s": doc if isinstance(doc, dict) else {"x": doc}}
    elif shape == 3:
        docs[u + "b"] = {"@context": ctx_b}
        input_ = {"@context": [u + "a", u + "b"], **body}
    else:
        docs[u + "doc"] = {"@context": u + "a", **body}
        input_ = u + "doc"
    return [Leg("remotectx", {"op": "expand", "input": input_,
                              "documents": docs, "options": {}},
                lambda: api.expand(_copy(input_),
                                   {"documents": _copy(docs)}))]


URL_OPS = ("compact", "flatten", "toRdf")


def _urlbase(s):
    """URL input through the loader. op = seed % 3; base leg =
    (seed // 3) % 4: absent (the input URL is the default base), null,
    '', a caller base. An explicit null/'' keeps IRIs relative."""
    op, leg = URL_OPS[s % 3], (s // 3) % 4
    doc, ctx = _gen_doc(s), _gen_context(random.Random(s * 31 + 7))
    opts = [{}, {"base": None}, {"base": ""}, {"base": OPT_BASE}][leg]
    req = {"op": op, "input": DOC_URL, "options": opts,
           "documents": {DOC_URL: doc}}
    if op != "toRdf":
        req["ctx"] = ctx

    def engine():
        eng_opts = {**opts, "documents": {DOC_URL: _copy(doc)}}
        if op == "compact":
            return api.compact(DOC_URL, _copy(ctx), eng_opts)
        if op == "flatten":
            return api.flatten(DOC_URL, _copy(ctx), eng_opts)
        return api.to_rdf(DOC_URL, eng_opts)
    return [Leg(op, req, engine,
                same_quads if op == "toRdf" else same_json)]


# -- judging one leg against its reply: -> (outcome, engine outcome)

def judge(leg, ref, crash_skip):
    try:
        mine = leg.engine()
        return classify(ref, mine, leg.compare, crash_skip), mine
    except JsonLdError as e:     # raised by the engine or its canonize
        return classify(ref, e, leg.compare, crash_skip), e


def _judge_frame(leg, ref, crash_skip):
    if not ref["ok"] and "call stack" in str(ref.get("error", "")):
        return (SKIP, "ref-stack-overflow"), None
    try:
        return judge(leg, ref, crash_skip)
    except RecursionError as e:  # a one-sided depth blowup is a diff
        return ((DIV, "engine-recursion-ref-ok") if ref["ok"] else None), e


def _judge_merge(leg, ref, crash_skip):
    """The reference expands merge's docs under Promise.all, so with
    several invalid docs it surfaces whichever rejection wins the
    microtask race; this engine expands in order. A code mismatch is a
    divergence only if no single doc's reference expand has that code."""
    out, mine = judge(leg, ref, crash_skip)
    if out == (DIV, "code"):
        try:
            replies = oracle.run([{"op": "expand", "input": d}
                                  for d in leg.req["input"]])
        except RuntimeError:     # a failed lookup excuses nothing
            replies = []
        if mine.code in {r.get("code") for r in replies
                         if not r["ok"] and r.get("code")}:
            out = None
    return out, mine


@dataclass
class Axis:
    build: Callable[[int], "list[Leg] | str"]
    skips: tuple                   # skip classes reported, in order
    unit: str = "docs"
    chunk: int = 2000
    crash_skip: bool = True        # raw reference crashes are skips
    judge: Callable = judge


RAW = ("ref-raw-crash", "no-code")
AXES = {
    "expand_tordf": Axis(_expand_tordf, ("null-quad",) + RAW),
    "compact": Axis(_compact, RAW),
    "expandopts": Axis(_expandopts, RAW),
    "flatten": Axis(_flatten, RAW),
    "frame": Axis(_frame, ("ref-stack-overflow",) + RAW,
                  judge=_judge_frame),
    "fromrdf": Axis(_fromrdf, ("toRdf-error", "null-quad", "no-code"),
                    crash_skip=False),
    "literal": Axis(_literal, ("no-code",), unit="quadsets",
                    crash_skip=False),
    "merge": Axis(_merge, RAW, unit="pairs", judge=_judge_merge),
    "mode10": Axis(_mode10, RAW),
    "remotectx": Axis(_remotectx, RAW, chunk=1000),
    "urlbase": Axis(_urlbase, ("null-quad",) + RAW),
}


def sweep(name, lo, hi, chunk=None) -> dict:
    """Run one axis over seeds lo..hi-1; returns the final counts."""
    axis = AXES[name]
    chunk = chunk or axis.chunk
    n = ops = n_div = 0
    skips = dict.fromkeys(axis.skips, 0)

    def summary():
        compared = ops - sum(skips.values())
        return (f"{n} {axis.unit} ({ops} ops, {compared} compared), "
                f"{n_div} divergences, "
                + " / ".join(f"{v} {k}" for k, v in skips.items())
                + " skips")

    for base in range(lo, hi, chunk):
        seeds = range(base, min(base + chunk, hi))
        cases = []
        for s in seeds:
            n += 1
            legs = axis.build(s)
            if isinstance(legs, str):
                ops += 1
                skips[legs] += 1
            else:
                cases += [(s, leg) for leg in legs]
        replies = oracle.run([leg.req for _s, leg in cases],
                             timeout=max(600, int(2.4 * chunk)))
        for (s, leg), ref in zip(cases, replies):
            ops += 1
            outcome, mine = axis.judge(leg, ref, axis.crash_skip)
            if outcome is None:
                continue
            kind, what = outcome
            if kind == SKIP:
                skips[what] += 1
            else:
                n_div += 1
                print(f"DIV {leg.label} {what} {s} "
                      f"{getattr(mine, 'code', '-')} {ref.get('code', '-')} "
                      f"{str(ref.get('error', ''))[:120]}")
        print(f"chunk {base}..{seeds[-1]}: cumulative {summary()}",
              flush=True)
    print(f"DONE {summary()}")
    return {"docs": n, "ops": ops, "divergences": n_div, **skips}


def main(argv) -> int:
    if len(argv) not in (3, 4) or argv[0] not in AXES:
        print(f"usage: python tools/fuzz.py {{{','.join(AXES)}}} "
              f"LO HI [CHUNK]", file=sys.stderr)
        return 2
    counts = sweep(argv[0], int(argv[1]), int(argv[2]),
                   int(argv[3]) if len(argv) > 3 else None)
    return 1 if counts["divergences"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
