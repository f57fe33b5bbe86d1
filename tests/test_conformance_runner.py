"""Round-4 task 2: the W3C conformance-manifest runner.

The reference's conformance mechanism is a manifest walker
(tests/test-common.js:324-389 + the TEST_TYPES dispatch at 28-255);
jsonld_js_ray.conformance reimplements it. Three layers here:

1. the reference's own bundled manifest (/root/reference/tests/
   manifest.jsonld) must pass — its remote-context tests run over the
   OfflineLoader mount exactly as the reference runs them over its
   local express server (tests/remote-context-server.js); the one
   live-network test (t0006 follows a w3id.org redirect to the real
   internet) is skipped with a recorded reason.
2. a committed fixture suite IN THE OFFICIAL MANIFEST FORMAT exercises
   every dispatch type (expand/compact/flatten/frame/toRdf/fromRdf/
   normalize, negative error codes, option handling, mounted remote
   contexts, specVersion skip classes).
3. when the official W3C checkouts are present (no network in this
   sandbox, so this is gated on $GRAFT_W3C_SUITES_DIR), the same
   runner walks json-ld-api / json-ld-framing / rdf-canon and reports
   per-suite pass/skip counts. Divergences are triaged in BASELINE.md.
"""

from __future__ import annotations

import json
import os

import pytest

from jsonld_js_ray.conformance import run_manifest
from reference_oracle import AVAILABLE, SKIP_REASON

REF_TESTS = "/root/reference/tests"


@pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)
def test_reference_bundled_manifest():
    rep = run_manifest(
        f"{REF_TESTS}/manifest.jsonld",
        extra_mounts={"http://localhost:8000/": f"{REF_TESTS}/contexts/"},
        skip_ids=[r"manifest#t0006$"],   # live w3id.org redirect
    )
    assert rep["fail"] == 0, rep["failures"]
    assert rep["pass"] == 7
    assert rep["skip"] == 1


def test_w3c_shaped_fixture_suite():
    here = os.path.join(os.path.dirname(__file__), "w3c_shaped")
    rep = run_manifest(
        os.path.join(here, "manifest.jsonld"),
        extra_mounts={"https://mounted.test/":
                      os.path.join(here, "mounted") + os.sep})
    assert rep["fail"] == 0, rep["failures"]
    # 22 evaluated (incl. three negative error codes, one
    # mounted-remote context, expandContext + rdfDirection +
    # processingMode options, @included, both @propagate polarities,
    # an @json/JCS literal, both rdfn: canonization types, one
    # no-checks PositiveSyntaxTest, and one entry inside an INLINE
    # sub-manifest), 1 skipped by the 1.0-errata class. Every
    # round-5 fixture's expected output was cross-checked against
    # the reference implementation before being pinned.
    # ...plus the second round-5 wave: compact @reverse / @index and
    # @language containers / @nest, frame @requireAll, fromRdf
    # rdfDirection + useNativeTypes options, flatten-with-context —
    # also reference-cross-checked before pinning. 30 evaluated.
    # ...plus the third wave (round-5 second sitting): expand @nest,
    # @import via the mounted loader (+ its negative code), nested
    # @list toRdf, fromRdf useRdfType, compact compactArrays=false,
    # frame @default/@null, and the default bnode-predicate drop —
    # every expected output generated from the reference via
    # ref_run.js before pinning. 38 evaluated.
    # ...plus the fourth wave (round-5 third sitting): context
    # @direction default/override/null-reset, @container @graph
    # (expand + compact sides), @protected redefinition (negative),
    # keyword aliases in compacted output, @direction dropped by
    # default-mode toRdf, frame @explicit, and fromRdf @list
    # reassembly — all reference-cross-checked before pinning.
    # 46 evaluated.
    # ...plus the fifth wave: @container @type / @id maps, top-level
    # @reverse, @type @vocab-vs-@id coercion, @base null, list of
    # lists compaction, frame @omitDefault, and fromRdf rdf:JSON —
    # all reference-cross-checked before pinning. 54 evaluated.
    # ...plus the sixth wave: @language / @index containers (expand
    # side), property- and type-scoped contexts, colliding-keywords
    # negative, blank-node graph names in BOTH RDF directions, and
    # flatten blank-node relabeling — all reference-cross-checked
    # before pinning. 62 evaluated.
    # ...plus the seventh wave: JSON number/boolean canonical forms,
    # fromRdf useNativeTypes on xsd:double (+NaN kept stringly),
    # CURIE expansion through prefix terms, free-floating/null
    # drops, cyclic-IRI-mapping negative, term-over-CURIE-over-IRI
    # selection, a multi-bnode URDNA2015 row (engine-pinned,
    # determinism-checked), and frame @embed @never — the
    # reference-comparable rows cross-checked before pinning.
    # 70 evaluated.
    # ...plus the eighth wave: @type+@language value-object negative,
    # list-of-lists expansion, @reverse-term / language-map / type-
    # coercion compaction, toRdf under an explicit base null (relative
    # IRIs stay relative and drop — the fix that keyed the
    # key-presence base semantics in api.py), a doubly-referenced
    # rdf list that must NOT collapse to @list, and frame @explicit —
    # all eight reference-cross-checked before pinning. 78 evaluated.
    # ...plus the ninth wave: [@graph,@index] container expansion AND
    # compaction, @version-1.1-under-1.0 processing mode conflict,
    # invalid context @direction negative, empty-@vocab-resolves-
    # against-@base, native number/boolean canonical RDF literals
    # (incl. JS -0.0 -> "0"^^xsd:integer), a non-nil-terminated rdf
    # list staying plain properties, and frame @embed @always — all
    # reference-cross-checked before pinning. 86 evaluated.
    # ...plus the tenth wave: legacy @embed true/false aliases
    # (@once/@never), unknown-@embed negative, keyword-redefinition /
    # @prefix-boolean / empty-term negatives, and the fork's
    # tolerated non-boolean @protected — all reference-cross-checked
    # before pinning. 93 evaluated.
    # ...plus the eleventh wave: @value-beside-@id / numeric-@type /
    # @list+@set-container negatives, bare-@index passthrough, @set
    # container flattening, graph-object @index without a container,
    # and the omitGraph option in both polarities — all
    # reference-cross-checked before pinning. 101 evaluated.
    # ...plus the twelfth wave: non-string @language / default-
    # language / @id-mapping negatives, @reverse-term plain-value
    # negative, term-level @type-over-@language coercion, bare nested
    # @list, and [@graph,@set] container — all reference-cross-
    # checked before pinning (the produceGeneralizedRdf case lives in
    # tests/test_base_option_semantics.py: generalized RDF is not
    # N-Quads-serializable, so the manifest compare can't host it).
    # 108 evaluated.
    # ...plus the thirteenth wave: @included-value negative,
    # property-based @index container, term-scoped @context null,
    # null mid-chain context reset, term-level @language+@direction,
    # @graph keyword alias compaction, and language+direction value
    # compaction — all reference-cross-checked before pinning.
    # 115 evaluated.
    # ...plus the fourteenth wave: array-@id negative, language-tag
    # lowercasing (expand + toRdf), @json raw-value retention,
    # keyword-like property drop, frame @reverse, wildcard-property
    # null filler, and @index-preserving value compaction — all
    # reference-cross-checked before pinning. 123 evaluated.
    # ...plus the fifteenth wave: @propagate-boolean negative, named-
    # graph quads under an IRI @id, relative-predicate quad drop,
    # [@language,@set] container, @none in language maps (expand AND
    # compact), @none in index maps, and [@graph,@id] container — all
    # reference-cross-checked before pinning. 131 evaluated.
    # ...plus the sixteenth wave: @nest-value negative, @nest-to-non-
    # nest fork tolerance, @nest compaction hoisting, @graph alias
    # term, @type-@id CURIE coercion, relative @vocab chaining,
    # uppercase keyword-like drop, and longest-CURIE-prefix selection
    # — all reference-cross-checked before pinning. 139 evaluated.
    # ...plus the seventeenth wave: @type alias with @container @set
    # (expand + compact), singleton-@type string compaction, numeric-
    # looking index keys, @index on @list objects, rdf:first/rest/nil
    # list serialization, null-@value node drop, and the fork's
    # empty-array property retention — all verified by the batched
    # crosscheck (test_fixture_corpus_matches_reference) against the
    # reference before pinning. 147 evaluated.
    # ...plus the eighteenth wave: empty-string @id resolving to
    # @base, relative-@base chaining, vocab-equal IRI keeping its
    # absolute form, lone top-level @graph unwrap, term @language
    # null over default language, @reverse+@set container, @json JCS
    # float canonicalization (0.1, 1e+30), and a blank node naming
    # its own graph — all verified by the batched reference
    # crosscheck before pinning. 155 evaluated.
    # ...plus the nineteenth wave: useNativeTypes float64 gate (the
    # probe that found the big-integer parity bug fixed in
    # core/from_rdf.py), canonical xsd:double of an integral native,
    # @none in @id maps, rdf:type aggregation, nested frame
    # constraint, graph-container @index drop, @reverse+@index map,
    # and an @included alias — all verified by the batched reference
    # crosscheck before pinning. 163 evaluated.
    # ...plus the twentieth wave: first-element-only @propagate (both
    # polarities), null-after-protected nullification negative, falsy
    # @protected cyclic negative, beyond-root dot-segment clamping,
    # and query-only reference resolution — all verified by the
    # batched reference crosscheck before pinning. 169 evaluated.
    assert rep["pass"] == 169
    assert rep["skip"] == 1
    assert any("specVersion json-ld-1.0" in r for _, r in rep["skips"])
    assert "inline sub-manifest" in rep["suites"]


def test_malformed_entries_reported_not_fatal(tmp_path):
    """A missing fixture file, a missing input key and an unreadable
    sub-manifest are RECORDED (fail/skip with reason) — the walk must
    never abort and lose the rest of the report."""
    import json

    (tmp_path / "manifest.jsonld").write_text(json.dumps({
        "@type": "mf:Manifest", "name": "broken bits",
        "baseIri": "https://broken.test/",
        "sequence": [
            "missing-sub-manifest.jsonld",
            {"@id": "#t1", "@type": ["jld:PositiveEvaluationTest",
                                     "jld:ExpandTest"],
             "name": "no input key"},
            {"@id": "#t2", "@type": ["jld:PositiveEvaluationTest",
                                     "jld:ExpandTest"],
             "input": "does-not-exist.jsonld",
             "expect": "also-missing.jsonld"},
            {"@id": "#t3", "@type": ["jld:PositiveEvaluationTest",
                                     "jld:ExpandTest"],
             "input": "ok-in.jsonld", "expect": "ok-out.jsonld"},
        ]}))
    (tmp_path / "ok-in.jsonld").write_text(
        '{"@context": {"t": "http://x/t"}, "t": "v"}')
    (tmp_path / "ok-out.jsonld").write_text(
        '[{"http://x/t": [{"@value": "v"}]}]')
    rep = run_manifest(str(tmp_path / "manifest.jsonld"))
    assert rep["pass"] == 1           # the healthy test still ran
    assert rep["fail"] == 2           # no-input + missing files
    assert rep["skip"] == 1           # unreadable sub-manifest


# a JSON-array-root manifest or entry is recorded as a skip, never an
# AttributeError abort

def test_conformance_array_root_entry_recorded_not_fatal(tmp_path):
    from jsonld_js_ray.conformance import run_manifest

    (tmp_path / "arr.jsonld").write_text(json.dumps([1, 2, 3]))
    man = {
        "@context": {},
        "name": "array-root fixture",
        "sequence": ["arr.jsonld"],
    }
    (tmp_path / "manifest.jsonld").write_text(json.dumps(man))
    report = run_manifest(str(tmp_path / "manifest.jsonld"))
    assert report["fail"] == 0
    assert report["skip"] == 1
    assert any("not a JSON object" in reason
               for _, reason in report["skips"])


def test_conformance_array_root_manifest_recorded_not_fatal(tmp_path):
    from jsonld_js_ray.conformance import run_manifest

    (tmp_path / "manifest.jsonld").write_text(json.dumps(["x"]))
    report = run_manifest(str(tmp_path / "manifest.jsonld"))
    assert report["fail"] == 0
    assert report["skip"] == 1


OFFICIAL = os.environ.get("GRAFT_W3C_SUITES_DIR")


@pytest.mark.skipif(
    not OFFICIAL, reason="official W3C suite checkouts not present "
    "(no network in this sandbox); set GRAFT_W3C_SUITES_DIR to run")
@pytest.mark.parametrize("suite,manifest", [
    ("json-ld-api", "tests/manifest.jsonld"),
    ("json-ld-framing", "tests/frame-manifest.jsonld"),
    ("rdf-canon", "tests/manifest-urdna2015.jsonld"),
])
def test_official_suites(suite, manifest):
    path = os.path.join(OFFICIAL, suite, manifest)
    if not os.path.exists(path):
        pytest.skip(f"{path} not present")
    rep = run_manifest(path)
    total = rep["pass"] + rep["fail"] + rep["skip"]
    print(f"{suite}: {rep['pass']}/{total} pass, {rep['skip']} skip")
    assert rep["fail"] == 0, rep["failures"][:10]


@pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)
def test_fixture_corpus_matches_reference():
    """Mechanical proof of the corpus's 'reference-cross-checked'
    claim: replay every replayable manifest case through the node
    reference harness and compare against the committed expected
    outputs (tools/crosscheck_w3c_fixtures.py). The 6 skips are the
    engine-pinned canonize rows (the fork's canonize is gutted), the
    specVersion-1.0 row, and the PositiveSyntaxTest no-checks row."""
    import subprocess
    import sys

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable,
         os.path.join(here, "tools", "crosscheck_w3c_fixtures.py")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-500:]
    assert " 0 mismatch" in proc.stdout
