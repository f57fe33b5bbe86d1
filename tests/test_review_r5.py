"""Round-5 review pins: _pin block coalescing and URDNA2015's set
semantics."""

import pyarrow as pa


def test_pin_coalesces_tiny_blocks(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.entity_merge import _pin

    ds = rd.range(10_000).map_batches(
        lambda b: pa.table({"x": b["id"]}), batch_format="pyarrow")
    ds = ds.repartition(64).materialize()
    assert ds.num_blocks() == 64
    pinned = _pin(ds)
    assert pinned.num_blocks() <= 2          # 10k rows → 1 block target
    assert pinned.count() == 10_000
    got = sorted(pinned.to_pandas()["x"])
    assert got == list(range(10_000))        # rows preserved exactly


def test_pin_leaves_large_blocks_alone(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.entity_merge import (_PIN_TARGET_ROWS,
                                                   _pin)

    n_blocks = 4
    ds = rd.range(_PIN_TARGET_ROWS * n_blocks).map_batches(
        lambda b: pa.table({"x": b["id"]}), batch_format="pyarrow") \
        .repartition(n_blocks).materialize()
    pinned = _pin(ds)
    # blocks already at target → no repartition move
    assert pinned.num_blocks() == n_blocks
    assert pinned.count() == _PIN_TARGET_ROWS * n_blocks


def test_canonize_treats_dataset_as_set():
    """An RDF dataset is a SET of quads (RDF 1.1 Concepts §4): a
    duplicated quad must not perturb canonical labels. Found by fuzz
    seed 864917, where the reference fork emits a duplicate value-quad
    through its broken @type-container+@list path — rdf-canonize
    dedupes at N-Quads parse, so matching its comparison semantics
    requires deduping the in-memory multiset too. Covers both the
    hashable fast path and the unhashable (list-typed datatype)
    fallback the fork's bug produces."""
    from jsonld_js_ray.core.canonize import canonize

    q1 = (("BlankNode", "_:b0"), ("NamedNode", "http://e/p"),
          ("Literal", "x", "http://www.w3.org/2001/XMLSchema#string",
           None), ("DefaultGraph", ""))
    q2 = (("BlankNode", "_:b0"), ("NamedNode", "http://e/q"),
          ("BlankNode", "_:b1"), ("DefaultGraph", ""))
    assert canonize([q1, q2, q1]) == canonize([q1, q2])
    # unhashable datatype term (the fork's ['@list'] artifact)
    q3 = (("BlankNode", "_:b0"), ("NamedNode", "http://e/r"),
          ("Literal", "true", ["@list"], None), ("DefaultGraph", ""))
    assert canonize([q1, q3, q3]) == canonize([q1, q3])
