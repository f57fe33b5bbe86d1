"""URDNA2015 (RDF Dataset Canonicalization) — canonical blank-node labels.

The reference fork removed its rdf-canonize dependency
(/root/reference/lib/jsonld.js:36, lib/NQuads.js:7), so this is a
from-scratch implementation of the public RDF Dataset Canonicalization
algorithm (URDNA2015, https://www.w3.org/TR/rdf-canon/): hash-first-degree
quads, hash-N-degree with permutation search, canonical ``_:c14n{i}``
labels. Executed per document inside the Ray actor stage — exact, because
blank-node components never span documents (SURVEY.md §4.2).
"""

from __future__ import annotations

import hashlib
from itertools import permutations

from . import nquads as _nq
from .errors import JsonLdError
from .util import IdentifierIssuer, js_sorted

# Work-limit guard: symmetric blank-node structures (k-cliques of
# indistinguishable bnodes) drive the hash-N-degree permutation search
# factorial — k=8 already costs ~13 s. A malicious document must not be
# able to hang a cluster worker; rdf-canonize grew the same guard.
DEFAULT_MAX_WORK = 500_000

_POSITIONS = ("s", "o", "g")


def _sha256(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8")).hexdigest()


def _sha1(s: str) -> str:
    return hashlib.sha1(s.encode("utf-8")).hexdigest()


class _CanonState:
    """Shared state for URDNA2015 (default) and the legacy URGNA2012
    variant. URGNA2012 differences (public rdf-canonize URGNA2012.js):
    SHA-1 digests; graph-position blank nodes serialize as ``_:g`` in
    hash-first-degree; hash-related only considers subject ('p') else
    object ('r') positions with the bare predicate IRI (no angle
    brackets). Everything else (N-degree, permutation search, canonical
    issuance) is shared."""

    def __init__(self, dataset: list[tuple],
                 max_work: int = DEFAULT_MAX_WORK,
                 algorithm: str = "URDNA2015") -> None:
        self.algorithm = algorithm
        self._hash = _sha1 if algorithm == "URGNA2012" else _sha256
        self.work = 0
        self.max_work = max_work
        # drop invalid null-object quads (relative IRIs in lists — the
        # reference's quad arrays can contain these; not valid RDF)
        dataset = [q for q in dataset if q[2] is not None]
        self.dataset = dataset
        self.bnode_to_quads: dict[str, list[tuple]] = {}
        self.canonical_issuer = IdentifierIssuer("_:c14n")
        self.hash_cache: dict[str, str] = {}
        for quad in dataset:
            for term in (quad[0], quad[2], quad[3]):
                if term[0] == "BlankNode":
                    self.bnode_to_quads.setdefault(term[1], []).append(quad)

    # --- 4.6 Hash First Degree Quads ---
    def hash_first_degree(self, bnode_id: str) -> str:
        cached = self.hash_cache.get(bnode_id)
        if cached is not None:
            return cached
        nquads = []
        legacy = self.algorithm == "URGNA2012"
        for quad in self.bnode_to_quads[bnode_id]:
            copy = []
            for idx, t in enumerate(quad):
                if t[0] != "BlankNode":
                    copy.append(t)
                elif legacy and idx == 3:
                    copy.append(("BlankNode", "_:g"))
                else:
                    copy.append(("BlankNode",
                                 "_:a" if t[1] == bnode_id else "_:z"))
            nquads.append(_nq.serialize_quad(tuple(copy)))
        h = self._hash("".join(js_sorted(nquads)))
        self.hash_cache[bnode_id] = h
        return h

    def _spend(self, units: int = 1) -> None:
        self.work += units
        if self.work > self.max_work:
            raise JsonLdError(
                "Canonicalization work limit exceeded (adversarially "
                "symmetric blank-node structure).",
                "jsonld.CanonizeError", code="complexity limit exceeded",
                details={"max_work": self.max_work})

    # --- 4.7 Hash Related Blank Node ---
    def hash_related(self, related: str, quad: tuple,
                     issuer: IdentifierIssuer, position: str) -> str:
        self._spend()
        if self.canonical_issuer.has_id(related):
            identifier = self.canonical_issuer.get_id(related)
        elif issuer.has_id(related):
            identifier = issuer.get_id(related)
        else:
            identifier = self.hash_first_degree(related)
        data = position
        if position != "g":
            pred = quad[1][1]
            data += pred if self.algorithm == "URGNA2012" else f"<{pred}>"
        data += identifier
        return self._hash(data)

    # --- 4.8 Hash N-Degree Quads ---
    def hash_n_degree(self, bnode_id: str, issuer: IdentifierIssuer
                      ) -> tuple[str, IdentifierIssuer]:
        hash_to_related: dict[str, list[str]] = {}
        for quad in self.bnode_to_quads[bnode_id]:
            if self.algorithm == "URGNA2012":
                # legacy: subject ('p') else object ('r'); graphs ignored
                if quad[0][0] == "BlankNode" and quad[0][1] != bnode_id:
                    term, position = quad[0], "p"
                elif quad[2][0] == "BlankNode" and quad[2][1] != bnode_id:
                    term, position = quad[2], "r"
                else:
                    continue
                h = self.hash_related(term[1], quad, issuer, position)
                hash_to_related.setdefault(h, []).append(term[1])
                continue
            for term, position in ((quad[0], "s"), (quad[2], "o"),
                                   (quad[3], "g")):
                if term[0] == "BlankNode" and term[1] != bnode_id:
                    h = self.hash_related(term[1], quad, issuer, position)
                    hash_to_related.setdefault(h, []).append(term[1])

        data_to_hash = ""
        for h in sorted(hash_to_related.keys()):
            data_to_hash += h
            chosen_path = ""
            chosen_issuer: IdentifierIssuer | None = None
            for perm in permutations(hash_to_related[h]):
                self._spend(len(perm))
                issuer_copy = issuer.clone()
                path = ""
                recursion_list: list[str] = []
                skip = False
                for related in perm:
                    if self.canonical_issuer.has_id(related):
                        path += self.canonical_issuer.get_id(related)
                    else:
                        if not issuer_copy.has_id(related):
                            recursion_list.append(related)
                        path += issuer_copy.get_id(related)
                    if chosen_path and len(path) >= len(chosen_path) and \
                            path > chosen_path:
                        skip = True
                        break
                if skip:
                    continue
                for related in recursion_list:
                    result_hash, result_issuer = self.hash_n_degree(
                        related, issuer_copy)
                    path += issuer_copy.get_id(related)
                    path += f"<{result_hash}>"
                    issuer_copy = result_issuer
                    if chosen_path and len(path) >= len(chosen_path) and \
                            path > chosen_path:
                        skip = True
                        break
                if skip:
                    continue
                if not chosen_path or path < chosen_path:
                    chosen_path = path
                    chosen_issuer = issuer_copy
            data_to_hash += chosen_path
            if chosen_issuer is not None:
                issuer = chosen_issuer

        return self._hash(data_to_hash), issuer


def relabel_dataset(dataset: list[tuple],
                    max_work: int = DEFAULT_MAX_WORK,
                    algorithm: str = "URDNA2015") -> list[tuple]:
    """Return dataset with blank nodes relabeled to canonical _:c14nN ids
    (null-object quads dropped — see _CanonState). Raises JsonLdError
    code='complexity limit exceeded' past ``max_work`` units.

    The input is treated as a SET (an RDF dataset is a set of quads —
    RDF 1.1 Concepts §4): duplicate quads are dropped keep-first
    BEFORE hashing, since a duplicate would otherwise perturb the
    first-degree hashes and change every label. rdf-canonize gets this
    for free (its N-Quads parse dedupes); a caller handing us an
    in-memory multiset (e.g. the reference fork emits a duplicate
    value-quad in its broken @type-container+@list path, fuzz seed
    864917) must see identical labels either way."""
    seen: set = set()
    deduped = []
    for q in dataset:
        try:
            key = q
            fresh = key not in seen
        except TypeError:     # unhashable term (list-typed datatype)
            key = repr(q)
            fresh = key not in seen
        if fresh:
            seen.add(key)
            deduped.append(q)
    state = _CanonState(deduped, max_work=max_work, algorithm=algorithm)

    # 1) issue canonical ids for unique first-degree hashes
    hash_to_bnodes: dict[str, list[str]] = {}
    for bnode_id in state.bnode_to_quads:
        hash_to_bnodes.setdefault(
            state.hash_first_degree(bnode_id), []).append(bnode_id)

    non_unique: list[list[str]] = []
    for h in sorted(hash_to_bnodes.keys()):
        members = hash_to_bnodes[h]
        if len(members) == 1:
            state.canonical_issuer.get_id(members[0])
        else:
            non_unique.append(members)

    # 2) hash-N-degree for the rest
    for members in non_unique:
        hash_path_list: list[tuple[str, IdentifierIssuer]] = []
        for bnode_id in members:
            if state.canonical_issuer.has_id(bnode_id):
                continue
            temp_issuer = IdentifierIssuer("_:b")
            temp_issuer.get_id(bnode_id)
            hash_path_list.append(
                state.hash_n_degree(bnode_id, temp_issuer))
        hash_path_list.sort(key=lambda r: r[0])
        for _, issuer in hash_path_list:
            for old_id in issuer.get_old_ids():
                state.canonical_issuer.get_id(old_id)

    issued = state.canonical_issuer
    out = []
    for quad in state.dataset:
        out.append(tuple(
            ("BlankNode", issued.get_id(t[1])) if t[0] == "BlankNode" else t
            for t in quad
        ))
    return out


def canonize(dataset: list[tuple],
             max_work: int = DEFAULT_MAX_WORK,
             algorithm: str = "URDNA2015") -> str:
    """URDNA2015 / URGNA2012 → canonical N-Quads string (sorted,
    deduplicated)."""
    if algorithm not in ("URDNA2015", "URGNA2012"):
        raise JsonLdError(
            f"Invalid RDF Dataset Canonicalizer algorithm: {algorithm}",
            "jsonld.CanonizeError", code="invalid algorithm",
            details={"algorithm": algorithm})
    return _nq.serialize(relabel_dataset(dataset, max_work=max_work,
                                         algorithm=algorithm))
