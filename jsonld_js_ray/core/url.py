"""IRI parsing and resolution (RFC 3986 subset used by JSON-LD).

Same observable semantics as the reference's URL kernel
(/root/reference/lib/url.js:16-301): a regex-based splitter, RFC 3986 5.2.2
reference resolution with the jsonld.js path-merge quirks, 5.2.4 dot-segment
removal, base removal for compaction, and the weak absolute-IRI check that
also accepts blank-node identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_FULL_RE = re.compile(
    r"^(([^:/?#]+):)?(?://((?:(([^:@]*)(?::([^:@]*))?)?@)?([^:/?#]*)(?::(\d*))?))?"
    r"(((?:[^?#/]*/)*)([^?#]*))(?:\?([^#]*))?(?:#(.*))?"
)

_ABSOLUTE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+\-.]*|_):[^\s]*$")


@dataclass
class ParsedUrl:
    href: str = ""
    protocol: str | None = None   # includes trailing ':' when present
    scheme: str | None = None
    authority: str | None = None
    path: str = ""
    query: str | None = None
    fragment: str | None = None
    normalized_path: str = field(default="", compare=False)


def parse_url(s: str) -> ParsedUrl:
    m = _FULL_RE.match(s or "")
    assert m is not None  # the regex matches any string
    g = m.groups()
    p = ParsedUrl(
        href=m.group(0) or "",
        protocol=g[0],
        scheme=g[1],
        authority=g[2],
        path=g[8] if g[8] is not None else "",
        query=g[11],
        fragment=g[12],
    )
    # strip default ports
    port = g[7]
    if (p.scheme == "https" and port == "443") or (p.scheme == "http" and port == "80"):
        # JS String.replace: FIRST occurrence only (a ':443' later in the
        # path must survive)
        p.href = p.href.replace(":" + port, "", 1)
        if p.authority is not None:
            p.authority = p.authority.replace(":" + port, "", 1)
    p.normalized_path = remove_dot_segments(p.path)
    return p


def remove_dot_segments(path: str) -> str:
    """RFC 3986 5.2.4, reworked as in the reference (url.js:230-274)."""
    if not path:
        return ""
    segments = path.split("/")
    output: list[str] = []
    n = len(segments)
    for i, seg in enumerate(segments):
        done = i == n - 1
        if seg == ".":
            if done:
                output.append("")
            continue
        if seg == "..":
            if output:
                output.pop()
            if done:
                output.append("")
            continue
        output.append(seg)
    if path.startswith("/") and output and output[0] != "":
        output.insert(0, "")
    if len(output) == 1 and output[0] == "":
        return "/"
    return "/".join(output)


def prepend_base(base: str | ParsedUrl | None, iri: str) -> str:
    """Resolve ``iri`` against ``base`` per RFC 3986 5.2.2 (url.js:63-144).

    base=None disables IRI processing and returns iri unchanged.
    """
    if base is None:
        return iri
    if is_absolute(iri):
        return iri
    if not isinstance(base, ParsedUrl):
        base = parse_url(base or "")
    rel = parse_url(iri)

    protocol = base.protocol or ""
    if rel.authority is not None:
        authority: str | None = rel.authority
        path = rel.path
        query = rel.query
    else:
        authority = base.authority
        if rel.path == "":
            path = base.path
            query = rel.query if rel.query is not None else base.query
        else:
            if rel.path.startswith("/"):
                path = rel.path
            else:
                # merge: append rel path after base's last directory
                path = base.path[: base.path.rfind("/") + 1]
                if (len(path) > 0 or base.authority) and not path.endswith("/"):
                    path += "/"
                path += rel.path
            query = rel.query

    if rel.path != "":
        path = remove_dot_segments(path)

    rval = protocol
    if authority is not None:
        rval += "//" + authority
    rval += path
    if query is not None:
        rval += "?" + query
    if rel.fragment is not None:
        rval += "#" + rel.fragment
    return rval if rval != "" else "./"


def remove_base(base: str | ParsedUrl | None, iri: str) -> str:
    """Make ``iri`` relative to ``base`` when possible (url.js:152-223)."""
    if base is None:
        return iri
    if not isinstance(base, ParsedUrl):
        base = parse_url(base or "")

    root = ""
    if base.href != "":
        root += (base.protocol or "") + "//" + (base.authority or "")
    elif not iri.startswith("//"):
        root += "//"

    if not iri.startswith(root):
        return iri

    rel = parse_url(iri[len(root):])

    base_segments = base.normalized_path.split("/")
    iri_segments = rel.normalized_path.split("/")
    last = 0 if (rel.fragment or rel.query) else 1
    while base_segments and len(iri_segments) > last:
        if base_segments[0] != iri_segments[0]:
            break
        base_segments.pop(0)
        iri_segments.pop(0)

    rval = ""
    if base_segments:
        base_segments.pop()
        rval += "../" * len(base_segments)
    rval += "/".join(iri_segments)

    if rel.query is not None:
        rval += "?" + rel.query
    if rel.fragment is not None:
        rval += "#" + rel.fragment
    return rval if rval != "" else "./"


from functools import lru_cache


@lru_cache(maxsize=65536)
def _is_absolute_cached(v: str) -> bool:
    return _ABSOLUTE_RE.match(v) is not None


def is_absolute(v: object) -> bool:
    """Weak absolute-IRI check; also true for blank-node ids (url.js:291-301).

    Memoized: pipeline IRIs come from small vocabularies, so the regex
    runs once per distinct string."""
    return isinstance(v, str) and _is_absolute_cached(v)
