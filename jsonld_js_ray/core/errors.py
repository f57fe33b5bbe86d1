"""JSON-LD processing errors.

Semantics: error objects carry a spec-defined ``code`` string (e.g.
"invalid @id value") used by negative-evaluation tests, mirroring the
reference's JsonLdError (/root/reference/lib/JsonLdError.js) where the
code lives in ``details.code``.
"""

from __future__ import annotations

from typing import Any


class JsonLdError(Exception):
    """A JSON-LD processing error with a spec error code.

    Attributes:
        message: human-readable message.
        name: error class name (e.g. "jsonld.SyntaxError").
        code: the JSON-LD API spec error code string
            (e.g. "invalid term definition").
        details: extra structured info.
    """

    def __init__(
        self,
        message: str,
        name: str = "jsonld.Error",
        code: str | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(f"{name}: {message}" + (f" [{code}]" if code else ""))
        self.message = message
        self.name = name
        self.code = code
        self.details = details or {}
