"""The driver registry in ``__ray_entry__``: every oracle names a
registered query, every query has an oracle, and no query wrapper or
oracle builder is left orphaned. Needs no Ray session: only the two
registry dicts are built and the module source is parsed."""

from __future__ import annotations

import ast
from pathlib import Path

import __ray_entry__ as E

NO_ORACLE = set()


def test_every_oracle_names_a_query():
    assert set(E.oracle_sql()) <= set(E.queries())


def test_only_the_sketch_and_codec_queries_lack_an_oracle():
    assert set(E.queries()) - set(E.oracle_sql()) == NO_ORACLE


def test_no_orphaned_wrapper_or_oracle_builder():
    tree = ast.parse(Path(E.__file__).read_text())
    defined = {n.name for n in tree.body
               if isinstance(n, ast.FunctionDef)
               and (n.name.startswith("_q_") or n.name.endswith("_oracle"))}
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert defined, "no wrappers found: the AST walk is broken"
    assert sorted(defined - used) == []
