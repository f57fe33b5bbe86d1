"""The driver registry in ``__ray_entry__``: every oracle names a
registered query, every query has an oracle, and no query wrapper or
oracle builder is left orphaned.
Also the import boundary between the entity/quad path and the curation
stages. Needs no Ray session: only the two registry dicts are built
and module sources are parsed."""

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


# Entity canonicalization and the quad path stand apart from the
# LLM-curation family: nothing below imports text or the
# training-data wrappers, so removing that family is a pure delete.
PKG = Path(E.__file__).resolve().parent / "jsonld_js_ray"
BOUNDED = [PKG / "pipelines" / "kg.py",
           *(PKG / "stages" / f"{m}.py"
             for m in ("entity_merge", "linker", "assemble", "to_rdf_stage")),
           *sorted((PKG / "sources").glob("*.py")),
           *sorted((PKG / "core").glob("*.py"))]
CURATION = {"jsonld_js_ray.stages.text",
            "jsonld_js_ray.pipelines.training_data"}


def _imported_modules(path: Path) -> set[str]:
    package = ".".join(path.relative_to(PKG.parent).parent.parts)
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] \
                if node.level else ""
            mod = ".".join(p for p in (base, node.module) if p)
            found.add(mod)
            found |= {f"{mod}.{a.name}" for a in node.names}
    return found


def test_entity_and_quad_path_import_no_curation_module():
    assert len(BOUNDED) > 20, "the module globs found nothing"
    offenders = {str(p.relative_to(PKG)): sorted(_imported_modules(p)
                                                 & CURATION)
                 for p in BOUNDED}
    assert {k: v for k, v in offenders.items() if v} == {}
