"""The driver registry in ``__ray_entry__``: every oracle names a
registered query, every query has an oracle, and no query wrapper or
oracle builder is left orphaned; and no top-level name in the package
is left without a reference. Needs no Ray session: only the two
registry dicts are built and module sources are parsed."""

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


REPO = Path(E.__file__).resolve().parent
REFERENCE_ROOTS = ["jsonld_js_ray", "tests", "tools", "kgbench",
                   "__ray_entry__.py", "bench.py"]


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _referenced_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.rsplit(".", 1)[-1])
    return used


def test_no_unreferenced_top_level_name_in_the_package():
    """Every top-level def, class and assigned name in ``jsonld_js_ray``
    is loaded, reached as an attribute or imported somewhere in the
    package, tests, tools, kgbench or the two entry scripts; a
    definition alone does not count. Dead code fails here."""
    files: list[Path] = []
    for root in REFERENCE_ROOTS:
        path = REPO / root
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    used = set().union(*map(_referenced_names, trees.values()))
    package = REPO / "jsonld_js_ray"
    defined = {f"{f.relative_to(REPO)}:{name}"
               for f, tree in trees.items() if f.is_relative_to(package)
               for name in _top_level_names(tree)}
    assert len(defined) > 100, "too few names: the AST walk is broken"
    assert sorted(d for d in defined if d.rsplit(":", 1)[1] not in used) \
        == []


def _second_shuffle_idiom(tree: ast.AST) -> list[str]:
    """``.map_groups(`` calls and ``batch_format="pandas"`` arguments,
    by line."""
    hits: list[str] = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Attribute) and n.func.attr == "map_groups":
            hits.append(f"{n.lineno}:map_groups")
        hits.extend(f"{n.lineno}:pandas" for kw in n.keywords
                    if kw.arg == "batch_format"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "pandas")
    return hits


def test_one_shuffle_idiom_in_the_package():
    """Every group UDF in ``jsonld_js_ray`` runs through
    ``rayutil.per_block`` (sort on the key, then one call per whole
    Arrow block): no module calls ``.map_groups(`` or asks Ray for
    pandas batches."""
    files = sorted((REPO / "jsonld_js_ray").rglob("*.py"))
    assert len(files) > 20, "too few modules: the walk is broken"
    assert [f"{f.relative_to(REPO)}:{hit}" for f in files
            for hit in _second_shuffle_idiom(ast.parse(f.read_text()))] \
        == []


def _actor_pool_hits(tree: ast.AST, classes: set[str]) -> list[str]:
    """``concurrency`` keywords and parameters, and ``map_batches``
    calls handed a class object (which Ray runs as an actor pool), by
    line."""
    hits: list[str] = []
    for n in ast.walk(tree):
        if isinstance(n, ast.arg) and n.arg == "concurrency":
            hits.append(f"{n.lineno}:concurrency")
        if not isinstance(n, ast.Call):
            continue
        hits.extend(f"{n.lineno}:concurrency" for kw in n.keywords
                    if kw.arg == "concurrency")
        if isinstance(n.func, ast.Attribute) and n.func.attr == "map_batches":
            udf = n.args[0] if n.args else next(
                (kw.value for kw in n.keywords if kw.arg == "fn"), None)
            name = getattr(udf, "id", None) or getattr(udf, "attr", None)
            if name in classes:
                hits.append(f"{n.lineno}:class {name}")
    return hits


def test_no_actor_pool_in_the_package():
    """Every ``map_batches`` UDF in ``jsonld_js_ray`` runs as tasks: no
    module names a ``concurrency`` knob or passes a class object (an
    actor pool, which can hold the only CPU of a 1-CPU session while
    the stages it waits on starve)."""
    files = sorted((REPO / "jsonld_js_ray").rglob("*.py"))
    trees = {f: ast.parse(f.read_text()) for f in files}
    classes = {n.name for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)}
    assert len(files) > 20 and classes, "the walk is broken"
    assert [f"{f.relative_to(REPO)}:{hit}" for f, tree in trees.items()
            for hit in _actor_pool_hits(tree, classes)] == []


def _pandas_or_numpy_hits(tree: ast.AST) -> list[str]:
    """``import pandas``/``import numpy`` (either form) and
    ``.to_pandas(`` calls, by line."""
    hits: list[str] = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            mods = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            mods = [n.module or ""]
        else:
            mods = []
        hits.extend(f"{n.lineno}:import {m}" for m in mods
                    if m.split(".")[0] in ("pandas", "numpy"))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and n.func.attr == "to_pandas":
            hits.append(f"{n.lineno}:to_pandas")
    return hits


def test_sources_import_no_pandas():
    """The text and Parquet sources in ``jsonld_js_ray/sources`` work on
    Arrow tables end to end: no module there imports pandas or numpy or
    converts a table with ``.to_pandas(``."""
    files = sorted((REPO / "jsonld_js_ray" / "sources").glob("*.py"))
    assert len(files) > 4, "too few modules: the walk is broken"
    assert [f"{f.relative_to(REPO)}:{hit}" for f in files
            for hit in _pandas_or_numpy_hits(ast.parse(f.read_text()))] \
        == []
