"""Static checks on the package source, with the standard library's ``ast``
alone: every import and every module-level private name (``_x``) in
``src/cdmgen`` is referenced somewhere, and every entry of ``cdmgen.__all__``
names an attribute of the package once, so that a deletion leaves no
leftovers behind; and only the template's own modules read the rule that
tells a saved template's annotations from its data."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import cdmgen

PACKAGE = Path(cdmgen.__file__).resolve().parent


def _annotation_names(tree: ast.AST) -> set[str]:
    """The names read in string annotations (``"Future | _Finished"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def _read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: loaded names, names in string annotations
    and the entries of ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    names |= _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {item.value for item in node.value.elts}
    return names


def _imported(tree: ast.AST) -> list[tuple[int, str]]:
    """Each name an import in ``tree`` binds, with its line; ``from
    __future__`` imports bind none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    return bound


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Each module-level private name ``tree`` defines, with its line."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(line, name) for line, name in defined if name.startswith("_") and not name.startswith("__")]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``file:line: name`` for each import that its module never reads, and
    each module-level private name that no module of ``sources`` (file name
    -> source text) reads, imports or reads as an attribute."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    elsewhere = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere |= {alias.name for alias in node.names}
    found = []
    for file, tree in trees.items():
        read = _read_names(tree)
        found += [f"{file}:{line}: import {name}" for line, name in _imported(tree) if name not in read]
        found += [
            f"{file}:{line}: {name}"
            for line, name in _private_definitions(tree)
            if name not in read and name not in elsewhere
        ]
    return found


def test_every_import_and_private_name_in_the_package_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert unreferenced(sources) == []


def test_the_check_finds_an_unread_import_and_private_name():
    source = textwrap.dedent(
        '''
        from __future__ import annotations
        import os
        import json
        from typing import Optional
        from .errors import CdmgenError
        _USED = 1
        _UNUSED = 2

        def _helper() -> "Optional[int]":
            return _USED + json.loads("1")

        def _orphan(x: "CdmgenError"):
            return x

        class _Kept:
            pass

        VALUE = _helper()
        '''
    )
    other = "from .a import _Kept\n\nKEPT = _Kept\n"
    assert unreferenced({"a.py": source, "b.py": other}) == [
        "a.py:3: import os",
        "a.py:8: _UNUSED",
        "a.py:13: _orphan",
    ]


def test_every_public_name_is_defined_once():
    # An entry whose import was deleted would make `from cdmgen import *` fail.
    assert [name for name in cdmgen.__all__ if not hasattr(cdmgen, name)] == []
    assert len(set(cdmgen.__all__)) == len(cdmgen.__all__)


# The rule that tells a saved template's annotations from its data, and the
# modules that may read it: the template (load, build and render) and the
# helpers that define it.
ANNOTATION_NAMES = {"is_annotation", "data_items", "DESCRIPTION_KEY", "FALLBACK_DESCRIPTION_KEY"}
ANNOTATION_OWNERS = {"treeops.py", "template_builder.py"}


def annotation_readers(sources: dict[str, str]) -> list[str]:
    """``file:line: name`` for each reference to one of
    :data:`ANNOTATION_NAMES` (a name, an attribute or an import) in a
    module of ``sources`` other than :data:`ANNOTATION_OWNERS`."""
    found = []
    for file, text in sources.items():
        if file in ANNOTATION_OWNERS:
            continue
        for node in ast.walk(ast.parse(text, file)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{file}:{node.lineno}: {name}" for name in names if name in ANNOTATION_NAMES]
    return found


def test_only_the_template_tells_annotations_from_data():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert ANNOTATION_OWNERS <= set(sources)
    assert annotation_readers(sources) == []


def test_the_check_finds_each_kind_of_reference_outside_the_owners():
    reader = textwrap.dedent(
        '''
        from . import treeops
        from .treeops import data_items

        def keys(node):
            return [k for k, v in node.items() if not treeops.is_annotation(k, v)] + [treeops.DESCRIPTION_KEY]
        '''
    )
    owner = "from .treeops import FALLBACK_DESCRIPTION_KEY\n"
    assert sorted(annotation_readers({"reader.py": reader, "treeops.py": owner, "template_builder.py": owner})) == [
        "reader.py:3: data_items",
        "reader.py:6: DESCRIPTION_KEY",
        "reader.py:6: is_annotation",
    ]
