"""Deriving minimal population templates from a schema corpus plus examples.

The derivation has two inputs: the resolved schema graph and the set of
dot-paths actually used by real example instances. The schema is traversed
from the root; a property is kept only when its path is a prefix of (or
equal to) some example key, referenced objects are expanded recursively,
arrays carry a single prototype element, leaves receive typed placeholders,
and object nodes are annotated with the description of the schema that
defines them. An object that keeps no data property is dropped as the walk
returns from it, and with it the property and arrays that held it, so one
walk gives the smallest schema-conformant skeleton that covers the examples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

from . import treeops
from .errors import CycleDetected, EmptyExampleDir, MalformedDocument
from .schema_index import SchemaIndex


@dataclass
class Template:
    """A tree of placeholder fields ready for population."""

    tree: dict
    contract_type: str
    schema_root: str

    def to_text(self) -> str:
        """The saved file's text: the template as indented JSON
        (:func:`treeops.indented_json`) and a final newline."""
        payload = {
            "contract_type": self.contract_type,
            "schema_root": self.schema_root,
            "tree": self.tree,
        }
        return treeops.indented_json(payload) + "\n"

    def save(self, path) -> None:
        treeops.write_text(path, self.to_text())

    @classmethod
    def load(cls, path) -> "Template":
        """Read a saved template; one whose ``tree`` is not an object raises
        :class:`MalformedDocument`."""
        payload = treeops.read_json_object(path, "tree")
        if not isinstance(payload["tree"], dict):
            raise MalformedDocument(str(path), "'tree' is not an object")
        return cls(
            tree=payload["tree"],
            contract_type=payload.get("contract_type", ""),
            schema_root=payload.get("schema_root", ""),
        )


def load_examples(example_dir) -> list[tuple[str, Any]]:
    """(name, parsed instance) for every ``.json`` file under a directory.

    An example is named by its POSIX path relative to the directory, so a
    file directly in it by its file name (``x.json``) and one in a
    subdirectory by its path (``a/x.json``): two files of one name in two
    subdirectories keep two names. Raises :class:`EmptyExampleDir` when
    there is none or no example has a leaf, and :class:`MalformedDocument`
    naming, by that name, the first file that cannot be read, is not a
    regular file or is not UTF-8 JSON.
    """
    files = treeops.json_files(example_dir) if os.path.isdir(example_dir) else []
    if not files:
        raise EmptyExampleDir(f"no example files found in {example_dir}")
    examples = []
    has_leaf = False
    prefix = os.path.join(example_dir, "")
    for name in files:
        parsed = treeops.read_json(prefix + name, name)
        examples.append((name, parsed))
        # Examples are walked only until one with a leaf is found.
        has_leaf = has_leaf or next(treeops.iter_leaf_paths(parsed, items=dict.items), None) is not None
    if not has_leaf:
        raise EmptyExampleDir(f"no example in {example_dir} has a leaf value")
    return examples


def flatten_examples(example_dir) -> frozenset[str]:
    """Union of dot-separated leaf paths over every example in a directory.

    Array indices contribute no segment, so ``a[0].b`` and ``a[3].b`` both
    flatten to ``a.b``. Examples are data: a field named ``description`` is
    a key like any other. Errors are those of :func:`load_examples`.
    """
    leaves = (treeops.iter_leaf_paths(parsed, items=dict.items) for _, parsed in load_examples(example_dir))
    return frozenset(path for paths in leaves for path, _ in paths)


def build_template(index: SchemaIndex, keys: frozenset[str], contract_type: str) -> Template:
    """Traverse the schema from its root, keeping only example-covered paths.

    ``keys`` are leaf paths as :func:`flatten_examples` returns them; a path
    is covered when it equals a key or is a proper prefix of one at a ``.``.
    Keys that name nothing in the schema contribute nothing, and a root that
    keeps no data property gives the tree ``{}``. Field order follows schema
    declaration order so identical inputs serialize identically.
    """
    if not keys:
        raise ValueError("key path set is empty; need at least one example key")
    tree = _traverse(index, index.start_id, "", _prefixes(keys), depth=0)
    return Template(tree=tree or {}, contract_type=contract_type, schema_root=index.root_id)


def _prefixes(keys: frozenset[str]) -> frozenset[str]:
    """The closure of ``keys`` under taking prefixes at a ``.``: each key is
    trimmed at its last ``.`` until it meets a prefix already in the
    closure, whose own prefixes are then in it too."""
    closure: set[str] = set()
    for key in keys:
        while key not in closure:
            closure.add(key)
            cut = key.rfind(".")
            if cut < 0:
                break
            key = key[:cut]
    return frozenset(closure)


def _traverse(index: SchemaIndex, doc_id: str, prefix: str, covered: frozenset[str], depth: int) -> Optional[dict]:
    """The covered subtree of a document, annotated with its description
    ahead of the data fields; None when it keeps no data property.

    When a covered property is named ``description``, the annotation moves
    to ``_template_description`` so real data is never shadowed, even when
    that property keeps nothing itself.
    """
    if depth > index.max_path_depth:
        raise CycleDetected(
            f"schema traversal exceeded {index.max_path_depth} levels at {prefix!r}"
        )
    doc = index.doc(doc_id)
    children: dict[str, Any] = {}
    displaced = False
    for name, prop in doc.properties.items():
        path = f"{prefix}.{name}" if prefix else name
        if path not in covered:
            continue
        displaced = displaced or name == treeops.DESCRIPTION_KEY
        if prop.ref_target is None:
            value = treeops.PLACEHOLDERS[prop.scalar_type]
        else:
            value = _traverse(index, prop.ref_target, path, covered, depth + 1)
            if value is None:
                continue
        for _ in range(prop.array):
            value = [value]
        children[name] = value
    if not children:
        return None
    if not doc.description:
        return children
    key = treeops.FALLBACK_DESCRIPTION_KEY if displaced else treeops.DESCRIPTION_KEY
    return {key: doc.description, **children}
