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
from dataclasses import dataclass, field
from typing import Any, Optional

from . import treeops
from .errors import CycleDetected, EmptyExampleDir, MalformedDocument
from .schema_index import SchemaIndex


@dataclass
class Template:
    """A plain tree of placeholder fields ready for population, and the
    schema descriptions that annotate its objects.

    ``tree`` is data only: keys and typed placeholders. ``notes`` maps the
    exact address of each annotated object (keys and list indices, as a
    task's ``segments``) to the annotation entries its saved form writes
    ahead of that object's data. Only :meth:`from_saved` and the builder
    tell annotations from data; :meth:`to_text` and :meth:`shown` put them back.
    """

    tree: dict
    contract_type: str
    schema_root: str
    notes: dict[tuple, dict] = field(default_factory=dict)

    @classmethod
    def from_saved(cls, tree: dict, contract_type: str, schema_root: str) -> "Template":
        """The template whose saved form holds ``tree``, each entry that
        :func:`treeops.is_annotation` calls an annotation moved to ``notes``."""
        notes: dict[tuple, dict] = {}
        return cls(_split(tree, (), notes), contract_type, schema_root, notes)

    def shown(self, segments: tuple, fragment) -> tuple[Any, str]:
        """``fragment``, the node at ``segments``, as its saved form writes
        it, and the description of that object, or of an array's first one."""
        entries = self.notes.get(segments + (0,) if isinstance(fragment, list) else segments, {})
        fallback = entries.get(treeops.FALLBACK_DESCRIPTION_KEY)
        definition = fallback if isinstance(fallback, str) else entries.get(treeops.DESCRIPTION_KEY, "")
        return _annotated(fragment, segments, self.notes), definition

    def to_text(self) -> str:
        """The saved file's text: the template, its notes put back, as
        indented JSON (:func:`treeops.indented_json`) and a final newline."""
        tree = _annotated(self.tree, (), self.notes)
        payload = {"contract_type": self.contract_type, "schema_root": self.schema_root, "tree": tree}
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
        return cls.from_saved(payload["tree"], payload.get("contract_type", ""), payload.get("schema_root", ""))


def _annotated(value, segments: tuple, notes: dict):
    """``value``, the node at ``segments``, with each object's notes put
    back ahead of its data."""
    if type(value) is list:
        return [_annotated(child, segments + (i,), notes) for i, child in enumerate(value)]
    if type(value) is not dict:
        return value
    node = dict(notes.get(segments, ()))
    for key, child in value.items():
        node[key] = _annotated(child, segments + (key,), notes) if type(child) in (dict, list) else child
    return node


def _split(value, segments: tuple, notes: dict):
    """``value``, the saved tree's node at ``segments``, with each object's
    annotation entries moved to ``notes`` under its address."""
    if type(value) is list:
        return [_split(child, segments + (i,), notes) for i, child in enumerate(value)]
    if type(value) is not dict:
        return value
    entries = {key: child for key, child in value.items() if treeops.is_annotation(key, child)}
    if entries:
        notes[segments] = entries
    return {key: _split(child, segments + (key,), notes) for key, child in value.items() if key not in entries}


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
    notes: dict[tuple, dict] = {}
    tree = _traverse(index, index.start_id, (), "", _prefixes(keys), 0, notes)
    return Template(tree or {}, contract_type, index.root_id, notes)


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


def _traverse(
    index: SchemaIndex, doc_id: str, segments: tuple, prefix: str, covered: frozenset[str], depth: int, notes: dict
) -> Optional[dict]:
    """The covered subtree of a document at address ``segments``, its
    description noted in ``notes``; None when it keeps no data property.

    When a covered property is named ``description``, the annotation moves
    to ``_template_description`` so real data is never shadowed, even when
    that property keeps nothing itself.
    """
    if depth > index.max_path_depth:
        raise CycleDetected(f"schema traversal exceeded {index.max_path_depth} levels at {prefix!r}")
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
            address = segments + (name,) + (0,) * prop.array
            value = _traverse(index, prop.ref_target, address, path, covered, depth + 1, notes)
            if value is None:
                continue
        for _ in range(prop.array):
            value = [value]
        children[name] = value
    if children and doc.description:
        key = treeops.FALLBACK_DESCRIPTION_KEY if displaced else treeops.DESCRIPTION_KEY
        notes[segments] = {key: doc.description}
    return children or None
