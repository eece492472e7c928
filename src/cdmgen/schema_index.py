"""Loading and querying a directory of interlinked JSON schema files.

A schema corpus is a directory of ``.json`` documents that reference each
other by relative file path via ``$ref``. This module resolves the whole
graph once, normalizes every property into a :class:`PropertyDef`, and
answers "does this dot-path exist, and what lives there?" queries with array
indices stripped.

Supported schema keywords: ``properties``, ``items``, ``$ref``,
``description``, ``enum``, ``format``, ``type``, and the composites
``allOf`` / ``anyOf`` / ``oneOf`` (read as the union of member properties).
Anything else is ignored.
"""

from __future__ import annotations

import os
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import treeops
from .errors import CycleDetected, MalformedDocument, MissingRoot, UnresolvedRef

_JSON_SCALARS = {"string", "number", "integer", "boolean"}
_COMPOSITES = ("allOf", "anyOf", "oneOf")
_DATE_WORD = re.compile(r"\bdate\b", re.IGNORECASE)

DEFAULT_MAX_PATH_DEPTH = 64

_MISS = object()


@dataclass(frozen=True)
class PropertyDef:
    """One normalized property of a schema document.

    A property holds one object when it has a ``ref_target`` (inline objects
    point at a synthesized internal document), else one scalar of
    ``scalar_type``, with ``enum_values`` for an enum. ``array`` marks a
    property that holds a list of these. ``choice_group`` records which
    ``oneOf``/``anyOf`` alternative contributed the property, when any.
    """

    name: str
    ref_target: Optional[str] = None
    scalar_type: Optional[str] = None
    enum_values: Optional[tuple[str, ...]] = None
    array: bool = False
    choice_group: Optional[str] = None

    def __post_init__(self):
        if self.ref_target is None and self.scalar_type not in treeops.PLACEHOLDERS:
            raise ValueError(f"{self.name}: a property without a ref_target requires a scalar_type")


@dataclass(frozen=True)
class SchemaDocument:
    """A parsed schema file (or synthesized inline object) and its properties."""

    properties: dict[str, PropertyDef]
    description: Optional[str] = None


@dataclass
class SchemaIndex:
    """Immutable resolved view of a schema directory.

    ``documents`` holds one entry per ``.json`` file, keyed by the file's
    path relative to the directory root. Inline objects live in a separate
    internal table so document counts reflect files on disk. Files the root
    never links to are kept too.

    The path table is a lazy memo over :meth:`lookup`; it is bounded by the
    set of distinct normalized paths ever queried.
    """

    root_id: str
    documents: dict[str, SchemaDocument]
    max_path_depth: int = DEFAULT_MAX_PATH_DEPTH
    _inline: dict[str, SchemaDocument] = field(default_factory=dict, repr=False)
    _path_table: dict[str, Optional[PropertyDef]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def doc(self, doc_id: str) -> SchemaDocument:
        if doc_id in self.documents:
            return self.documents[doc_id]
        return self._inline[doc_id]

    def lookup(self, path: str) -> tuple[bool, Optional[PropertyDef]]:
        """Whether ``path`` names a property reachable from the root schema.

        Numeric segments are stripped before the walk; the result is memoized
        per normalized path. Raises :class:`CycleDetected` when the walk
        would exceed ``max_path_depth`` segments and ``ValueError`` on an
        empty path.
        """
        # A memo key is a normalized path, which normalizes to itself, so a
        # raw path equal to a key needs no normalizing. Empty, over-deep and
        # indexed paths are never keys: they take the checks below.
        hit = self._path_table.get(path, _MISS)
        if hit is not _MISS:
            return hit is not None, hit
        if not path or not path.strip("."):
            raise ValueError("path must be a non-empty dot-separated string")
        segments = [seg for seg in path.split(".") if seg and not seg.isdigit()]
        if not segments:
            return False, None
        if len(segments) > self.max_path_depth:
            raise CycleDetected(
                f"path has {len(segments)} segments, exceeding the depth guard "
                f"of {self.max_path_depth}"
            )
        normalized = ".".join(segments)
        if normalized in self._path_table:
            hit = self._path_table[normalized]
            return hit is not None, hit

        prop: Optional[PropertyDef] = None
        doc_id = self.root_id
        for i, segment in enumerate(segments):
            properties = self.doc(doc_id).properties
            prop = properties.get(segment)
            if prop is None:
                self._path_table[normalized] = None
                return False, None
            if i < len(segments) - 1:
                if prop.ref_target is None:
                    self._path_table[normalized] = None
                    return False, None
                doc_id = prop.ref_target
        self._path_table[normalized] = prop
        return True, prop

    def property_at(self, path: str) -> Optional[PropertyDef]:
        """The property ``path`` names, or None when it names nothing, is
        empty, or is deeper than the depth guard."""
        try:
            return self.lookup(path)[1]
        except (ValueError, CycleDetected):
            return None


def _keyword(where: str, raw: dict, keyword: str):
    """``raw``'s ``properties`` object or its ``allOf``/``anyOf``/``oneOf``
    list, empty when absent. Another type raises :class:`MalformedDocument`
    naming ``where`` and the keyword."""
    expected = dict if keyword == "properties" else list
    value = raw.get(keyword, expected())
    if not isinstance(value, expected):
        article = "an object" if expected is dict else "a list"
        raise MalformedDocument(where, f"{keyword!r} is not {article}")
    return value


def _members(doc_id: str, raw: dict):
    """``(keyword, label, member)`` for each ``allOf``/``anyOf``/``oneOf``
    member of ``raw``, labelled ``keyword[i]``. A member that is not an
    object raises :class:`MalformedDocument` naming ``doc_id#label``."""
    for keyword in _COMPOSITES:
        for i, member in enumerate(_keyword(doc_id, raw, keyword)):
            label = f"{keyword}[{i}]"
            if not isinstance(member, dict):
                raise MalformedDocument(f"{doc_id}#{label}", "the member is not an object")
            yield keyword, label, member


def _normalize_ref(from_doc: str, ref_text: str) -> str:
    """Canonical document id for a ``$ref`` written inside ``from_doc``.

    Relative paths are normalized against the referencing document's
    directory; a ``#fragment`` suffix is discarded and a pure-fragment ref
    resolves to the referencing document itself.
    """
    file_part = ref_text.split("#", 1)[0].strip()
    if not file_part:
        return from_doc
    base = posixpath.dirname(from_doc)
    return posixpath.normpath(posixpath.join(base, file_part))


def load_schema_dir(schema_dir, root_file) -> SchemaIndex:
    """Load every ``.json`` file under ``schema_dir`` and resolve references.

    ``root_file`` may be an absolute path, a path relative to ``schema_dir``,
    or a bare filename within it. Every reference in every file must
    resolve; files the root never links to are loaded too.
    """
    base = Path(schema_dir)
    if not base.is_dir():
        raise MissingRoot(f"schema directory {base} does not exist")
    root_id = _root_id_for(base, Path(root_file))

    raw_docs: dict[str, dict] = {}
    for doc_id in treeops.json_files(base):
        parsed = treeops.read_json(os.path.join(base, doc_id), doc_id)
        if not isinstance(parsed, dict):
            raise MalformedDocument(doc_id, "top-level value is not an object")
        raw_docs[doc_id] = parsed

    if root_id not in raw_docs:
        raise MissingRoot(f"root schema file {root_id!r} not found in {base}")

    return _IndexBuilder(raw_docs, root_id).build()


def _root_id_for(base: Path, root: Path) -> str:
    if root.is_absolute():
        resolved, resolved_base = root.resolve(), base.resolve()
        if not resolved.is_relative_to(resolved_base):
            raise MissingRoot(f"root schema file {str(root)!r} is not inside {base}")
        return resolved.relative_to(resolved_base).as_posix()
    candidate = base / root
    if candidate.exists():
        return root.as_posix()
    return root.name


class _IndexBuilder:
    """Two-pass construction: parse all files, then classify every property."""

    def __init__(self, raw_docs: dict[str, dict], root_id: str):
        self.raw = raw_docs
        self.root_id = root_id
        self.documents: dict[str, SchemaDocument] = {}
        self.inline: dict[str, SchemaDocument] = {}

    def build(self) -> SchemaIndex:
        for doc_id in self.raw:
            self.documents[doc_id] = SchemaDocument(
                self._build_properties(doc_id), self._description(self.raw[doc_id])
            )
        return SchemaIndex(root_id=self.root_id, documents=self.documents, _inline=self.inline)

    # -- property collection ------------------------------------------------

    def _build_properties(self, doc_id: str) -> dict[str, PropertyDef]:
        merged: dict[str, PropertyDef] = {}
        for name, raw_prop, group in self._raw_properties(doc_id, frozenset()):
            if name in merged:
                continue
            merged[name] = self._classify(doc_id, name, raw_prop, group)
        return merged

    def _raw_properties(self, doc_id: str, visiting: frozenset[str]):
        """Yield (name, raw property, choice group) in declaration order.

        A document's own ``properties`` come first, then properties pulled in
        from composite members. Revisited documents in one composite chain
        are skipped (union semantics make the revisit a no-op).
        """
        if doc_id in visiting:
            return
        visiting = visiting | {doc_id}
        raw = self.raw[doc_id]
        for name, raw_prop in _keyword(doc_id, raw, "properties").items():
            yield name, raw_prop, None
        for keyword, label, member in _members(doc_id, raw):
            group = label if keyword in ("anyOf", "oneOf") else None
            if "$ref" in member:
                target = self._resolve(doc_id, member["$ref"], label)
                for name, raw_prop, inner in self._raw_properties(target, visiting):
                    yield name, raw_prop, group or inner
            else:
                for name, raw_prop in _keyword(f"{doc_id}#{label}", member, "properties").items():
                    yield name, raw_prop, group

    # -- classification -----------------------------------------------------

    def _classify(self, doc_id: str, name: str, raw_prop, group) -> PropertyDef:
        """One property: an array continues with its items schema, then a
        ``$ref`` is an object or a scalar document, an inline object gets an
        internal document, and anything else is a scalar."""
        if not isinstance(raw_prop, dict):
            raw_prop = {}
        array = "$ref" not in raw_prop and (
            raw_prop.get("type") == "array" or isinstance(raw_prop.get("items"), dict)
        )
        if array:
            items = raw_prop.get("items")
            raw_prop = items if isinstance(items, dict) else {}
        target = None
        if "$ref" in raw_prop:
            target = self._chase_alias(self._resolve(doc_id, raw_prop["$ref"], name))
            if self._is_scalar_doc(target, frozenset()):
                raw_prop, target = self.raw[target], None
        elif "properties" in raw_prop or raw_prop.get("type") == "object":
            target = self._register_inline(doc_id, f"{name}[]" if array else name, raw_prop)
        if target is not None:
            return PropertyDef(name, ref_target=target, array=array, choice_group=group)
        scalar_type, enum_values = self._scalar_type(raw_prop)
        return PropertyDef(
            name, scalar_type=scalar_type, enum_values=enum_values, array=array, choice_group=group
        )

    def _register_inline(self, doc_id: str, name: str, raw_prop: dict) -> str:
        inline_id = f"{doc_id}::{name}"
        if inline_id not in self.inline:
            # Reserve the slot first: a self-referential inline object would
            # otherwise recurse through _classify forever.
            self.inline[inline_id] = SchemaDocument({})
            properties = {
                child: self._classify(doc_id, child, raw_child, None)
                for child, raw_child in _keyword(inline_id, raw_prop, "properties").items()
            }
            self.inline[inline_id] = SchemaDocument(properties, self._description(raw_prop))
        return inline_id

    # -- small helpers ------------------------------------------------------

    def _resolve(self, from_doc: str, ref_text, label: Optional[str] = None) -> str:
        """The document a ref written inside ``from_doc`` names. An
        :class:`UnresolvedRef` says where the ref is written: at ``label``
        in ``from_doc``, or in the document as a whole."""
        if isinstance(ref_text, str) and ref_text:
            target = _normalize_ref(from_doc, ref_text)
            if target in self.raw:
                return target
        raise UnresolvedRef(str(ref_text), from_doc if label is None else f"{from_doc}#{label}")

    def _chase_alias(self, doc_id: str) -> str:
        """Follow documents whose whole body is a single ``$ref``."""
        seen = [doc_id]
        while set(self.raw[doc_id].keys()) == {"$ref"}:
            doc_id = self._resolve(doc_id, self.raw[doc_id]["$ref"])
            if doc_id in seen:
                raise CycleDetected(f"$ref alias cycle through {' -> '.join(seen)}")
            seen.append(doc_id)
        return doc_id

    def _is_scalar_doc(self, doc_id: str, visiting: frozenset[str]) -> bool:
        """A referenced document that defines a scalar value, not an object."""
        if doc_id in visiting:
            return False
        raw = self.raw[doc_id]
        if "properties" in raw:
            return False
        for _, _, member in _members(doc_id, raw):
            if "properties" in member:
                return False
            if isinstance(member.get("$ref"), str):
                target = _normalize_ref(doc_id, member["$ref"])
                if target in self.raw and not self._is_scalar_doc(target, visiting | {doc_id}):
                    return False
        return "enum" in raw or raw.get("type") in _JSON_SCALARS

    @staticmethod
    def _description(raw: dict) -> Optional[str]:
        value = raw.get("description")
        return value if isinstance(value, str) and value else None

    @staticmethod
    def _scalar_type(raw: dict) -> tuple[str, Optional[tuple[str, ...]]]:
        enum = raw.get("enum")
        if isinstance(enum, list) and enum:
            return "enum", tuple(str(v) for v in enum)
        declared = raw.get("type")
        fmt = raw.get("format")
        description = raw.get("description") or ""
        if declared in ("string", None):
            if fmt == "date":
                return "date", None
            if fmt is None and _DATE_WORD.search(description):
                return "date", None
        if declared in ("number", "integer", "boolean"):
            return declared, None
        return "string", None
