"""Loading and querying a directory of interlinked JSON schema files.

A schema corpus is a directory of ``.json`` documents that reference each
other by relative file path via ``$ref``. This module resolves the whole
graph once, normalizes every property into a :class:`PropertyDef`, and
answers "what property does this dot-path name?", with array indices
stripped, for a whole path or one key at a time.

Supported schema keywords: ``properties``, ``items``, ``$ref``,
``description``, ``enum``, ``format``, ``type``, and the composites
``allOf`` / ``anyOf`` / ``oneOf`` (read as the union of member properties).
Anything else is ignored. Every node is read by the one rule written in
:class:`_IndexBuilder`: a nested inline object gets a nested id
(``doc::a::b``), and a JSON-pointer ``$ref`` (``doc.json#/definitions/X``)
is an :class:`UnresolvedRef`.
"""

from __future__ import annotations

import gc
import os
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import treeops
from .errors import CycleDetected, MalformedDocument, MissingRoot, UnresolvedRef

_JSON_SCALARS = {"string", "number", "integer", "boolean"}
_COMPOSITES = ("allOf", "anyOf", "oneOf")
_DATE_WORD = re.compile(r"\bdate\b", re.IGNORECASE)
_OBJECT = object()  # what _IndexBuilder._kind gives for an object
_NO_CHAIN = frozenset()

DEFAULT_MAX_PATH_DEPTH = 64

# The properties under a place where nothing is.
_NOTHING = MappingProxyType({})


class _PropertyFields(NamedTuple):
    name: str
    ref_target: Optional[str] = None
    scalar_type: Optional[str] = None
    enum_values: Optional[tuple[str, ...]] = None
    array: int = 0
    choice_group: Optional[str] = None


class PropertyDef(_PropertyFields):
    """One normalized property of a schema document.

    A property holds one object when it has a ``ref_target`` (inline objects
    point at a synthesized internal document), else one scalar of
    ``scalar_type``, with ``enum_values`` for an enum. ``array`` counts the
    list levels around these: 0 for none, 1 for a list, 2 for a list of
    lists, and so on. ``choice_group`` records which
    ``oneOf``/``anyOf`` alternative contributed the property, when any.

    A record is an immutable named tuple, the cheapest record Python builds:
    a CDM-scale corpus has thousands of properties. Every way of making one
    (calling the class, ``_make``, ``_replace``) raises ValueError for a
    property with neither a ``ref_target`` nor a scalar kind.
    """

    __slots__ = ()

    def __new__(cls, name, ref_target=None, scalar_type=None, enum_values=None, array=0, choice_group=None):
        if ref_target is None and scalar_type not in treeops.PLACEHOLDERS:
            raise ValueError(f"{name}: a property without a ref_target requires a scalar_type")
        return tuple.__new__(cls, (name, ref_target, scalar_type, enum_values, array, choice_group))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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

    ``root_id`` names the root file as given; walks from the root start at
    ``start_id``, the document at the end of the root's ``$ref`` chain (the
    root itself unless its body is a ``$ref``).

    A place in the schema is where a path leads: ``(properties, depth,
    property)``, the properties its next segment is read from (empty when
    nothing is under it), the number of segments read to reach it, and the
    property it names (None for the root or a miss). :meth:`step` moves
    from a place by one key, and :meth:`lookup` is one step from
    :attr:`root_place` by a whole path, returning the property or None, so
    a walk of a document's keys reads each key as a lookup of its path
    would.
    """

    root_id: str
    start_id: str
    documents: dict[str, SchemaDocument]
    max_path_depth: int = DEFAULT_MAX_PATH_DEPTH
    _inline: dict[str, SchemaDocument] = field(default_factory=dict, repr=False)

    def doc(self, doc_id: str) -> SchemaDocument:
        if doc_id in self.documents:
            return self.documents[doc_id]
        return self._inline[doc_id]

    @property
    def root_place(self) -> tuple:
        """The place no segment has been read from: the root's properties."""
        return self.doc(self.start_id).properties, 0, None

    def step(self, place: tuple, key: str) -> tuple:
        """The place ``key`` leads to from ``place``: each of its
        ``.``-separated segments is read in turn from the properties the one
        before it leads to. Empty and all-digit segments (array indices) are
        not read, so a key made only of them stays at ``place``; a segment
        past ``max_path_depth`` names nothing."""
        properties, depth, prop = place
        for segment in key.split("."):
            if not segment or segment.isdigit():
                continue
            depth += 1
            prop = properties.get(segment) if depth <= self.max_path_depth else None
            if prop is not None and prop.ref_target is not None:
                properties = self.doc(prop.ref_target).properties
            else:
                properties = _NOTHING
        return properties, depth, prop

    def lookup(self, path: str) -> Optional[PropertyDef]:
        """The property ``path`` names from the root, or None when it names
        nothing: :meth:`step` from :attr:`root_place` by the whole path, so
        an empty path, or one deeper than ``max_path_depth``, is None."""
        return self.step(self.root_place, path)[2]


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


def _normalize_ref(from_doc: str, ref_text) -> Optional[str]:
    """Canonical document id for a ``$ref`` written inside ``from_doc``: a
    path relative to its directory, or ``#`` for the document itself. A ref
    that is not a non-empty string, or is a JSON pointer (a non-empty
    fragment), gives None."""
    if not isinstance(ref_text, str) or not ref_text:
        return None
    file_part, _, fragment = ref_text.partition("#")
    if fragment:
        return None
    file_part = file_part.strip()
    if not file_part:
        return from_doc
    if file_part[0] == "/":
        return posixpath.normpath(file_part)
    # ``from_doc`` is a normalized relative id, so its directory with a
    # trailing slash is the text before its last one.
    return posixpath.normpath(from_doc[: from_doc.rfind("/") + 1] + file_part)


def load_schema_dir(schema_dir, root_file) -> SchemaIndex:
    """Load every ``.json`` file under ``schema_dir`` and resolve references.

    ``root_file`` may be an absolute path, a path relative to ``schema_dir``,
    or a bare filename within it. Every reference in every file must
    resolve; files the root never links to are loaded too.

    The garbage collector is paused during the load, for the whole process
    and not only this thread, and the setting it had when the load began
    is restored when it returns or raises. That restore is not safe
    against another thread that turns the collector off during a load:
    the load's restore may turn it on again.
    """
    # A load allocates thousands of parsed dicts and records, none of which
    # a collection would free: a CDM-scale corpus ran 27 collections a load.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load(Path(schema_dir), root_file)
    finally:
        if collecting:
            gc.enable()


def _load(base: Path, root_file) -> SchemaIndex:
    if not base.is_dir():
        raise MissingRoot(f"schema directory {base} does not exist")
    root_id = _root_id_for(base, Path(root_file))

    raw_docs: dict[str, dict] = {}
    prefix = os.path.join(base, "")
    for doc_id in treeops.json_files(base):
        parsed = treeops.read_json(prefix + doc_id, doc_id)
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
    """Reads every schema node by one rule, then indexes each document.

    A node is a whole document, a property, an array's ``items`` or an
    ``allOf``/``anyOf``/``oneOf`` member. Its ``$ref``s resolve against the
    document it is written in.

    * A node with ``$ref`` stands for the document at the end of its
      ``$ref`` chain, sibling keys ignored; a cycle is :class:`CycleDetected`.
    * A property is read as the node its ``$ref`` chains and array
      ``items`` lead to, one array level per ``items``, so a ``$ref`` to a
      document that is itself an array schema reads as that array.
    * Any other node is an object when it has ``properties``, ``type:
      object`` or an object member, else a scalar when it has ``enum``, a
      scalar ``type`` or a scalar member. The node that declares the scalar
      gives its kind, enum values and date hint. A node that declares
      neither is an object if it is a whole document, a string if it is a
      property or items, and adds nothing if it is a member.
    * An object's properties are its own, then each member's, in order; the
      first of a name wins, and a document already on the chain of members
      adds nothing. ``oneOf``/``anyOf`` members give a ``choice_group``.
    * An inline object's id is its parent object's id plus ``::name``, with
      one ``[]`` per array level for items (``::name[][]`` for an array of
      arrays), or, for the items of an array document, that document's id
      with one ``[]`` per level; its annotation is its own ``description``.
      Met again inside itself (a member ``$ref`` back to its document), it
      is its ancestor's id.

    A document's own entry lists the properties written in it, so one whose
    body is a ``$ref`` has none; a reference to it, and the index's walk
    from such a root, read its chain's end.
    """

    def __init__(self, raw_docs: dict[str, dict], root_id: str):
        self.raw = raw_docs
        self.root_id = root_id
        self.documents: dict[str, SchemaDocument] = {}
        self.inline: dict[str, SchemaDocument] = {}
        self.reading: dict[int, str] = {}  # node identity -> id of the inline object it is read as
        self.kinds: dict[str, object] = {}  # document id -> its kind, read as a whole document

    def build(self) -> SchemaIndex:
        """The index; a document whose nodes nest deeper than the
        interpreter's recursion limit allows raises
        :class:`MalformedDocument` naming it."""
        for doc_id, raw in self.raw.items():
            try:
                properties = self._properties(doc_id, {}, doc_id, raw, doc_id, frozenset({doc_id}))
            except RecursionError as exc:
                raise MalformedDocument(doc_id, "the schema is nested too deeply to read") from exc
            self.documents[doc_id] = SchemaDocument(properties, self._description(raw))
        start_id, _ = self._resolve(self.root_id, self.raw[self.root_id], self.root_id)
        return SchemaIndex(self.root_id, start_id, self.documents, _inline=self.inline)

    def _properties(self, obj_id, merged, doc_id, node, where, chain, group=None) -> dict[str, PropertyDef]:
        """Adds to ``merged`` the properties of ``node``, written in ``doc_id``
        at ``where``, as properties of the object ``obj_id``."""
        if "properties" in node:
            for name, raw_prop in _keyword(where, node, "properties").items():
                if name not in merged:
                    merged[name] = self._classify(doc_id, obj_id, name, raw_prop, group)
        if "allOf" in node or "anyOf" in node or "oneOf" in node:
            for *member, label in self._members(doc_id, node, where, chain):
                self._properties(obj_id, merged, *member, group or label)
        return merged

    def _members(self, doc_id, node, where, chain):
        """``(document, node, where, chain, choice group)`` for each member of
        ``node``. A ``$ref`` member is the document at the end of its chain,
        and adds nothing when that document is already on ``chain``. A
        member that is not an object raises :class:`MalformedDocument`."""
        for keyword in _COMPOSITES:
            if keyword not in node:
                continue
            for i, member in enumerate(_keyword(where, node, keyword)):
                label = f"{keyword}[{i}]"
                member_where = f"{where}#{label}"
                if not isinstance(member, dict):
                    raise MalformedDocument(member_where, "the member is not an object")
                group = None if keyword == "allOf" else label
                if "$ref" not in member:
                    yield doc_id, member, member_where, chain, group
                    continue
                target, member = self._resolve(doc_id, member, member_where)
                if target not in chain:
                    yield target, member, target, chain | {target}, group

    def _kind(self, doc_id, node, where, chain):
        """``_OBJECT``, the node that declares ``node`` a scalar, or None when
        ``node`` declares neither. A node read at its document's own id is a
        whole document. A ``type`` that is not a string, on a node that is
        not an object by ``properties``, raises :class:`MalformedDocument`."""
        declared_type = node.get("type", "")
        if "properties" in node or declared_type == "object":
            return _OBJECT
        if not isinstance(declared_type, str):
            raise MalformedDocument(where, "'type' is not a string")
        declared = node if "enum" in node or declared_type in _JSON_SCALARS else None
        if "allOf" in node or "anyOf" in node or "oneOf" in node:
            for *member, _ in self._members(doc_id, node, where, chain):
                kind = self._kind(*member)
                if kind is _OBJECT:
                    return _OBJECT
                declared = declared or kind
        return declared or (_OBJECT if where == doc_id else None)

    def _document_kind(self, doc_id):
        """:meth:`_kind` of the document ``doc_id`` read whole (never None),
        read once."""
        kind = self.kinds.get(doc_id)
        if kind is None:
            kind = self.kinds[doc_id] = self._kind(doc_id, self.raw[doc_id], doc_id, frozenset({doc_id}))
        return kind

    def _classify(self, doc_id: str, obj_id: str, name: str, raw_prop, group) -> PropertyDef:
        """One property of the object ``obj_id``, written in ``doc_id``: the
        node that the property's ``$ref`` chains and array ``items`` lead
        to, read by the rule, with one array level per ``items`` followed,
        before a ``$ref`` or after one. Items that lead back to a document
        already passed raise :class:`CycleDetected`."""
        node = raw_prop if isinstance(raw_prop, dict) else {}
        array = levels = 0  # list levels in all, and since the last $ref
        passed: list[str] = []  # the documents the $refs reached
        while True:
            if "$ref" in node:
                written = passed[-1] if passed else f"{doc_id}#{name}"
                doc_id, node = self._resolve(doc_id, node, written)
                if doc_id in passed:
                    raise CycleDetected(f"array items cycle through {' -> '.join(passed + [doc_id])}")
                passed.append(doc_id)
                levels = 0
            elif node.get("type") == "array" or isinstance(node.get("items"), dict):
                array += 1
                levels += 1
                items = node.get("items")
                node = items if isinstance(items, dict) else {}
            else:
                break
        if passed and not levels:
            where, kind = doc_id, self._document_kind(doc_id)
        else:
            where = (doc_id if passed else f"{obj_id}::{name}") + "[]" * levels
            kind = self._kind(doc_id, node, where, frozenset({doc_id}) if passed else _NO_CHAIN)
        # The rule gives every property a ref_target or one of
        # _scalar_type's kinds, so its records skip PropertyDef's check.
        if kind is _OBJECT:
            target = doc_id if where == doc_id else self._register_inline(doc_id, where, node)
            return tuple.__new__(PropertyDef, (name, target, None, None, array, group))
        return tuple.__new__(PropertyDef, (name, None, *self._scalar_type(kind or node), array, group))

    def _register_inline(self, doc_id: str, inline_id: str, node: dict) -> str:
        """``inline_id`` for the inline object ``node`` declares, or an ancestor's while it is read."""
        if id(node) in self.reading:
            return self.reading[id(node)]
        self.reading[id(node)] = inline_id
        properties = self._properties(inline_id, {}, doc_id, node, inline_id, frozenset())
        del self.reading[id(node)]
        self.inline[inline_id] = SchemaDocument(properties, self._description(node))
        return inline_id

    def _resolve(self, doc_id: str, node: dict, where: str) -> tuple[str, dict]:
        """The document at the end of ``node``'s ``$ref`` chain, and its body.
        An :class:`UnresolvedRef` names the ref and where it is written."""
        seen: list[str] = []
        while "$ref" in node:
            ref_text = node["$ref"]
            target = _normalize_ref(doc_id, ref_text)
            if target not in self.raw:
                raise UnresolvedRef(str(ref_text), where)
            if target in seen:
                raise CycleDetected(f"$ref alias cycle through {' -> '.join(seen)}")
            seen.append(target)
            doc_id, node, where = target, self.raw[target], target
        return doc_id, node

    @staticmethod
    def _description(raw: dict) -> Optional[str]:
        value = raw.get("description")
        return value if isinstance(value, str) and value else None

    @staticmethod
    def _scalar_type(raw: dict) -> tuple[str, Optional[tuple[str, ...]]]:
        enum = raw.get("enum")
        if isinstance(enum, list) and enum:
            return "enum", tuple(map(str, enum))
        declared = raw.get("type")
        if declared in ("number", "integer", "boolean"):
            return declared, None
        if declared in ("string", None):
            fmt = raw.get("format")
            if fmt == "date":
                return "date", None
            description = raw.get("description")
            if fmt is None and isinstance(description, str) and _DATE_WORD.search(description):
                return "date", None
        return "string", None
