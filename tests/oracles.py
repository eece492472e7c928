"""Independent reference implementations used to derive expected values.

Nothing in here may import from cdmgen: these are deliberately naive
re-implementations (raw-file schema walks, sweep-until-stable fixpoints,
exact-fraction arithmetic) that the tests compare the real code against.
"""

from __future__ import annotations

import json
import math
import posixpath
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional


# ---------------------------------------------------------------------------
# brute-force schema path enumeration (walks the raw JSON files directly)


def json_files(directory) -> list[str]:
    """Relative POSIX paths of the ``.json`` files under ``directory``, as a
    sorted pathlib listing gives them, directories left out."""
    base = Path(directory)
    return [
        file.relative_to(base).as_posix()
        for file in sorted(base.rglob("*.json"))
        if not file.is_dir()
    ]


def load_raw_schemas(schema_dir) -> dict[str, dict]:
    base = Path(schema_dir)
    return {
        doc_id: json.loads((base / doc_id).read_text(encoding="utf-8"))
        for doc_id in json_files(base)
    }


def enumerate_schema_paths(schema_dir, root_file: str, max_segments: int = 10) -> set[str]:
    """Every legal dot-path (interior and leaf) reachable from the root.

    Depth-capped so self-referential schemas terminate. Composites are read
    as unions. Returns normalized paths (no indices, by construction).
    """
    raw = load_raw_schemas(schema_dir)
    found: set[str] = set()

    def props_of(doc_id: str, doc: dict, seen: frozenset[str]):
        if doc_id in seen:
            return
        seen = seen | {doc_id}
        for name, prop in doc.get("properties", {}).items():
            yield doc_id, name, prop
        for keyword in ("allOf", "anyOf", "oneOf"):
            for member in doc.get(keyword, []) or []:
                if not isinstance(member, dict):
                    continue
                if "$ref" in member:
                    target = _resolve(doc_id, member["$ref"])
                    if target in raw:
                        yield from props_of(target, raw[target], seen)
                else:
                    for name, prop in member.get("properties", {}).items():
                        yield doc_id, name, prop

    def walk(doc_id: str, doc: dict, prefix: str, segments: int):
        if segments >= max_segments:
            return
        for owner, name, prop in props_of(doc_id, doc, frozenset()):
            path = f"{prefix}.{name}" if prefix else name
            found.add(path)
            target_doc, target_id = _target_of(owner, prop, raw)
            if target_doc is not None:
                walk(target_id, target_doc, path, segments + 1)

    walk(root_file, raw[root_file], "", 0)
    return found


def enumerate_scalar_leaf_paths(schema_dir, root_file: str, max_segments: int = 10) -> set[str]:
    """Paths that end at a scalar (placeholder-bearing) property."""
    raw = load_raw_schemas(schema_dir)
    leaves: set[str] = set()

    def walk(doc_id: str, doc: dict, prefix: str, segments: int):
        if segments >= max_segments:
            return
        for name, prop in doc.get("properties", {}).items():
            path = f"{prefix}.{name}" if prefix else name
            target_doc, target_id = _target_of(doc_id, prop, raw)
            if target_doc is None:
                leaves.add(path)
            else:
                walk(target_id, target_doc, path, segments + 1)

    walk(root_file, raw[root_file], "", 0)
    return leaves


def _resolve(from_doc: str, ref: str) -> str:
    file_part = ref.split("#", 1)[0]
    if not file_part:
        return from_doc
    return posixpath.normpath(posixpath.join(posixpath.dirname(from_doc), file_part))


def _target_of(doc_id: str, prop: dict, raw: dict):
    """(document dict, id) an object-like property leads to, else (None, None)."""
    if not isinstance(prop, dict):
        return None, None
    if "$ref" in prop:
        target = _resolve(doc_id, prop["$ref"])
        doc = raw.get(target)
        if doc is not None and _objectish(doc):
            return doc, target
        return None, None
    items = prop.get("items")
    if isinstance(items, dict):
        if "$ref" in items:
            target = _resolve(doc_id, items["$ref"])
            doc = raw.get(target)
            if doc is not None and _objectish(doc):
                return doc, target
            return None, None
        if "properties" in items:
            return items, doc_id
        return None, None
    if "properties" in prop:
        return prop, doc_id
    return None, None


def _objectish(doc: dict) -> bool:
    if "properties" in doc:
        return True
    for keyword in ("allOf", "anyOf", "oneOf"):
        for member in doc.get(keyword, []) or []:
            if isinstance(member, dict) and ("properties" in member or "$ref" in member):
                return True
    return False


# ---------------------------------------------------------------------------
# sweep-until-stable fixpoint oracles


def clean_fixpoint(tree):
    """Repeated one-level sweeps until nothing changes."""
    current = tree
    while True:
        swept = _clean_sweep(current)
        if swept == current:
            return swept
        current = swept


def _clean_sweep(value):
    if isinstance(value, dict):
        return {k: _clean_sweep(v) for k, v in value.items() if not _clean_removable(v)}
    if isinstance(value, list):
        return [_clean_sweep(v) for v in value if not _clean_removable(v)]
    return value


def _clean_removable(value) -> bool:
    return value in ("", "YYYY-MM-DD") or value == {} or value == []


def prune_fixpoint(tree, annotation_keys=("description", "_template_description")):
    """Sweep-until-stable removal of structures empty apart from annotations."""
    current = tree
    while True:
        swept = _prune_sweep(current, annotation_keys)
        if swept == current:
            return swept
        current = swept


def _prune_sweep(value, annotation_keys):
    if isinstance(value, dict):
        out = {
            k: _prune_sweep(v, annotation_keys)
            for k, v in value.items()
            if not _prune_removable(v, annotation_keys)
        }
        if all(_is_annotation(k, v, annotation_keys) for k, v in out.items()):
            return {k: v for k, v in out.items() if not _is_annotation(k, v, annotation_keys)}
        return out
    if isinstance(value, list):
        return [
            _prune_sweep(v, annotation_keys)
            for v in value
            if not _prune_removable(v, annotation_keys)
        ]
    return value


def _is_annotation(key, value, annotation_keys) -> bool:
    return (
        key in annotation_keys
        and isinstance(value, str)
        and value not in ("", "YYYY-MM-DD")
    )


def _prune_removable(value, annotation_keys) -> bool:
    if isinstance(value, dict):
        return all(_is_annotation(k, v, annotation_keys) for k, v in value.items())
    if isinstance(value, list):
        return not value
    return False


# ---------------------------------------------------------------------------
# two-pass template builder


PLACEHOLDERS = {"string": "", "enum": "", "date": "YYYY-MM-DD", "number": 0, "integer": 0, "boolean": False}


def build_two_pass(index, keys) -> dict:
    """The template tree of a ``SchemaIndex`` for the example ``keys`` (a
    set of dot-paths), built in two passes: first the whole covered tree,
    where every covered object is kept and annotated with its document's
    description (under ``_template_description`` when a covered property
    is named ``description``), then :func:`prune_fixpoint` of that tree.
    Recursion ends because every covered path is a prefix of a key."""
    covered = prefix_closure(keys)

    def traverse(doc_id, prefix):
        doc = index.doc(doc_id)
        children = {}
        for name, prop in doc.properties.items():
            path = f"{prefix}.{name}" if prefix else name
            if path not in covered:
                continue
            if prop.ref_target is not None:
                value = traverse(prop.ref_target, path)
            else:
                value = PLACEHOLDERS[prop.scalar_type]
            for _ in range(prop.array):
                value = [value]
            children[name] = value
        if not doc.description:
            return children
        key = "_template_description" if "description" in children else "description"
        return {key: doc.description, **children}

    return prune_fixpoint(traverse(index.start_id, ""))


# ---------------------------------------------------------------------------
# arithmetic and structural oracles


def coverage_score_fraction(c: int, u: int, e: int, mu: float, epsilon: float) -> Fraction:
    """Exact-fraction evaluation of the weighted coverage formula."""
    denominator = Fraction(c) + Fraction(mu) * u + Fraction(epsilon) * e
    return Fraction(c * 100) / denominator


def two_point_population_stddev(a: float, b: float) -> float:
    mean = (a + b) / 2
    return (((a - mean) ** 2 + (b - mean) ** 2) / 2) ** 0.5


def scan_structured(text: str) -> dict | None:
    """Character-scanning JSON object extraction: fenced blocks first, each
    decoded whole, then every ``{`` whose brace-balanced span (string
    literals and escapes respected) decodes. None when nothing does."""
    if not text:
        return None
    pieces = text.split("```")
    for i in range(1, len(pieces), 2):
        block = pieces[i]
        first_newline = block.find("\n")
        if first_newline != -1 and block[:first_newline].strip().isalpha():
            block = block[first_newline + 1 :]
        parsed = _loads_object(block.strip())
        if parsed is not None:
            return parsed
    for start, char in enumerate(text):
        if char != "{":
            continue
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            c = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_string = False
                continue
            if c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    parsed = _loads_object(text[start : i + 1])
                    if parsed is not None:
                        return parsed
                    break
    return None


def _loads_object(candidate: str) -> dict | None:
    """The object ``candidate`` decodes to, or None when it does not decode
    to one a JSON file can hold: an integer too long for Python to read
    fails to decode, and a non-finite float (``NaN``, ``Infinity``, or a
    literal too large for a float) anywhere in it is refused."""
    try:
        parsed = json.loads(candidate)
    except ValueError:
        return None
    if not isinstance(parsed, dict) or not _all_finite(parsed):
        return None
    return parsed


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(child) for child in value.values())
    if isinstance(value, list):
        return all(_all_finite(child) for child in value)
    return not isinstance(value, float) or math.isfinite(value)


def shape_matches(prototype, value) -> bool:
    """Naive recursive shape comparator (arrays repeat one prototype)."""
    annotation_keys = ("description", "_template_description")
    if isinstance(prototype, dict):
        if not isinstance(value, dict):
            return False
        expected = {
            k: v
            for k, v in prototype.items()
            if not _is_annotation(k, v, annotation_keys)
        }
        if set(expected) != set(value):
            return False
        return all(shape_matches(expected[k], value[k]) for k in expected)
    if isinstance(prototype, list):
        if not isinstance(value, list) or not value:
            return False
        if not prototype:
            return True
        return all(shape_matches(prototype[0], element) for element in value)
    if isinstance(prototype, bool):
        return isinstance(value, bool)
    if isinstance(prototype, (int, float)):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if prototype == "YYYY-MM-DD":
        return isinstance(value, str) and (
            value == "YYYY-MM-DD"
            or (len(value) == 10 and value[4] == "-" and value[7] == "-")
        )
    return isinstance(value, str)


def leaf_multiset(value, prefix=""):
    """Multiset of (normalized path, leaf value) pairs of a JSON tree."""
    out = []
    if isinstance(value, dict):
        if not value:
            return [(prefix, "{}")] if prefix else []
        for k, v in value.items():
            out.extend(leaf_multiset(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(value, list):
        if not value:
            return [(prefix, "[]")] if prefix else []
        for v in value:
            out.extend(leaf_multiset(v, prefix))
    else:
        out.append((prefix, json.dumps(value)))
    return out


# ---------------------------------------------------------------------------
# exhaustive lexical retrieval


def exhaustive_retrieve(chunks, query: str, k: int) -> list:
    """Top-``k`` of ``chunks`` by a full scan: every body is tokenized for
    this query and scored by distinct shared lowercase alphanumeric tokens
    over its token count (at least 1); ranked by score descending, then
    chunk id, then position in ``chunks``."""

    def tokens(text: str) -> list[str]:
        return re.findall(r"[a-z0-9]+", text.lower())

    wanted = set(tokens(query))
    scored = []
    for position, chunk in enumerate(chunks):
        body = tokens(chunk.body)
        score = len(wanted & set(body)) / max(1, len(body))
        scored.append((-score, chunk.chunk_id, position))
    return [chunks[position] for _, _, position in sorted(scored)[:k]]


def task_query_by_names(task) -> str:
    """A population task's retrieval query as first written: each data key
    of its subtree once, in the order first met, then its object definition
    and its traversal path, joined by spaces."""
    names: list[str] = []

    def collect(value):
        if isinstance(value, dict):
            for key, child in value.items():
                if _is_annotation(key, child, ("description", "_template_description")):
                    continue
                if key not in names:
                    names.append(key)
                collect(child)
        elif isinstance(value, list):
            for child in value:
                collect(child)

    collect(task.target_subtree)
    parts = names
    if task.object_definition:
        parts = parts + [task.object_definition]
    parent = task.target_path.split(".")[:-1]
    if parent:
        parts = parts + [".".join(parent)]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# knowledge-base ingest with indented bodies


def ingest_indented(examples, contract_type: str, budget: int) -> list:
    """Chunks of ``examples``, (file name, parsed value) pairs in file
    order, as ingest made them when every body was JSON indented by two
    spaces: a subtree is one chunk when its body, wrapped under its field
    name (an array element as a one-element array under the array's name),
    has at most ``budget`` lowercase alphanumeric tokens, or cannot be split;
    else each child is chunked in turn. Each chunk is a SimpleNamespace with
    the fields of a saved chunk."""
    chunks = []

    def visit(value, file_name, path, name, in_array):
        if name is None:
            wrapped = value
        else:
            wrapped = {name: [value] if in_array else value}
        body = json.dumps(wrapped, indent=2, ensure_ascii=False)
        count = len(re.findall(r"[a-z0-9]+", body.lower()))
        if count > budget and isinstance(value, dict) and value:
            for key in value:
                visit(value[key], file_name, f"{path}.{key}" if path else key, key, False)
        elif count > budget and isinstance(value, list) and value:
            for i in range(len(value)):
                visit(value[i], file_name, f"{path}.{i}" if path else str(i), name, True)
        else:
            chunks.append(
                SimpleNamespace(
                    chunk_id=f"{file_name}#{path}",
                    contract_type=contract_type,
                    source_path=path,
                    body=body,
                    token_estimate=count,
                    oversized=count > budget,
                )
            )

    for file_name, parsed in examples:
        visit(parsed, file_name, "", None, False)
    return chunks


# ---------------------------------------------------------------------------
# two-pass task planner


TASK_FIELDS = (
    "target_path",
    "segments",
    "context",
    "target_subtree",
    "structure_text",
    "unwrap_key",
    "object_definition",
)


def plan_two_pass(tree: dict, d: int) -> list:
    """The tasks of a template ``tree`` at depth threshold ``d``, planned in
    two passes: first a copy of the whole tree with every node's name, path,
    address, children and depth (a leaf 1, a container 1 + its deepest
    child, an empty container 1), then a walk of that copy that makes a
    task of each node of depth <= ``d`` and splits every deeper one into
    its children. Annotations (``_template_description``, or a
    ``description`` holding text that is not a placeholder) are neither
    children nor counted in depth. A task's ``structure_text`` shows its
    fragment as ``tree`` holds it, annotations included, and its
    ``target_subtree`` is that fragment without them. Each task is a
    SimpleNamespace of :data:`TASK_FIELDS`."""

    def is_annotation(key, value):
        if key == "_template_description":
            return True
        return key == "description" and isinstance(value, str) and value not in ("", "YYYY-MM-DD")

    def annotate(name, path, segments, fragment):
        children = []
        if isinstance(fragment, dict):
            for key, value in fragment.items():
                if not is_annotation(key, value):
                    child_path = f"{path}.{key}" if path else key
                    children.append(annotate(key, child_path, segments + (key,), value))
        elif isinstance(fragment, list):
            for i, value in enumerate(fragment):
                children.append(annotate(name, path, segments + (i,), value))
        depth = 1 + max((child.depth for child in children), default=0)
        return SimpleNamespace(
            name=name, path=path, segments=segments, depth=depth, children=children, fragment=fragment
        )

    def definition(fragment):
        if isinstance(fragment, list) and fragment and isinstance(fragment[0], dict):
            fragment = fragment[0]
        if not isinstance(fragment, dict):
            return ""
        if isinstance(fragment.get("_template_description"), str):
            return fragment["_template_description"]
        value = fragment.get("description")
        return value if is_annotation("description", value) else ""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(child) for key, child in value.items() if not is_annotation(key, child)}
        if isinstance(value, list):
            return [plain(child) for child in value]
        return value

    def task(node):
        shown, unwrap_key = json.loads(json.dumps(node.fragment)), None
        if not isinstance(shown, dict):
            shown, unwrap_key = {node.name: shown}, node.name
        return SimpleNamespace(
            target_path=node.path,
            segments=node.segments,
            context=node.path.rpartition(".")[0],
            target_subtree=plain(shown),
            structure_text=json.dumps(shown, indent=2, ensure_ascii=False),
            unwrap_key=unwrap_key,
            object_definition=definition(node.fragment),
        )

    tasks = []

    def select(node):
        if node.depth <= d:
            tasks.append(task(node))
        else:
            for child in node.children:
                select(child)

    select(annotate("", "", (), tree))
    return tasks


# ---------------------------------------------------------------------------
# the tree walks as first written: nested generators, split-and-join
# prefixes, a lookup from the root for every key occurrence


def lookup_path(index, path):
    """``(exists, property)`` for a dot-path of a ``SchemaIndex``, as lookup
    was first written: the path is split at every ``.``, its empty and
    all-digit segments are dropped, and the rest are read in turn from the
    start document, each from the document the property before it refers
    to. ``"empty"`` for a path that is empty or only dots, ``"too deep"``
    for one with more segments left than ``index.max_path_depth``."""
    if not path.strip("."):
        return "empty"
    segments = [segment for segment in path.split(".") if segment and not segment.isdigit()]
    if len(segments) > index.max_path_depth:
        return "too deep"
    prop, doc_id = None, index.start_id
    for segment in segments:
        if doc_id is None:
            return False, None
        prop = index.doc(doc_id).properties.get(segment)
        if prop is None:
            return False, None
        doc_id = prop.ref_target
    return prop is not None, prop


def property_at_path(index, path):
    """The property :func:`lookup_path` finds, or None."""
    outcome = lookup_path(index, path)
    return outcome[1] if isinstance(outcome, tuple) else None


def leaf_paths_generator(value, prefix="", items=dict.items):
    """Yield (dot-path, leaf) for every leaf of a tree, by nested
    generators: array indices add no segment, an empty container is a leaf,
    a leaf without a path is skipped, and ``items`` lists an object's
    children."""
    if isinstance(value, dict):
        children = items(value)
        if not children:
            if prefix:
                yield prefix, value
            return
        for key, child in children:
            yield from leaf_paths_generator(child, f"{prefix}.{key}" if prefix else key, items)
    elif isinstance(value, list):
        if not value:
            if prefix:
                yield prefix, value
            return
        for element in value:
            yield from leaf_paths_generator(element, prefix, items)
    elif prefix:
        yield prefix, value


def prefix_closure(paths) -> set[str]:
    """Every prefix at a ``.`` of every path, the path included, made by
    splitting the path into segments and joining the first 1, 2, ... of
    them."""
    closure = set()
    for path in paths:
        segments = path.split(".")
        for i in range(1, len(segments) + 1):
            closure.add(".".join(segments[:i]))
    return closure


def key_occurrence_detail(doc, resolve) -> list[dict]:
    """``exists`` and ``adheres`` of every key occurrence of ``doc``, in
    pre-order under its dot-path (array indices add no segment), each path
    resolved from the root by ``resolve`` (such as :func:`property_at_path`).

    A value adheres when it has a list at each of the property's ``array``
    levels and every innermost element is an object (a property with a
    ``ref_target``) or a scalar of its ``scalar_type``."""
    detail = []

    def walk(value, prefix):
        if isinstance(value, dict):
            for key, child in value.items():
                path = f"{prefix}.{key}" if prefix else key
                prop = resolve(path)
                adheres = prop is not None and _adheres(prop, child)
                detail.append({"path": path, "exists": prop is not None, "adheres": adheres})
                walk(child, path)
        elif isinstance(value, list):
            for element in value:
                walk(element, prefix)

    walk(doc, "")
    return detail


def _adheres(prop, value) -> bool:
    values = [value]
    for _ in range(prop.array):
        if not all(isinstance(v, list) for v in values):
            return False
        values = [element for v in values for element in v]
    if prop.ref_target is not None:
        return all(isinstance(v, dict) for v in values)
    return all(_scalar_of(prop.scalar_type, v, prop.enum_values) for v in values)


def _scalar_of(kind, value, enum_values) -> bool:
    if kind == "boolean":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind in ("number", "integer"):
        return isinstance(value, int if kind == "integer" else (int, float))
    if not isinstance(value, str):
        return False
    if kind == "date":
        return re.match(r"^\d{4}-\d{2}-\d{2}$", value) is not None
    return kind != "enum" or value in (enum_values or ())


# ---------------------------------------------------------------------------
# the schema index builder as first written: frozen-dataclass records, a
# members generator for every node, both error locations formatted for
# every property, a $ref-reached document's kind read each time it is met


class ReferenceBuildError(Exception):
    """An error of the reference builder; its class name and text are what
    the real builder's must equal."""

    name = ""

    def __repr__(self):
        return f"{self.name}({str(self)!r})"


class ReferenceMalformed(ReferenceBuildError):
    name = "MalformedDocument"

    def __init__(self, file, detail):
        super().__init__(f"{file}: {detail}")


class ReferenceUnresolved(ReferenceBuildError):
    name = "UnresolvedRef"

    def __init__(self, ref_text, referencing_path):
        super().__init__(f"unresolved schema reference {ref_text!r} (referenced from {referencing_path})")


class ReferenceCycle(ReferenceBuildError):
    name = "CycleDetected"


_REF_SCALARS = {"string", "number", "integer", "boolean"}
_REF_COMPOSITES = ("allOf", "anyOf", "oneOf")
_REF_DATE_WORD = re.compile(r"\bdate\b", re.IGNORECASE)
_REF_OBJECT = object()


@dataclass(frozen=True)
class ReferenceProperty:
    name: str
    ref_target: Optional[str] = None
    scalar_type: Optional[str] = None
    enum_values: Optional[tuple] = None
    array: int = 0
    choice_group: Optional[str] = None

    def __post_init__(self):
        if self.ref_target is None and self.scalar_type not in PLACEHOLDERS:
            raise ValueError(f"{self.name}: a property without a ref_target requires a scalar_type")


@dataclass(frozen=True)
class ReferenceDocument:
    properties: dict
    description: Optional[str] = None


def reference_index(raw_docs: dict, root_id: str) -> SimpleNamespace:
    """``root_id``, ``start_id``, ``documents`` and ``inline`` of the index
    the first builder made of parsed documents ``raw_docs``; its errors are
    :class:`ReferenceBuildError`."""
    return _ReferenceBuilder(raw_docs, root_id).build()


def _ref_keyword(where, raw, keyword):
    expected = dict if keyword == "properties" else list
    value = raw.get(keyword, expected())
    if not isinstance(value, expected):
        article = "an object" if expected is dict else "a list"
        raise ReferenceMalformed(where, f"{keyword!r} is not {article}")
    return value


def _ref_normalize(from_doc, ref_text):
    if not isinstance(ref_text, str) or not ref_text or ref_text.partition("#")[2]:
        return None
    file_part = ref_text.partition("#")[0].strip()
    if not file_part:
        return from_doc
    base = posixpath.dirname(from_doc)
    return posixpath.normpath(posixpath.join(base, file_part))


class _ReferenceBuilder:
    def __init__(self, raw_docs, root_id):
        self.raw = raw_docs
        self.root_id = root_id
        self.documents = {}
        self.inline = {}
        self.reading = {}

    def build(self):
        for doc_id, raw in self.raw.items():
            try:
                properties = self._properties(doc_id, {}, doc_id, raw, doc_id, frozenset({doc_id}))
            except RecursionError as exc:
                raise ReferenceMalformed(doc_id, "the schema is nested too deeply to read") from exc
            self.documents[doc_id] = ReferenceDocument(properties, self._description(raw))
        start_id, _ = self._resolve(self.root_id, self.raw[self.root_id], self.root_id)
        return SimpleNamespace(root_id=self.root_id, start_id=start_id, documents=self.documents, inline=self.inline)

    def _properties(self, obj_id, merged, doc_id, node, where, chain, group=None):
        for name, raw_prop in _ref_keyword(where, node, "properties").items():
            if name not in merged:
                merged[name] = self._classify(doc_id, obj_id, name, raw_prop, group)
        for *member, label in self._members(doc_id, node, where, chain):
            self._properties(obj_id, merged, *member, group or label)
        return merged

    def _members(self, doc_id, node, where, chain):
        for keyword in _REF_COMPOSITES:
            if keyword not in node:
                continue
            for i, member in enumerate(_ref_keyword(where, node, keyword)):
                label = f"{keyword}[{i}]"
                member_where = f"{where}#{label}"
                if not isinstance(member, dict):
                    raise ReferenceMalformed(member_where, "the member is not an object")
                group = None if keyword == "allOf" else label
                if "$ref" not in member:
                    yield doc_id, member, member_where, chain, group
                    continue
                target, member = self._resolve(doc_id, member, member_where)
                if target not in chain:
                    yield target, member, target, chain | {target}, group

    def _kind(self, doc_id, node, where, chain):
        if "properties" in node or node.get("type") == "object":
            return _REF_OBJECT
        if not isinstance(node.get("type", ""), str):
            raise ReferenceMalformed(where, "'type' is not a string")
        declared = node if "enum" in node or node.get("type") in _REF_SCALARS else None
        for *member, _ in self._members(doc_id, node, where, chain):
            kind = self._kind(*member)
            if kind is _REF_OBJECT:
                return _REF_OBJECT
            declared = declared or kind
        return declared or (_REF_OBJECT if where == doc_id else None)

    def _classify(self, doc_id, obj_id, name, raw_prop, group):
        node = raw_prop if isinstance(raw_prop, dict) else {}
        array = 0
        where, chain, written = f"{obj_id}::{name}", frozenset(), f"{doc_id}#{name}"
        passed = []
        while True:
            if "$ref" in node:
                doc_id, node = self._resolve(doc_id, node, written)
                if doc_id in passed:
                    raise ReferenceCycle(f"array items cycle through {' -> '.join(passed + [doc_id])}")
                passed.append(doc_id)
                where, chain, written = doc_id, frozenset({doc_id}), doc_id
            elif node.get("type") == "array" or isinstance(node.get("items"), dict):
                array += 1
                where += "[]"
                items = node.get("items")
                node = items if isinstance(items, dict) else {}
            else:
                break
        kind = self._kind(doc_id, node, where, chain)
        if kind is _REF_OBJECT:
            target = doc_id if where == doc_id else self._register_inline(doc_id, where, node)
            return ReferenceProperty(name, ref_target=target, array=array, choice_group=group)
        scalar_type, enum_values = self._scalar_type(kind or node)
        return ReferenceProperty(
            name, scalar_type=scalar_type, enum_values=enum_values, array=array, choice_group=group
        )

    def _register_inline(self, doc_id, inline_id, node):
        if id(node) in self.reading:
            return self.reading[id(node)]
        self.reading[id(node)] = inline_id
        properties = self._properties(inline_id, {}, doc_id, node, inline_id, frozenset())
        del self.reading[id(node)]
        self.inline[inline_id] = ReferenceDocument(properties, self._description(node))
        return inline_id

    def _resolve(self, doc_id, node, where):
        seen = []
        while "$ref" in node:
            ref_text = node["$ref"]
            target = _ref_normalize(doc_id, ref_text)
            if target not in self.raw:
                raise ReferenceUnresolved(str(ref_text), where)
            if target in seen:
                raise ReferenceCycle(f"$ref alias cycle through {' -> '.join(seen)}")
            seen.append(target)
            doc_id, node, where = target, self.raw[target], target
        return doc_id, node

    @staticmethod
    def _description(raw):
        value = raw.get("description")
        return value if isinstance(value, str) and value else None

    @staticmethod
    def _scalar_type(raw):
        enum = raw.get("enum")
        if isinstance(enum, list) and enum:
            return "enum", tuple(str(v) for v in enum)
        declared = raw.get("type")
        fmt = raw.get("format")
        description = raw.get("description")
        if declared in ("string", None):
            if fmt == "date":
                return "date", None
            if fmt is None and isinstance(description, str) and _REF_DATE_WORD.search(description):
                return "date", None
        if declared in ("number", "integer", "boolean"):
            return declared, None
        return "string", None
