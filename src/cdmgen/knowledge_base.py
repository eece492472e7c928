"""Chunked example corpus with lexical retrieval.

Example instances are split along subtree boundaries into chunks that fit a
token budget, preserving well-formed JSON in every chunk body. A body is
minified, as a prompt carries it (:func:`gateway.evidence_json`); tokens are
alphanumeric runs, so whitespace never counts toward a budget or a score,
and a base saved with indented bodies ranks the same. The scorer is
a deterministic lexical overlap, so the whole pipeline runs offline. A base
is built once and never changes: its chunks are a tuple, and its postings
index, token to the chunks whose body holds it, is built on the first query
and kept. A query then scores only the chunks that share one of its tokens;
every other chunk scores zero.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import Optional

from .errors import MalformedDocument
from .gateway import evidence_json
from .template_builder import load_examples
from .treeops import conforms, indented_json, read_json_object, write_text

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def lexical_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric tokens; the unit for budgets and overlap."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Chunk:
    """One retrievable fragment of an example instance.

    ``source_path`` locates the subtree within its example (array indices
    included; empty string means the whole file). ``oversized`` marks a
    non-splittable subtree that exceeded the budget but was emitted anyway.
    """

    chunk_id: str
    contract_type: str
    source_path: str
    body: str
    token_estimate: int
    oversized: bool = False


# The kind of each field a saved chunk holds, as ``to_text`` writes it.
_CHUNK_FIELDS = {
    "chunk_id": "string",
    "contract_type": "string",
    "source_path": "string",
    "body": "string",
    "token_estimate": "integer",
    "oversized": "boolean",
}


@dataclass(frozen=True)
class KnowledgeBase:
    """The chunks of a corpus, built once by :func:`ingest_examples` or
    :meth:`load` and only read after: a batch shares one base among its
    contracts. ``chunks`` is kept as a tuple, so no later change to the
    sequence it was built from reaches the base or its index."""

    chunks: tuple[Chunk, ...]

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(self.chunks))

    @cached_property
    def _postings(self) -> "_Postings":
        """The postings index of the chunks, built on the first query; not
        a field, so equality, ``repr`` and ``save`` ignore it."""
        return _Postings(self.chunks)

    def to_text(self) -> str:
        """The saved file's text: the chunks as indented JSON
        (:func:`treeops.indented_json`) and a final newline."""
        payload = {"chunks": [asdict(chunk) for chunk in self.chunks]}
        return indented_json(payload) + "\n"

    def save(self, path) -> None:
        write_text(path, self.to_text())

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        """Read a saved base. Only the chunk fields that ``to_text`` writes
        are read; any other key, at the top or in a chunk, is ignored. A
        base without chunks, a chunk that is not an object, or a chunk field
        that is missing (``oversized`` may be, meaning false) or not of the
        kind ``to_text`` writes raises :class:`MalformedDocument`."""
        payload = read_json_object(path, "chunks")
        entries = payload["chunks"]
        if not isinstance(entries, list) or not entries:
            raise MalformedDocument(str(path), "'chunks' is not a non-empty list")
        chunks = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise MalformedDocument(str(path), f"chunk {i} is not an object")
            entry = {"oversized": False, **entry}
            for name, kind in _CHUNK_FIELDS.items():
                if not conforms(kind, entry.get(name)):
                    raise MalformedDocument(str(path), f"chunk {i} has no {kind} {name!r}")
            chunks.append(Chunk(**{name: entry[name] for name in _CHUNK_FIELDS}))
        return cls(chunks=chunks)


def ingest_examples(example_dir, contract_type: str, chunk_budget: int) -> KnowledgeBase:
    """Split every example under ``example_dir`` into budget-sized chunks.

    A subtree becomes one chunk when its serialized body fits the budget;
    otherwise the split recurses into its children, so every leaf of every
    example lands in exactly one chunk. Leaves that alone exceed the budget
    are emitted oversized rather than dropped. A chunk's id is its
    example's name, as :func:`load_examples` gives it (the path relative to
    ``example_dir``), then ``#`` and the subtree's dot path (array indices
    included, empty for the whole example): ``a/x.json#trade.legs.0``.
    """
    if chunk_budget <= 0:
        raise ValueError("chunk_budget must be positive")
    chunks: list[Chunk] = []
    counts: dict[int, int] = {}
    for file_name, parsed in load_examples(example_dir):
        _split(parsed, file_name, "", None, False, contract_type, chunk_budget, chunks, counts)
    return KnowledgeBase(chunks=chunks)


def _split(value, file_name, path, name, in_array, contract_type, budget, out, counts) -> None:
    tokens = _token_count(value, counts) + (0 if name is None else _string_tokens(name))
    splittable = (isinstance(value, dict) and value) or (isinstance(value, list) and value)
    if tokens <= budget or not splittable:
        oversized = tokens > budget
        if oversized:
            logger.warning(
                "oversized leaf: %s#%s needs %d tokens against a budget of %d",
                file_name,
                path,
                tokens,
                budget,
            )
        out.append(
            Chunk(
                chunk_id=f"{file_name}#{path}",
                contract_type=contract_type,
                source_path=path,
                body=_chunk_body(value, name, in_array),
                token_estimate=tokens,
                oversized=oversized,
            )
        )
        return
    if isinstance(value, dict):
        for key, child in value.items():
            child_path = f"{path}.{key}" if path else key
            _split(child, file_name, child_path, key, False, contract_type, budget, out, counts)
    else:
        for i, element in enumerate(value):
            child_path = f"{path}.{i}" if path else str(i)
            _split(element, file_name, child_path, name, True, contract_type, budget, out, counts)


def _token_count(value, counts: dict[int, int]) -> int:
    """The lexical tokens in ``value``'s minified body: the sum over its keys
    and scalars, since JSON punctuation separates tokens and an escape or a
    case mapping stays inside its string. Kept in ``counts`` by identity for
    ``value`` and each node under it, so one ingest counts each node once.
    The walk keeps its own stack, as ``_split`` is the only recursion."""
    order = []  # the nodes not yet counted, each before the nodes under it
    stack = [value]
    while stack:
        node = stack.pop()
        if id(node) in counts:
            continue
        order.append(node)
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    for node in reversed(order):
        if isinstance(node, dict):
            total = sum(_string_tokens(key) + counts[id(child)] for key, child in node.items())
        elif isinstance(node, list):
            total = sum(counts[id(element)] for element in node)
        elif isinstance(node, str):
            total = _string_tokens(node)
        else:
            total = len(lexical_tokens(json.dumps(node)))
        counts[id(node)] = total
    return counts[id(value)]


def _string_tokens(text: str) -> int:
    return len(lexical_tokens(encode_basestring(text)))


def _chunk_body(value, name: Optional[str], in_array: bool) -> str:
    """Serialize a subtree, wrapped under its field name when it has one,
    minified, as every prompt carries JSON evidence.

    Keeping the field name in the body preserves the logical structure and
    lets lexical retrieval match queries built from field names. An array
    element is wrapped as a one-element array under the array's name.
    """
    if name is None:
        payload = value
    elif in_array:
        payload = {name: [value]}
    else:
        payload = {name: value}
    return evidence_json(payload)


class _Postings:
    """Token to the positions of the chunks whose body holds it, each
    chunk's body token count (at least 1), and every position in chunk-id
    order."""

    def __init__(self, chunks: tuple[Chunk, ...]):
        self.sizes: list[int] = []
        self.by_token: dict[str, list[int]] = {}
        for i, chunk in enumerate(chunks):
            tokens = lexical_tokens(chunk.body)
            self.sizes.append(max(1, len(tokens)))
            for token in set(tokens):
                self.by_token.setdefault(token, []).append(i)
        self.by_id = sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id)


def retrieve(kb: KnowledgeBase, query: str, k: int) -> list[Chunk]:
    """Top-``k`` chunks for a query, ties broken by chunk id ascending, then
    by position in the base; pipeline callers pass ``cfg.k_chunks``.

    A chunk's score is the number of distinct query tokens present in its
    body, normalized by the body's token count. Only chunks that share a
    query token are scored, through the base's postings index, built on
    the base's first query; slots left over go to the others, which all
    score zero, in chunk-id order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not kb.chunks:
        raise ValueError("knowledge base is empty")
    index = kb._postings
    shared = Counter()
    for token in set(lexical_tokens(query)):
        shared.update(index.by_token.get(token, ()))
    scored = sorted(
        (-(overlap / index.sizes[i]), kb.chunks[i].chunk_id, i) for i, overlap in shared.items()
    )
    ranked = [i for _, _, i in scored[:k]]
    if len(ranked) < k:
        zero = (i for i in index.by_id if i not in shared)
        ranked += itertools.islice(zero, k - len(ranked))
    return [kb.chunks[i] for i in ranked]
