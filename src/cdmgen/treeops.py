"""Low-level helpers for the nested dict/list trees used throughout cdmgen.

Templates and populated documents are plain JSON-style trees. Object nodes
may carry one annotation entry (``description`` or ``_template_description``)
that is metadata, not data; every helper here skips annotations consistently
so depth, leaf and key enumeration agree across modules. The scalar kinds
of template leaves, their placeholders and the rule for what each kind may
hold live here too, and so do the listing and reading of JSON input files,
with one rule for what a file that is not UTF-8 JSON raises (a lone
surrogate escape such as ``"\\ud800"`` is not UTF-8 text either), and the
one atomic writer of every output file.
"""

from __future__ import annotations

import json
import operator
import os
import re
import stat
from contextlib import contextmanager
from json.encoder import encode_basestring as _encode_string
from typing import Any, Iterator, Optional

from .errors import MalformedDocument, OutputUnwritable

DESCRIPTION_KEY = "description"
FALLBACK_DESCRIPTION_KEY = "_template_description"

DATE_TOKEN = "YYYY-MM-DD"
DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# The scalar kinds a schema leaf can have, each with the placeholder a
# template gives it: the empty string for strings and enums, a fixed lexical
# token for dates, zero for numbers, false for booleans.
PLACEHOLDERS = {
    "string": "",
    "enum": "",
    "date": DATE_TOKEN,
    "number": 0,
    "integer": 0,
    "boolean": False,
}


def placeholder_kind(placeholder) -> str:
    """The kind a placeholder stands for, as far as it tells:
    ``boolean``, ``number``, ``date`` or ``string``."""
    if isinstance(placeholder, bool):
        return "boolean"
    if isinstance(placeholder, (int, float)):
        return "number"
    if placeholder == DATE_TOKEN:
        return "date"
    return "string"


def conforms(kind: str, value, enum_values=()) -> bool:
    """Whether ``value`` is a leaf value of scalar ``kind``; an enum value
    must be one of ``enum_values``."""
    if kind == "boolean":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind == "number":
        return isinstance(value, (int, float))
    if kind == "integer":
        return isinstance(value, int)
    if not isinstance(value, str):
        return False
    if kind == "date":
        return bool(DATE_RE.match(value))
    if kind == "enum":
        return value in (enum_values or ())
    return True


def json_files(directory) -> list[str]:
    """Relative POSIX paths of the ``.json`` files under ``directory``.

    The order is that of the paths' segments, as ``sorted(Path.rglob(...))``
    gives it: ``a/b.json`` sorts before ``a-b.json``. Directories are never
    listed, even when their names end in ``.json``; symbolic links to
    directories are not followed, and a directory that cannot be listed
    lists nothing, as :func:`os.walk` skips it.

    Each directory's entries are visited in name order, and a
    subdirectory's files are listed where its name sorts: that is the
    segment order, with no sort of the whole list.
    """
    found: list[str] = []
    _list_json_files(os.fspath(directory), "", found)
    return found


_entry_name = operator.attrgetter("name")


def _list_json_files(path: str, prefix: str, found: list) -> None:
    try:
        with os.scandir(path) as listing:
            entries = sorted(listing, key=_entry_name)
    except OSError:
        return
    for entry in entries:
        try:
            is_dir = entry.is_dir()
        except OSError:
            is_dir = False
        if is_dir:
            if not entry.is_symlink():
                _list_json_files(entry.path, f"{prefix}{entry.name}/", found)
        elif entry.name.endswith(".json"):
            found.append(prefix + entry.name)


def read_text(path, name: Optional[str] = None) -> str:
    """A UTF-8 text file's contents, with CRLF and CR line ends read as LF
    as text-mode :func:`open` reads them; a file that cannot be read (the
    system's reason given), is not a regular file, or holds bytes that are
    not UTF-8 raises :class:`MalformedDocument` naming the file as ``name``
    (by default, as ``path``).

    The file is opened without blocking and checked before it is read, so
    a FIFO or a device named like an input fails at once instead of
    waiting for a writer or reading without end. It is read with
    :func:`os.read`, asking for one byte more than its size, so that one
    read returns a file that has not grown since and its short count shows
    the end: a schema corpus is thousands of small files, and a text-mode
    file object costs more than the read.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise MalformedDocument(name or str(path), "is not a regular file")
            data = os.read(fd, info.st_size + 1)
            if len(data) > info.st_size:
                chunks = [data]
                while chunk := os.read(fd, 1 << 16):
                    chunks.append(chunk)
                data = b"".join(chunks)
        finally:
            os.close(fd)
    except OSError as exc:
        raise MalformedDocument(name or str(path), f"cannot be read: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(name or str(path), f"not UTF-8 ({exc.reason})", exc.start) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@contextmanager
def _writing(path):
    """An OSError in the block raises :class:`OutputUnwritable` naming
    ``path``, with the system's reason but not its (random) file names."""
    try:
        yield
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_dirs(directory) -> None:
    """Make ``directory`` and its missing parents."""
    with _writing(directory):
        os.makedirs(directory, exist_ok=True)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically: the text goes to a
    temporary file beside the target, which then replaces the target, so a
    reader sees the old file or the new one, never part of either. Missing
    parent directories are made; the temporary file is removed on failure,
    and an OSError raises :class:`OutputUnwritable`.

    The file gets the mode :func:`open` gives a new file, 0666 less the
    umask. Nothing is synced to disk.
    """
    directory, name = os.path.split(os.fspath(path))
    make_dirs(directory or os.curdir)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}")
    with _writing(path):
        handle = open(temp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise


def lone_surrogate(value) -> Optional[str]:
    """The first lone surrogate in the strings of a parsed JSON ``value``,
    keys included, as a ``\\uXXXX`` escape; None when it holds none.

    JSON text can escape half of a UTF-16 pair on its own (``"\\ud800"``),
    and :func:`json.loads` keeps it; such a string is not Unicode text and
    cannot be written as UTF-8. Text decoded from UTF-8 holds no surrogate,
    so a value parsed from it can hold one only if the text holds a ``\\u``
    escape; a caller may skip this check when it holds none.
    """
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"\\u{ord(exc.object[exc.start]):04x}"
    return None


def indented_json(value) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, byte for byte,
    for a JSON value with string keys.

    With ``indent`` set, json leaves its C encoder for a pure-Python one
    whose closures the garbage collector must clear; this recursion
    encodes each string with json's C ``encode_basestring`` instead.
    """
    parts: list[str] = []
    _encode_indented(value, "\n", parts)
    return "".join(parts)


def _encode_indented(value, newline: str, parts: list) -> None:
    if isinstance(value, str):
        parts.append(_encode_string(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, child in value.items():
            parts += (separator, _encode_string(key), ": ")
            _encode_indented(child, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        separator = "[" + inner
        for child in value:
            parts.append(separator)
            _encode_indented(child, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        # null, floats and empty containers, none of which a template's
        # placeholders are, as json writes them; json raises TypeError for
        # a value it cannot encode.
        parts.append(json.dumps(value))


def read_json(path, name: Optional[str] = None):
    """The JSON value in a UTF-8 file; a file that cannot be read, text
    that is not UTF-8 or not JSON, a value nested deeper than the parser's
    recursion limit, an integer too long for Python to read, or a value
    holding a lone surrogate escape, raises :class:`MalformedDocument`
    naming the file as ``name`` (by default, as ``path``)."""
    text = read_text(path, name)
    try:
        value = json.loads(text)
        surrogate = "\\u" in text and lone_surrogate(value)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(name or str(path), exc.msg, exc.pos) from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise MalformedDocument(name or str(path), "a number too long to read") from exc
    except RecursionError as exc:
        raise MalformedDocument(name or str(path), "the JSON value is nested too deeply to read") from exc
    if surrogate:
        raise MalformedDocument(name or str(path), f"the lone surrogate {surrogate} is not UTF-8 text")
    return value


def read_json_object(path, *required: str) -> dict:
    """Parse a JSON file whose top-level value is an object holding every
    ``required`` key; raise :class:`MalformedDocument` naming the file
    otherwise."""
    parsed = read_json(path)
    if not isinstance(parsed, dict):
        raise MalformedDocument(str(path), "top-level value is not an object")
    for key in required:
        if key not in parsed:
            raise MalformedDocument(str(path), f"no {key!r} key")
    return parsed


def is_annotation(key: str, value: Any) -> bool:
    """True when ``key: value`` is a description annotation, not data.

    A genuine data field named ``description`` only ever holds a placeholder
    (its annotation is displaced to ``_template_description``), so a
    non-placeholder string under ``description`` is always an annotation.
    """
    if key == FALLBACK_DESCRIPTION_KEY:
        return True
    if key != DESCRIPTION_KEY:
        return False
    return isinstance(value, str) and value != "" and value != DATE_TOKEN


def data_items(node: dict) -> list[tuple[str, Any]]:
    """Key/value pairs of a dict node with annotations removed."""
    return [(k, v) for k, v in node.items() if not is_annotation(k, v)]


def node_annotation(node: dict) -> str:
    """The description annotation carried by an object node, or ``""``."""
    value = node.get(FALLBACK_DESCRIPTION_KEY)
    if isinstance(value, str):
        return value
    value = node.get(DESCRIPTION_KEY)
    if isinstance(value, str) and is_annotation(DESCRIPTION_KEY, value):
        return value
    return ""


def strip_annotations(value: Any) -> Any:
    """Deep copy of ``value`` with every annotation entry removed."""
    if isinstance(value, dict):
        return {k: strip_annotations(v) for k, v in data_items(value)}
    if isinstance(value, list):
        return [strip_annotations(v) for v in value]
    return value


def iter_leaf_paths(value: Any, prefix: str = "", items=data_items) -> Iterator[tuple[str, Any]]:
    """Iterate (normalized dot-path, leaf value) over every leaf of a tree,
    in document order.

    Array indices contribute no path segment, matching the key-flattening
    convention used for schema lookups. Empty containers are themselves
    leaves. Annotations are skipped; ``items=dict.items`` walks plain data,
    such as an example instance, where every key is data. The leaves are
    collected by one recursion over the tree before the first is returned.
    """
    leaves: list[tuple[str, Any]] = []
    _collect_leaves(value, prefix, items, leaves)
    return iter(leaves)


def _collect_leaves(value, prefix: str, items, leaves: list) -> None:
    if isinstance(value, dict):
        children = items(value)
        if children:
            for key, child in children:
                path = f"{prefix}.{key}" if prefix else key
                if isinstance(child, (dict, list)):
                    _collect_leaves(child, path, items, leaves)
                elif path:
                    leaves.append((path, child))
            return
    elif isinstance(value, list) and value:
        for element in value:
            if isinstance(element, (dict, list)):
                _collect_leaves(element, prefix, items, leaves)
            elif prefix:
                leaves.append((prefix, element))
        return
    if prefix:
        leaves.append((prefix, value))
