from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import write_wrapped_schema
from cdmgen import treeops
from cdmgen.errors import CdmgenError, CycleDetected, MalformedDocument, MissingRoot, UnresolvedRef
from cdmgen.evaluator import evaluate_document
from cdmgen.schema_index import PropertyDef, SchemaDocument, load_schema_dir
from cdmgen.template_builder import build_template

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402


def write(path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


# ---------------------------------------------------------------------------
# loading


def test_three_file_fixture_loads_and_resolves(tiny_index):
    assert set(tiny_index.documents) == {
        "root.schema.json",
        "party.schema.json",
        "address.schema.json",
    }
    assert tiny_index.root_id == "root.schema.json"
    party = tiny_index.documents["root.schema.json"].properties["party"]
    assert party.ref_target == "party.schema.json" and not party.array
    address = tiny_index.documents["party.schema.json"].properties["address"]
    assert address.ref_target == "address.schema.json"


def test_root_only_directory(tmp_path):
    write(tmp_path / "solo.schema.json", {"properties": {"x": {"type": "string"}}})
    index = load_schema_dir(tmp_path, "solo.schema.json")
    assert len(index.documents) == 1


def test_a_root_whose_body_is_a_ref_is_read_at_its_chains_end(tmp_path):
    contract = {
        "description": "A contract.",
        "properties": {"tradeDate": {"type": "string", "format": "date"}, "notional": {"type": "number"}},
    }
    write(tmp_path / "contract.schema.json", contract)
    write(tmp_path / "entry.schema.json", {"$ref": "contract.schema.json"})
    index = load_schema_dir(tmp_path, "entry.schema.json")
    assert index.root_id == "entry.schema.json"
    assert index.lookup("tradeDate") == index.documents["contract.schema.json"].properties["tradeDate"]
    assert evaluate_document({"tradeDate": "2024-01-01", "notional": 5}, index).schema_adherence == 100.0
    direct = load_schema_dir(tmp_path, "contract.schema.json")
    keys = frozenset({"tradeDate", "notional"})
    template = build_template(index, keys, "X")
    assert template.schema_root == "entry.schema.json"
    assert template.tree == build_template(direct, keys, "X").tree
    assert treeops.data_items(template.tree)


def test_missing_reference_is_reported(tmp_path):
    write(tmp_path / "root.schema.json", {"properties": {"g": {"$ref": "ghost.schema.json"}}})
    with pytest.raises(UnresolvedRef) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert "ghost.schema.json" in str(exc_info.value)
    assert "root.schema.json#g" in str(exc_info.value)


def test_non_string_composite_ref_is_unresolved(tmp_path):
    # The referencing document loads first, so the scalar test of z.json
    # meets the bad ref before z.json's own properties are collected.
    write(tmp_path / "0.schema.json", {"properties": {"z": {"$ref": "z.schema.json"}}})
    write(tmp_path / "z.schema.json", {"allOf": [{"$ref": 5}]})
    with pytest.raises(UnresolvedRef) as exc_info:
        load_schema_dir(tmp_path, "0.schema.json")
    assert "z.schema.json#allOf[0]" in str(exc_info.value)


@pytest.mark.parametrize("ref", ["common.schema.json#/definitions/Money", "#/definitions/Money"])
def test_a_json_pointer_ref_is_unresolved_not_the_whole_file(tmp_path, ref):
    write(tmp_path / "common.schema.json", {"properties": {"note": {"type": "string"}}})
    write(tmp_path / "root.schema.json", {"properties": {"m": {"$ref": ref}}})
    with pytest.raises(UnresolvedRef) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert str(exc_info.value) == f"unresolved schema reference {ref!r} (referenced from root.schema.json#m)"


def test_an_empty_fragment_is_the_whole_document(tmp_path):
    write(tmp_path / "common.schema.json", {"properties": {"note": {"type": "string"}}})
    write(
        tmp_path / "root.schema.json",
        {"properties": {"m": {"$ref": "common.schema.json#"}, "again": {"$ref": "#"}}},
    )
    index = load_schema_dir(tmp_path, "root.schema.json")
    assert index.lookup("m.note") is not None
    assert index.lookup("again.again.m.note") is not None


def test_a_ref_chain_cycle_is_detected_through_annotated_aliases(tmp_path):
    write(tmp_path / "a.schema.json", {"description": "A.", "$ref": "b.schema.json"})
    write(tmp_path / "b.schema.json", {"$ref": "a.schema.json"})
    write(tmp_path / "root.schema.json", {"properties": {"x": {"$ref": "a.schema.json"}}})
    with pytest.raises(CycleDetected) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert str(exc_info.value) == "$ref alias cycle through a.schema.json -> b.schema.json"


def test_missing_root(tmp_path):
    write(tmp_path / "other.schema.json", {"properties": {}})
    with pytest.raises(MissingRoot):
        load_schema_dir(tmp_path, "root.schema.json")


@pytest.mark.parametrize("absolute", [False, True])
def test_a_root_inside_the_schema_dir_reads_as_its_relative_id(tmp_path, absolute):
    write(tmp_path / "sub" / "root.json", {"properties": {"x": {"type": "string"}}})
    root = tmp_path / "sub" / "root.json" if absolute else "sub/root.json"
    index = load_schema_dir(tmp_path, root)
    assert index.root_id == index.start_id == "sub/root.json"
    assert index.lookup("x").scalar_type == "string"


def test_malformed_document_names_file_and_offset(tmp_path):
    good = tmp_path / "root.schema.json"
    write(good, {"properties": {}})
    bad = tmp_path / "broken.schema.json"
    bad.write_text('{"properties": {', encoding="utf-8")
    with pytest.raises(MalformedDocument) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert exc_info.value.file == "broken.schema.json"
    assert exc_info.value.offset == 16


def test_non_utf8_document_names_file_and_byte_offset(tmp_path):
    write(tmp_path / "root.schema.json", {"properties": {}})
    data = b'{"description": "caf\xe9"}'
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "latin1.schema.json").write_bytes(data)
    with pytest.raises(MalformedDocument) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert exc_info.value.file == "base/latin1.schema.json"
    assert exc_info.value.offset == data.index(b"\xe9")


@pytest.mark.parametrize(
    "root, where, detail",
    [
        ({"properties": None}, "root.schema.json", "'properties' is not an object"),
        ({"allOf": {"properties": {}}}, "root.schema.json", "'allOf' is not a list"),
        ({"anyOf": None}, "root.schema.json", "'anyOf' is not a list"),
        ({"anyOf": [{"properties": []}]}, "root.schema.json#anyOf[0]", "'properties' is not an object"),
        (
            {"properties": {"x": {"type": "string"}}, "oneOf": [5, "y"]},
            "root.schema.json#oneOf[0]",
            "the member is not an object",
        ),
        ({"allOf": [{"properties": {}}, None]}, "root.schema.json#allOf[1]", "the member is not an object"),
        ({"anyOf": [[]]}, "root.schema.json#anyOf[0]", "the member is not an object"),
        (
            {"properties": {"x": {"type": "object", "properties": "y"}}},
            "root.schema.json::x",
            "'properties' is not an object",
        ),
        (
            {"properties": {"x": {"items": {"properties": 1}}}},
            "root.schema.json::x[]",
            "'properties' is not an object",
        ),
        (
            {"properties": {"a": {"type": "object", "properties": {"b": {"type": "object", "properties": 2}}}}},
            "root.schema.json::a::b",
            "'properties' is not an object",
        ),
        (
            {"properties": {"x": {"type": "object", "allOf": [{"properties": [3]}]}}},
            "root.schema.json::x#allOf[0]",
            "'properties' is not an object",
        ),
    ],
)
def test_a_keyword_of_the_wrong_type_names_document_and_keyword(tmp_path, root, where, detail):
    write(tmp_path / "root.schema.json", root)
    with pytest.raises(MalformedDocument) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert str(exc_info.value) == f"{where}: {detail}"


def test_line_ends_read_as_text_mode_reads_them(tmp_path):
    write(tmp_path / "root.schema.json", {"properties": {}})
    bad = tmp_path / "broken.schema.json"
    bad.write_bytes(b'{\r\n  "properties": {},\r  "x": 1,\n\r\n\r\r\n  oops\r\n}')
    assert treeops.read_text(bad) == bad.read_text(encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad.read_text(encoding="utf-8"))
    with pytest.raises(MalformedDocument) as exc_info:
        load_schema_dir(tmp_path, "root.schema.json")
    assert exc_info.value.offset == expected.value.pos


@pytest.mark.skipif(not os.path.isfile("/proc/self/cmdline"), reason="no procfs")
def test_a_file_longer_than_its_stated_size_is_read_whole():
    # A procfs file states a size of 0 and holds more.
    assert os.stat("/proc/self/cmdline").st_size == 0
    with open("/proc/self/cmdline", encoding="utf-8") as file:
        assert treeops.read_text("/proc/self/cmdline") == file.read() != ""


def test_directory_named_json_is_walked_not_opened(tmp_path):
    write(tmp_path / "root.schema.json", {"properties": {"odd": {"$ref": "odd.json/inner.schema.json"}}})
    write(tmp_path / "odd.json" / "inner.schema.json", {"properties": {"x": {"type": "string"}}})
    index = load_schema_dir(tmp_path, "root.schema.json")
    assert list(index.documents) == ["odd.json/inner.schema.json", "root.schema.json"]
    assert index.lookup("odd.x") is not None


# Names whose string order differs from their order as path segments
# ("a-b.json" < "a/b.json" as strings, but "a" sorts first as a segment),
# names that are not .json, and .json names the tree may give a directory.
TREE_NAMES = ("a", "a-b", "a0", "b", "a.json", "a-b.json", "b.json", "x.json", "x.txt", "odd.json", ".json")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from(TREE_NAMES), min_size=1, max_size=3), st.booleans()),
        max_size=12,
    )
)
@example(
    [(["a-b.json"], False), (["a.json"], False), (["a", "b.json"], False),
     (["a0", "x.json"], False), (["odd.json"], True), (["x.txt"], False)]
)
def test_json_files_lists_what_a_sorted_rglob_lists(entries):
    """Each entry is a path and whether it is a directory; an entry that
    clashes with an earlier one is left out."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for segments, is_dir in entries:
            target = base.joinpath(*segments)
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                if is_dir:
                    target.mkdir(exist_ok=True)
                elif not target.exists():
                    target.write_text("{}", encoding="utf-8")
            except (FileExistsError, NotADirectoryError):
                pass
        assert treeops.json_files(base) == oracles.json_files(base)
        assert treeops.json_files(str(base)) == oracles.json_files(base)


def test_unreachable_documents_retained_and_flagged(tmp_path, tiny_schema_dir):
    for file in tiny_schema_dir.glob("*.json"):
        (tmp_path / file.name).write_text(file.read_text(encoding="utf-8"), encoding="utf-8")
    write(tmp_path / "island.schema.json", {"properties": {"x": {"type": "string"}}})
    index = load_schema_dir(tmp_path, "root.schema.json")
    assert "island.schema.json" in index.documents


def test_loading_twice_yields_equal_indexes(tiny_schema_dir):
    first = load_schema_dir(tiny_schema_dir, "root.schema.json")
    second = load_schema_dir(tiny_schema_dir, "root.schema.json")
    assert first.documents == second.documents
    assert first.root_id == second.root_id
    all_paths = oracles.enumerate_schema_paths(tiny_schema_dir, "root.schema.json")
    for path in sorted(all_paths):
        assert first.lookup(path) == second.lookup(path)


# ---------------------------------------------------------------------------
# property classification


def test_scalar_classification(cdm_index):
    trade = cdm_index.documents["trade.schema.json"]
    assert trade.properties["tradeDate"].scalar_type == "date"
    identifier = trade.properties["tradeIdentifier"]
    assert identifier.ref_target is not None and identifier.array
    leg = cdm_index.documents["interest-rate-leg.schema.json"]
    assert leg.properties["notional"].scalar_type == "number"
    assert leg.properties["dayCount"].scalar_type == "enum"
    assert leg.properties["dayCount"].enum_values == ("30/360", "ACT/360", "ACT/365")
    fx = cdm_index.documents["fx-terms.schema.json"]
    assert fx.properties["deliverable"].scalar_type == "boolean"
    assigned = cdm_index.documents["assigned-identifier.schema.json"]
    assert assigned.properties["version"].scalar_type == "integer"


def test_a_property_is_an_object_or_a_scalar():
    with pytest.raises(ValueError, match="x: a property without a ref_target requires a scalar_type"):
        PropertyDef("x")
    with pytest.raises(ValueError, match="requires a scalar_type"):
        PropertyDef("x", scalar_type="text")
    assert PropertyDef("x", ref_target="trade.schema.json").scalar_type is None


def test_inline_object_becomes_internal_document(cdm_index):
    value_doc = cdm_index.documents["identifier-value.schema.json"]
    meta = value_doc.properties["meta"]
    assert meta.ref_target == "identifier-value.schema.json::meta" and not meta.array
    inline = cdm_index.doc(meta.ref_target)
    assert "scheme" in inline.properties


def test_date_detection_from_description_without_format(tmp_path):
    write(
        tmp_path / "root.schema.json",
        {
            "properties": {
                "settlement": {"type": "string", "description": "The date payment settles."},
                "updated": {"type": "string", "format": "date-time", "description": "date stamp"},
                "mandate": {"type": "string", "description": "A mandated value."},
            }
        },
    )
    index = load_schema_dir(tmp_path, "root.schema.json")
    props = index.documents["root.schema.json"].properties
    assert props["settlement"].scalar_type == "date"
    # an explicit non-date format suppresses the description heuristic
    assert props["updated"].scalar_type == "string"
    # "mandated" must not match the bare token "date"
    assert props["mandate"].scalar_type == "string"


def test_a_keyword_of_the_wrong_kind_is_malformed_or_read_as_absent(tmp_path):
    write(
        tmp_path / "root.schema.json",
        {
            "properties": {
                # A description that is not text reads as none.
                "count": {"type": "string", "description": 5},
                "tags": {"description": ["a date"]},
                # A node with properties is an object, whatever its type.
                "party": {"type": ["object", "null"], "properties": {"name": {"type": "string"}}},
            }
        },
    )
    props = load_schema_dir(tmp_path, "root.schema.json").documents["root.schema.json"].properties
    assert props["count"].scalar_type == props["tags"].scalar_type == "string"
    assert props["party"].ref_target == "root.schema.json::party"
    for declared in (["string", "null"], {"const": 1}, 5, None):
        write(tmp_path / "root.schema.json", {"properties": {"d": {"type": declared}}})
        with pytest.raises(MalformedDocument, match=r"^root\.schema\.json::d: 'type' is not a string$"):
            load_schema_dir(tmp_path, "root.schema.json")


@pytest.mark.parametrize("depth", [20, 400])
def test_inline_objects_nested_too_deeply_are_a_malformed_document(tmp_path, depth):
    node = {"type": "string"}
    for _ in range(depth):
        node = {"type": "object", "properties": {"a": node}}
    text = json.dumps(node)
    (tmp_path / "root.schema.json").write_text(text, encoding="utf-8")
    # The parser reads the file here, so a failure is the index's, not
    # the parser's.
    assert json.loads(text) == node
    if depth == 400:
        with pytest.raises(MalformedDocument, match=r"^root\.schema\.json: the schema is nested too deeply to read$"):
            load_schema_dir(tmp_path, "root.schema.json")
    else:
        index = load_schema_dir(tmp_path, "root.schema.json")
        assert index.lookup(".".join(["a"] * depth)).scalar_type == "string"


def test_composite_union_and_choice_groups(tmp_path):
    write(
        tmp_path / "choice.schema.json",
        {
            "oneOf": [
                {"properties": {"cash": {"type": "string"}}},
                {"properties": {"physical": {"type": "string"}}},
            ]
        },
    )
    write(
        tmp_path / "root.schema.json",
        {
            "properties": {"settlement": {"$ref": "choice.schema.json"}},
            "allOf": [{"properties": {"shared": {"type": "string"}}}],
        },
    )
    index = load_schema_dir(tmp_path, "root.schema.json")
    root_props = index.documents["root.schema.json"].properties
    assert "shared" in root_props
    assert root_props["shared"].choice_group is None
    choice_props = index.documents["choice.schema.json"].properties
    assert choice_props["cash"].choice_group == "oneOf[0]"
    assert choice_props["physical"].choice_group == "oneOf[1]"
    assert index.lookup("settlement.cash") is not None
    assert index.lookup("settlement.physical") is not None



def test_ref_composite_members_join_the_union(tmp_path):
    write(tmp_path / "base.schema.json", {"properties": {"baseField": {"type": "number"}, "own": {"type": "integer"}}})
    write(tmp_path / "alt.schema.json", {"properties": {"altField": {"type": "string"}}})
    write(
        tmp_path / "root.schema.json",
        {
            "properties": {"own": {"type": "string"}},
            "allOf": [{"$ref": "base.schema.json"}],
            # The second alternative is the document itself, and adds nothing.
            "oneOf": [{"$ref": "alt.schema.json"}, {"$ref": "root.schema.json"}],
        },
    )
    props = load_schema_dir(tmp_path, "root.schema.json").documents["root.schema.json"].properties
    # The document's own properties come first and win over a member's.
    assert list(props) == ["own", "baseField", "altField"]
    assert props["own"].scalar_type == "string"
    assert props["baseField"].choice_group is None
    assert props["altField"].choice_group == "oneOf[0]"


def test_a_document_whose_ref_member_is_an_object_is_an_object(tmp_path):
    write(tmp_path / "party.schema.json", {"properties": {"partyId": {"type": "string"}}})
    write(tmp_path / "counterparty.schema.json", {"allOf": [{"$ref": "party.schema.json"}]})
    write(tmp_path / "root.schema.json", {"properties": {"counterparty": {"$ref": "counterparty.schema.json"}}})
    index = load_schema_dir(tmp_path, "root.schema.json")
    assert index.documents["root.schema.json"].properties["counterparty"].ref_target == "counterparty.schema.json"
    assert index.lookup("counterparty.partyId") is not None


def test_an_inline_object_met_again_inside_itself_is_its_ancestor(tmp_path):
    write(
        tmp_path / "party.schema.json",
        {
            "properties": {
                "partyId": {"type": "string"},
                "related": {"description": "A related party.", "allOf": [{"$ref": "party.schema.json"}]},
            }
        },
    )
    write(tmp_path / "root.schema.json", {"properties": {"party": {"$ref": "party.schema.json"}}})
    index = load_schema_dir(tmp_path, "root.schema.json")
    related = index.documents["party.schema.json"].properties["related"]
    assert related.ref_target == "party.schema.json::related"
    assert index.doc(related.ref_target).properties["related"] == related
    assert index.doc(related.ref_target).description == "A related party."
    assert index.lookup("party.related.related.related.partyId") is not None


# ---------------------------------------------------------------------------
# path lookup


def test_figure_style_identifier_path_exists(cdm_index):
    prop = cdm_index.lookup("trade.tradeIdentifier.assignedIdentifier.identifier.value")
    assert prop is not None
    assert prop.scalar_type == "string"


def test_empty_path_names_nothing(tiny_index):
    assert tiny_index.lookup("") is None


def test_unknown_path_with_index_segment(cdm_index, cdm_schema_dir):
    # Derived against the brute-force walker: the normalized path must be
    # absent from the exhaustively enumerated schema paths.
    enumerated = oracles.enumerate_schema_paths(cdm_schema_dir, "contract.schema.json")
    assert "trade.nonsenseField" not in enumerated
    assert cdm_index.lookup("trade.0.nonsenseField") is None


def test_every_enumerated_path_exists_with_all_prefixes(cdm_index, cdm_schema_dir):
    enumerated = oracles.enumerate_schema_paths(
        cdm_schema_dir, "contract.schema.json", max_segments=6
    )
    assert enumerated, "oracle produced no paths"
    for path in sorted(enumerated):
        assert cdm_index.lookup(path) is not None, path
        segments = path.split(".")
        for i in range(1, len(segments)):
            prefix = ".".join(segments[:i])
            assert cdm_index.lookup(prefix) is not None, prefix


def test_lookup_invariant_under_numeric_segments(cdm_index):
    rng = random.Random(7)
    base = "trade.tradeIdentifier.assignedIdentifier.identifier.value"
    segments = base.split(".")
    for _ in range(25):
        noisy = []
        for segment in segments:
            noisy.append(segment)
            if rng.random() < 0.5:
                noisy.append(str(rng.randrange(10)))
        assert cdm_index.lookup(".".join(noisy)) == cdm_index.lookup(base)


def test_self_reference_resolves_but_past_the_depth_guard_names_nothing(cdm_index):
    assert cdm_index.lookup("trade.party.relatedParty.relatedParty.partyId") is not None
    runaway = "trade.party" + ".relatedParty" * 70 + ".partyId"
    assert cdm_index.lookup(runaway) is None


def test_scalar_cannot_be_traversed_through(cdm_index):
    assert cdm_index.lookup("trade.tradeDate.year") is None


@pytest.mark.parametrize(
    "path",
    ["trade.nonsenseField", "", ".", "trade.party" + ".relatedParty" * 70 + ".partyId"],
    ids=["missing", "empty", "dot", "past_depth_guard"],
)
def test_lookup_is_none_where_a_path_names_nothing(cdm_index, path):
    assert cdm_index.lookup(path) is None


def test_lookup_is_the_property_a_path_names(cdm_index):
    path = "trade.tradeIdentifier.assignedIdentifier.identifier.value"
    prop = cdm_index.lookup(path)
    assert prop is not None and prop == oracles.property_at_path(cdm_index, path)
    assert prop.name == "value" and prop.scalar_type == "string"


LOOKUP_SEGMENTS = (
    "trade", "party", "relatedParty", "partyId", "tradeIdentifier", "assignedIdentifier",
    "identifier", "value", "tradeDate", "year", "nonsense", "", "0", "12", "\u00b2",
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(LOOKUP_SEGMENTS), max_size=8).map(".".join), max_size=10),
    st.sampled_from([3, 64]),
)
def test_lookup_answers_as_the_path_split_and_read_from_the_root(cdm_index, paths, depth):
    index = replace(cdm_index, max_path_depth=depth)
    for path in paths:
        assert index.lookup(path) == oracles.property_at_path(index, path), path


# ---------------------------------------------------------------------------
# reference resolution


@pytest.fixture()
def nested_dir_index(tmp_path):
    write(
        tmp_path / "root.schema.json",
        {"properties": {"swap": {"$ref": "product/swap.schema.json"}}},
    )
    write(
        tmp_path / "product" / "swap.schema.json",
        {"properties": {"party": {"$ref": "../base/party.schema.json"}}},
    )
    write(
        tmp_path / "base" / "party.schema.json",
        {"properties": {"partyId": {"type": "string"}}},
    )
    return load_schema_dir(tmp_path, "root.schema.json")


def test_nested_lookup_through_directories(nested_dir_index):
    assert nested_dir_index.lookup("swap.party.partyId") is not None


# ---------------------------------------------------------------------------
# a $ref to a document that is itself an array schema


def _write_schema(directory, documents: dict) -> None:
    for name, body in documents.items():
        write(directory / name, body)


def test_a_ref_to_an_array_document_reads_as_that_array(tmp_path):
    _write_schema(
        tmp_path,
        {
            "root.json": {"properties": {"r": {"$ref": "list.json"}}},
            "list.json": {"type": "array", "items": {"type": "string"}},
        },
    )
    index = load_schema_dir(tmp_path, "root.json")
    prop = index.lookup("r")
    assert prop is not None and prop.ref_target is None
    assert (prop.scalar_type, prop.array) == ("string", 1)
    assert build_template(index, frozenset({"r"}), "T").tree == {"r": [""]}
    filled = evaluate_document({"r": ["a"]}, index)
    assert (filled.syntactical_correctness, filled.schema_adherence) == (100.0, 100.0)
    assert evaluate_document({"r": {}}, index).schema_adherence == 0.0


def test_array_levels_count_on_both_sides_of_a_ref(tmp_path):
    _write_schema(
        tmp_path,
        {
            "root.json": {"properties": {"grid": {"type": "array", "items": {"$ref": "rows.json"}}}},
            "rows.json": {"type": "array", "items": {"$ref": "cells.json"}},
            "cells.json": {"type": "array", "items": {"type": "number"}},
        },
    )
    prop = load_schema_dir(tmp_path, "root.json").lookup("grid")
    assert (prop.scalar_type, prop.array) == ("number", 3)


def test_an_array_documents_inline_items_are_one_inline_object(tmp_path):
    items = {"type": "object", "description": "A row.", "properties": {"x": {"type": "string"}}}
    _write_schema(
        tmp_path,
        {
            "root.json": {"properties": {"a": {"$ref": "rows.json"}, "b": {"$ref": "rows.json"}}},
            "rows.json": {"type": "array", "items": items},
        },
    )
    index = load_schema_dir(tmp_path, "root.json")
    a, b = index.lookup("a"), index.lookup("b")
    assert a.ref_target == b.ref_target == "rows.json[]"
    assert a.array == b.array == 1
    assert list(index._inline) == ["rows.json[]"]
    assert index.doc("rows.json[]").description == "A row."
    assert index.lookup("b.x").scalar_type == "string"


def test_array_items_that_lead_back_to_their_document_are_a_cycle(tmp_path):
    _write_schema(
        tmp_path,
        {
            "root.json": {"properties": {"r": {"$ref": "nest.json"}}},
            "nest.json": {"type": "array", "items": {"$ref": "nest.json"}},
        },
    )
    with pytest.raises(CycleDetected, match="array items cycle through nest.json -> nest.json"):
        load_schema_dir(tmp_path, "root.json")


# ---------------------------------------------------------------------------
# the index equals the one the first builder made (oracles.reference_index)


def _records(documents) -> list:
    """Every document of a table, in order, field by field."""
    return [
        (
            doc_id,
            doc.description,
            [
                (key, prop.name, prop.ref_target, prop.scalar_type, prop.enum_values, prop.array, prop.choice_group)
                for key, prop in doc.properties.items()
            ],
        )
        for doc_id, doc in documents.items()
    ]


def assert_index_as_first_built(schema_dir, root_file: str) -> None:
    """``load_schema_dir`` gives the reference builder's index, or raises an
    error of the same type with the same text."""
    try:
        expected = oracles.reference_index(oracles.load_raw_schemas(schema_dir), root_file)
    except oracles.ReferenceBuildError as error:
        with pytest.raises(CdmgenError) as exc_info:
            load_schema_dir(schema_dir, root_file)
        assert (type(exc_info.value).__name__, str(exc_info.value)) == (error.name, str(error))
        return
    index = load_schema_dir(schema_dir, root_file)
    assert (index.root_id, index.start_id) == (expected.root_id, expected.start_id)
    assert _records(index.documents) == _records(expected.documents)
    assert _records(index._inline) == _records(expected.inline)
    tables = (index.documents, index._inline)
    assert all(type(doc) is SchemaDocument for table in tables for doc in table.values())
    assert all(type(prop) is PropertyDef for table in tables for doc in table.values() for prop in doc.properties.values())


def _rarely(strategy, *odd_values):
    """``strategy``'s values, one draw in ten one of ``odd_values``."""
    return st.tuples(st.integers(0, 9), strategy, st.sampled_from(odd_values)).map(
        lambda drawn: drawn[1] if drawn[0] else drawn[2]
    )


# Names that resolve from the top-level documents or from ``sub/``, then
# rarer ones: a ref that resolves nowhere, a JSON pointer, a ref that is
# not text.
TOP_REFS = ("a.json", "b.json", "c.json", "sub/d.json", "#", "b.json#", "./c.json")
SUB_REFS = ("../a.json", "../b.json", "d.json", "../sub/d.json", "#", "../c.json")
ODD_REFS = ("ghost.json", "sub/d.json#/x", 5)
_drawn_types = _rarely(st.sampled_from(("string", "number", "integer", "boolean", "object", "array")), None, 5)
_drawn_descriptions = st.sampled_from(("A date.", "Text.", "The trade date.", "", 3))


def _drawn_nodes(refs):
    """Schema nodes as a document at ``refs``' place may hold them, now
    and then of a wrong kind."""
    leaves = st.fixed_dictionaries(
        {},
        optional={
            "type": _drawn_types,
            "enum": st.lists(st.sampled_from(("x", "y", 1)), max_size=2),
            "format": st.just("date"),
            "description": _drawn_descriptions,
            "$ref": _rarely(st.sampled_from(refs), *ODD_REFS),
        },
    )
    # A composite of such nodes: a scalar, an object or nothing by its members.
    leaves |= st.dictionaries(
        st.sampled_from(("allOf", "anyOf", "oneOf")), st.lists(leaves, min_size=1, max_size=2), min_size=1, max_size=2
    )

    def extend(children):
        members = _rarely(st.lists(children, max_size=3), [5], {})
        return st.fixed_dictionaries(
            {},
            optional={
                "type": _drawn_types,
                "description": _drawn_descriptions,
                "properties": st.dictionaries(st.sampled_from(("p", "q", "r", "description")), children, max_size=4),
                "items": children,
                "allOf": members,
                "anyOf": members,
                "oneOf": members,
            },
        )

    return st.recursive(leaves, extend, max_leaves=12)


_drawn_schemas = st.fixed_dictionaries(
    {
        "a.json": _drawn_nodes(TOP_REFS),
        "b.json": _drawn_nodes(TOP_REFS),
        "c.json": _drawn_nodes(TOP_REFS),
        "sub/d.json": _drawn_nodes(SUB_REFS),
    }
)


@settings(max_examples=400, deadline=None)
@given(_drawn_schemas)
def test_a_drawn_schema_indexes_as_first_built(documents):
    with tempfile.TemporaryDirectory() as tmp:
        _write_schema(Path(tmp), documents)
        assert_index_as_first_built(tmp, "a.json")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_a_corpus_and_its_all_of_wrapped_variant_index_as_first_built(seed):
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        assert_index_as_first_built(batch.schema_dir, batch.root_file)
        wrapped_dir = Path(work) / "wrapped"
        write_wrapped_schema(batch.schema_dir, wrapped_dir)
        assert_index_as_first_built(wrapped_dir, batch.root_file)


def test_the_fixture_schemas_and_a_cdm_scale_corpus_index_as_first_built(tiny_schema_dir, cdm_schema_dir, tmp_path):
    assert_index_as_first_built(tiny_schema_dir, "root.schema.json")
    assert_index_as_first_built(cdm_schema_dir, "contract.schema.json")
    batch = corpus.cdm_scale_batch(tmp_path, random.Random(5), corpus.CDM_SCALE)
    assert_index_as_first_built(batch.schema_dir, batch.root_file)


MALFORMED_SCHEMAS = {
    "properties": {"r.json": {"properties": None}},
    "composite": {"r.json": {"allOf": {"properties": {}}}},
    "member": {"r.json": {"properties": {"x": {"type": "string"}}, "oneOf": [5, "y"]}},
    "member_properties": {"r.json": {"anyOf": [{"properties": []}]}},
    "inline": {"r.json": {"properties": {"a": {"type": "object", "properties": {"b": {"items": {"properties": 2}}}}}}},
    "type": {"r.json": {"properties": {"d": {"type": ["string", "null"]}}}},
    "member_type": {"r.json": {"properties": {"d": {"$ref": "t.json"}}}, "t.json": {"anyOf": [{"type": 5}]}},
    "unresolved": {"r.json": {"properties": {"g": {"type": "array", "items": {"$ref": "ghost.json"}}}}},
    "unresolved_member": {"r.json": {"properties": {"z": {"$ref": "z.json"}}}, "z.json": {"allOf": [{"$ref": 5}]}},
    "unresolved_alias": {"r.json": {"properties": {"a": {"$ref": "sub/a.json"}}}, "sub/a.json": {"$ref": "r.json"}},
    "pointer": {"r.json": {"properties": {"m": {"$ref": "r.json#/definitions/Money"}}}},
    "alias_cycle": {
        "r.json": {"properties": {"x": {"$ref": "a.json"}}},
        "a.json": {"description": "A.", "$ref": "b.json"},
        "b.json": {"$ref": "a.json"},
    },
    "items_cycle": {
        "r.json": {"properties": {"r": {"$ref": "nest.json"}}},
        "nest.json": {"type": "array", "items": {"$ref": "nest.json"}},
    },
    "too_deep": {"r.json": json.loads('{"type": "object", "properties": {"a": ' * 400 + "{}" + "}}" * 400)},
}


@pytest.mark.parametrize("name", MALFORMED_SCHEMAS)
def test_a_malformed_schema_fails_as_first_built(tmp_path, name):
    _write_schema(tmp_path, MALFORMED_SCHEMAS[name])
    with pytest.raises(oracles.ReferenceBuildError):
        oracles.reference_index(oracles.load_raw_schemas(tmp_path), "r.json")
    assert_index_as_first_built(tmp_path, "r.json")


def test_a_property_record_is_an_immutable_checked_tuple():
    prop = PropertyDef("x", scalar_type="string")
    assert prop == ("x", None, "string", None, 0, None)
    assert repr(prop) == "PropertyDef(name='x', ref_target=None, scalar_type='string', enum_values=None, array=0, choice_group=None)"
    with pytest.raises(AttributeError):
        prop.array = 1
    assert prop._replace(array=2).array == 2
    with pytest.raises(ValueError, match="requires a scalar_type"):
        prop._replace(scalar_type="text")
    with pytest.raises(ValueError, match="requires a scalar_type"):
        PropertyDef._make(("x", None, None, None, 0, None))
