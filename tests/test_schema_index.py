from __future__ import annotations

import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cdmgen import treeops
from cdmgen.errors import CycleDetected, MalformedDocument, MissingRoot, UnresolvedRef
from cdmgen.evaluator import evaluate_document
from cdmgen.schema_index import PropertyDef, load_schema_dir
from cdmgen.template_builder import KeyPathSet, build_template


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
    keys = KeyPathSet(frozenset({"tradeDate", "notional"}))
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
    assert build_template(index, KeyPathSet(frozenset({"r"})), "T").tree == {"r": [""]}
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
