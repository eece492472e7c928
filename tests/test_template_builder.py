from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdmgen import template_builder, treeops
from cdmgen.errors import CycleDetected, EmptyExampleDir, MalformedDocument
from cdmgen.schema_index import load_schema_dir
from cdmgen.template_builder import Template, build_template, flatten_examples

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402


def write_example(directory, name, payload) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def keyset(*paths: str) -> frozenset[str]:
    return frozenset(paths)


def saved(template: Template) -> dict:
    """The tree of ``template``'s saved form, annotations included."""
    return json.loads(template.to_text())["tree"]


# ---------------------------------------------------------------------------
# flatten_examples


def test_flatten_nested_arrays_to_dot_paths(tmp_path):
    # Hand-flattened: index segments vanish, one leaf path remains.
    write_example(
        tmp_path,
        "e1.json",
        {"trade": {"tradeIdentifier": [{"assignedIdentifier": [{"identifier": {"value": "X"}}]}]}},
    )
    keys = flatten_examples(tmp_path)
    assert keys == frozenset({"trade.tradeIdentifier.assignedIdentifier.identifier.value"})


def test_flatten_examples_without_a_leaf_raise_empty_example_dir(tmp_path):
    write_example(tmp_path, "empty.json", {})
    write_example(tmp_path, "empty_list.json", [])
    with pytest.raises(EmptyExampleDir, match="has a leaf value"):
        flatten_examples(tmp_path)


def test_flatten_shared_paths_collapse(tmp_path):
    write_example(tmp_path, "a.json", {"name": "A"})
    write_example(tmp_path, "b.json", {"name": "B"})
    keys = flatten_examples(tmp_path)
    assert keys == frozenset({"name"})


def test_flatten_empty_dir_raises(tmp_path):
    with pytest.raises(EmptyExampleDir):
        flatten_examples(tmp_path)


def test_flatten_malformed_example_names_file(tmp_path):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedDocument) as exc_info:
        flatten_examples(tmp_path)
    assert exc_info.value.file == "bad.json"


def test_flatten_non_utf8_example_names_file(tmp_path):
    data = b'{"name": "caf\xe9"}'
    (tmp_path / "latin1.json").write_bytes(data)
    with pytest.raises(MalformedDocument) as exc_info:
        flatten_examples(tmp_path)
    assert exc_info.value.file == "latin1.json"
    assert exc_info.value.offset == data.index(b"\xe9")


def test_flatten_reads_escapes_and_refuses_a_lone_surrogate(tmp_path):
    # "\u00e4" is a character and "\ud83d\ude00" a whole UTF-16 pair;
    # "\uDBFF" alone is half of one, which is not UTF-8 text.
    (tmp_path / "escaped.json").write_text('{"n\\u00e4me": "\\ud83d\\ude00"}', encoding="utf-8")
    assert flatten_examples(tmp_path) == frozenset({"n\u00e4me"})
    (tmp_path / "half.json").write_text('{"name": ["ok", "\\uDBFF"]}', encoding="utf-8")
    with pytest.raises(MalformedDocument, match=r"^half\.json: the lone surrogate \\udbff is not UTF-8 text$"):
        flatten_examples(tmp_path)


def test_examples_dir_walks_directory_named_json(tmp_path):
    write_example(tmp_path, "a.json", {"name": "A"})
    write_example(tmp_path / "odd.json", "b.json", {"nested": {"x": 1}})
    keys = flatten_examples(tmp_path)
    assert keys == frozenset({"name", "nested.x"})


# ---------------------------------------------------------------------------
# build_template golden files (hand-traced over the 3-file fixture)


def test_golden_single_chain(tiny_index, golden_dir):
    template = build_template(tiny_index, keyset("party.address.city"), "sample-record")
    expected = (golden_dir / "template_single_chain.json").read_text(encoding="utf-8")
    assert template.to_text() == expected


def test_golden_multi_branch(tiny_index, golden_dir, tmp_path):
    write_example(
        tmp_path,
        "e1.json",
        {"party": {"partyId": "P1", "role": "Buyer", "address": {"country": "SE"}}},
    )
    write_example(
        tmp_path, "e2.json", {"name": "Deal-7", "createdOn": "2024-01-02", "tags": ["blue", "green"]}
    )
    keys = flatten_examples(tmp_path)
    template = build_template(tiny_index, keys, "sample-record")
    expected = (golden_dir / "template_multi_branch.json").read_text(encoding="utf-8")
    assert template.to_text() == expected


def test_golden_schema_absent_key(tiny_index, golden_dir):
    keys = keyset("party.partyId", "ghost.spooky")
    template = build_template(tiny_index, keys, "sample-record")
    expected = (golden_dir / "template_absent_key.json").read_text(encoding="utf-8")
    assert template.to_text() == expected


def test_empty_keyset_rejected(tiny_index):
    with pytest.raises(ValueError):
        build_template(tiny_index, keyset(), "sample-record")


def test_build_is_deterministic(tiny_index):
    keys = keyset("party.partyId", "name", "createdOn")
    first = build_template(tiny_index, keys, "sample-record")
    second = build_template(tiny_index, keys, "sample-record")
    assert first.to_text() == second.to_text()


def test_description_data_field_displaces_annotation(tmp_path):
    (tmp_path / "root.schema.json").write_text(
        json.dumps(
            {
                "description": "Root level documentation.",
                "properties": {
                    "description": {"type": "string", "description": "A data field."},
                    "label": {"type": "string"},
                },
            }
        ),
        encoding="utf-8",
    )
    index = load_schema_dir(tmp_path, "root.schema.json")
    template = build_template(index, keyset("description", "label"), "sample-record")
    assert saved(template) == {
        "_template_description": "Root level documentation.",
        "description": "",
        "label": "",
    }
    assert template.tree == {"description": "", "label": ""}



def test_an_example_field_named_description_is_kept_through_population(tmp_path):
    from cdmgen.dryrun import build_population_script
    from cdmgen.gateway import MockProvider
    from cdmgen.populator import PopulationConfig, clean, populate

    schema = tmp_path / "schema"
    schema.mkdir()
    (schema / "root.schema.json").write_text(
        json.dumps({"properties": {"trade": {"$ref": "trade.schema.json"}}}), encoding="utf-8"
    )
    (schema / "trade.schema.json").write_text(
        json.dumps(
            {
                "description": "A trade.",
                "properties": {"description": {"type": "string"}, "tradeId": {"type": "string"}},
            }
        ),
        encoding="utf-8",
    )
    examples = tmp_path / "examples"
    write_example(examples, "e1.json", {"trade": {"description": "A plain vanilla swap", "tradeId": "T-1"}})
    index = load_schema_dir(schema, "root.schema.json")
    keys = flatten_examples(examples)
    assert keys == {"trade.description", "trade.tradeId"}
    template = build_template(index, keys, "Swap")
    assert saved(template) == {"trade": {"_template_description": "A trade.", "description": "", "tradeId": ""}}
    assert template.tree == {"trade": {"description": "", "tradeId": ""}}
    cfg = PopulationConfig()
    script = build_population_script(index, template, "A swap.", cfg)
    doc = populate(template, "A swap.", None, MockProvider(script), cfg)
    assert clean(doc) == {"trade": {"description": "description-001", "tradeId": "tradeId-001"}}


def test_examples_whose_only_leaf_is_a_description_have_a_leaf(tmp_path):
    write_example(tmp_path, "e1.json", {"trade": {"description": "A plain vanilla swap"}})
    assert flatten_examples(tmp_path) == {"trade.description"}


@pytest.mark.parametrize("levels", [64, 65])
def test_a_self_referencing_schema_builds_up_to_the_depth_guard(tmp_path, levels):
    # A key path's lookup reads past the guard as naming nothing; the
    # template walk is where a runaway path is an error.
    node = {"properties": {"next": {"$ref": "node.json"}, "v": {"type": "string"}}}
    (tmp_path / "node.json").write_text(json.dumps(node), encoding="utf-8")
    index = load_schema_dir(tmp_path, "node.json")
    keys = keyset("next." * levels + "v")
    if levels > index.max_path_depth:
        with pytest.raises(CycleDetected, match=f"exceeded {index.max_path_depth} levels"):
            build_template(index, keys, "Node")
        return
    tree = build_template(index, keys, "Node").tree
    assert [path for path, _ in treeops.iter_leaf_paths(tree)] == ["next." * levels + "v"]


# ---------------------------------------------------------------------------
# soundness / completeness / minimality against the brute-force oracle


def _template_leaf_paths(tree) -> set[str]:
    return {path for path, _ in treeops.iter_leaf_paths(tree)}


@pytest.mark.parametrize("seed", range(10))
def test_randomized_key_subsets_hold_invariants(tiny_index, tiny_schema_dir, seed):
    schema_leaves = sorted(
        oracles.enumerate_scalar_leaf_paths(tiny_schema_dir, "root.schema.json")
    )
    all_paths = oracles.enumerate_schema_paths(tiny_schema_dir, "root.schema.json")
    rng = random.Random(seed)
    chosen = rng.sample(schema_leaves, rng.randint(1, len(schema_leaves)))
    bogus = ["ghost.spooky", "party.phantom"][: rng.randint(0, 2)]
    keys = keyset(*(chosen + bogus))
    template = build_template(tiny_index, keys, "sample-record")
    leaf_paths = _template_leaf_paths(template.tree)

    # soundness: every emitted path is a real schema path
    for path in leaf_paths:
        assert path in all_paths
    # completeness: every chosen key that names a schema path appears
    for key in chosen:
        assert key in leaf_paths
    # minimality: every leaf is a prefix of (or equal to) some requested key
    for path in leaf_paths:
        assert any(k == path or k.startswith(path + ".") for k in keys)


# ---------------------------------------------------------------------------
# objects that keep no data property are dropped


def test_a_placeholder_leaf_is_kept_beside_a_dropped_object(tiny_index):
    template = build_template(tiny_index, keyset("party.address", "name"), "sample-record")
    assert saved(template) == {"description": "Top-level container for a simple record.", "name": ""}


def test_an_object_with_only_its_annotation_is_dropped(tiny_index):
    template = build_template(tiny_index, keyset("party", "tags"), "sample-record")
    assert saved(template) == {"description": "Top-level container for a simple record.", "tags": [""]}


def test_nested_objects_that_keep_nothing_are_dropped_with_their_arrays(tmp_path):
    _write_schema(
        tmp_path,
        {
            "description": "Root doc",
            "properties": {
                "legs": {"type": "array", "items": {"$ref": "leg.schema.json"}},
                "party": {"$ref": "leg.schema.json"},
                "name": {"type": "string"},
            },
        },
        leg={
            "description": "A leg.",
            "properties": {"inner": {"$ref": "leg.schema.json"}, "rate": {"type": "number"}},
        },
    )
    index = load_schema_dir(tmp_path, "root.schema.json")
    keys = keyset("legs.inner.inner", "party.inner.rate", "name")
    expected = {
        "description": "Root doc",
        "party": {"description": "A leg.", "inner": {"description": "A leg.", "rate": 0}},
        "name": "",
    }
    assert saved(build_template(index, keys, "sample-record")) == expected
    assert oracles.build_two_pass(index, keys) == expected


def test_a_root_that_keeps_nothing_is_empty(tiny_index):
    for keys in (keyset("party.address"), keyset("ghost"), keyset("party", "ghost.spooky")):
        template = build_template(tiny_index, keys, "sample-record")
        assert template.tree == {}
        assert template.to_text().endswith('"tree": {}\n}\n')


def test_a_dropped_description_property_still_displaces_the_annotation(tmp_path):
    # The annotation key is chosen from the covered properties, before any
    # of them is dropped: the example's "description" reaches an object
    # without reaching its one leaf.
    _write_schema(
        tmp_path,
        {
            "description": "Root doc",
            "properties": {
                "description": {"type": "object", "properties": {"x": {"type": "string"}}},
                "name": {"type": "string"},
            },
        },
    )
    write_example(tmp_path / "examples", "e1.json", {"description": "free text", "name": "n"})
    index = load_schema_dir(tmp_path, "root.schema.json")
    keys = flatten_examples(tmp_path / "examples")
    template = build_template(index, keys, "sample-record")
    assert saved(template) == {"_template_description": "Root doc", "name": ""}
    assert saved(template) == oracles.build_two_pass(index, keys)


def _write_schema(directory, root, **documents) -> None:
    (directory / "root.schema.json").write_text(json.dumps(root), encoding="utf-8")
    for name, document in documents.items():
        (directory / f"{name}.schema.json").write_text(json.dumps(document), encoding="utf-8")


@st.composite
def smoke_corpus_keys(draw):
    """A generated SMOKE_SCALE corpus's schema index, with a drawn subset of
    one type's example keys and of their proper prefixes: a prefix that
    names an object reaches it and none of its leaves."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
        examples_dir = draw(st.sampled_from(sorted(batch.examples_dirs.values())))
        example_keys = flatten_examples(examples_dir)
    prefixes = oracles.prefix_closure(example_keys) - example_keys
    keys = draw(st.frozensets(st.sampled_from(sorted(example_keys)), min_size=1))
    keys |= draw(st.frozensets(st.sampled_from(sorted(prefixes)), max_size=6))
    return index, keys


@settings(max_examples=60, deadline=None)
@given(case=smoke_corpus_keys())
def test_the_one_walk_equals_the_two_pass_reference_on_generated_corpora(case):
    index, keys = case
    template = build_template(index, frozenset(keys), "sample-record")
    assert saved(template) == oracles.build_two_pass(index, keys)
    assert Template.from_saved(saved(template), "sample-record", template.schema_root) == template


# ---------------------------------------------------------------------------
# the direct walks equal the walks they replaced

# Keys over a small alphabet, so that drawn sets share prefixes, with empty
# segments and leading or trailing dots.
DOTTED_KEYS = st.text(alphabet="ab.", max_size=6)


@settings(max_examples=300, deadline=None)
@given(keys=st.frozensets(DOTTED_KEYS, max_size=8))
def test_covers_reads_the_split_and_join_prefix_closure(keys):
    assert template_builder._prefixes(frozenset(keys)) == oracles.prefix_closure(keys)


LEAVES = st.sampled_from(["", "x", treeops.DATE_TOKEN, 0, 1.5, False, None])
TREE_KEYS = st.sampled_from(["a", "b", "", "description", treeops.FALLBACK_DESCRIPTION_KEY])
TREES = st.recursive(
    LEAVES | st.just("A note."),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TREE_KEYS, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES, prefix=st.sampled_from(["", "p", "p.q"]))
def test_leaf_paths_equal_the_nested_generators_in_order(tree, prefix):
    for items in (treeops.data_items, dict.items):
        expected = list(oracles.leaf_paths_generator(tree, prefix, items))
        assert list(treeops.iter_leaf_paths(tree, prefix, items)) == expected


def _annotations_first(value):
    """``value`` with each object's annotation entries ahead of its data,
    as the template builder writes them."""
    if isinstance(value, dict):
        items = [(key, _annotations_first(child)) for key, child in value.items()]
        return dict(sorted(items, key=lambda item: not treeops.is_annotation(*item)))
    if isinstance(value, list):
        return [_annotations_first(child) for child in value]
    return value


def _annotation_entries(value) -> list:
    """The annotation entries of a tree, and not those inside them."""
    if isinstance(value, dict):
        found = [(key, child) for key, child in value.items() if treeops.is_annotation(key, child)]
        data = [child for key, child in value.items() if not treeops.is_annotation(key, child)]
        return found + [entry for child in data for entry in _annotation_entries(child)]
    if isinstance(value, list):
        return [entry for child in value for entry in _annotation_entries(child)]
    return []


@settings(max_examples=300, deadline=None)
@given(tree=st.dictionaries(TREE_KEYS, TREES, max_size=3).map(_annotations_first))
def test_a_saved_template_loads_and_saves_back_to_the_same_bytes(tree):
    text = treeops.indented_json({"contract_type": "T", "schema_root": "r.json", "tree": tree}) + "\n"
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "t.template.json"
        path.write_text(text, encoding="utf-8")
        template = Template.load(path)
    assert template.to_text() == text
    assert _annotation_entries(template.tree) == []
    entries = [entry for note in template.notes.values() for entry in note.items()]
    assert sorted(map(repr, entries)) == sorted(map(repr, _annotation_entries(tree)))


def test_a_hand_written_annotation_after_its_data_is_saved_and_shown_first(tmp_path):
    path = tmp_path / "t.template.json"
    tree = {"legs": [{"rate": 0, "description": "A leg."}], "name": ""}
    path.write_text(json.dumps({"contract_type": "T", "schema_root": "r.json", "tree": tree}), encoding="utf-8")
    template = Template.load(path)
    assert template.tree == {"legs": [{"rate": 0}], "name": ""}
    assert template.notes == {("legs", 0): {"description": "A leg."}}
    assert saved(template) == {"legs": [{"description": "A leg.", "rate": 0}], "name": ""}
    assert template.shown(("legs",), template.tree["legs"]) == ([{"description": "A leg.", "rate": 0}], "A leg.")


# Strings drawn from all of Unicode, and from the characters json escapes.
JSON_STRINGS = st.text() | st.text(alphabet='"\\/\x00\x08\x0c\x1f\x7f\n\r\t é€\U0001f600a', max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
def test_indented_json_equals_json_dumps_with_indent_2(value):
    assert treeops.indented_json(value) == json.dumps(value, indent=2, ensure_ascii=False)
