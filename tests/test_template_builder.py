from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdmgen import treeops
from cdmgen.errors import EmptyExampleDir, MalformedDocument
from cdmgen.schema_index import load_schema_dir
from cdmgen.template_builder import (
    KeyPathSet,
    build_template,
    flatten_examples,
    prune_empty,
)


def write_example(directory, name, payload) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def keyset(*paths: str) -> KeyPathSet:
    return KeyPathSet(frozenset(paths))


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
    assert keys.paths == frozenset({"trade.tradeIdentifier.assignedIdentifier.identifier.value"})


def test_flatten_examples_without_a_leaf_raise_empty_example_dir(tmp_path):
    write_example(tmp_path, "empty.json", {})
    write_example(tmp_path, "empty_list.json", [])
    with pytest.raises(EmptyExampleDir, match="has a leaf value"):
        flatten_examples(tmp_path)


def test_flatten_shared_paths_collapse(tmp_path):
    write_example(tmp_path, "a.json", {"name": "A"})
    write_example(tmp_path, "b.json", {"name": "B"})
    keys = flatten_examples(tmp_path)
    assert keys.paths == frozenset({"name"})


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
    assert flatten_examples(tmp_path).paths == frozenset({"n\u00e4me"})
    (tmp_path / "half.json").write_text('{"name": ["ok", "\\uDBFF"]}', encoding="utf-8")
    with pytest.raises(MalformedDocument, match=r"^half\.json: the lone surrogate \\udbff is not UTF-8 text$"):
        flatten_examples(tmp_path)


def test_examples_dir_walks_directory_named_json(tmp_path):
    write_example(tmp_path, "a.json", {"name": "A"})
    write_example(tmp_path / "odd.json", "b.json", {"nested": {"x": 1}})
    keys = flatten_examples(tmp_path)
    assert keys.paths == frozenset({"name", "nested.x"})


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
    assert template.tree == {
        "_template_description": "Root level documentation.",
        "description": "",
        "label": "",
    }



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
    assert keys.paths == {"trade.description", "trade.tradeId"}
    template = build_template(index, keys, "Swap")
    assert template.tree == {"trade": {"_template_description": "A trade.", "description": "", "tradeId": ""}}
    cfg = PopulationConfig()
    script = build_population_script(index, template, "A swap.", cfg)
    doc = populate(template, "A swap.", None, MockProvider(script), cfg)
    assert clean(doc) == {"trade": {"description": "description-001", "tradeId": "tradeId-001"}}


def test_examples_whose_only_leaf_is_a_description_have_a_leaf(tmp_path):
    write_example(tmp_path, "e1.json", {"trade": {"description": "A plain vanilla swap"}})
    assert flatten_examples(tmp_path).paths == {"trade.description"}


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
        assert any(k == path or k.startswith(path + ".") for k in keys.paths)


# ---------------------------------------------------------------------------
# prune_empty


def test_prune_removes_empty_object_keeps_placeholder_leaf():
    assert prune_empty({"a": {}, "b": {"c": ""}}) == {"b": {"c": ""}}


def test_prune_annotation_only_object_is_empty():
    tree = {"a": {"description": "x"}}
    assert prune_empty(tree) == {}
    assert prune_empty(tree) == oracles.prune_fixpoint(tree)


def test_prune_bottom():
    assert prune_empty({}) == {}


def test_prune_nested_vs_fixpoint_oracle():
    tree = {
        "a": {"b": {"c": {}}, "description": "keep until empty"},
        "d": [{}, {"e": ""}],
        "f": [],
        "g": {"description": "ann", "h": []},
    }
    assert prune_empty(tree) == oracles.prune_fixpoint(tree)
    assert prune_empty(tree) == {"d": [{"e": ""}]}


@st.composite
def template_trees(draw, depth=0):
    if depth >= 4:
        return draw(st.sampled_from(["", "YYYY-MM-DD", 0, False]))
    choice = draw(st.integers(0, 5))
    if choice <= 2:
        keys = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=4))
        node = {k: draw(template_trees(depth=depth + 1)) for k in keys}
        if draw(st.booleans()):
            node = {"description": "Annotation text.", **node}
        return node
    if choice == 3:
        return [draw(template_trees(depth=depth + 1)) for _ in range(draw(st.integers(0, 2)))]
    return draw(st.sampled_from(["", "YYYY-MM-DD", 0, False]))


@settings(max_examples=120, deadline=None)
@given(tree=template_trees())
def test_prune_is_idempotent_and_matches_oracle(tree):
    if not isinstance(tree, dict):
        tree = {"root": tree}
    once = prune_empty(tree)
    assert prune_empty(once) == once
    assert once == oracles.prune_fixpoint(tree)



# ---------------------------------------------------------------------------
# the direct walks equal the walks they replaced

# Keys over a small alphabet, so that drawn sets share prefixes, with empty
# segments and leading or trailing dots.
DOTTED_KEYS = st.text(alphabet="ab.", max_size=6)


@settings(max_examples=300, deadline=None)
@given(keys=st.frozensets(DOTTED_KEYS, max_size=8), probes=st.lists(DOTTED_KEYS, max_size=8))
def test_covers_reads_the_split_and_join_prefix_closure(keys, probes):
    closure = oracles.prefix_closure(keys)
    key_set = keyset(*keys)
    for path in sorted(closure | set(probes) | {"", "."}):
        assert key_set.covers(path) == (path in closure), path


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
