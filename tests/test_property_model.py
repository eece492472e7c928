"""One reading of every schema property shape, pinned end to end.

A property holds one object or one scalar, and may be an array of either
or an array of such arrays. The template builder, the evaluator and the
dry run must all read each shape the same way: the template gives it the
right skeleton, a value of that shape adheres, and a value of another
shape does not.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmgen import dryrun, treeops
from cdmgen.evaluator import evaluate_document
from cdmgen.populator import clean
from cdmgen.schema_index import load_schema_dir
from cdmgen.template_builder import build_template, flatten_examples

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402
from helpers import write_wrapped_schema  # noqa: E402

P = treeops.PLACEHOLDERS
THING = {treeops.DESCRIPTION_KEY: "A thing.", "id": P["string"]}

SCHEMA = {
    "root.schema.json": {
        "properties": {
            "refObject": {"$ref": "thing.schema.json"},
            "refScalar": {"$ref": "code.schema.json"},
            "aliasScalar": {"$ref": "alias.schema.json"},
            "refObjects": {"type": "array", "items": {"$ref": "thing.schema.json"}},
            "refScalars": {"type": "array", "items": {"$ref": "code.schema.json"}},
            "inlineItems": {
                "type": "array",
                "items": {"type": "object", "properties": {"label": {"type": "string"}}},
            },
            "plainScalars": {"type": "array", "items": {"type": "number"}},
            "nestedScalars": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            "bareItems": {"items": {"type": "integer"}},
            "refWins": {"$ref": "thing.schema.json", "type": "array", "items": {"type": "string"}},
            "inlineObject": {"type": "object", "properties": {"flag": {"type": "boolean"}}},
            "status": {"type": "string", "enum": ["open", "closed"]},
            "settled": {"type": "string", "format": "date"},
            "agreed": {"type": "string", "description": "The date both sides agreed."},
            "wrapEnum": {"$ref": "wrap.schema.json"},
            "wrappedRef": {"description": "The thing, wrapped.", "allOf": [{"$ref": "thing.schema.json"}]},
            "inlineMembers": {"type": "object", "allOf": [{"properties": {"size": {"type": "number"}}}]},
            "choiceOnly": {"oneOf": [{"properties": {"label": {"type": "string"}}}]},
            "inherited": {"$ref": "child.schema.json"},
            "outer": {
                "type": "object",
                "properties": {"inner": {"type": "object", "properties": {"x": {"type": "string"}}}},
            },
            "inner": {"type": "object", "properties": {"y": {"type": "boolean"}}},
            "notional": {"$ref": "notional.schema.json"},
        }
    },
    "thing.schema.json": {"description": "A thing.", "properties": {"id": {"type": "string"}}},
    "code.schema.json": {"type": "string", "enum": ["A", "B"]},
    "alias.schema.json": {"$ref": "alias-2.schema.json"},
    "alias-2.schema.json": {"$ref": "amount.schema.json"},
    "amount.schema.json": {"type": "number", "description": "An amount."},
    "wrap.schema.json": {"allOf": [{"$ref": "code.schema.json"}]},
    "child.schema.json": {"allOf": [{"$ref": "base/parent.schema.json"}]},
    "base/parent.schema.json": {"properties": {"gizmo": {"$ref": "gizmo.schema.json"}}},
    "base/gizmo.schema.json": {"properties": {"count": {"type": "integer"}}},
    "notional.schema.json": {"description": "The notional.", "$ref": "amount.schema.json"},
}

# property: (template subtree, a conforming value, a non-conforming value)
SHAPES = {
    "refObject": (THING, {"id": "x"}, "x"),
    "refScalar": (P["enum"], "A", "C"),
    "aliasScalar": (P["number"], 2.5, "2.5"),
    "refObjects": ([THING], [{"id": "x"}, {"id": "y"}], [{"id": "x"}, "y"]),
    "refScalars": ([P["enum"]], ["A", "B"], ["A", "Z"]),
    "inlineItems": ([{"label": P["string"]}], [{"label": "a"}], {"label": "a"}),
    "plainScalars": ([P["number"]], [1, 2.5], [1, "2"]),
    # An array of arrays has a list at each level.
    "nestedScalars": ([[P["number"]]], [[1.5, 2]], ["x"]),
    "bareItems": ([P["integer"]], [1, 2], [1.5]),
    "refWins": (THING, {"id": "x"}, [{"id": "x"}]),
    "inlineObject": ({"flag": P["boolean"]}, {"flag": True}, [True]),
    "status": (P["enum"], "open", "pending"),
    "settled": (P["date"], "2024-01-01", "01/01/2024"),
    "agreed": (P["date"], "2024-01-01", "soon"),
    # An allOf over a $ref is read as what the ref names, scalar or object.
    "wrapEnum": (P["enum"], "B", "Z"),
    "wrappedRef": ({treeops.DESCRIPTION_KEY: "The thing, wrapped.", "id": P["string"]}, {"id": "x"}, "x"),
    # An inline node's composite members add their properties.
    "inlineMembers": ({"size": P["number"]}, {"size": 1.5}, 1.5),
    "choiceOnly": ({"label": P["string"]}, {"label": "a"}, "a"),
    # An inherited property's $ref resolves against the file it is written in.
    "inherited": ({"gizmo": {"count": P["integer"]}}, {"gizmo": {"count": 3}}, 3),
    # A nested inline object is not the root's inline object of its name.
    "outer": ({"inner": {"x": P["string"]}}, {"inner": {"x": "a"}}, "a"),
    "inner": ({"y": P["boolean"]}, {"y": True}, True),
    # An alias document with a sibling key still stands for its target.
    "notional": (P["number"], 2.5, "2.5"),
}


@pytest.fixture(scope="module")
def shapes_index(tmp_path_factory):
    schema_dir = tmp_path_factory.mktemp("shapes")
    for name, body in SCHEMA.items():
        (schema_dir / name).parent.mkdir(exist_ok=True)
        (schema_dir / name).write_text(json.dumps(body), encoding="utf-8")
    return load_schema_dir(schema_dir, "root.schema.json")


@pytest.fixture(scope="module")
def shapes_template(shapes_index, tmp_path_factory):
    examples = tmp_path_factory.mktemp("shape_examples")
    example = {name: good for name, (_, good, _) in SHAPES.items()}
    (examples / "e1.json").write_text(json.dumps(example), encoding="utf-8")
    return build_template(shapes_index, flatten_examples(examples), "Shapes").tree


def _verdict(index, name, value) -> tuple[bool, bool]:
    detail = evaluate_document({name: value}, index).per_path_detail
    entry = next(d for d in detail if d["path"] == name)
    return entry["exists"], entry["adheres"]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_property_shape_reads_the_same_in_template_and_evaluator(
    name, shapes_index, shapes_template
):
    subtree, good, bad = SHAPES[name]
    assert shapes_template[name] == subtree
    assert _verdict(shapes_index, name, good) == (True, True)
    assert _verdict(shapes_index, name, bad) == (True, False)


def test_the_dry_run_fills_every_property_shape_so_it_adheres(shapes_index, shapes_template):
    filled = clean(dryrun.fill_fragment(shapes_index, shapes_template, ""))
    assert set(filled) == set(SHAPES)
    report = evaluate_document(filled, shapes_index)
    assert (report.syntactical_correctness, report.schema_adherence) == (100.0, 100.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_dry_run_filled_corpus_template_scores_100(seed):
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
        for contract_type, examples_dir in batch.examples_dirs.items():
            template = build_template(index, flatten_examples(examples_dir), contract_type)
            filled = clean(dryrun.fill_fragment(index, template.tree, ""))
            report = evaluate_document(filled, index)
            assert report.syntactical_correctness == 100.0, (seed, contract_type)
            assert report.schema_adherence == 100.0, (seed, contract_type)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_a_ref_wrapped_in_an_annotated_all_of_reads_as_the_ref(seed):
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        wrapped_dir = Path(work) / "wrapped"
        write_wrapped_schema(batch.schema_dir, wrapped_dir)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
        wrapped = load_schema_dir(wrapped_dir, batch.root_file)
        for contract_type, examples_dir in batch.examples_dirs.items():
            keys = flatten_examples(examples_dir)
            template = build_template(wrapped, keys, contract_type).tree
            plain = build_template(index, keys, contract_type).tree
            assert treeops.strip_annotations(template) == treeops.strip_annotations(plain), (seed, contract_type)
            report = evaluate_document(clean(dryrun.fill_fragment(wrapped, template, "")), wrapped)
            assert report.syntactical_correctness == 100.0, (seed, contract_type)
            assert report.schema_adherence == 100.0, (seed, contract_type)
