from __future__ import annotations

import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdmgen.errors import (
    DegenerateDenominator,
    EmptyDocument,
    EmptyGroup,
    ListParseFailure,
    MalformedDocument,
)
from cdmgen.evaluator import (
    CoverageLists,
    CoverageWeights,
    EvaluationReport,
    aggregate,
    coverage_lists,
    coverage_prompt,
    coverage_retry_prompt,
    coverage_score,
    evaluate_document,
)
from cdmgen.gateway import MockProvider, prompt_hash
from cdmgen.schema_index import load_schema_dir
from cdmgen.treeops import read_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402

VALID_DOC = {
    "contractType": "InterestRateSwap",
    "trade": {
        "tradeIdentifier": [
            {
                "assignedIdentifier": [
                    {
                        "identifier": {"value": "IRS-1", "meta": {"scheme": "http://x"}},
                        "version": 1,
                    }
                ],
                "issuer": "BANK",
            }
        ],
        "tradeDate": "2024-03-11",
        "party": [{"partyId": "P1", "name": "Alpha"}],
        "product": {
            "interestRateLeg": {
                "notional": 1000000,
                "currency": "USD",
                "fixedRate": 0.03,
                "floatingIndex": "SOFR",
                "dayCount": "ACT/360",
                "effectiveDate": "2024-03-13",
                "terminationDate": "2029-03-13",
                "paymentFrequency": "Quarterly",
            }
        },
    },
}


def lists(c: int, u: int, e: int) -> CoverageLists:
    return CoverageLists(
        captured=tuple(f"c{i}" for i in range(c)),
        uncaptured=tuple(f"u{i}" for i in range(u)),
        extraneous=tuple(f"e{i}" for i in range(e)),
    )


def report(syntactical=100.0, adherence=100.0, coverage=None) -> EvaluationReport:
    return EvaluationReport(
        syntactical_correctness=syntactical,
        schema_adherence=adherence,
        per_path_detail=[],
        coverage_score=coverage,
    )


# ---------------------------------------------------------------------------
# syntactical correctness


def test_fully_valid_document_scores_100(cdm_index):
    result = evaluate_document(VALID_DOC, cdm_index)
    assert result.syntactical_correctness == 100.0
    assert all(row["exists"] for row in result.per_path_detail)


def test_single_bogus_key_scores_0(cdm_index):
    result = evaluate_document({"bogusKey": "x"}, cdm_index)
    assert result.syntactical_correctness == 0.0
    assert result.per_path_detail == [{"path": "bogusKey", "exists": False, "adheres": False}]


def test_three_valid_one_invalid_scores_75(cdm_index):
    # hand enumeration: contractType, trade, trade.tradeDate exist;
    # trade.bogus does not -> 3/4
    doc = {
        "contractType": "EquitySwap",
        "trade": {"tradeDate": "2024-01-05", "bogus": 1},
    }
    result = evaluate_document(doc, cdm_index)
    assert [row["path"] for row in result.per_path_detail] == [
        "contractType",
        "trade",
        "trade.tradeDate",
        "trade.bogus",
    ]
    assert result.syntactical_correctness == 75.0


def test_empty_document_rejected(cdm_index):
    with pytest.raises(EmptyDocument):
        evaluate_document({}, cdm_index)
    with pytest.raises(EmptyDocument):
        evaluate_document([], cdm_index)


@pytest.mark.parametrize("key", ["", "."])
def test_a_top_level_key_naming_no_path_scores_as_missing(cdm_index, key):
    result = evaluate_document({key: 1, "trade": {}}, cdm_index)
    assert result.syntactical_correctness == 50.0
    assert result.schema_adherence == 50.0
    assert result.per_path_detail[0] == {"path": key, "exists": False, "adheres": False}


def test_array_occurrences_count_repeatedly(cdm_index):
    doc = {"trade": {"party": [{"partyId": "a"}, {"partyId": "b"}, {"nope": 1}]}}
    result = evaluate_document(doc, cdm_index)
    # occurrences: trade, trade.party, partyId x2, nope -> 4/5
    assert len(result.per_path_detail) == 5
    assert result.syntactical_correctness == 80.0


# ---------------------------------------------------------------------------
# schema adherence


def test_adherent_document_scores_100(cdm_index):
    result = evaluate_document(VALID_DOC, cdm_index)
    assert result.schema_adherence == 100.0
    assert all(row["adheres"] for row in result.per_path_detail)


def adherence_by_path(doc, index) -> dict[str, bool]:
    return {row["path"]: row["adheres"] for row in evaluate_document(doc, index).per_path_detail}


def test_list_where_object_expected_is_non_adherent(cdm_index):
    doc = {"trade": {"product": [{"interestRateLeg": {}}]}}
    assert adherence_by_path(doc, cdm_index)["trade.product"] is False


def test_enum_violation_with_nine_adherent_nodes_scores_90(cdm_index):
    # hand enumeration gives exactly 10 key occurrences: contractType, trade,
    # tradeDate, party, partyId, product, interestRateLeg, notional,
    # currency, dayCount; only dayCount violates its enum
    doc = {
        "contractType": "InterestRateSwap",
        "trade": {
            "tradeDate": "2024-03-11",
            "party": [{"partyId": "P1"}],
            "product": {
                "interestRateLeg": {
                    "notional": 5,
                    "currency": "USD",
                    "dayCount": "NOT-A-CONVENTION",
                }
            },
        },
    }
    result = evaluate_document(doc, cdm_index)
    assert len(result.per_path_detail) == 10
    rows = {row["path"]: row["adheres"] for row in result.per_path_detail}
    assert rows["trade.product.interestRateLeg.dayCount"] is False
    assert result.schema_adherence == 90.0


@pytest.mark.parametrize(
    "value,adheres",
    [
        ("2024-03-11", True),
        ("YYYY-MM-DD", False),
        ("11 March 2024", False),
        (20240311, False),
    ],
)
def test_date_adherence_requires_lexical_date(cdm_index, value, adheres):
    doc = {"trade": {"tradeDate": value}}
    assert adherence_by_path(doc, cdm_index)["trade.tradeDate"] is adheres


def test_boolean_and_number_distinction(cdm_index):
    doc = {"trade": {"product": {"fxTerms": {"deliverable": True, "rate": True}}}}
    rows = adherence_by_path(doc, cdm_index)
    assert rows["trade.product.fxTerms.deliverable"] is True
    assert rows["trade.product.fxTerms.rate"] is False


def test_adherence_diverges_from_syntactical_only_on_types(cdm_index):
    result = evaluate_document({"trade": {"tradeDate": 123}}, cdm_index)
    assert result.syntactical_correctness == 100.0
    assert result.schema_adherence == 50.0


def test_evaluate_document_merges_detail(cdm_index):
    merged = evaluate_document(VALID_DOC, cdm_index)
    assert merged.syntactical_correctness == 100.0
    assert merged.schema_adherence == 100.0
    assert all({"path", "exists", "adheres"} <= set(row) for row in merged.per_path_detail)


# ---------------------------------------------------------------------------
# coverage lists via the gateway


def test_coverage_lists_mock_passthrough():
    doc = {"a": 1}
    reply = {
        "captured": [f"c{i}" for i in range(8)],
        "uncaptured": [f"u{i}" for i in range(5)],
        "extraneous": [f"e{i}" for i in range(3)],
    }
    first = coverage_prompt("The contract.", doc)
    gateway = MockProvider({prompt_hash(first): json.dumps(reply)})
    result = coverage_lists("The contract.", doc, gateway)
    assert result.counts == (8, 5, 3)
    assert list(result.captured) == reply["captured"]


def test_coverage_lists_missing_list_fails_after_retry():
    doc = {"a": 1}
    bad = json.dumps({"captured": [], "uncaptured": []})
    first = coverage_prompt("text", doc)
    retry = coverage_retry_prompt(first)
    gateway = MockProvider({prompt_hash(first): bad, prompt_hash(retry): bad})
    with pytest.raises(ListParseFailure):
        coverage_lists("text", doc, gateway)


def test_coverage_lists_recovers_on_retry():
    doc = {"a": 1}
    good = json.dumps({"captured": ["x"], "uncaptured": [], "extraneous": []})
    first = coverage_prompt("text", doc)
    retry = coverage_retry_prompt(first)
    gateway = MockProvider({prompt_hash(first): "not json", prompt_hash(retry): good})
    assert coverage_lists("text", doc, gateway).counts == (1, 0, 0)


def test_coverage_lists_trims_and_drops_empty_items():
    doc = {"a": 1}
    reply = json.dumps({"captured": ["  x  ", ""], "uncaptured": [], "extraneous": ["", " "]})
    first = coverage_prompt("text", doc)
    gateway = MockProvider({prompt_hash(first): reply})
    result = coverage_lists("text", doc, gateway)
    assert result.captured == ("x",)
    assert result.extraneous == ()


def test_coverage_lists_preconditions():
    with pytest.raises(ValueError):
        coverage_lists("", {"a": 1}, MockProvider({}))
    with pytest.raises(ValueError):
        coverage_lists("text", {}, MockProvider({}))


# ---------------------------------------------------------------------------
# coverage score


def test_perfect_capture_scores_100():
    assert coverage_score(lists(10, 0, 0), CoverageWeights()) == 100.0


def test_weighted_score_against_fraction_oracle():
    expected = oracles.coverage_score_fraction(8, 5, 3, 0.3, 0.1)
    got = coverage_score(lists(8, 5, 3), CoverageWeights(mu=0.3, epsilon=0.1))
    assert abs(got - float(expected)) <= 1e-9
    assert abs(got - 81.63265306122449) <= 1e-9


def test_zero_numerator_scores_zero():
    assert coverage_score(lists(0, 4, 0), CoverageWeights(mu=0.3)) == 0.0


def test_degenerate_cases():
    with pytest.raises(DegenerateDenominator):
        coverage_score(lists(0, 0, 0), CoverageWeights())
    with pytest.raises(DegenerateDenominator):
        coverage_score(lists(0, 3, 0), CoverageWeights(mu=0.0, epsilon=0.0))


def test_weights_validated():
    with pytest.raises(ValueError):
        CoverageWeights(mu=-0.1)
    with pytest.raises(ValueError):
        CoverageWeights(epsilon=1.5)


def test_unit_weights_reduce_to_plain_fraction():
    score = coverage_score(lists(6, 3, 1), CoverageWeights(mu=1.0, epsilon=1.0))
    assert abs(score - 600 / 10) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    c=st.integers(0, 50),
    u=st.integers(0, 50),
    e=st.integers(0, 50),
    mu=st.floats(0.01, 1.0),
    eps=st.floats(0.01, 1.0),
)
def test_score_monotonicity(c, u, e, mu, eps):
    if c == 0 and u == 0 and e == 0:
        return
    weights = CoverageWeights(mu=mu, epsilon=eps)
    base = coverage_score(lists(c, u, e), weights)
    assert coverage_score(lists(c, u + 1, e), weights) <= base
    assert coverage_score(lists(c, u, e + 1), weights) <= base
    assert coverage_score(lists(c + 1, u, e), weights) >= base
    exact = oracles.coverage_score_fraction(c, u, e, mu, eps)
    assert abs(base - float(exact)) <= 1e-9


# ---------------------------------------------------------------------------
# aggregation


def test_identical_reports_zero_stddev():
    rows = aggregate({"irs": [report() for _ in range(5)]})
    stats = rows["irs"]["syntactical_correctness"]
    assert stats["mean"] == 100.0
    assert stats["stddev"] == 0.0


def test_two_point_stddev_by_hand():
    rows = aggregate({"irs": [report(syntactical=80.0), report(syntactical=100.0)]})
    stats = rows["irs"]["syntactical_correctness"]
    assert stats["mean"] == 90.0
    assert stats["stddev"] == oracles.two_point_population_stddev(80.0, 100.0) == 10.0


def test_empty_group_rejected():
    with pytest.raises(EmptyGroup):
        aggregate({"irs": []})
    with pytest.raises(EmptyGroup):
        aggregate({})


def test_single_report_stddev_zero():
    rows = aggregate({"fx": [report(adherence=93.5)]})
    assert rows["fx"]["schema_adherence"] == {"mean": 93.5, "stddev": 0.0, "n": 1}


def test_combined_row_spans_groups():
    rows = aggregate(
        {"a": [report(syntactical=80.0)], "b": [report(syntactical=100.0)]}
    )
    assert rows["combined"]["syntactical_correctness"]["mean"] == 90.0
    assert rows["combined"]["count"]["n"] == 2


def test_coverage_metric_aggregates_when_present():
    rows = aggregate({"a": [report(coverage=90.0), report(coverage=80.0)]})
    assert rows["a"]["coverage_score"]["mean"] == 85.0
    rows_without = aggregate({"a": [report()]})
    assert rows_without["a"]["coverage_score"] is None


def test_report_round_trips_through_dict():
    original = EvaluationReport(
        syntactical_correctness=75.0,
        schema_adherence=50.0,
        per_path_detail=[{"path": "a", "exists": True, "adheres": False}],
        lists=lists(2, 1, 0),
        coverage_score=coverage_score(lists(2, 1, 0), CoverageWeights()),
    )
    restored = EvaluationReport.from_dict(original.to_dict())
    assert restored == original
    # the stored score is bit-reproducible from the stored lists
    assert coverage_score(restored.lists, CoverageWeights()) == restored.coverage_score


@pytest.mark.parametrize("metric", ["syntactical_correctness", "schema_adherence"])
def test_a_report_without_a_structural_score_is_a_value_error_naming_it(metric):
    payload = report(syntactical=80.0, adherence=60.0).to_dict()
    del payload[metric]
    with pytest.raises(ValueError, match=f"^no '{metric}' score$"):
        EvaluationReport.from_dict(payload)


# ---------------------------------------------------------------------------
# randomized cross-check of the structural walk


def test_structural_scores_bounded_and_consistent(cdm_index):
    rng = random.Random(3)
    pool = [
        VALID_DOC,
        {"bogusKey": "x"},
        {"trade": {"tradeDate": 5, "party": [{"partyId": 1}]}},
        {"contractType": "NotAType", "trade": {"bogus": {"deep": 1}}},
    ]
    for _ in range(50):
        doc = rng.choice(pool)
        result = evaluate_document(doc, cdm_index)
        assert 0.0 <= result.syntactical_correctness <= 100.0
        assert 0.0 <= result.schema_adherence <= 100.0
        assert result.schema_adherence <= result.syntactical_correctness
        # a node can only adhere if its path exists
        for row in result.per_path_detail:
            if row["adheres"]:
                assert row["exists"]


# ---------------------------------------------------------------------------
# the walk beside the schema reads every key as a lookup from the root would

# Keys that lookup normalizes (empty, all digits, holding a "."), or that no
# schema names, mixed into drawn documents beside the schema's own keys.
ODD_KEYS = ("", "0", "12", ".", "..", "a.b", "x..y", ".lead", "trail.", "bogus", "trade.tradeDate")
LEAF_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(allow_nan=False),
    st.sampled_from(["", "x", "A", "open", "2024-01-01", "YYYY-MM-DD"]),
)
# Property names that lookup normalizes, as a schema may still declare them.
ODD_SCHEMA = {
    "root.json": {
        "properties": {
            "a.b": {"type": "string"},
            "a": {"$ref": "a.json"},
            "7": {"type": "boolean"},
            "": {"type": "integer"},
            "rows": {"type": "array", "items": {"type": "array", "items": {"$ref": "root.json"}}},
        }
    },
    "a.json": {"properties": {"b": {"type": "number"}, "c.d": {"$ref": "root.json"}, "0": {"$ref": "a.json"}}},
}


@pytest.fixture(scope="module")
def odd_index(tmp_path_factory):
    schema_dir = tmp_path_factory.mktemp("odd_schema")
    for name, body in ODD_SCHEMA.items():
        (schema_dir / name).write_text(json.dumps(body), encoding="utf-8")
    return load_schema_dir(schema_dir, "root.json")


def _draw_object(data, index, properties, depth) -> dict:
    """An object whose keys are mostly ``properties``' names, with values
    that mostly follow the schema."""
    names = sorted(properties or ())
    out = {}
    for _ in range(data.draw(st.integers(1 if depth == 0 else 0, 3))):
        schema_key = names and data.draw(st.integers(0, 4)) > 0
        key = data.draw(st.sampled_from(names if schema_key else ODD_KEYS))
        out[key] = _draw_value(data, index, (properties or {}).get(key), depth + 1)
    return out


def _draw_value(data, index, prop, depth):
    shape = data.draw(st.sampled_from(["leaf", "object", "object", "array"])) if depth < 8 else "leaf"
    if shape == "leaf":
        return data.draw(LEAF_VALUES)
    if shape == "array":
        # Nested arrays, arrays of objects and empty arrays.
        return [_draw_value(data, index, prop, depth + 1) for _ in range(data.draw(st.integers(0, 2)))]
    inner = index.doc(prop.ref_target).properties if prop is not None and prop.ref_target else None
    return _draw_object(data, index, inner, depth)


def _assert_scored_as_lookups(index, doc) -> None:
    expected = oracles.key_occurrence_detail(doc, lambda path: oracles.property_at_path(index, path))
    result = evaluate_document(doc, index)
    assert result.per_path_detail == expected
    assert result.syntactical_correctness == 100.0 * sum(d["exists"] for d in expected) / len(expected)
    assert result.schema_adherence == 100.0 * sum(d["adheres"] for d in expected) / len(expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_key_scores_as_its_lookup_from_the_root(cdm_index, odd_index, data):
    # A depth guard of 3 puts the documents' deeper keys past it.
    index = data.draw(st.sampled_from([cdm_index, odd_index]))
    index = data.draw(st.sampled_from([index, replace(index, max_path_depth=3)]))
    doc = _draw_object(data, index, index.doc(index.start_id).properties, 0)
    _assert_scored_as_lookups(index, doc)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_each_key_of_a_corpus_document_scores_as_its_lookup_from_the_root(seed, data):
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
    for guarded in (index, replace(index, max_path_depth=3)):
        for _ in range(3):
            doc = _draw_object(data, guarded, guarded.doc(guarded.start_id).properties, 0)
            _assert_scored_as_lookups(guarded, doc)


def test_a_document_as_deep_as_the_reader_reads_is_scored(tmp_path, cdm_index):
    # The deepest nesting read_json reads here, found by bisection: the
    # parser's limit depends on the interpreter and its stack.
    path = tmp_path / "deep.json"
    shallow, deep = 1, 2000
    while shallow < deep:
        levels = (shallow + deep + 1) // 2
        path.write_text('{"a":' * levels + "1" + "}" * levels, encoding="utf-8")
        try:
            read_json(path)
            shallow = levels
        except MalformedDocument:
            deep = levels - 1
    path.write_text('{"a":' * shallow + "1" + "}" * shallow, encoding="utf-8")
    result = evaluate_document(read_json(path), cdm_index)
    assert len(result.per_path_detail) == shallow
    assert result.syntactical_correctness == 0.0
