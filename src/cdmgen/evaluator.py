"""Scoring generated documents: key existence, type conformance, coverage.

Two structural metrics walk the generated tree against the schema index:
syntactical correctness is the share of generated key occurrences whose
paths exist, schema adherence the share whose paths exist *and* whose
values match the declared kind. Both count per occurrence, so repeated
array elements weigh repeatedly. Semantic coverage delegates the
contract-vs-document comparison to a guided model prompt that returns
captured / uncaptured / extraneous item lists, folded into one weighted
percentage.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Mapping, Optional, Sequence

from . import treeops
from .errors import (
    DegenerateDenominator,
    EmptyDocument,
    EmptyGroup,
    ListParseFailure,
    NoStructuredPayload,
)
from .gateway import PromptBundle, chat_prompt, evidence_json, extract_structured, follow_up, prompt_head
from .schema_index import PropertyDef, SchemaIndex

DEFAULT_MU = 0.3
DEFAULT_EPSILON = 0.1

METRICS = ("syntactical_correctness", "schema_adherence", "coverage_score")
# The key an array element is read under in the evaluator's walk.
_ELEMENT = object()
# The name of the row that :func:`aggregate` computes over all groups.
COMBINED = "combined"


@dataclass(frozen=True)
class CoverageLists:
    captured: tuple[str, ...]
    uncaptured: tuple[str, ...]
    extraneous: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.captured), len(self.uncaptured), len(self.extraneous)


@dataclass(frozen=True)
class CoverageWeights:
    mu: float = DEFAULT_MU
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("epsilon", self.epsilon)):
            if not (treeops.conforms("number", value) and math.isfinite(value) and 0 <= value <= 1):
                raise ValueError(f"{name} must be a finite number in [0, 1]")


@dataclass
class EvaluationReport:
    syntactical_correctness: float
    schema_adherence: float
    per_path_detail: list[dict]
    lists: Optional[CoverageLists] = None
    coverage_score: Optional[float] = None

    def to_dict(self) -> dict:
        payload = {
            "syntactical_correctness": self.syntactical_correctness,
            "schema_adherence": self.schema_adherence,
            "coverage_score": self.coverage_score,
            "per_path_detail": self.per_path_detail,
        }
        if self.lists is not None:
            payload["lists"] = {
                "captured": list(self.lists.captured),
                "uncaptured": list(self.lists.uncaptured),
                "extraneous": list(self.lists.extraneous),
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EvaluationReport":
        """The report :meth:`to_dict` wrote; raises ``ValueError`` when a
        score is neither a percentage (a number from 0 to 100) nor null, or
        ``lists`` or ``per_path_detail`` has another shape."""
        for metric in METRICS:
            value = payload.get(metric)
            if value is not None and not (treeops.conforms("number", value) and 0 <= value <= 100):
                raise ValueError(f"{metric!r} is neither a number from 0 to 100 nor null")
        if not isinstance(payload.get("per_path_detail", []), list):
            raise ValueError("'per_path_detail' is not a list")
        lists = None
        if payload.get("lists") is not None:
            raw = payload["lists"]
            if not isinstance(raw, dict) or not all(
                isinstance(raw.get(name, []), list) for name in ("captured", "uncaptured", "extraneous")
            ):
                raise ValueError("'lists' is not an object of lists")
            lists = CoverageLists(
                captured=tuple(raw.get("captured", ())),
                uncaptured=tuple(raw.get("uncaptured", ())),
                extraneous=tuple(raw.get("extraneous", ())),
            )
        return cls(
            syntactical_correctness=payload["syntactical_correctness"],
            schema_adherence=payload["schema_adherence"],
            per_path_detail=list(payload.get("per_path_detail", [])),
            lists=lists,
            coverage_score=payload.get("coverage_score"),
        )

    def scores_only(self) -> "EvaluationReport":
        """This report without its per-path detail and coverage lists: the
        scores :func:`aggregate` reads, so a batch keeps no more."""
        return replace(self, per_path_detail=[], lists=None)


# ---------------------------------------------------------------------------
# structural metrics


def evaluate_document(doc: dict, index: SchemaIndex) -> EvaluationReport:
    """Both structural metrics from one pre-order walk of the document
    beside the schema; the per-path detail records ``exists`` and
    ``adheres`` for each key occurrence, annotation keys included.

    Each key is read by :meth:`SchemaIndex.step` from the place its object
    stands at, so it scores as a lookup of its path from the root would.
    The walk keeps its own stack, so any document the JSON parser reads is
    scored.
    """
    if not isinstance(doc, dict) or not doc:
        raise EmptyDocument("document contains no keys")
    detail = []
    existing = adhering = 0
    # The objects and arrays being read, innermost last: an iterator over
    # their entries left (an array's under the key _ELEMENT), their place in
    # the schema and their path.
    stack = [(iter(doc.items()), index.root_place, "")]
    while stack:
        entries, place, prefix = stack[-1]
        for key, value in entries:
            if key is _ELEMENT:
                inner, path = place, prefix
            else:
                path = f"{prefix}.{key}" if prefix else key
                inner = index.step(place, key)
                prop = inner[2]
                exists = prop is not None
                adheres = exists and _value_conforms(prop, value)
                existing += exists
                adhering += adheres
                detail.append({"path": path, "exists": exists, "adheres": adheres})
            if isinstance(value, dict):
                stack.append((iter(value.items()), inner, path))
                break
            if isinstance(value, list):
                stack.append((zip(repeat(_ELEMENT), value), inner, path))
                break
        else:
            stack.pop()
    return EvaluationReport(
        syntactical_correctness=100.0 * existing / len(detail),
        schema_adherence=100.0 * adhering / len(detail),
        per_path_detail=detail,
    )


def _value_conforms(prop: PropertyDef, value) -> bool:
    """An array property needs a list at each of its levels, of which every
    innermost element holds."""
    if not prop.array:
        return _holds(prop, value)
    values = [value]
    for _ in range(prop.array):
        if not all(isinstance(v, list) for v in values):
            return False
        values = [element for v in values for element in v]
    return all(_holds(prop, v) for v in values)


def _holds(prop: PropertyDef, value) -> bool:
    """Whether ``value`` is one object or one scalar of ``prop``."""
    if prop.ref_target is not None:
        return isinstance(value, dict)
    return treeops.conforms(prop.scalar_type, value, prop.enum_values)


# ---------------------------------------------------------------------------
# semantic coverage


def coverage_prompt(contract_text: str, doc: dict) -> PromptBundle:
    """The coverage request: the contract text, then the document, encoded
    by :func:`gateway.evidence_json`."""
    head = prompt_head("coverage", contract_text)
    return chat_prompt(head, ["Structured representation:\n" + evidence_json(doc)])


def coverage_retry_prompt(first: PromptBundle) -> PromptBundle:
    return follow_up(first, "coverage_retry.txt")


def coverage_lists(contract_text: str, doc: dict, gateway) -> CoverageLists:
    """Run the guided three-list comparison and parse the reply.

    A reply that fails to parse or lacks one of the lists is re-asked once
    before :class:`ListParseFailure` (or :class:`NoStructuredPayload`)
    surfaces.
    """
    if not contract_text or not contract_text.strip():
        raise ValueError("contract_text must be non-empty")
    if not doc:
        raise ValueError("document must be non-empty")
    first = coverage_prompt(contract_text, doc)
    try:
        return _parse_lists(gateway.complete(first).text)
    except (ListParseFailure, NoStructuredPayload):
        return _parse_lists(gateway.complete(coverage_retry_prompt(first)).text)


def _parse_lists(text: str) -> CoverageLists:
    payload = extract_structured(text)
    lists = {}
    for name in ("captured", "uncaptured", "extraneous"):
        if name not in payload or not isinstance(payload[name], list):
            raise ListParseFailure(f"reply is missing the {name!r} list")
        items = [str(item).strip() for item in payload[name]]
        lists[name] = tuple(item for item in items if item)
    return CoverageLists(**lists)


def coverage_score(lists: CoverageLists, weights: CoverageWeights = CoverageWeights()) -> float:
    """Weighted capture percentage: C*100 / (C + mu*U + epsilon*E)."""
    captured, uncaptured, extraneous = lists.counts
    if captured == uncaptured == extraneous == 0:
        raise DegenerateDenominator("all three coverage lists are empty")
    denominator = captured + weights.mu * uncaptured + weights.epsilon * extraneous
    if denominator <= 0:
        raise DegenerateDenominator("coverage denominator is zero under these weights")
    return captured * 100.0 / denominator


# ---------------------------------------------------------------------------
# aggregation


def aggregate(
    groups: Mapping[str, Sequence[EvaluationReport]],
) -> dict[str, dict[str, Optional[dict]]]:
    """Mean and population standard deviation per metric, per group.

    Adds a :data:`COMBINED` row computed over the union of all groups. Raises
    :class:`EmptyGroup` when the mapping is empty or any group has no
    reports.
    """
    if not groups:
        raise EmptyGroup("no groups to aggregate")
    rows: dict[str, dict[str, Optional[dict]]] = {}
    for group, reports in groups.items():
        if not reports:
            raise EmptyGroup(f"group {group!r} has no reports")
        rows[group] = _stats_row(reports)
    everything = [report for reports in groups.values() for report in reports]
    rows[COMBINED] = _stats_row(everything)
    return rows


def _stats_row(reports: Sequence[EvaluationReport]) -> dict[str, Optional[dict]]:
    row: dict[str, Optional[dict]] = {"count": {"n": len(reports)}}
    for metric in METRICS:
        values = [
            getattr(report, metric)
            for report in reports
            if getattr(report, metric) is not None
        ]
        if not values:
            row[metric] = None
            continue
        row[metric] = {
            "mean": statistics.fmean(values),
            "stddev": statistics.pstdev(values),
            "n": len(values),
        }
    return row
