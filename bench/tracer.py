"""Spans recorded from outside the program, around its public functions.

:class:`Tracer` replaces each function named in :data:`TARGETS` with a
wrapper in the module namespace its callers look it up in (for example
``cdmgen.populator.build_prompt``, which ``populate`` calls, rather than the
module that defines it). Each call becomes one span: name, contract number,
thread, start, end and parent span. Spans stay in memory and are written as
JSON lines once the run ends; the first line lists targets that no longer
exist, which are reported rather than fatal.

:func:`per_layer` turns a trace into the benchmark's ``<module>.<metric>``
figures. Busy time is the summed duration of a function's spans; self time
subtracts the part of each span that its child spans cover. A task run on a
worker thread takes the caller's open span as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def _prompt_and_reply_chars(args, result):
    prompt = args[1]
    return len(prompt.system_text) + len(prompt.user_text), len(result.text)


# (module namespace, attribute, measure(args, result) -> (n, m) or n)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cdmgen.cli", "cmd_pipeline", None),
    ("cdmgen.cli", "load_schema_dir", lambda args, r: len(r.documents)),
    ("cdmgen.schema_index", "SchemaIndex.lookup", None),
    ("cdmgen.cli", "flatten_examples", None),
    ("cdmgen.cli", "build_template", None),
    ("cdmgen.cli", "KnowledgeBase.load", lambda args, r: len(r.chunks)),
    ("cdmgen.populator", "retrieve", None),
    ("cdmgen.gateway", "MockProvider.complete", _prompt_and_reply_chars),
    ("cdmgen.gateway", "HttpProvider.complete", _prompt_and_reply_chars),
    ("cdmgen.populator", "extract_structured", None),
    ("cdmgen.evaluator", "extract_structured", None),
    ("cdmgen.cli", "populate", None),
    ("cdmgen.populator", "compute_depths", None),
    ("cdmgen.populator", "select_tasks", lambda args, r: len(r)),
    ("cdmgen.populator", "build_prompt", None),
    ("cdmgen.populator", "repair_prompt", None),
    ("cdmgen.populator", "prompt_hash", None),
    ("cdmgen.populator", "validate_shape", None),
    ("cdmgen.cli", "clean", None),
    ("cdmgen.evaluator", "evaluate_document", lambda args, r: len(r.per_path_detail)),
    ("cdmgen.evaluator", "coverage_lists", None),
    ("cdmgen.cli", "write_json", None),
    ("cdmgen.cli", "atomic_write_text", None),
)

# cmd_pipeline starts each contract with this call, so it advances the
# contract number that spans carry.
CONTRACT_MARK = "cdmgen.cli.flatten_examples"
WRITES = ("cdmgen.cli.write_json", "cdmgen.cli.atomic_write_text")
CALLS = ("cdmgen.gateway.MockProvider.complete", "cdmgen.gateway.HttpProvider.complete")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.contract = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def install(self, targets=TARGETS) -> None:
        for module_name, attribute, measure in targets:
            self.wrap(module_name, attribute, measure)

    def wrap(self, module_name: str, attribute: str, measure=None) -> None:
        name = f"{module_name}.{attribute}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return
        *parents, leaf = attribute.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
        if raw is None:
            self.absent.append(name)
            return
        original = getattr(owner, leaf)
        marks_contract = name == CONTRACT_MARK

        @functools.wraps(original)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if marks_contract:
                self.contract += 1
            parent = stack[-1] if stack else self._caller_span()
            record = [next(self._ids), name, self.contract, ident, 0.0, 0.0, parent, None]
            stack.append(record[0])
            record[4] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if measure is not None:
                record[7] = measure(args, result)
            return result

        # A classmethod's bound original already carries its class.
        wrapped = staticmethod(traced) if isinstance(raw, (classmethod, staticmethod)) else traced
        setattr(owner, leaf, wrapped)

    def _caller_span(self) -> Optional[int]:
        try:
            return self._stacks.get(self._main, [])[-1]
        except IndexError:
            return None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"absent": self.absent}) + "\n")
            for span_id, name, contract, thread, start, end, parent, measured in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "contract": contract,
                    "thread": thread,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if measured is not None:
                    record["measure"] = measured
                handle.write(json.dumps(record) + "\n")


def load(path) -> tuple[list[str], list[dict]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    return header["absent"], [json.loads(line) for line in lines[1:]]


class Layers:
    """Per-function aggregates of one trace."""

    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        children: dict[int, list[dict]] = defaultdict(list)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        self.by_id = by_id
        self.children = children

    def count(self, *names: str) -> int:
        return sum(len(self.by_name.get(name, ())) for name in names)

    def busy(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for name in names for s in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        total = 0.0
        for span in self.by_name.get(name, ()):
            covered = _union(
                (max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in self.children.get(span["id"], ())
            )
            total += span["end"] - span["start"] - covered
        return total

    def measured(self, *names: str) -> list:
        return [s["measure"] for name in names for s in self.by_name.get(name, ()) if "measure" in s]

    def durations(self, *names: str) -> list[float]:
        return [s["end"] - s["start"] for name in names for s in self.by_name.get(name, ())]

    def top_level(self, names: tuple[str, ...]) -> list[dict]:
        """Spans of ``names`` not nested inside another span of ``names``."""
        out = []
        for name in names:
            for span in self.by_name.get(name, ()):
                parent = self.by_id.get(span["parent"])
                if parent is None or parent["name"] not in names:
                    out.append(span)
        return out


def _union(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(layers: Layers, max_inflight: int) -> dict[str, tuple[float, str]]:
    """Metrics measurable from the spans alone, as name -> (value, unit)."""
    populates = layers.count("cdmgen.cli.populate")
    loads = layers.measured("cdmgen.cli.KnowledgeBase.load")
    schema_docs = layers.measured("cdmgen.cli.load_schema_dir")
    calls = layers.count(*CALLS)
    call_s = layers.busy(*CALLS)
    batch_s = layers.busy("cdmgen.cli.cmd_pipeline")
    call_ms = [d * 1000.0 for d in layers.durations(*CALLS)]
    writes = layers.top_level(WRITES)
    tasks = sum(layers.measured("cdmgen.populator.select_tasks"))
    return {
        "schema_index.load_s": (layers.busy("cdmgen.cli.load_schema_dir"), "s"),
        "schema_index.documents": (statistics.fmean(schema_docs) if schema_docs else 0, "count"),
        "schema_index.lookup_calls": (layers.count("cdmgen.schema_index.SchemaIndex.lookup"), "count"),
        "schema_index.lookup_s": (layers.busy("cdmgen.schema_index.SchemaIndex.lookup"), "s"),
        "template_builder.flatten_s": (layers.busy("cdmgen.cli.flatten_examples"), "s"),
        "template_builder.build_s": (layers.busy("cdmgen.cli.build_template"), "s"),
        "template_builder.builds": (layers.count("cdmgen.cli.build_template"), "count"),
        "knowledge_base.load_s": (layers.busy("cdmgen.cli.KnowledgeBase.load"), "s"),
        "knowledge_base.loads": (len(loads), "count"),
        "knowledge_base.retrieve_calls": (layers.count("cdmgen.populator.retrieve"), "count"),
        "knowledge_base.retrieve_s": (layers.busy("cdmgen.populator.retrieve"), "s"),
        "knowledge_base.chunks": (statistics.fmean(loads) if loads else 0, "count"),
        "gateway.calls": (calls, "count"),
        "gateway.prompt_chars": (sum(n for n, _ in layers.measured(*CALLS)), "chars"),
        "gateway.completion_chars": (sum(m for _, m in layers.measured(*CALLS)), "chars"),
        "gateway.call_s": (call_s, "s"),
        "gateway.call_p50_ms": (_percentile(call_ms, 50), "ms"),
        "gateway.call_p99_ms": (_percentile(call_ms, 99), "ms"),
        "gateway.slot_busy_share": (call_s / (batch_s * max_inflight) if batch_s else 0, "ratio"),
        "gateway.extract_s": (
            layers.busy("cdmgen.populator.extract_structured", "cdmgen.evaluator.extract_structured"),
            "s",
        ),
        "populator.tasks": (tasks / populates if populates else 0, "count"),
        "populator.repairs": (layers.count("cdmgen.populator.repair_prompt"), "count"),
        "populator.populate_s": (layers.self_time("cdmgen.cli.populate"), "s"),
        "populator.select_s": (
            layers.busy("cdmgen.populator.compute_depths", "cdmgen.populator.select_tasks"),
            "s",
        ),
        "populator.prompt_build_s": (
            layers.busy("cdmgen.populator.build_prompt", "cdmgen.populator.repair_prompt"),
            "s",
        ),
        "populator.prompt_hash_s": (layers.busy("cdmgen.populator.prompt_hash"), "s"),
        "populator.validate_s": (layers.busy("cdmgen.populator.validate_shape"), "s"),
        "populator.clean_s": (layers.busy("cdmgen.cli.clean"), "s"),
        "evaluator.evaluate_s": (layers.busy("cdmgen.evaluator.evaluate_document"), "s"),
        "evaluator.key_occurrences": (sum(layers.measured("cdmgen.evaluator.evaluate_document")), "count"),
        "evaluator.coverage_s": (layers.busy("cdmgen.evaluator.coverage_lists"), "s"),
        "cli.write_s": (sum(s["end"] - s["start"] for s in writes), "s"),
        "cli.write_calls": (len(writes), "count"),
    }


def table(layers: Layers) -> list[str]:
    """Human-readable busy and self time per traced function."""
    rows = [f"{'function':<44} {'calls':>8} {'busy_s':>10} {'self_s':>10}"]
    for name in sorted(layers.by_name, key=lambda n: -layers.busy(n)):
        rows.append(
            f"{name:<44} {layers.count(name):>8} {layers.busy(name):>10.4f} {layers.self_time(name):>10.4f}"
        )
    return rows
