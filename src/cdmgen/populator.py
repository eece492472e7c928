"""Template population: depth-bounded task selection, prompting, validation.

A template is decomposed into the maximal substructures whose depth stays
within a threshold; each substructure becomes one model call with a
context-rich prompt (contract text, traversal path, object definition,
optionally retrieved reference chunks). Replies are validated against the
substructure's exact shape and repaired through bounded re-prompting; a
substructure that never validates keeps its placeholders so one bad reply
cannot corrupt the document. Grafting the validated fragments back and
removing unfilled placeholders yields the final representation.

Direct single-prompt generation (the non-template baseline) lives here too.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from . import treeops
from .errors import CdmgenError, GenerationIncomplete, NoStructuredPayload, ProviderOutage
from .gateway import PromptBundle, PromptHead, chat_prompt, extract_structured, follow_up, prompt_hash, prompt_head
from .knowledge_base import Chunk, KnowledgeBase, retrieve
from .template_builder import Template

logger = logging.getLogger(__name__)

DEFAULT_DEPTH_THRESHOLD = 4


@dataclass
class PopulationConfig:
    depth_threshold: int = DEFAULT_DEPTH_THRESHOLD
    use_rag: bool = False
    retry_limit: int = 2
    k_chunks: int = 3
    max_inflight: int = 4

    def __post_init__(self):
        if not isinstance(self.use_rag, bool):
            raise ValueError("use_rag must be true or false")
        counts = (("depth_threshold", 1), ("retry_limit", 0), ("k_chunks", 1), ("max_inflight", 1))
        for name, least in counts:
            value = getattr(self, name)
            if not treeops.conforms("integer", value):
                raise ValueError(f"{name} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass
class PopulationTask:
    """A maximal substructure of bounded depth plus its prompt context.

    ``segments``, the exact address (list indices included), is the task's
    one location: ``target_path`` (its keys joined by ``.``) and
    ``unwrap_key`` come from it. Its prompt and retrieval query read its
    parent's path, ``target_path.rpartition(".")[0]``.

    ``structure_text`` is the placeholder structure as the prompt shows it,
    encoded once when the task is made by :func:`treeops.indented_json`,
    the encoder of saved templates and knowledge bases too. Unlike the
    evidence a prompt carries (:func:`gateway.evidence_json`), it stays
    indented: it is the shape the reply must copy. A batch shares one planned task
    among its contracts, so nothing changes a task after it is planned;
    its subtree is the template's own fragment, which is not changed
    either.
    """

    target_path: str
    segments: tuple
    target_subtree: Any
    object_definition: str
    retrieved_chunks: list[Chunk] = field(default_factory=list)
    unwrap_key: Optional[str] = None
    structure_text: str = field(init=False, repr=False)

    def __post_init__(self):
        self.structure_text = treeops.indented_json(self.target_subtree)


@dataclass
class PopulatedDocument:
    tree: dict
    provenance: dict[str, dict]


# ---------------------------------------------------------------------------
# task selection


def compute_depths(template: Template) -> int:
    """The template's depth, its root container included: a leaf is 1, a
    container 1 + its deepest child, an empty container 1; annotations are
    not children."""
    return _select((), template.tree, 1, [])


def select_tasks(template: Template, d: int) -> list[PopulationTask]:
    """Emit the maximal subtrees of depth <= ``d``, in one post-order walk.

    The walk learns each fragment's depth from its children's. A fragment
    within the bound is kept whole, in place of what was kept below it; a
    deeper object is split into its data items, and a deeper array into
    its elements. Only addresses are walked. Tasks are built for the kept
    fragments only, in document order; they are disjoint and jointly cover
    every leaf of the template.
    """
    if d < 1:
        raise ValueError("depth threshold must be >= 1")
    kept: list[tuple] = []
    _select((), template.tree, d, kept)
    return [_task(*fragment) for fragment in kept]


def _select(segments: tuple, fragment, d: int, kept: list) -> int:
    """Add to ``kept`` the maximal fragments of depth <= ``d`` in the
    container ``fragment`` at ``segments``, each as ``(segments, fragment)``,
    and return its depth by the rule :func:`compute_depths` states. A leaf
    child is kept as it is met, since its depth, 1, is within any bound."""
    items = treeops.data_items(fragment) if isinstance(fragment, dict) else enumerate(fragment)
    mark = len(kept)
    deepest = 0
    for key, child in items:
        if isinstance(child, (dict, list)):
            depth = _select(segments + (key,), child, d, kept)
            if depth > deepest:
                deepest = depth
        else:
            kept.append((segments + (key,), child))
            deepest = deepest or 1
    if deepest < d:
        del kept[mark:]
        kept.append((segments, fragment))
    return deepest + 1


def _task(segments: tuple, fragment) -> PopulationTask:
    """The task for ``fragment`` at exact address ``segments`` (list
    indices included, for grafting), at the dot-path of its keys."""
    keys = [key for key in segments if isinstance(key, str)]
    subtree, unwrap_key = fragment, None
    if not isinstance(fragment, dict):
        # Leaf and whole-array tasks are wrapped under the address's last key,
        # their field name, so the model can reply with a JSON object.
        subtree, unwrap_key = {keys[-1]: fragment}, keys[-1]
    return PopulationTask(
        target_path=".".join(keys),
        segments=segments,
        target_subtree=subtree,
        object_definition=_definition_of(fragment),
        unwrap_key=unwrap_key,
    )


def _definition_of(fragment) -> str:
    if isinstance(fragment, dict):
        return treeops.node_annotation(fragment)
    if isinstance(fragment, list) and fragment and isinstance(fragment[0], dict):
        return treeops.node_annotation(fragment[0])
    return ""


def plan_tasks(
    template: Template, cfg: PopulationConfig, kb: Optional[KnowledgeBase]
) -> list[PopulationTask]:
    """The tasks a run issues, in order: selected, then given their
    retrieved chunks when RAG is on. An empty template has no tasks.

    The plan depends only on its arguments, not on the contract text, so
    contracts that share a template and knowledge base can share it."""
    if cfg.use_rag and kb is None:
        raise ValueError("use_rag requires a knowledge base")
    if not treeops.data_items(template.tree):
        return []
    tasks = select_tasks(template, cfg.depth_threshold)
    if cfg.use_rag:
        for task in tasks:
            task.retrieved_chunks = retrieve(kb, task_query(task), cfg.k_chunks)
    return tasks


def _provenance_keys(tasks: list[PopulationTask]) -> list[str]:
    """One provenance key per task: its target path, ``(root)`` for the
    root, with ``+`` appended until unique (array elements share a path)."""
    keys: dict[str, None] = {}
    for task in tasks:
        key = task.target_path or "(root)"
        while key in keys:
            key += "+"
        keys[key] = None
    return list(keys)


# ---------------------------------------------------------------------------
# prompt construction


def build_prompt(task: PopulationTask, head: PromptHead) -> PromptBundle:
    """Deterministic prompt: instructions, contract, path, definition,
    placeholder structure, then the task's retrieved reference chunks, which
    :func:`plan_tasks` gives a task only when RAG is on.

    ``head`` is the part that all of one contract's task prompts share,
    ``prompt_head("populate", contract_text)``, made once so that it is
    built and hashed once."""
    context = task.target_path.rpartition(".")[0]
    sections = [f"Location in the document: {context or 'document root'}"]
    if task.object_definition:
        sections.append(f"Object definition: {task.object_definition}")
    sections.append("Structure to populate:\n" + task.structure_text)
    return chat_prompt(head, sections, task.retrieved_chunks)


def repair_prompt(original: PromptBundle, mismatches: list[dict]) -> PromptBundle:
    """Follow-up prompt: the original request plus the mismatch records
    :func:`validate_shape` (or a truncated or unparseable reply) gave."""
    return follow_up(original, "repair_followup.txt", mismatches)


def task_query(task: PopulationTask) -> str:
    """Retrieval query: the leaf paths of the task's subtree, its
    definition, and the path of its parent. Retrieval reads the query's token set, and
    the leaf paths hold exactly the tokens of the subtree's data keys."""
    parts = [path for path, _ in treeops.iter_leaf_paths(task.target_subtree)]
    if task.object_definition:
        parts.append(task.object_definition)
    context = task.target_path.rpartition(".")[0]
    if context:
        parts.append(context)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# shape validation


def validate_shape(input_subtree, output) -> list[dict]:
    """The ways ``output`` fails to mirror the placeholder structure, as
    ``{"path", "kind", "detail"}`` records; empty when it fits.

    Object key sets must match (annotations excluded), arrays must carry at
    least one element each matching the single prototype (an empty
    prototype array accepts any list), and every leaf must hold a value of
    its placeholder's kind. ``kind`` is ``missing_key``, ``extra_key`` or
    ``type_clash``; a reply that is cut off or holds no JSON gets one
    ``truncated`` or ``unparseable`` record instead (see :func:`_assess`).
    Never raises.
    """
    mismatches: list[dict] = []
    _check_shape(input_subtree, output, "", mismatches)
    return mismatches


def _mismatch(path: str, kind: str, detail: str) -> dict:
    return {"path": path, "kind": kind, "detail": detail}


def _check_shape(inp, out, path, issues: list[dict]) -> None:
    label = path or "(root)"
    if isinstance(inp, dict):
        if not isinstance(out, dict):
            issues.append(_mismatch(label, "type_clash", f"expected an object, got {_kind(out)}"))
            return
        expected = dict(treeops.data_items(inp))
        for key in expected:
            if key not in out:
                issues.append(_mismatch(_join(path, key), "missing_key", "required key absent"))
        for key in out:
            if key not in expected:
                issues.append(_mismatch(_join(path, key), "extra_key", "key not in structure"))
        for key, proto in expected.items():
            if key in out:
                _check_shape(proto, out[key], _join(path, key), issues)
        return
    if isinstance(inp, list):
        if not isinstance(out, list):
            issues.append(_mismatch(label, "type_clash", f"expected an array, got {_kind(out)}"))
            return
        if not inp:
            return
        if not out:
            issues.append(_mismatch(label, "type_clash", "array must contain at least one element"))
            return
        prototype = inp[0]
        for element in out:
            _check_shape(prototype, element, path, issues)
        return
    _check_leaf(inp, out, label, issues)


def _check_leaf(placeholder, out, label, issues: list[dict]) -> None:
    kind = treeops.placeholder_kind(placeholder)
    if kind == "date":
        # A date the contract does not give may stay unfilled.
        if out != treeops.DATE_TOKEN and not treeops.conforms(kind, out):
            issues.append(_mismatch(label, "type_clash", "expected a YYYY-MM-DD date or the placeholder"))
    elif not treeops.conforms(kind, out):
        issues.append(_mismatch(label, "type_clash", f"expected a {kind}, got {_kind(out)}"))


def _kind(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if value is None:
        return "null"
    return "a string"


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# ---------------------------------------------------------------------------
# population run


def populate(
    template: Template,
    contract_text: str,
    kb: Optional[KnowledgeBase],
    gateway,
    cfg: PopulationConfig,
) -> PopulatedDocument:
    """Fill a template from contract text, one validated task at a time.

    Each selected substructure is prompted, parsed, and shape-checked; a
    mismatching reply triggers a follow-up carrying its mismatch records,
    up to ``cfg.retry_limit`` re-prompts. Exhausted tasks keep their
    placeholders and are recorded as failures. A provider outage
    (:class:`ProviderOutage`) aborts the run, attaching the partial
    provenance to the raised error. This is the one-contract case of
    :func:`submit_population` on its own :class:`CallPool`.
    """
    tasks = plan_tasks(template, cfg, kb)
    with CallPool(cfg.max_inflight, gateway) as pool:
        return submit_population(pool, template, tasks, contract_text, gateway, cfg).collect()


class _Skipped(Exception):
    """Raised in place of a call that started after its pool stopped: the
    call never reached the provider."""


class _Finished:
    """A call that ran on the submitting thread: its value or its error,
    read as a finished :class:`Future` reads them."""

    __slots__ = ("_value", "_error")

    def __init__(self, value=None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self) -> Optional[BaseException]:
        return self._error


class CallPool:
    """Carries every provider call of a run, so calls of different contracts
    share the same slots.

    A provider whose calls wait, on a socket for instance, gets an executor
    of ``max_inflight`` worker threads, and each call a :class:`Future`.
    One whose class declares ``calls_wait = False``, such as
    :class:`MockProvider`, answers from memory: each call then runs at once
    on the thread that submits it, since worker threads would only take
    the interpreter lock from the caller, and settles as a small finished
    record with the same ``result()`` and ``exception()``, without the
    lock and condition a future carries. Any provider without that
    attribute is taken to wait.

    The first provider outage, or any exception that is not a domain error
    (a bug), stops the pool and is kept as ``failure``: calls still queued
    raise :class:`_Skipped` without calling the provider, so only the calls
    already in flight, at most ``max_inflight - 1``, run on. A domain error,
    such as a coverage reply that never parses, fails only its own call.
    Leaving the ``with`` block cancels what is still queued and waits for
    the calls in flight.
    """

    def __init__(self, max_inflight: int, provider):
        self._executor = None
        if getattr(provider, "calls_wait", True):
            self._executor = ThreadPoolExecutor(max_workers=max_inflight)
        self._lock = threading.Lock()
        self.failure: Optional[BaseException] = None

    def __enter__(self) -> "CallPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn, *args) -> "Future | _Finished":
        """Queue ``fn(*args)``, or run it now when the provider's calls never
        wait; read its outcome with :meth:`result`."""
        if self._executor is not None:
            return self._executor.submit(self._call, fn, args)
        try:
            return _Finished(self._call(fn, args))
        except Exception as exc:
            return _Finished(error=exc)

    def result(self, future: "Future | _Finished"):
        """Wait for a queued call; one skipped because the pool stopped
        raises the pool's ``failure``."""
        try:
            return future.result()
        except _Skipped:
            raise self.failure from None

    def _call(self, fn, args):
        if self.failure is not None:
            raise _Skipped
        try:
            return fn(*args)
        except BaseException as exc:
            if isinstance(exc, ProviderOutage) or not isinstance(exc, CdmgenError):
                with self._lock:
                    if self.failure is None:
                        self.failure = exc
            raise


def submit_population(
    pool: CallPool,
    template: Template,
    tasks: list[PopulationTask],
    contract_text: str,
    gateway,
    cfg: PopulationConfig,
) -> "PendingPopulation":
    """Queue every task of ``template``'s plan (:func:`plan_tasks`) for one
    contract on ``pool``. The tasks are only read, so one plan serves any
    number of contracts. The head the tasks' prompts share is built and
    hashed here, once for the contract (:func:`build_prompt`).

    Nothing waits here, so a caller can queue the next contract's tasks
    behind this one's before collecting it.
    """
    head = prompt_head("populate", contract_text)
    futures = [pool.submit(_run_one, task, head, gateway, cfg) for task in tasks]
    return PendingPopulation(pool, template, tasks, futures)


class PendingPopulation:
    """The queued tasks of one population run, collected in task order.

    Its methods wait for the tasks, so they are called while the pool is
    open.
    """

    def __init__(self, pool: CallPool, template: Template, tasks: list[PopulationTask], futures):
        self.pool = pool
        self.template = template
        self.tasks = tasks
        self.futures: list[Future | _Finished] = futures
        self.keys = _provenance_keys(tasks)

    def collect(self) -> PopulatedDocument:
        """Wait for each task's outcome through :meth:`CallPool.result`, in
        task order, then graft the validated fragments.

        Only this run's own tasks decide the outcome: the first of them to
        fail re-raises its error (a skipped task the pool's ``failure``),
        and a provider outage carries :meth:`finished_records` as its
        ``provenance``. A pool stopped by another run's call does not
        fail a run whose tasks all finished. A complete run's provenance is
        :meth:`finished_records` too (empty for an empty plan).
        """
        try:
            outcomes = [self.pool.result(future) for future in self.futures]
        except ProviderOutage as outage:
            outage.provenance = self.finished_records()
            raise
        # Annotations are removed from the template copy up front: validated
        # replies never carry them, and stripping afterwards would also delete
        # genuine data fields named "description" that a reply filled with text.
        doc = treeops.strip_annotations(self.template.tree)
        for task, (tree, _) in zip(self.tasks, outcomes):
            if tree is not None:
                doc = _graft(doc, task.segments, tree)
        return PopulatedDocument(tree=doc, provenance=self.finished_records() or {})

    def finished_records(self) -> Optional[dict[str, dict]]:
        """The records of the tasks that finished, under their provenance
        keys, or None when no task reached the provider. A record is
        ``{"prompt_hash", "attempts", "failed"}``, plus ``mismatches`` when
        the task failed. Reading each call's ``exception()`` waits for it."""
        records: dict[str, dict] = {}
        called = False
        for key, future in zip(self.keys, self.futures):
            error = future.exception()
            called = called or not isinstance(error, _Skipped)
            if error is None:
                records[key] = future.result()[1]
        return records if called else None


def _run_one(task: PopulationTask, head: PromptHead, gateway, cfg) -> tuple[Optional[Any], dict]:
    original = prompt = build_prompt(task, head)
    for attempts in range(1, cfg.retry_limit + 2):
        mismatches, parsed = _assess(task, gateway.complete(prompt))
        if not mismatches or attempts > cfg.retry_limit:
            break
        prompt = repair_prompt(original, mismatches)
    failed = bool(mismatches)
    logger.info(
        "task=%s attempts=%d status=%s", task.target_path or "(root)", attempts, "failed" if failed else "ok"
    )
    record = {"prompt_hash": prompt_hash(original), "attempts": attempts, "failed": failed}
    if failed:
        record["mismatches"] = mismatches
        return None, record
    return (parsed[task.unwrap_key] if task.unwrap_key else parsed), record


def _assess(task: PopulationTask, completion) -> tuple[list[dict], Optional[dict]]:
    label = task.target_path or "(root)"
    if completion.finish_reason == "length":
        return [_mismatch(label, "truncated", "output was cut off")], None
    try:
        parsed = extract_structured(completion.text)
    except NoStructuredPayload as exc:
        return [_mismatch(label, "unparseable", str(exc))], None
    return validate_shape(task.target_subtree, parsed), parsed


def _graft(doc, segments: tuple, value):
    if not segments:
        return value
    node = doc
    for segment in segments[:-1]:
        node = node[segment]
    node[segments[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# cleaning


def clean(doc):
    """Remove unfilled content: empty strings, date placeholders, empty
    containers — applied at fixpoint, so the result is idempotent under a
    second pass. Accepts a :class:`PopulatedDocument` or a bare tree.

    One bottom-up walk reaches the fixpoint: a removal can only empty a
    container, and a container is tested after its contents. Emptiness is
    tested on plain values, not through annotation detection: grafted data
    may hold a filled field named ``description``."""
    return _clean(doc.tree if isinstance(doc, PopulatedDocument) else doc)


def _clean(value):
    if isinstance(value, dict):
        kept = ((key, _clean(child)) for key, child in value.items())
        return {key: child for key, child in kept if not _removable(child)}
    if isinstance(value, list):
        return [child for child in map(_clean, value) if not _removable(child)]
    return value


def _removable(value) -> bool:
    if value == "" or value == treeops.DATE_TOKEN:
        return True
    if isinstance(value, (dict, list)) and not value:
        return True
    return False


# ---------------------------------------------------------------------------
# direct generation baseline


def baseline_generate(
    contract_text: str,
    kb: Optional[KnowledgeBase],
    gateway,
    cfg: PopulationConfig,
) -> dict:
    """Generate a whole document from one prompt, without a template.

    Optionally augments the prompt with chunks retrieved against the
    contract text itself. Truncated output surfaces as
    :class:`GenerationIncomplete`; unparseable output as
    :class:`NoStructuredPayload`.
    """
    if cfg.use_rag and kb is None:
        raise ValueError("use_rag requires a knowledge base")
    chunks = retrieve(kb, contract_text, cfg.k_chunks) if cfg.use_rag else ()
    completion = gateway.complete(chat_prompt(prompt_head("baseline", contract_text), references=chunks))
    if completion.finish_reason == "length":
        raise GenerationIncomplete("model output was truncated before the document closed")
    return extract_structured(completion.text)
