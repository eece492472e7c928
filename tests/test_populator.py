from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from cdmgen.dryrun import build_population_script
from cdmgen.errors import AuthFailure, GenerationIncomplete, ProviderUnavailable, Timeout
from cdmgen.gateway import CompletionResult, MockProvider, prompt_hash, prompt_head
from cdmgen.knowledge_base import Chunk, KnowledgeBase, lexical_tokens
from cdmgen.populator import (
    CallPool,
    PopulationConfig,
    _Skipped,
    baseline_generate,
    build_prompt,
    clean,
    compute_depths,
    plan_tasks,
    populate,
    repair_prompt,
    select_tasks,
    submit_population,
    task_query,
    validate_shape,
)
from cdmgen.evaluator import evaluate_document
from cdmgen.schema_index import load_schema_dir
from cdmgen.template_builder import Template, build_template, flatten_examples
from cdmgen import treeops

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402


def make_template(tree) -> Template:
    return Template(tree=tree, contract_type="sample-record", schema_root="root.schema.json")


def config(**kwargs) -> PopulationConfig:
    kwargs.setdefault("max_inflight", 1)
    return PopulationConfig(**kwargs)


class FakeGateway:
    """Records prompts and replays canned completions, in order."""

    def __init__(self, *responses):
        self.responses = [
            r if isinstance(r, CompletionResult) else CompletionResult(r, "stop")
            for r in responses
        ]
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.responses:
            raise AssertionError("no canned response left")
        if len(self.responses) == 1:
            return self.responses[0]
        return self.responses.pop(0)


# ---------------------------------------------------------------------------
# depth computation


def test_depth_of_single_leaf():
    template = make_template({"value": ""})
    assert compute_depths(template) == 2
    # The leaf alone has depth 1, so d=1 keeps it whole.
    assert [t.target_path for t in select_tasks(template, 1)] == ["value"]


def test_depth_of_nested_object():
    # hand-applied recurrence: leaf 1, inner object 2, container 3
    assert compute_depths(make_template({"a": {"b": ""}})) == 3


def test_depth_of_empty_template():
    template = make_template({})
    assert compute_depths(template) == 1
    # The empty root is one whole task, with no child to split into.
    assert [t.segments for t in select_tasks(template, 1)] == [()]


def test_depth_skips_annotations():
    # Counted as a child, the annotation would make this depth 2.
    assert compute_depths(make_template({"description": "Ann."})) == 1
    template = make_template({"description": "Ann.", "a": ""})
    assert compute_depths(template) == 2
    # Split at d=1, only the data field gets a task; the annotation gets none.
    assert [t.target_path for t in select_tasks(template, 1)] == ["a"]


def test_array_adds_a_level():
    # v=1, element=2, array=3, container=4
    assert compute_depths(make_template({"ids": [{"v": ""}]})) == 4


# ---------------------------------------------------------------------------
# task selection


def chain_template() -> Template:
    return make_template({"a": {"b": {"c": {"d": {"e": ""}}}}})


def test_chain_depth_six_emits_single_depth_four_task():
    template = chain_template()
    assert compute_depths(template) == 6
    tasks = select_tasks(template, 4)
    assert len(tasks) == 1
    assert tasks[0].target_path == "a.b"
    assert tasks[0].target_subtree == {"c": {"d": {"e": ""}}}


def test_shallow_tree_is_one_whole_task():
    template = make_template({"x": {"y": ""}})
    tasks = select_tasks(template, 4)
    assert len(tasks) == 1
    assert tasks[0].target_path == ""
    assert tasks[0].target_subtree == template.tree


def test_threshold_below_one_is_refused():
    with pytest.raises(ValueError, match="depth threshold must be >= 1"):
        select_tasks(chain_template(), 0)


def test_threshold_one_emits_one_task_per_leaf():
    template = make_template({"a": {"b": "", "c": 0}, "d": False})
    tasks = select_tasks(template, 1)
    assert sorted(t.target_path for t in tasks) == ["a.b", "a.c", "d"]
    assert all(t.unwrap_key for t in tasks)


def test_fig2_style_fixture_emits_assigned_identifier_task(cdm_index, examples_root):
    keys = flatten_examples(examples_root / "interest_rate_swap")
    template = build_template(cdm_index, keys, "InterestRateSwap")
    tasks = select_tasks(template, 4)
    by_path = {t.target_path: t for t in tasks}
    assert "trade.tradeIdentifier.assignedIdentifier" in by_path
    task = by_path["trade.tradeIdentifier.assignedIdentifier"]
    assert set(dict(treeops.data_items(task.target_subtree))) == {"identifier", "version"}
    # mixed-depth siblings are their own tasks
    assert "trade.tradeIdentifier.issuer" in by_path
    assert "trade.tradeDate" in by_path
    assert "trade.party" in by_path
    assert "trade.product" in by_path
    assert "contractType" in by_path


def _leaf_addresses(value, prefix=()):
    if isinstance(value, dict):
        items = treeops.data_items(value)
        if not items:
            yield prefix
            return
        for key, child in items:
            yield from _leaf_addresses(child, prefix + (key,))
    elif isinstance(value, list):
        if not value:
            yield prefix
            return
        for i, child in enumerate(value):
            yield from _leaf_addresses(child, prefix + (i,))
    else:
        yield prefix


def _naive_depth(value):
    if isinstance(value, dict):
        items = treeops.data_items(value)
        return 1 + max((_naive_depth(v) for _, v in items), default=0) if items else 1
    if isinstance(value, list):
        return 1 + max((_naive_depth(v) for v in value), default=0) if value else 1
    return 1


def random_template_tree(rng: random.Random, max_depth=7, max_nodes=200) -> dict:
    budget = [max_nodes]

    def node(depth):
        budget[0] -= 1
        if depth >= max_depth or budget[0] <= 0:
            return rng.choice(["", "YYYY-MM-DD", 0, False])
        roll = rng.random()
        if roll < 0.45:
            out = {}
            if rng.random() < 0.3:
                out["description"] = "Annotation text."
            for i in range(rng.randint(1, 4)):
                out[f"k{depth}_{i}"] = node(depth + 1)
            return out
        if roll < 0.6:
            return [node(depth + 1)]
        return rng.choice(["", "YYYY-MM-DD", 0, False])

    return {f"top{i}": node(1) for i in range(rng.randint(1, 4))}


def check_task_properties(tree: dict, d: int) -> int:
    template = make_template(tree)
    tasks = select_tasks(template, d)
    addresses = [t.segments for t in tasks]
    # disjointness: no task address is a prefix of another
    for i, a in enumerate(addresses):
        for j, b in enumerate(addresses):
            if i != j:
                assert b[: len(a)] != a, (a, b)
    # coverage: task subtrees partition the template leaves
    all_leaves = set(_leaf_addresses(tree))
    covered = set()
    for task in tasks:
        fragment = tree
        for segment in task.segments:
            fragment = fragment[segment]
        for leaf in _leaf_addresses(fragment, task.segments):
            assert leaf not in covered
            covered.add(leaf)
    assert covered == all_leaves
    # depth bound and maximality: each task fits, its parent does not
    for task in tasks:
        fragment = tree
        for segment in task.segments:
            fragment = fragment[segment]
        assert _naive_depth(fragment) <= d
        if task.segments:
            parent = tree
            for segment in task.segments[:-1]:
                parent = parent[segment]
            assert _naive_depth(parent) > d
    return len(tasks)


@pytest.mark.parametrize("seed", range(20))
def test_randomized_task_properties(seed):
    rng = random.Random(seed)
    tree = random_template_tree(rng)
    previous = None
    for d in range(1, 7):
        count = check_task_properties(tree, d)
        if previous is not None:
            assert count <= previous
        previous = count


def assert_plan_matches_two_pass(template: Template, d: int) -> None:
    """``select_tasks`` plans the same tasks as the two-pass reference, in
    the same order and equal in every field the planner sets."""
    planned = [{name: getattr(task, name) for name in oracles.TASK_FIELDS} for task in select_tasks(template, d)]
    expected = [vars(task) for task in oracles.plan_two_pass(template.tree, d)]
    assert planned == expected, d


PLACEHOLDER_LEAVES = st.sampled_from(["", "YYYY-MM-DD", 0, False])
FIELD_NAMES = st.sampled_from(["a", "b", "id", "description"])


def _annotated(children: dict, note) -> dict:
    """An object node as the template builder writes one: its annotation
    first, moved to ``_template_description`` beside a data field named
    ``description``."""
    if note is None:
        return children
    key = treeops.FALLBACK_DESCRIPTION_KEY if treeops.DESCRIPTION_KEY in children else treeops.DESCRIPTION_KEY
    return {key: note, **children}


def _objects(values):
    return st.builds(_annotated, st.dictionaries(FIELD_NAMES, values, max_size=4), st.sampled_from([None, "Ann."]))


# Arrays of objects, of scalars and of arrays, empty arrays and objects,
# and objects holding only an annotation.
TEMPLATE_TREES = _objects(
    st.recursive(PLACEHOLDER_LEAVES, lambda inner: st.lists(inner, max_size=2) | _objects(inner), max_leaves=24)
)


@settings(max_examples=200, deadline=None)
@given(tree=TEMPLATE_TREES, d=st.integers(min_value=1, max_value=8))
def test_the_plan_equals_the_two_pass_reference_on_drawn_trees(tree, d):
    assert_plan_matches_two_pass(make_template(tree), d)


def test_the_plan_equals_the_two_pass_reference_on_the_fixtures(cdm_index, examples_root):
    for key, contract_type in helpers.CONTRACT_TYPES.items():
        template = build_template(cdm_index, flatten_examples(examples_root / key), contract_type)
        for d in range(1, 12):
            assert_plan_matches_two_pass(template, d)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_the_plan_equals_the_two_pass_reference_on_generated_corpora(seed):
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
        for contract_type, examples_dir in batch.examples_dirs.items():
            template = build_template(index, flatten_examples(examples_dir), contract_type)
            for d in range(1, 12):
                assert_plan_matches_two_pass(template, d)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_a_task_query_holds_the_tokens_of_its_field_names(seed):
    # Retrieval scores a query's token set, so a query of leaf paths ranks
    # chunks as a query of the subtree's distinct data keys does. Every d
    # from 1 to 4 is checked: on these corpora only d = 4 plans tasks whose
    # inner keys appear in neither the definition nor the path.
    with tempfile.TemporaryDirectory() as work:
        batch = corpus.cdm_scale_batch(Path(work), random.Random(seed), corpus.SMOKE_SCALE)
        index = load_schema_dir(batch.schema_dir, batch.root_file)
        templates = [build_template(index, flatten_examples(path), t) for t, path in batch.examples_dirs.items()]
    for template in templates:
        for d in range(1, 5):
            for task in select_tasks(template, d):
                expected = set(lexical_tokens(oracles.task_query_by_names(task)))
                assert set(lexical_tokens(task_query(task))) == expected, (seed, d, task.target_path)


# ---------------------------------------------------------------------------
# prompt construction


def fig2_task(cdm_index, examples_root):
    keys = flatten_examples(examples_root / "interest_rate_swap")
    template = build_template(cdm_index, keys, "InterestRateSwap")
    tasks = select_tasks(template, 4)
    return next(t for t in tasks if t.target_path == "trade.tradeIdentifier.assignedIdentifier")


def test_prompt_contains_path_and_subtree(cdm_index, examples_root):
    task = fig2_task(cdm_index, examples_root)
    bundle = build_prompt(task, prompt_head("populate", "The contract text."))
    assert "trade.tradeIdentifier" in bundle.user_text
    assert json.dumps(task.target_subtree, indent=2, ensure_ascii=False) in bundle.user_text
    assert "The contract text." in bundle.user_text
    assert "Reference examples" not in bundle.user_text
    assert bundle.system_text


def test_prompt_includes_chunks_when_rag(cdm_index, examples_root):
    task = fig2_task(cdm_index, examples_root)
    task.retrieved_chunks = [
        Chunk("c1", "t", "p", '{"chunk": "body-one"}', 3),
        Chunk("c2", "t", "p", '{"chunk": "body-two"}', 3),
    ]
    bundle = build_prompt(task, prompt_head("populate", "text"))
    assert '{"chunk": "body-one"}' in bundle.user_text
    assert '{"chunk": "body-two"}' in bundle.user_text


def test_prompt_is_deterministic(cdm_index, examples_root):
    task = fig2_task(cdm_index, examples_root)
    first = build_prompt(task, prompt_head("populate", "text"))
    assert build_prompt(task, prompt_head("populate", "text")) == first


def test_prompt_object_definition_present(cdm_index, examples_root):
    task = fig2_task(cdm_index, examples_root)
    assert task.object_definition
    bundle = build_prompt(task, prompt_head("populate", "text"))
    assert task.object_definition in bundle.user_text


def test_prompt_section_order(cdm_index, examples_root):
    # instructions, contract, path, definition, structure, chunks — in order
    task = fig2_task(cdm_index, examples_root)
    task.retrieved_chunks = [Chunk("c1", "t", "p", '{"ref": "chunk-body"}', 2)]
    contract = "UNIQUE-CONTRACT-MARKER"
    bundle = build_prompt(task, prompt_head("populate", contract))
    positions = [
        bundle.user_text.find(contract),
        bundle.user_text.find("trade.tradeIdentifier"),
        bundle.user_text.find(task.object_definition),
        bundle.user_text.find(json.dumps(task.target_subtree, indent=2, ensure_ascii=False)),
        bundle.user_text.find('{"ref": "chunk-body"}'),
    ]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    assert bundle.user_text.find(contract) > 0  # instructions come first


# ---------------------------------------------------------------------------
# shape validation


def test_shape_simple_fill_ok():
    assert validate_shape({"v": ""}, {"v": "UC-001"}) == []


def test_shape_extra_key_reported():
    mismatches = validate_shape({"v": ""}, {"v": "x", "extra": 1})
    assert mismatches == [{"path": "extra", "kind": "extra_key", "detail": "key not in structure"}]


def test_shape_array_repetition_ok():
    # derived with the naive shape oracle: each element matches the prototype
    inp = {"ids": [{"v": ""}]}
    out = {"ids": [{"v": "a"}, {"v": "b"}]}
    assert oracles.shape_matches(inp, out)
    assert validate_shape(inp, out) == []


def test_shape_missing_key_and_empty_array():
    mismatches = validate_shape({"a": "", "ids": [{"v": ""}]}, {"ids": []})
    kinds = {(m["kind"], m["path"]) for m in mismatches}
    assert ("missing_key", "a") in kinds
    assert ("type_clash", "ids") in kinds


def test_shape_annotations_are_not_required():
    inp = {"description": "Ann.", "v": ""}
    assert validate_shape(inp, {"v": "x"}) == []
    mismatches = validate_shape(inp, {"description": "Ann.", "v": "x"})
    assert [(m["kind"], m["path"]) for m in mismatches] == [("extra_key", "description")]


@pytest.mark.parametrize(
    "placeholder,good,bad",
    [
        ("", "text", 3),
        ("YYYY-MM-DD", "2024-03-13", "13/03/2024"),
        ("YYYY-MM-DD", "YYYY-MM-DD", 20240313),
        (0, 12.5, "12.5"),
        (0, 7, True),
        (False, True, "true"),
    ],
)
def test_shape_leaf_kinds(placeholder, good, bad, tmp_path):
    assert validate_shape({"x": placeholder}, {"x": good}) == []
    assert validate_shape({"x": placeholder}, {"x": bad}) != []
    # One leaf rule: validation accepts what treeops.conforms accepts for
    # the placeholder's kind, plus an unfilled date, and the score agrees
    # with treeops.conforms for every schema kind with this placeholder.
    kind = treeops.placeholder_kind(placeholder)
    for value in LEAF_SAMPLES:
        mismatches = validate_shape({"x": placeholder}, {"x": value})
        assert (not mismatches) == (
            treeops.conforms(kind, value) or (kind == "date" and value == "YYYY-MM-DD")
        ), value
        if mismatches:
            detail = CLASH_DETAILS[kind].format(got=_value_kind(value))
            assert mismatches == [{"path": "x", "kind": "type_clash", "detail": detail}]
    (tmp_path / "root.schema.json").write_text(json.dumps(LEAF_SCHEMA), encoding="utf-8")
    index = load_schema_dir(tmp_path, "root.schema.json")
    for name, prop in index.doc("root.schema.json").properties.items():
        if treeops.placeholder_kind(treeops.PLACEHOLDERS[prop.scalar_type]) != kind:
            continue
        for value in LEAF_SAMPLES:
            adheres = evaluate_document({name: value}, index).per_path_detail[0]["adheres"]
            assert adheres == treeops.conforms(prop.scalar_type, value, prop.enum_values), (name, value)


LEAF_SAMPLES = [
    "", "text", "gold", "YYYY-MM-DD", "2024-03-13", "13/03/2024",
    0, 7, -2, 12.5, 20240313, True, False, None, [], ["x"], {}, {"a": 1},
]

# Schema leaves of every scalar kind.
LEAF_SCHEMA = {
    "properties": {
        "s": {"type": "string"},
        "e": {"enum": ["gold", "silver"]},
        "d": {"type": "string", "format": "date"},
        "n": {"type": "number"},
        "i": {"type": "integer"},
        "b": {"type": "boolean"},
    }
}

# The type_clash details, which repair prompts quote.
CLASH_DETAILS = {
    "string": "expected a string, got {got}",
    "number": "expected a number, got {got}",
    "boolean": "expected a boolean, got {got}",
    "date": "expected a YYYY-MM-DD date or the placeholder",
}


def _value_kind(value) -> str:
    if isinstance(value, bool):
        return "a boolean"
    names = {dict: "an object", list: "an array", int: "a number", float: "a number", str: "a string"}
    return names.get(type(value), "null")


def test_shape_object_vs_list_clash():
    mismatches = validate_shape({"a": {"b": ""}}, {"a": [{"b": "x"}]})
    assert mismatches[0]["kind"] == "type_clash"
    assert mismatches[0]["path"] == "a"


@pytest.mark.parametrize("reply, got", [({"v": "x"}, "an object"), ("x", "a string")])
def test_shape_object_or_text_where_an_array_is_expected(reply, got):
    mismatches = validate_shape({"ids": [{"v": ""}]}, {"ids": reply})
    assert mismatches == [{"path": "ids", "kind": "type_clash", "detail": f"expected an array, got {got}"}]


def test_shape_empty_template_array_accepts_any_list():
    for reply in ([], [""], [1, {"a": "x"}, ["y"]]):
        assert validate_shape({"ids": []}, {"ids": reply}) == []
    assert validate_shape({"ids": []}, {"ids": {}}) == [
        {"path": "ids", "kind": "type_clash", "detail": "expected an array, got an object"}
    ]


def test_shape_randomized_against_oracle():
    rng = random.Random(11)
    for _ in range(200):
        tree = random_template_tree(rng, max_depth=4, max_nodes=30)
        candidate = _mutate(rng, copy.deepcopy(_fill_naive(tree)))
        assert (validate_shape(tree, candidate) == []) == oracles.shape_matches(tree, candidate)


def _fill_naive(value):
    if isinstance(value, dict):
        return {k: _fill_naive(v) for k, v in treeops.data_items(value)}
    if isinstance(value, list):
        return [_fill_naive(v) for v in value]
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return 3
    if value == "YYYY-MM-DD":
        return "2024-01-02"
    return "filled"


def _mutate(rng, value):
    """Sometimes break the shape, sometimes leave it alone."""
    if isinstance(value, dict) and value and rng.random() < 0.35:
        key = rng.choice(sorted(value))
        action = rng.random()
        if action < 0.33:
            del value[key]
        elif action < 0.66:
            value["mutant"] = "x"
        else:
            value[key] = _mutate(rng, value[key])
        return value
    if isinstance(value, list) and rng.random() < 0.2:
        return []
    if isinstance(value, str) and rng.random() < 0.2:
        return 99
    return value


# ---------------------------------------------------------------------------
# population runs


def simple_template() -> Template:
    return make_template(
        {
            "description": "Root object.",
            "id": {"description": "Identifier block.", "value": ""},
            "amount": 0,
        }
    )


def test_populate_happy_path_single_attempt():
    template = simple_template()
    cfg = config()
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))
    fill = {"id": {"value": "UC-1"}, "amount": 12.5}
    gateway = MockProvider({prompt_hash(prompt): json.dumps(fill)})
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == fill
    assert doc.provenance["(root)"] == {
        "prompt_hash": prompt_hash(prompt),
        "attempts": 1,
        "failed": False,
    }


def test_populate_retries_after_shape_mismatch():
    template = simple_template()
    cfg = config()
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))
    bad = {"id": {"value": "UC-1"}, "amount": 12.5, "extra": 1}
    retry = repair_prompt(prompt, validate_shape(task.target_subtree, bad))
    good = {"id": {"value": "UC-1"}, "amount": 12.5}
    gateway = MockProvider(
        {prompt_hash(prompt): json.dumps(bad), prompt_hash(retry): json.dumps(good)}
    )
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2
    assert doc.provenance["(root)"]["failed"] is False


def test_populate_exhaustion_keeps_placeholders():
    template = simple_template()
    cfg = config(retry_limit=2)
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))
    bad = {"wrong": True}
    retry = repair_prompt(prompt, validate_shape(task.target_subtree, bad))
    # The second and third attempts share the retry prompt: same failure,
    # same report, same hash.
    gateway = MockProvider(
        {prompt_hash(prompt): json.dumps(bad), prompt_hash(retry): json.dumps(bad)}
    )
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == {"id": {"value": ""}, "amount": 0}
    record = doc.provenance["(root)"]
    assert record["attempts"] == 3
    assert record["failed"] is True
    assert record["mismatches"]


def test_populate_aborts_on_provider_outage_with_partial_provenance():
    template = make_template({"a": {"x": ""}, "b": {"y": ""}})
    cfg = config(depth_threshold=2)
    tasks = select_tasks(template, cfg.depth_threshold)
    assert [t.target_path for t in tasks] == ["a", "b"]
    first_prompt = build_prompt(tasks[0], prompt_head("populate", "contract"))
    gateway = MockProvider({prompt_hash(first_prompt): json.dumps({"x": "done"})})
    with pytest.raises(ProviderUnavailable) as exc_info:
        populate(template, "contract", None, gateway, cfg)
    assert "a" in exc_info.value.provenance
    assert exc_info.value.provenance["a"]["failed"] is False


class FailingProvider:
    """Replays a mock script, sleeping ``delay`` per call, but raises
    ``error`` on call number ``fail_on`` (counted from 1)."""

    def __init__(self, script, fail_on, delay=0.0, error=ProviderUnavailable):
        self.mock = MockProvider(script)
        self.fail_on = fail_on
        self.delay = delay
        self.error = error
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.fail_on:
            raise self.error(f"outage on call {call}")
        time.sleep(self.delay)
        return self.mock.complete(prompt)


class InlineFailingProvider(FailingProvider):
    """A :class:`FailingProvider` whose calls a pool runs on the caller's
    thread, as it runs a :class:`MockProvider`'s."""

    calls_wait = False


class ThreadedMockProvider:
    """Replays a mock script, but declares no ``calls_wait``, so a pool
    gives its calls worker threads."""

    def __init__(self, script):
        self.mock = MockProvider(script)
        self.threads = set()

    def complete(self, prompt):
        self.threads.add(threading.current_thread())
        return self.mock.complete(prompt)


def valid_script(template, cfg) -> dict:
    """A reply that validates first time for every task of ``template``."""
    return {
        prompt_hash(build_prompt(task, prompt_head("populate", "c"))): json.dumps(_fill_naive(task.target_subtree))
        for task in select_tasks(template, cfg.depth_threshold)
    }


def test_outage_keeps_partial_provenance_of_array_elements_under_distinct_keys():
    leg = {"a": {"b": {"c": ""}}}
    template = make_template({"legs": [leg, copy.deepcopy(leg)], "z": ""})
    cfg = config(depth_threshold=4)
    tasks = select_tasks(template, cfg.depth_threshold)
    assert [t.target_path for t in tasks] == ["legs", "legs", "z"]
    full = populate(template, "c", None, MockProvider(valid_script(template, cfg)), cfg)
    assert set(full.provenance) == {"legs", "legs+", "z"}
    gateway = FailingProvider(valid_script(template, cfg), fail_on=3)
    with pytest.raises(ProviderUnavailable) as exc_info:
        populate(template, "c", None, gateway, cfg)
    assert exc_info.value.provenance == {k: full.provenance[k] for k in ("legs", "legs+")}


@pytest.mark.parametrize("error", [AuthFailure, Timeout])
@pytest.mark.parametrize(
    "provider, max_inflight",
    [(FailingProvider, 1), (FailingProvider, 4), (InlineFailingProvider, 4)],
    ids=["1", "4", "inline"],
)
def test_auth_failure_and_timeout_keep_partial_provenance(error, provider, max_inflight):
    template = make_template({f"f{i}": "" for i in range(6)})
    cfg = config(depth_threshold=1, max_inflight=max_inflight)
    full = populate(template, "c", None, MockProvider(valid_script(template, cfg)), cfg)
    gateway = provider(valid_script(template, cfg), fail_on=3, error=error)
    with pytest.raises(error) as exc_info:
        populate(template, "c", None, gateway, cfg)
    partial = exc_info.value.provenance
    # Calls 1 and 2 finished; run serially or on the caller's thread,
    # nothing after call 3 started.
    assert len(partial) >= 2
    if max_inflight == 1 or provider is InlineFailingProvider:
        assert set(partial) == {"f0", "f1"}
        assert gateway.calls == 3
    assert all(full.provenance[key] == record for key, record in partial.items())


@pytest.mark.parametrize("provider", [MockProvider({}), ThreadedMockProvider({})], ids=["inline", "threaded"])
def test_a_pool_keeps_its_rules_for_calls_run_inline_or_on_workers(provider):
    def domain_error():
        raise GenerationIncomplete("one call's own failure")

    def bug():
        raise KeyError("a bug")

    with CallPool(1, provider) as pool:
        ok, domain = pool.submit(lambda: 7), pool.submit(domain_error)
        assert pool.result(ok) == 7
        with pytest.raises(GenerationIncomplete):
            pool.result(domain)
        # A domain error fails only its own call; a bug stops the pool.
        assert pool.failure is None
        broken = pool.submit(bug)
        with pytest.raises(KeyError):
            pool.result(broken)
        skipped = pool.submit(lambda: 8)
        assert isinstance(skipped.exception(), _Skipped)
        with pytest.raises(KeyError) as exc_info:
            pool.result(skipped)
        assert exc_info.value is pool.failure
        assert ok.exception() is None


def test_outage_stops_queued_tasks():
    template = make_template({f"f{i:02d}": "" for i in range(42)})
    cfg = config(depth_threshold=1, max_inflight=4)
    assert len(select_tasks(template, cfg.depth_threshold)) == 42
    # Successful calls take 20 ms, so the tasks in flight cannot finish and
    # start new ones before the outage on call 2 stops the run.
    gateway = FailingProvider(valid_script(template, cfg), fail_on=2, delay=0.02)
    with pytest.raises(ProviderUnavailable):
        populate(template, "c", None, gateway, cfg)
    assert gateway.calls <= 2 + cfg.max_inflight


_PLACEHOLDERS = st.sampled_from(["", "YYYY-MM-DD", 0, False])


def _arrays(children):
    # Hand-written templates may repeat an element; its tasks share a path.
    return st.tuples(children, st.integers(1, 3)).map(
        lambda pair: [copy.deepcopy(pair[0]) for _ in range(pair[1])]
    )


_TEMPLATE_NODES = st.recursive(
    _PLACEHOLDERS,
    lambda children: st.one_of(
        st.dictionaries(st.sampled_from("abcd"), children, min_size=1, max_size=3), _arrays(children)
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(
    tree=st.dictionaries(st.sampled_from("uvwxyz"), _TEMPLATE_NODES, min_size=1, max_size=4),
    depth=st.integers(1, 4),
    fail_on=st.integers(1, 24),
)
def test_outage_at_any_call_completes_or_keeps_a_subset_of_the_full_provenance(
    tree, depth, fail_on
):
    template = make_template(tree)
    script = valid_script(template, config(depth_threshold=depth))
    full = populate(template, "c", None, MockProvider(script), config(depth_threshold=depth))
    for max_inflight in (1, 4):
        cfg = config(depth_threshold=depth, max_inflight=max_inflight)
        try:
            doc = populate(template, "c", None, FailingProvider(script, fail_on), cfg)
        except ProviderUnavailable as exc:
            assert fail_on <= len(full.provenance)
            # Every task whose call came before the outage finished and kept
            # its record; run serially, no other task did.
            assert len(exc.provenance) >= fail_on - 1
            if max_inflight == 1:
                assert len(exc.provenance) == fail_on - 1
            assert set(exc.provenance) <= set(full.provenance)
            assert all(full.provenance[key] == record for key, record in exc.provenance.items())
        else:
            assert fail_on > len(full.provenance)
            assert doc.tree == full.tree
            assert doc.provenance == full.provenance


def test_populate_truncated_reply_is_retried():
    template = simple_template()
    cfg = config()
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))

    truncated = [{"path": "(root)", "kind": "truncated", "detail": "output was cut off"}]
    retry = repair_prompt(prompt, truncated)
    good = {"id": {"value": "UC-1"}, "amount": 1}
    gateway = MockProvider(
        {
            prompt_hash(prompt): {"text": '{"id": {"valu', "finish_reason": "length"},
            prompt_hash(retry): json.dumps(good),
        }
    )
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2


def test_populate_unparseable_reply_is_retried_then_falls_back():
    template = simple_template()
    cfg = config(retry_limit=0)
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))
    gateway = MockProvider({prompt_hash(prompt): "no json at all"})
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.provenance["(root)"]["failed"] is True
    assert doc.tree == {"id": {"value": ""}, "amount": 0}


@pytest.mark.parametrize(
    "reply, surrogate",
    [
        ('{"id": {"value": "UC-\\ud800"}, "amount": 1}', "\\ud800"),
        ('{"id": {"value": "UC-\udfff"}, "amount": 1}', "\\udfff"),
    ],
    ids=["escaped", "raw"],
)
def test_populate_lone_surrogate_reply_is_repaired_on_the_next_attempt(reply, surrogate):
    # The first reply fits the structure, but its value holds half a UTF-16
    # pair, escaped or as a provider's own text: no file can hold it.
    template = simple_template()
    cfg = config()
    good = {"id": {"value": "UC-1"}, "amount": 1}
    gateway = FakeGateway(reply, json.dumps(good))
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2
    first, retry = gateway.prompts
    detail = f"the JSON object in model output holds the lone surrogate {surrogate}"
    assert retry == repair_prompt(first, [{"path": "(root)", "kind": "unparseable", "detail": detail}])


def test_populate_reply_nested_too_deeply_is_repaired_on_the_next_attempt():
    # Deeper than the JSON parser's recursion limit: an unparseable reply.
    template = simple_template()
    cfg = config()
    good = {"id": {"value": "UC-1"}, "amount": 1}
    gateway = FakeGateway('{"id": ' * 100_000 + "1" + "}" * 100_000, json.dumps(good))
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2
    first, retry = gateway.prompts
    detail = "the JSON in model output is nested too deeply to read"
    assert retry == repair_prompt(first, [{"path": "(root)", "kind": "unparseable", "detail": detail}])


@pytest.mark.parametrize(
    "number",
    ["NaN", "Infinity", "-Infinity", "1e400", "9" * 5000],
    ids=["nan", "infinity", "minus_infinity", "1e400", "5000_digits"],
)
def test_populate_reply_with_a_number_no_file_can_hold_is_repaired_on_the_next_attempt(number):
    # The first reply fits the structure, but its number is not one a JSON
    # file can hold, or is too long for Python to read.
    template = make_template({"amount": 0})
    good = {"amount": 1}
    gateway = FakeGateway('{"amount": %s}' % number, json.dumps(good))
    doc = populate(template, "contract", None, gateway, config())
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2
    first, retry = gateway.prompts
    detail = "no balanced JSON object found in model output"
    assert retry == repair_prompt(first, [{"path": "(root)", "kind": "unparseable", "detail": detail}])


_REPLY_KINDS = ("valid", "shape_invalid", "unparseable", "truncated")


@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_REPLY_KINDS), min_size=4, max_size=4),
    retry_limit=st.integers(0, 3),
)
def test_a_task_run_ends_in_one_record_and_grafts_its_first_valid_reply(kinds, retry_limit):
    template = simple_template()
    cfg = config(retry_limit=retry_limit)
    [task] = select_tasks(template, cfg.depth_threshold)
    replies, reports = [], []
    for i, kind in enumerate(kinds):
        fill = {"id": {"value": f"UC-{i}"}, "amount": i}
        if kind == "valid":
            replies.append(CompletionResult(json.dumps(fill), "stop"))
            reports.append([])
        elif kind == "shape_invalid":
            replies.append(CompletionResult(json.dumps({**fill, "extra": i}), "stop"))
            reports.append([{"path": "extra", "kind": "extra_key", "detail": "key not in structure"}])
        elif kind == "unparseable":
            replies.append(CompletionResult(f"no json {i}", "stop"))
            detail = "no balanced JSON object found in model output"
            reports.append([{"path": "(root)", "kind": "unparseable", "detail": detail}])
        else:
            replies.append(CompletionResult(json.dumps(fill)[:-1], "length"))
            reports.append([{"path": "(root)", "kind": "truncated", "detail": "output was cut off"}])
    gateway = FakeGateway(*replies)
    doc = populate(template, "contract", None, gateway, cfg)

    allowed = kinds[: retry_limit + 1]
    attempts = allowed.index("valid") + 1 if "valid" in allowed else retry_limit + 1
    original = build_prompt(task, prompt_head("populate", "contract"))
    # Each re-ask carries the report of the attempt before it.
    assert gateway.prompts == [original] + [repair_prompt(original, reports[i]) for i in range(attempts - 1)]
    expected = {"prompt_hash": prompt_hash(original), "attempts": attempts, "failed": "valid" not in allowed}
    if expected["failed"]:
        expected["mismatches"] = reports[attempts - 1]
        assert doc.tree == {"id": {"value": ""}, "amount": 0}
    else:
        assert doc.tree == {"id": {"value": f"UC-{attempts - 1}"}, "amount": attempts - 1}
    assert doc.provenance == {"(root)": expected}


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_a_complete_run_s_provenance_is_its_finished_records(max_inflight):
    template = make_template({"a": {"x": "", "n": 0}, "b": ["", ""], "c": [{"y": False}]})
    cfg = config(depth_threshold=1, retry_limit=0, max_inflight=max_inflight)
    script = valid_script(template, cfg)
    # One task never validates, so its record carries mismatches.
    script[next(iter(script))] = "no json"
    gateway = ThreadedMockProvider(script)
    tasks = plan_tasks(template, cfg, None)
    with CallPool(cfg.max_inflight, gateway) as pool:
        pending = submit_population(pool, template, tasks, "c", gateway, cfg)
        doc = pending.collect()
        assert doc.provenance == pending.finished_records()
    assert list(doc.provenance) == ["a.x", "a.n", "b", "b+", "c.y"]
    assert [record["failed"] for record in doc.provenance.values()] == [True] + [False] * 4
    assert "mismatches" in doc.provenance["a.x"]


def test_populate_empty_template_short_circuits():
    doc = populate(make_template({}), "contract", None, MockProvider({}), config())
    assert doc.tree == {}
    assert doc.provenance == {}


def test_populate_full_fixture_with_dryrun_script(cdm_index, examples_root, contracts_dir):
    keys = flatten_examples(examples_root / "interest_rate_swap")
    template = build_template(cdm_index, keys, "InterestRateSwap")
    contract_text = (contracts_dir / "interest_rate_swap.txt").read_text(encoding="utf-8")
    cfg = config()
    script = build_population_script(cdm_index, template, contract_text, cfg)
    gateway = MockProvider(script)
    doc = populate(template, contract_text, None, gateway, cfg)
    # shape preservation: the populated tree mirrors the template exactly
    assert validate_shape(template.tree, doc.tree) == []
    # every placeholder was filled with something non-empty
    for path, leaf in treeops.iter_leaf_paths(doc.tree):
        assert leaf not in ("", treeops.DATE_TOKEN), path
    assert all(not record["failed"] for record in doc.provenance.values())
    # grafting respected the element address of the assignedIdentifier task
    assigned = doc.tree["trade"]["tradeIdentifier"][0]["assignedIdentifier"][0]
    assert assigned["identifier"]["value"] == "value-001"


def test_populate_deterministic_under_concurrency(cdm_index, examples_root, contracts_dir):
    keys = flatten_examples(examples_root / "equity_option")
    template = build_template(cdm_index, keys, "EquityOption")
    contract_text = (contracts_dir / "equity_option.txt").read_text(encoding="utf-8")
    cfg_serial = config(max_inflight=1)
    script = build_population_script(cdm_index, template, contract_text, cfg_serial)
    serial = populate(template, contract_text, None, MockProvider(script), cfg_serial)
    cfg_parallel = config(max_inflight=4)
    threaded = ThreadedMockProvider(script)
    parallel = populate(template, contract_text, None, threaded, cfg_parallel)
    # The calls ran on the pool's worker threads, not on this one.
    assert threaded.threads and threading.current_thread() not in threaded.threads
    assert json.dumps(serial.tree, sort_keys=True) == json.dumps(parallel.tree, sort_keys=True)
    assert serial.provenance == parallel.provenance


def test_populate_requires_kb_for_rag():
    with pytest.raises(ValueError, match="use_rag requires a knowledge base"):
        populate(simple_template(), "c", None, MockProvider({}), config(use_rag=True))
    with pytest.raises(ValueError, match="use_rag requires a knowledge base"):
        baseline_generate("c", None, MockProvider({}), config(use_rag=True))


def test_populate_preserves_data_field_named_description():
    # A schema-defined data field called "description" must survive both the
    # annotation stripping and the cleaning step once filled.
    template = make_template(
        {"_template_description": "Object docs.", "description": "", "label": ""}
    )
    cfg = config()
    [task] = select_tasks(template, cfg.depth_threshold)
    prompt = build_prompt(task, prompt_head("populate", "contract"))
    fill = {"description": "A five year payer swap.", "label": "L-1"}
    gateway = MockProvider({prompt_hash(prompt): json.dumps(fill)})
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == fill
    assert clean(doc) == fill


def test_populate_failed_task_keeps_placeholders_without_annotations():
    template = make_template({"a": {"description": "Ann.", "x": ""}, "b": {"y": ""}})
    cfg = config(depth_threshold=2, retry_limit=0)
    tasks = select_tasks(template, cfg.depth_threshold)
    prompts_by_path = {t.target_path: build_prompt(t, prompt_head("populate", "c")) for t in tasks}
    gateway = MockProvider(
        {
            prompt_hash(prompts_by_path["a"]): json.dumps({"bad": 1}),
            prompt_hash(prompts_by_path["b"]): json.dumps({"y": "filled"}),
        }
    )
    doc = populate(template, "c", None, gateway, cfg)
    assert doc.tree == {"a": {"x": ""}, "b": {"y": "filled"}}
    assert doc.provenance["a"]["failed"] is True
    assert doc.provenance["b"]["failed"] is False


# ---------------------------------------------------------------------------
# cleaning


def test_clean_removes_empty_and_placeholder_fields():
    tree = {"a": "", "b": {"c": "x", "d": []}}
    assert clean(tree) == {"b": {"c": "x"}}
    assert clean(tree) == oracles.clean_fixpoint(tree)


def test_clean_identity_on_fully_populated():
    tree = {"a": "x", "b": {"c": 1, "d": [False]}}
    assert clean(copy.deepcopy(tree)) == tree


def test_clean_total_removal():
    assert clean({"a": "", "b": {"c": "YYYY-MM-DD"}, "d": [""]}) == {}


def test_clean_keeps_zero_and_false():
    assert clean({"n": 0, "f": False}) == {"n": 0, "f": False}


def random_document(rng: random.Random, depth=0):
    if depth >= 5:
        return rng.choice(["", "YYYY-MM-DD", "real", 0, False, 3.5])
    roll = rng.random()
    if roll < 0.4:
        return {
            f"k{i}": random_document(rng, depth + 1) for i in range(rng.randint(0, 3))
        }
    if roll < 0.6:
        return [random_document(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return rng.choice(["", "YYYY-MM-DD", "real", 0, False, 3.5])


@pytest.mark.parametrize("seed", range(8))
def test_clean_matches_fixpoint_oracle_and_is_idempotent(seed):
    rng = random.Random(seed)
    for _ in range(40):
        doc = random_document(rng)
        if not isinstance(doc, dict):
            doc = {"root": doc}
        cleaned = clean(copy.deepcopy(doc))
        assert cleaned == oracles.clean_fixpoint(doc)
        assert clean(copy.deepcopy(cleaned)) == cleaned


# ---------------------------------------------------------------------------
# baseline generation


def test_baseline_returns_scripted_document():
    gateway = FakeGateway('{"trade": {"tradeDate": "2024-01-01"}}')
    result = baseline_generate("contract text", None, gateway, config())
    assert result == {"trade": {"tradeDate": "2024-01-01"}}
    assert "contract text" in gateway.prompts[0].user_text


def test_baseline_truncation_surfaces():
    gateway = FakeGateway(CompletionResult('{"partial": ', "length"))
    with pytest.raises(GenerationIncomplete):
        baseline_generate("contract text", None, gateway, config())


def test_baseline_rag_prompt_contains_chunk_bodies():
    chunks = [
        Chunk(f"c{i}", "t", "p", json.dumps({f"field{i}": "body"}), 3) for i in range(4)
    ]
    kb = KnowledgeBase(chunks=chunks)
    gateway = FakeGateway('{"ok": true}')
    baseline_generate("field0 field1 field2", kb, gateway, config(use_rag=True, k_chunks=3))
    text = gateway.prompts[0].user_text
    assert sum(chunk.body in text for chunk in chunks) == 3
