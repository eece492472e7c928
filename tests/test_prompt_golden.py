"""Exact bytes of every request kind the program sends a model.

Mock scripts are keyed by prompt hash and every other test rebuilds them
with the code under test, so a change to a prompt's wording or layout would
pass them all. Each pinned value is the number of prompts of one kind over
the six fixture contracts and a sha256 over their system and user texts, in
contract and task order. A deliberate prompt change updates this table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cdmgen.evaluator import coverage_prompt, coverage_retry_prompt
from cdmgen.gateway import CompletionResult, synthesize_description
from cdmgen.knowledge_base import ingest_examples
from cdmgen.populator import (
    PopulationConfig,
    baseline_generate,
    build_prompt,
    plan_tasks,
    repair_prompt,
    validate_shape,
)
from cdmgen.template_builder import build_template, flatten_examples, load_examples
from conftest import CONTRACT_TYPES

GOLDEN = {
    "populate": (36, "a6a250782080c0275fa44dd864afaf6d104114bf964c6337ad1f63564b5daabf"),
    "populate_rag": (36, "0a46fdfdb97cf8e679bd8e1295d4198fc66f8285c7c1ba322574f163e04dbd81"),
    "repair": (36, "0ceb7aedc6727fe95dcecfa3eed4c345da35eddbeeb0a5ce585f5f8d04660b8b"),
    "baseline": (6, "97ae2c8a355233fc65c6a9239d59e9b3784fc825d2dfbc11e05302e784ea82f7"),
    "baseline_rag": (6, "f322f852225bfb097d4b48a489847722a4cd7c8d70dd20f0f91211eeb59f4d07"),
    "coverage": (6, "48bc966de4d707c8d52e02c7e4ac24a8a2a886ef91ea18dbe7bebbab8317e6fc"),
    "coverage_retry": (6, "292222be1336d0f1c7df7ca3e866b2c7b204fdeb6d69b2582162f6568f73fdda"),
    "synthesize": (6, "0ba6c9366ed6e37edbd04c0a9cd51cc14f69f2f426fbdbee12fb52c6a368bec1"),
}


class Recorder:
    """Provider that keeps every prompt and replies with an empty object."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return CompletionResult(text="{}", finish_reason="stop")


@pytest.fixture(scope="module")
def prompts_by_kind(cdm_index, examples_root, contracts_dir):
    kinds = {kind: [] for kind in GOLDEN}
    plain = PopulationConfig()
    rag = PopulationConfig(use_rag=True, k_chunks=2)
    for key, contract_type in CONTRACT_TYPES.items():
        examples_dir = examples_root / key
        text = (contracts_dir / f"{key}.txt").read_text(encoding="utf-8")
        template = build_template(cdm_index, flatten_examples(examples_dir), contract_type)
        kb = ingest_examples(examples_dir, contract_type, 120)
        for task in plan_tasks(template, plain, None):
            prompt = build_prompt(task, text, plain)
            kinds["populate"].append(prompt)
            report = validate_shape(task.target_subtree, {"notTheRightShape": 1})
            kinds["repair"].append(repair_prompt(prompt, report))
        for task in plan_tasks(template, rag, kb):
            kinds["populate_rag"].append(build_prompt(task, text, rag))
        for kind, cfg in (("baseline", plain), ("baseline_rag", rag)):
            recorder = Recorder()
            baseline_generate(text, kb if cfg.use_rag else None, recorder, cfg)
            kinds[kind] += recorder.prompts
        doc = load_examples(examples_dir)[0][1]
        first = coverage_prompt(text, doc)
        kinds["coverage"].append(first)
        kinds["coverage_retry"].append(coverage_retry_prompt(first))
        recorder = Recorder()
        synthesize_description(recorder, doc, [text, text[:200]])
        kinds["synthesize"] += recorder.prompts
    return kinds


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_prompt_bytes_are_pinned(kind, prompts_by_kind):
    digest = hashlib.sha256()
    for prompt in prompts_by_kind[kind]:
        digest.update(json.dumps([prompt.system_text, prompt.user_text]).encode("utf-8"))
    assert (len(prompts_by_kind[kind]), digest.hexdigest()) == GOLDEN[kind]
