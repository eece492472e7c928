"""Deterministic mock-script generation for offline pipeline runs.

Given a template and the schema index it came from, this module enumerates
exactly the population tasks a run would issue, builds their prompts, and
fabricates schema-typed fills for every placeholder (first enum member,
fixed sample date, plain numbers, non-empty strings). The result is a mock
script — prompt hash to response — that drives a full population end to end
without a model, which is how demos and the test suite exercise the
pipeline.
"""

from __future__ import annotations

import json
from typing import Optional

from . import treeops
from .gateway import prompt_hash, prompt_head
from .knowledge_base import KnowledgeBase
from .populator import PopulationConfig, build_prompt, plan_tasks
from .schema_index import SchemaIndex
from .template_builder import Template

SAMPLE_DATE = "2024-06-28"
SAMPLE_NUMBER = 250
SAMPLE_INTEGER = 1


def sample_leaf_value(index: SchemaIndex, path: str, placeholder):
    """A schema-conformant sample value for the leaf at ``path``."""
    prop = index.lookup(path)
    scalar = prop.scalar_type if prop else treeops.placeholder_kind(placeholder)
    if scalar == "enum" and prop and prop.enum_values:
        return prop.enum_values[0]
    if scalar == "date":
        return SAMPLE_DATE
    if scalar == "number":
        return SAMPLE_NUMBER
    if scalar == "integer":
        return SAMPLE_INTEGER
    if scalar == "boolean":
        return True
    segment = path.split(".")[-1] if path else "value"
    return f"{segment}-001"


def fill_fragment(index: SchemaIndex, fragment, base_path: str):
    """Replace every placeholder in ``fragment`` with a sample value.

    Annotation entries are dropped, matching what a well-behaved model
    reply looks like.
    """
    if isinstance(fragment, dict):
        out = {}
        for key, value in treeops.data_items(fragment):
            child_path = f"{base_path}.{key}" if base_path else key
            out[key] = fill_fragment(index, value, child_path)
        return out
    if isinstance(fragment, list):
        return [fill_fragment(index, element, base_path) for element in fragment]
    return sample_leaf_value(index, base_path, fragment)


def build_population_script(
    index: SchemaIndex,
    template: Template,
    contract_text: str,
    cfg: PopulationConfig,
    kb: Optional[KnowledgeBase] = None,
) -> dict[str, str]:
    """Mock-script entries covering every task of one population run.

    Tasks come from the planner :func:`populate` uses; prompts are built
    through this module's ``build_prompt`` name, from one head for the
    contract, as :func:`populator.submit_population` builds them.
    """
    script: dict[str, str] = {}
    head = prompt_head("populate", contract_text)
    for task in plan_tasks(template, cfg, kb):
        base = ".".join(task.traversal_context) if task.unwrap_key else task.target_path
        filled = fill_fragment(index, task.target_subtree, base)
        prompt = build_prompt(task, head, cfg)
        script[prompt_hash(prompt)] = json.dumps(filled, ensure_ascii=False)
    return script
