"""Shared builders for end-to-end fixture runs (CLI and acceptance tests)."""

from __future__ import annotations

import json
from pathlib import Path

from cdmgen.dryrun import build_population_script
from cdmgen.populator import PopulationConfig, build_prompt, select_tasks
from cdmgen.gateway import prompt_hash, prompt_head
from cdmgen.schema_index import load_schema_dir
from cdmgen.template_builder import build_template, flatten_examples

CONTRACT_TYPES = {
    "interest_rate_swap": "InterestRateSwap",
    "equity_swap": "EquitySwap",
    "equity_option": "EquityOption",
    "commodity_option": "CommodityOption",
    "foreign_exchange": "ForeignExchange",
    "credit_default_swap": "CreditDefaultSwap",
}


def prepare_pipeline(
    work_dir: Path,
    schema_dir: Path,
    examples_root: Path,
    contracts_dir: Path,
    type_keys=None,
    retry_limit: int = 2,
    sabotage: set[str] = frozenset(),
):
    """Write a pipeline config plus a mock script covering every task.

    ``sabotage`` names contracts whose scripted replies are deliberately
    shape-invalid so their population exhausts and fails downstream.
    Returns (config_path, out_dir, script_path).
    """
    type_keys = list(type_keys or CONTRACT_TYPES)
    index = load_schema_dir(schema_dir, "contract.schema.json")
    cfg = PopulationConfig(retry_limit=retry_limit, max_inflight=1)
    script: dict[str, str] = {}
    contracts = []
    for key in type_keys:
        contract_type = CONTRACT_TYPES[key]
        examples_dir = examples_root / key
        contract_path = contracts_dir / f"{key}.txt"
        keys = flatten_examples(examples_dir)
        template = build_template(index, keys, contract_type)
        contract_text = contract_path.read_text(encoding="utf-8")
        if key in sabotage:
            for task in select_tasks(template, cfg.depth_threshold):
                prompt = build_prompt(task, prompt_head("populate", contract_text))
                script[prompt_hash(prompt)] = json.dumps({"notTheRightShape": 1})
        else:
            script.update(build_population_script(index, template, contract_text, cfg))
        contracts.append(
            {
                "name": key,
                "contract_type": contract_type,
                "contract_path": str(contract_path),
                "examples_dir": str(examples_dir),
            }
        )

    work_dir.mkdir(parents=True, exist_ok=True)
    script_path = work_dir / "mock_script.json"
    script_path.write_text(json.dumps(script, indent=2, sort_keys=True), encoding="utf-8")
    out_dir = work_dir / "out"
    config_path = work_dir / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "schema_dir": str(schema_dir),
                "root_file": "contract.schema.json",
                "out_dir": str(out_dir),
                "contracts": contracts,
                "retry_limit": retry_limit,
                "max_inflight": 1,
                "mock_script": str(script_path),
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return config_path, out_dir, script_path
