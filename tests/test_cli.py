from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import logging
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import cdmgen
from cdmgen import cli, populator, prompts, treeops
from cdmgen.cli import build_parser, main, write_json
from cdmgen.dryrun import build_population_script
from cdmgen.errors import AuthFailure, OutputUnwritable, ProviderUnavailable, Timeout
from cdmgen.evaluator import CoverageWeights
from cdmgen.gateway import CompletionResult, MockProvider, PromptBundle, evidence_json, prompt_hash, prompt_head
from cdmgen.knowledge_base import KnowledgeBase, ingest_examples
from cdmgen.populator import PopulationConfig
from cdmgen.template_builder import Template, build_template, flatten_examples


def run(argv) -> int:
    return main([str(a) for a in argv])


def run_expecting_usage_error(argv) -> None:
    with pytest.raises(SystemExit) as exc_info:
        run(argv)
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# make-template


def test_make_template_happy_path(tmp_path, cdm_schema_dir, examples_root, cdm_index):
    out = tmp_path / "template.json"
    code = run(
        [
            "make-template",
            "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json",
            "--examples", examples_root / "interest_rate_swap",
            "--contract-type", "InterestRateSwap",
            "--out", out,
        ]
    )
    assert code == 0
    keys = flatten_examples(examples_root / "interest_rate_swap")
    expected = build_template(cdm_index, keys, "InterestRateSwap")
    assert out.read_text(encoding="utf-8") == expected.to_text()


def test_make_template_missing_examples_is_domain_error(tmp_path, cdm_schema_dir, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = run(
        [
            "make-template",
            "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json",
            "--examples", empty,
            "--contract-type", "X",
            "--out", tmp_path / "t.json",
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "EmptyExampleDir"


def test_make_template_counts_for_its_log_line_only_when_verbose(tmp_path, cdm_schema_dir, examples_root):
    # A fresh process, so that -v configures logging as it does for a user.
    code = "\n".join(
        [
            "import sys",
            "from cdmgen import cli, populator",
            "calls = []",
            "depths = populator.compute_depths",
            "populator.compute_depths = lambda template: calls.append(1) or depths(template)",
            "code = cli.main(sys.argv[1:])",
            "print(len(calls))",
            "sys.exit(code)",
        ]
    )
    src = Path(cdmgen.__file__).resolve().parents[1]
    argv = [
        "make-template",
        "--schema-dir", str(cdm_schema_dir),
        "--root", "contract.schema.json",
        "--examples", str(examples_root / "interest_rate_swap"),
        "--contract-type", "InterestRateSwap",
        "--out", str(tmp_path / "template.json"),
    ]

    def make_template(*flags):
        result = subprocess.run(
            [sys.executable, "-c", code, *flags, *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout), result.stderr

    calls, err = make_template()
    assert calls == 0
    assert "template written" not in err
    calls, err = make_template("-v")
    assert calls == 1
    assert "template written out=" in err
    # Run as a module, the CLI's logger is still the package's.
    result = subprocess.run(
        [sys.executable, "-m", "cdmgen.cli", "-v", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "INFO cdmgen.cli template written out=" in result.stderr


def test_make_template_logs_its_leaf_count_and_depth(tmp_path, cdm_schema_dir, examples_root, caplog):
    out = tmp_path / "template.json"
    argv = [
        "-v", "make-template",
        "--schema-dir", cdm_schema_dir,
        "--root", "contract.schema.json",
        "--examples", examples_root / "equity_swap",
        "--contract-type", "EquitySwap",
        "--out", out,
    ]
    assert run(argv) == 0
    template = Template.load(out)
    leaves = sum(1 for _ in treeops.iter_leaf_paths(template.tree))
    depth = populator.compute_depths(template) - 1
    assert (leaves, depth) == (13, 8)
    [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("template written")]
    assert message == f"template written out={out} leaves={leaves} depth={depth}"


def test_verbose_holds_for_its_own_call_in_a_process_that_configured_logging(
    tmp_path, cdm_schema_dir, examples_root, caplog
):
    # pytest's log handler is on the root logger, as an embedding
    # application's would be, so main's basicConfig adds none.
    assert logging.getLogger().handlers
    argv = [
        "make-template",
        "--schema-dir", cdm_schema_dir,
        "--root", "contract.schema.json",
        "--examples", examples_root / "equity_swap",
        "--contract-type", "EquitySwap",
        "--out", tmp_path / "template.json",
    ]

    def written() -> list[str]:
        return [r.name for r in caplog.records if r.getMessage().startswith("template written")]

    assert run(argv) == 0
    assert written() == []
    assert run(["-v", *argv]) == 0
    assert written() == ["cdmgen.cli"]
    assert run(argv) == 0
    assert written() == ["cdmgen.cli"]
    assert logging.getLogger("cdmgen").level == logging.NOTSET


# ---------------------------------------------------------------------------
# populate


def _write_template_and_script(tmp_path, cdm_index, examples_root, contracts_dir, type_key):
    contract_type = helpers.CONTRACT_TYPES[type_key]
    keys = flatten_examples(examples_root / type_key)
    template = build_template(cdm_index, keys, contract_type)
    template_path = tmp_path / "template.json"
    template.save(template_path)
    contract_path = contracts_dir / f"{type_key}.txt"
    cfg = PopulationConfig(max_inflight=1)
    script = build_population_script(
        cdm_index, template, contract_path.read_text(encoding="utf-8"), cfg
    )
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    return template_path, contract_path, script_path


def test_populate_rag_without_kb_is_usage_error(tmp_path, cdm_index, examples_root, contracts_dir):
    template_path, contract_path, script_path = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "interest_rate_swap"
    )
    run_expecting_usage_error(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--rag",
            "--mock-script", script_path,
            "--out", tmp_path / "cdm.json",
        ]
    )


def test_populate_without_any_provider_is_usage_error(
    tmp_path, cdm_index, examples_root, contracts_dir
):
    template_path, contract_path, _ = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "interest_rate_swap"
    )
    run_expecting_usage_error(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--out", tmp_path / "cdm.json",
        ]
    )


def test_populate_writes_cdm_and_provenance(tmp_path, cdm_index, examples_root, contracts_dir):
    template_path, contract_path, script_path = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "interest_rate_swap"
    )
    out = tmp_path / "cdm.json"
    provenance = tmp_path / "prov.json"
    code = run(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--mock-script", script_path,
            "--max-inflight", 1,
            "--out", out,
            "--provenance", provenance,
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["contractType"] == "InterestRateSwap"
    records = json.loads(provenance.read_text(encoding="utf-8"))
    assert all(not record["failed"] for record in records.values())


def test_populate_exhaustion_exits_1_but_writes_artifacts(
    tmp_path, cdm_index, examples_root, contracts_dir, capsys
):
    contract_type = helpers.CONTRACT_TYPES["foreign_exchange"]
    keys = flatten_examples(examples_root / "foreign_exchange")
    template = build_template(cdm_index, keys, contract_type)
    template_path = tmp_path / "template.json"
    template.save(template_path)
    contract_path = contracts_dir / "foreign_exchange.txt"
    cfg = PopulationConfig(retry_limit=0, max_inflight=1)
    from cdmgen.populator import build_prompt, select_tasks

    script = {}
    for task in select_tasks(template, cfg.depth_threshold):
        prompt = build_prompt(task, prompt_head("populate", contract_path.read_text(encoding="utf-8")))
        script[prompt_hash(prompt)] = json.dumps({"wrongShape": 1})
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "cdm.json"
    provenance = tmp_path / "prov.json"
    code = run(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--mock-script", script_path,
            "--retries", 0,
            "--max-inflight", 1,
            "--out", out,
            "--provenance", provenance,
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "PopulationIncomplete"
    assert out.is_file() and provenance.is_file()
    records = json.loads(provenance.read_text(encoding="utf-8"))
    assert all(record["failed"] for record in records.values())


def _leaf_swaps(value, swap):
    """Copies of ``value`` with one scalar leaf replaced by ``swap(leaf)``,
    one per leaf for which that is not None, in document order."""
    if isinstance(value, (dict, list)):
        pairs = list(value.items()) if isinstance(value, dict) else list(enumerate(value))
        for key, child in pairs:
            for swapped in _leaf_swaps(child, swap):
                copy = dict(value) if isinstance(value, dict) else list(value)
                copy[key] = swapped
                yield copy
    elif swap(value) is not None:
        yield swap(value)


def test_populate_reply_with_a_lone_surrogate_is_unparseable_not_a_traceback(
    tmp_path, cdm_index, examples_root, contracts_dir, capsys
):
    # One reply fits its structure but holds the escape of half a UTF-16
    # pair, which no output file can hold: the task is asked again (here
    # with no retries left) instead of ending the run when it writes.
    template_path, contract_path, script_path = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "equity_option"
    )
    script = json.loads(script_path.read_text(encoding="utf-8"))
    cfg = PopulationConfig(max_inflight=1)
    text = contract_path.read_text(encoding="utf-8")
    for task in populator.plan_tasks(Template.load(template_path), cfg, None):
        key = prompt_hash(populator.build_prompt(task, prompt_head("populate", text)))
        swaps = _leaf_swaps(json.loads(script[key]), lambda leaf: "\ud800" if isinstance(leaf, str) else None)
        valid = next((s for s in swaps if not populator.validate_shape(task.target_subtree, s)), None)
        if valid is not None:
            script[key] = json.dumps(valid)
            break
    assert "\\ud800" in script[key]
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out, provenance = tmp_path / "cdm.json", tmp_path / "prov.json"
    code = run(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--mock-script", script_path,
            "--retries", 0,
            "--out", out,
            "--provenance", provenance,
        ]
    )
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "PopulationIncomplete",
        "detail": f"tasks failed: {task.target_path}",
    }
    records = json.loads(provenance.read_text(encoding="utf-8"))
    [failed] = [record for record in records.values() if record["failed"]]
    assert [m["kind"] for m in failed["mismatches"]] == ["unparseable"]
    assert "\\ud800" in failed["mismatches"][0]["detail"]
    assert json.loads(out.read_text(encoding="utf-8"))


def test_populate_rerun_is_byte_identical(tmp_path, cdm_index, examples_root, contracts_dir):
    template_path, contract_path, script_path = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "equity_swap"
    )
    outs = []
    for i in (1, 2):
        out = tmp_path / f"cdm{i}.json"
        assert (
            run(
                [
                    "populate",
                    "--template", template_path,
                    "--contract", contract_path,
                    "--mock-script", script_path,
                    "--max-inflight", 1,
                    "--out", out,
                ]
            )
            == 0
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# baseline


def _baseline_hash(contract_path) -> str:
    """Prompt hash of ``baseline`` without retrieval for a contract file."""
    sections = [
        prompts.load("baseline_instructions.txt"),
        f"Contract description:\n{contract_path.read_text(encoding='utf-8')}",
    ]
    bundle = PromptBundle(system_text=prompts.load("baseline_system.txt"), user_text="\n\n".join(sections))
    return prompt_hash(bundle)


def test_baseline_cli_with_mock(tmp_path, contracts_dir):
    contract_path = contracts_dir / "foreign_exchange.txt"
    script = {_baseline_hash(contract_path): json.dumps({"trade": {"tradeDate": "2024-07-01"}})}
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "baseline.json"
    code = run(
        [
            "baseline",
            "--contract", contract_path,
            "--mock-script", script_path,
            "--out", out,
        ]
    )
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"trade": {"tradeDate": "2024-07-01"}}


def test_baseline_truncation_maps_to_exit_1(tmp_path, contracts_dir, capsys):
    contract_path = contracts_dir / "foreign_exchange.txt"
    script = {_baseline_hash(contract_path): {"text": '{"partial', "finish_reason": "length"}}
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    code = run(
        [
            "baseline",
            "--contract", contract_path,
            "--mock-script", script_path,
            "--out", tmp_path / "baseline.json",
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "GenerationIncomplete"


# ---------------------------------------------------------------------------
# ingest-kb / synthesize


def test_ingest_kb_cli(tmp_path, examples_root):
    out = tmp_path / "kb.json"
    code = run(
        [
            "ingest-kb",
            "--examples", examples_root / "credit_default_swap",
            "--contract-type", "CreditDefaultSwap",
            "--budget", 40,
            "--out", out,
        ]
    )
    assert code == 0
    kb = KnowledgeBase.load(out)
    assert kb.chunks


def test_synthesize_cli(tmp_path, examples_root):
    example_path = examples_root / "equity_swap" / "eqs-001.json"
    example = json.loads(example_path.read_text(encoding="utf-8"))
    reference = tmp_path / "ref.txt"
    reference.write_text("Reference sheet.", encoding="utf-8")
    sections = [
        prompts.load("synthesize_instructions.txt"),
        "Reference term sheet 1:\nReference sheet.",
        "Structured contract data:\n" + evidence_json(example),
    ]
    bundle = PromptBundle(
        system_text=prompts.load("synthesize_system.txt"), user_text="\n\n".join(sections)
    )
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({prompt_hash(bundle): "A generated description."}), encoding="utf-8"
    )
    out = tmp_path / "description.txt"
    code = run(
        [
            "synthesize",
            "--example", example_path,
            "--reference", reference,
            "--mock-script", script_path,
            "--out", out,
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "A generated description.\n"


# ---------------------------------------------------------------------------
# evaluate / report


def test_evaluate_fixture_pipeline_output(tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir):
    template_path, contract_path, script_path = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "commodity_option"
    )
    cdm_out = tmp_path / "cdm.json"
    assert (
        run(
            [
                "populate",
                "--template", template_path,
                "--contract", contract_path,
                "--mock-script", script_path,
                "--max-inflight", 1,
                "--out", cdm_out,
            ]
        )
        == 0
    )
    report_out = tmp_path / "report.json"
    code = run(
        [
            "evaluate",
            "--contract", contract_path,
            "--cdm", cdm_out,
            "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json",
            "--contract-type", "CommodityOption",
            "--out", report_out,
        ]
    )
    assert code == 0
    report = json.loads(report_out.read_text(encoding="utf-8"))
    assert report["syntactical_correctness"] == 100.0
    assert report["schema_adherence"] == 100.0
    assert report["contract_type"] == "CommodityOption"


def test_evaluate_scores_an_empty_top_level_key_as_missing(tmp_path, cdm_schema_dir, contracts_dir, capsys):
    cdm = tmp_path / "cdm.json"
    cdm.write_text(json.dumps({"": 1, "trade": {}}), encoding="utf-8")
    out = tmp_path / "report.json"
    code = run(
        [
            "evaluate",
            "--contract", contracts_dir / "interest_rate_swap.txt",
            "--cdm", cdm,
            "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json",
            "--out", out,
        ]
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["syntactical_correctness"], report["schema_adherence"]) == (50.0, 50.0)
    assert report["per_path_detail"][0] == {"path": "", "exists": False, "adheres": False}


@pytest.mark.parametrize("levels, code", [(975, 0), (100_000, 1)])
def test_evaluate_reads_a_deep_document_or_fails_typed(tmp_path, cdm_schema_dir, contracts_dir, levels, code):
    # In a fresh interpreter, as a user runs the command: 975 levels are
    # read and scored, 100,000 are deeper than any JSON parser's recursion
    # limit (about a thousand levels on Python 3.11, more on later versions).
    cdm = tmp_path / "deep.json"
    cdm.write_text('{"a":' * levels + "1" + "}" * levels, encoding="utf-8")
    out = tmp_path / "report.json"
    argv = [
        "evaluate", "--contract", str(contracts_dir / "equity_option.txt"), "--cdm", str(cdm),
        "--schema-dir", str(cdm_schema_dir), "--root", "contract.schema.json", "--out", str(out),
    ]
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from cdmgen.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(cdmgen.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    if code:
        assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "MalformedDocument"
    else:
        assert len(json.loads(out.read_text(encoding="utf-8"))["per_path_detail"]) == levels


def test_evaluate_with_coverage_via_mock(tmp_path, cdm_schema_dir, contracts_dir):
    from cdmgen.evaluator import coverage_prompt

    contract_path = contracts_dir / "equity_swap.txt"
    doc = {"contractType": "EquitySwap", "trade": {"tradeDate": "2024-05-02"}}
    cdm_path = tmp_path / "cdm.json"
    cdm_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    reply = {"captured": ["c1", "c2", "c3"], "uncaptured": ["u1"], "extraneous": []}
    bundle = coverage_prompt(contract_path.read_text(encoding="utf-8"), doc)
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({prompt_hash(bundle): json.dumps(reply)}), encoding="utf-8"
    )
    out = tmp_path / "report.json"
    code = run(
        [
            "evaluate",
            "--contract", contract_path,
            "--cdm", cdm_path,
            "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json",
            "--coverage",
            "--mu", 0.3,
            "--epsilon", 0.1,
            "--mock-script", script_path,
            "--out", out,
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    # C=3, U=1, E=0 at mu=0.3: 300 / 3.3
    assert abs(report["coverage_score"] - 300 / 3.3) < 1e-9
    assert report["lists"]["captured"] == ["c1", "c2", "c3"]


def test_populate_provider_outage_saves_partial_provenance(
    tmp_path, cdm_index, examples_root, contracts_dir, capsys
):
    template_path, contract_path, _ = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "credit_default_swap"
    )
    empty_script = tmp_path / "empty_script.json"
    empty_script.write_text("{}", encoding="utf-8")
    provenance = tmp_path / "prov.json"
    code = run(
        [
            "populate",
            "--template", template_path,
            "--contract", contract_path,
            "--mock-script", empty_script,
            "--max-inflight", 1,
            "--out", tmp_path / "cdm.json",
            "--provenance", provenance,
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ProviderUnavailable"
    assert provenance.is_file()
    assert not (tmp_path / "cdm.json").exists()


def test_mu_flag_beats_environment(tmp_path, cdm_schema_dir, contracts_dir, monkeypatch):
    from cdmgen.evaluator import coverage_prompt

    monkeypatch.setenv("CDMGEN_MU", "0.9")
    contract_path = contracts_dir / "equity_swap.txt"
    doc = {"contractType": "EquitySwap"}
    cdm_path = tmp_path / "cdm.json"
    cdm_path.write_text(json.dumps(doc), encoding="utf-8")
    reply = {"captured": ["c1"], "uncaptured": ["u1"], "extraneous": []}
    bundle = coverage_prompt(contract_path.read_text(encoding="utf-8"), doc)
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({prompt_hash(bundle): json.dumps(reply)}), encoding="utf-8"
    )
    out = tmp_path / "report.json"
    args = [
        "evaluate",
        "--contract", contract_path,
        "--cdm", cdm_path,
        "--schema-dir", cdm_schema_dir,
        "--root", "contract.schema.json",
        "--coverage",
        "--mock-script", script_path,
        "--out", out,
    ]
    assert run(args) == 0
    env_score = json.loads(out.read_text(encoding="utf-8"))["coverage_score"]
    assert abs(env_score - 100 / 1.9) < 1e-9  # environment value applied
    assert run(args + ["--mu", 0.3]) == 0
    flag_score = json.loads(out.read_text(encoding="utf-8"))["coverage_score"]
    assert abs(flag_score - 100 / 1.3) < 1e-9  # flag wins over environment


def test_report_aggregates_by_contract_type(tmp_path):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    rows = [
        ("a1.json", "TypeA", 80.0),
        ("a2.json", "TypeA", 100.0),
        ("b1.json", "TypeB", 100.0),
    ]
    for name, contract_type, syntactical in rows:
        (reports_dir / name).write_text(
            json.dumps(
                {
                    "contract_type": contract_type,
                    "syntactical_correctness": syntactical,
                    "schema_adherence": 100.0,
                    "coverage_score": None,
                    "per_path_detail": [],
                }
            ),
            encoding="utf-8",
        )
    (reports_dir / "archive.json").mkdir()  # a directory, not a report
    out = tmp_path / "summary.csv"
    code = run(["report", "--in", reports_dir, "--out", out])
    assert code == 0
    with out.open(newline="", encoding="utf-8") as handle:
        parsed = list(csv.DictReader(handle))
    by_group = {row["group"]: row for row in parsed}
    assert by_group["TypeA"]["syntactical_mean"] == "90.0000"
    assert by_group["TypeA"]["syntactical_stddev"] == "10.0000"
    assert by_group["TypeB"]["count"] == "1"
    assert by_group["combined"]["count"] == "3"


# ---------------------------------------------------------------------------
# artifact format


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)


@settings(max_examples=200, deadline=None)
@given(payload=_JSON_VALUES)
def test_write_json_writes_one_line_that_parses_back(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("write_json") / "artifact.json"
    write_json(path, payload)
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n")
    assert text.count("\n") == 1 and "\r" not in text
    assert json.loads(text) == payload
    for string in _strings(payload):
        for char in string:
            if ord(char) > 0x7F:
                assert char in text  # non-ASCII stays literal, not \u-escaped


def test_pipeline_writes_one_line_artifacts_and_indented_templates(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir
):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    assert run(["pipeline", "--config", config_path]) == 0
    for key, contract_type in helpers.CONTRACT_TYPES.items():
        for suffix in (".cdm.json", ".provenance.json", ".report.json"):
            data = (out_dir / f"{key}{suffix}").read_bytes()
            compact = json.dumps(json.loads(data), ensure_ascii=False) + "\n"
            assert data == compact.encode("utf-8"), f"{key}{suffix}"
        template = build_template(cdm_index, flatten_examples(examples_root / key), contract_type)
        assert (out_dir / f"{key}.template.json").read_text(encoding="utf-8") == template.to_text()


def test_written_files_get_the_mode_open_gives(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir
):
    key, contract_type = "interest_rate_swap", helpers.CONTRACT_TYPES["interest_rate_swap"]
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=[key]
    )
    template = build_template(cdm_index, flatten_examples(examples_root / key), contract_type)
    kb = ingest_examples(examples_root / key, contract_type, 60)
    saved = tmp_path / "saved"
    saved.mkdir()
    previous = os.umask(0o022)
    try:
        assert run(["pipeline", "--config", config_path]) == 0
        template.save(saved / "template.json")
        kb.save(saved / "kb.json")
    finally:
        os.umask(previous)
    written = [*out_dir.iterdir(), *saved.iterdir()]
    assert {path.name for path in out_dir.iterdir()} == {
        f"{key}{suffix}" for suffix in (".template.json", ".provenance.json", ".cdm.json", ".report.json")
    } | {"summary.csv"}
    modes = {path.name: oct(stat.S_IMODE(path.stat().st_mode)) for path in written}
    assert modes == {path.name: oct(0o644) for path in written}


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_json(path, {"new": 1}),
        lambda path: Template(tree={"a": ""}, contract_type="t", schema_root="r.json").save(path),
    ],
    ids=["write_json", "Template.save"],
)
def test_a_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, write):
    target = tmp_path / "artifact.json"
    target.write_text("old bytes\n", encoding="utf-8")

    def refuse(source, destination):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OutputUnwritable, match="replace refused"):
        write(target)
    assert target.read_text(encoding="utf-8") == "old bytes\n"
    assert list(tmp_path.glob(".artifact.json.*")) == []


@pytest.mark.parametrize("blocked", ["out_is_a_directory", "out_under_a_file"])
def test_an_unwritable_out_is_a_domain_error(tmp_path, cdm_schema_dir, examples_root, capsys, blocked):
    blocker = tmp_path / "blocker"
    if blocked == "out_is_a_directory":
        blocker.mkdir()
        out, reason = blocker, "Is a directory"
    else:
        blocker.write_text("a file\n", encoding="utf-8")
        out, reason = blocker / "template.json", "File exists"
    code = run(
        [
            "make-template", "--schema-dir", cdm_schema_dir, "--root", "contract.schema.json",
            "--examples", examples_root / "equity_option", "--contract-type", "EquityOption", "--out", out,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "OutputUnwritable", "detail": f"cannot write {blocker}: {reason}"
    }
    # The temporary file is gone too.
    assert [path.name for path in tmp_path.iterdir()] == ["blocker"]
    assert blocker.is_file() or not list(blocker.iterdir())


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_six_contract_batch(tmp_path, cdm_schema_dir, examples_root, contracts_dir):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    assert run(["pipeline", "--config", config_path]) == 0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    groups = {row["group"] for row in rows}
    assert groups == set(helpers.CONTRACT_TYPES.values()) | {"combined"}
    for row in rows:
        assert row["status"] == "ok"
        assert row["syntactical_mean"] == "100.0000"
        assert row["adherence_mean"] == "100.0000"
    for key in helpers.CONTRACT_TYPES:
        assert (out_dir / f"{key}.template.json").is_file()
        assert (out_dir / f"{key}.cdm.json").is_file()
        assert (out_dir / f"{key}.provenance.json").is_file()
        assert (out_dir / f"{key}.report.json").is_file()


def test_pipeline_empty_batch_is_usage_error(tmp_path, cdm_schema_dir):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "schema_dir": str(cdm_schema_dir),
                "root_file": "contract.schema.json",
                "out_dir": str(tmp_path / "out"),
                "contracts": [],
            }
        ),
        encoding="utf-8",
    )
    run_expecting_usage_error(["pipeline", "--config", config_path])


@pytest.mark.parametrize("name", ["../escaped", "sub/c1", "sub\\c1", ".", "..", "nul\0", ""])
def test_pipeline_rejects_a_contract_name_that_is_not_a_file_name(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, capsys, name
):
    work = tmp_path / "work"
    config_path, out_dir, _ = helpers.prepare_pipeline(
        work, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["contracts"][0]["name"] = name
    if not name:
        # An empty name falls back to the file stem, which is empty for "/".
        config["contracts"][0]["contract_path"] = "/"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_expecting_usage_error(["pipeline", "--config", config_path])
    assert "is not a plain file name" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(path.name for path in work.iterdir()) == ["mock_script.json", "run.json"]


@pytest.mark.parametrize(
    "key, in_contract, kind",
    [
        ("mock_script", False, "mock script"),
        ("schema_dir", False, "schema_dir"),
        ("root_file", False, "root schema file"),
        ("contract_path", True, "contract file"),
        ("examples_dir", True, "examples dir"),
        ("kb_path", True, "knowledge base"),
    ],
)
def test_a_run_config_input_that_does_not_exist_is_a_usage_error_naming_it(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, capsys, key, in_contract, kind
):
    work = tmp_path / "work"
    config_path, out_dir, _ = helpers.prepare_pipeline(
        work, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    (config["contracts"][0] if in_contract else config)[key] = "absent"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_expecting_usage_error(["pipeline", "--config", config_path])
    # A relative path names a file beside the config; root_file one in schema_dir.
    missing = cdm_schema_dir / "absent" if key == "root_file" else work / "absent"
    assert f"error: {kind} does not exist: {missing}\n" in capsys.readouterr().err
    assert not out_dir.exists()


def test_out_dir_and_mock_script_flags_beat_the_run_config(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch
):
    work = tmp_path / "work"
    config_path, _, script_path = helpers.prepare_pipeline(
        work, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(out_dir="config-out", mock_script="mock_script.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    # The run config's relative paths are taken from its own directory.
    assert run(["pipeline", "--config", config_path]) == 0
    written = {path.name: path.read_bytes() for path in (work / "config-out").iterdir()}
    assert "equity_option.cdm.json" in written
    # The flags' paths are taken from the working directory, and they win:
    # the run config's script now scripts nothing.
    (elsewhere / "script.json").write_bytes(script_path.read_bytes())
    script_path.write_text("{}", encoding="utf-8")
    argv = ["pipeline", "--config", config_path, "--out-dir", "flag-out", "--mock-script", "script.json"]
    assert run(argv) == 0
    assert {path.name: path.read_bytes() for path in (elsewhere / "flag-out").iterdir()} == written
    assert {path.name: path.read_bytes() for path in (work / "config-out").iterdir()} == written


# Each case is the expected exit code and a command line, with {placeholders}
# for the files written by test_bad_input_is_typed_not_a_traceback; commands
# other than pipeline also get --out.
POPULATE = "populate --contract {contract}"
EVALUATE = "evaluate --contract {contract} --schema-dir {schema_dir} --root contract.schema.json"
BAD_INPUTS = {
    "mock_script_not_json": (1, POPULATE + " --template {template} --mock-script {not_json}"),
    "mock_script_not_object": (1, POPULATE + " --template {template} --mock-script {not_object}"),
    "template_not_json": (1, POPULATE + " --template {not_json} --mock-script {script}"),
    "template_without_tree": (1, POPULATE + " --template {empty_object} --mock-script {script}"),
    "kb_not_object": (1, POPULATE + " --template {template} --kb {not_object} --mock-script {script}"),
    "cdm_not_json": (1, EVALUATE + " --cdm {not_json}"),
    "cdm_not_object": (1, EVALUATE + " --cdm {not_object}"),
    "cdm_too_deep": (1, EVALUATE + " --cdm {too_deep}"),
    "config_not_json": (1, "pipeline --config {not_json}"),
    "config_not_object": (1, "pipeline --config {not_object}"),
    "config_without_schema_dir": (2, "pipeline --config {config_without_schema_dir}"),
    "config_rag_without_kb_path": (2, "pipeline --config {config_rag_without_kb}"),
    "pipeline_depth_0": (2, "pipeline --config {config} --depth 0"),
    "populate_depth_0": (2, POPULATE + " --template {template} --mock-script {script} --depth 0"),
    "populate_k_chunks_0": (2, POPULATE + " --template {template} --mock-script {script} --k-chunks 0"),
    "baseline_k_chunks_0": (2, "baseline --contract {contract} --mock-script {script} --k-chunks 0"),
    "evaluate_mu_2": (2, EVALUATE + " --cdm {empty_object} --coverage --mu 2 --mock-script {script}"),
    "pipeline_mu_2": (2, "pipeline --config {config} --mu 2"),
    "provider_timeout_0": (2, "baseline --contract {contract} --provider http://127.0.0.1:9 --timeout 0"),
    "provider_timeout_inf": (2, "baseline --contract {contract} --provider http://127.0.0.1:9 --timeout inf"),
    "provider_timeout_nan": (2, "baseline --contract {contract} --provider http://127.0.0.1:9 --timeout nan"),
    "provider_timeout_1e300": (2, "baseline --contract {contract} --provider http://127.0.0.1:9 --timeout 1e300"),
    "ingest_budget_0": (2, "ingest-kb --examples {examples} --contract-type CommodityOption --budget 0"),
    "missing_contract": (2, "populate --template {template} --contract {missing} --mock-script {script}"),
    "missing_config": (2, "pipeline --config {missing}"),
    "mock_script_entry_not_text": (1, POPULATE + " --template {template} --mock-script {script_entry_42}"),
    "kb_chunk_without_fields": (
        1, POPULATE + " --template {template} --rag --kb {kb_chunk_without_fields} --mock-script {script}"
    ),
    "kb_chunk_not_object": (1, "baseline --contract {contract} --rag --kb {kb_chunk_not_object} --mock-script {script}"),
    "kb_without_chunks": (1, "pipeline --config {config_kb_without_chunks}"),
    "kb_body_number": (1, "baseline --contract {contract} --rag --kb {kb_body_5} --mock-script {script}"),
    "kb_chunk_id_number": (1, "baseline --contract {contract} --rag --kb {kb_chunk_id_7} --mock-script {script}"),
    "template_tree_list": (1, POPULATE + " --template {tree_list} --mock-script {script}"),
    "template_tree_text": (1, POPULATE + " --template {tree_text} --mock-script {script}"),
    "synthesize_empty_example": (1, "synthesize --example {empty_object} --mock-script {script}"),
    "populate_max_inflight_0": (2, POPULATE + " --template {template} --mock-script {script} --max-inflight 0"),
    "pipeline_max_inflight_0": (2, "pipeline --config {config_max_inflight_0}"),
    "config_coverage_text": (2, "pipeline --config {config_coverage_text}"),
    "config_max_inflight_float": (2, "pipeline --config {config_max_inflight_float}"),
    "config_retry_limit_bool": (2, "pipeline --config {config_retry_limit_bool}"),
    "config_depth_threshold_float": (2, "pipeline --config {config_depth_threshold_float}"),
    "config_use_rag_number": (2, "pipeline --config {config_use_rag_number}"),
    "config_mu_text": (2, "pipeline --config {config_mu_text}"),
    "config_provider_retries_float": (2, "pipeline --config {config_provider_retries_float}"),
    "config_provider_timeout_text": (2, "pipeline --config {config_provider_timeout_text}"),
    "config_provider_timeout_nan": (2, "pipeline --config {config_provider_timeout_nan}"),
    "config_provider_model_number": (2, "pipeline --config {config_provider_model_number}"),
    "config_provider_credential_env_number": (2, "pipeline --config {config_provider_credential_env_number}"),
    "config_unknown_key": (2, "pipeline --config {config_unknown_key}"),
    "config_contract_unknown_key": (2, "pipeline --config {config_contract_unknown_key}"),
    "config_provider_unknown_key": (2, "pipeline --config {config_provider_unknown_key}"),
    "config_duplicate_name": (2, "pipeline --config {config_duplicate_name}"),
    "config_duplicate_stem": (2, "pipeline --config {config_duplicate_stem}"),
    "mock_script_usage_not_object": (1, POPULATE + " --template {template} --mock-script {script_usage_5}"),
    "evaluate_blank_contract": (
        1, "evaluate --contract {blank} --schema-dir {schema_dir} --root contract.schema.json"
        " --cdm {cdm_one_key} --coverage --mock-script {script}"
    ),
    "report_not_json": (1, "report --in {reports_not_json}"),
    "report_without_scores": (1, "report --in {reports_contract_type_only}"),
    "report_lists_not_object": (1, "report --in {reports_lists_5}"),
    "report_lists_item_not_list": (1, "report --in {reports_captured_5}"),
    "report_score_text": (1, "report --in {reports_score_text}"),
    "report_detail_not_list": (1, "report --in {reports_detail_5}"),
    "report_contract_type_list": (1, "report --in {reports_contract_type_list}"),
    "schema_not_utf8": (
        1, "make-template --schema-dir {schema_not_utf8} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "template_not_utf8": (1, POPULATE + " --template {not_utf8} --mock-script {script}"),
    "contract_not_utf8": (1, "populate --contract {not_utf8} --template {template} --mock-script {script}"),
    "mock_script_not_utf8": (1, POPULATE + " --template {template} --mock-script {not_utf8}"),
    "examples_not_utf8": (1, "ingest-kb --examples {examples_not_utf8} --contract-type CommodityOption --budget 200"),
    "examples_lone_surrogate": (
        1, "ingest-kb --examples {examples_lone_surrogate} --contract-type CommodityOption --budget 200"
    ),
    "schema_lone_surrogate": (
        1, "make-template --schema-dir {schema_lone_surrogate} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "template_lone_surrogate_key": (1, POPULATE + " --template {lone_surrogate_key} --mock-script {script}"),
    "mock_script_lone_surrogate": (1, POPULATE + " --template {template} --mock-script {lone_surrogate}"),
    "kb_lone_surrogate": (1, "baseline --contract {contract} --rag --kb {kb_lone_surrogate} --mock-script {script}"),
    "config_lone_surrogate": (1, "pipeline --config {config_lone_surrogate}"),
    "root_outside_schema_dir_missing": (
        1, "make-template --schema-dir {schema_dir} --root {missing_root}"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "root_outside_schema_dir_existing": (
        1, "make-template --schema-dir {schema_dir} --root {template}"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "examples_without_leaves": (
        1, "make-template --schema-dir {schema_dir} --root contract.schema.json"
        " --examples {examples_without_leaves} --contract-type CommodityOption"
    ),
    "ingest_examples_without_leaves": (
        1, "ingest-kb --examples {examples_without_leaves} --contract-type CommodityOption --budget 200"
    ),
    "schema_properties_list": (
        1, "make-template --schema-dir {schema_properties_list} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_member_properties_number": (
        1, "make-template --schema-dir {schema_member_properties_number} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_ref_all_of_number": (
        1, "make-template --schema-dir {schema_ref_all_of_number} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_member_number": (
        1, "make-template --schema-dir {schema_member_number} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_ref_member_text": (
        1, "make-template --schema-dir {schema_ref_member_text} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_ref_pointer": (
        1, "make-template --schema-dir {schema_ref_pointer} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "config_contract_type_number": (2, "pipeline --config {config_contract_type_number}"),
    "config_contract_type_combined": (2, "pipeline --config {config_contract_type_combined}"),
    "config_contract_type_empty": (2, "pipeline --config {config_contract_type_empty}"),
    "config_name_list": (2, "pipeline --config {config_name_list}"),
    "config_name_number": (2, "pipeline --config {config_name_number}"),
    "config_provider_list": (2, "pipeline --config {config_provider_list}"),
    "report_contract_type_combined": (1, "report --in {reports_contract_type_combined}"),
    "report_without_report_files": (2, "report --in {reports_none}"),
    "schema_dir_missing": (
        1, "make-template --schema-dir {missing} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    "schema_top_level_list": (
        1, "make-template --schema-dir {schema_top_level_list} --root contract.schema.json"
        " --examples {examples} --contract-type CommodityOption"
    ),
    # A self-referencing schema and an example 70 levels deep: the template
    # walk passes the depth guard (64).
    "template_past_depth_guard": (
        1, "make-template --schema-dir {schema_self_reference} --root node.json"
        " --examples {examples_70_levels} --contract-type Node"
    ),
    "config_contracts_number": (2, "pipeline --config {config_contracts_number}"),
    "config_out_dir_number": (2, "pipeline --config {config_out_dir_number}"),
    "config_out_dir_empty": (2, "pipeline --config {config_out_dir_empty}"),
}
# The error a case with exit code 1 names, when it is not MalformedDocument.
BAD_INPUT_ERRORS = {
    "root_outside_schema_dir_missing": "MissingRoot",
    "root_outside_schema_dir_existing": "MissingRoot",
    "examples_without_leaves": "EmptyExampleDir",
    "ingest_examples_without_leaves": "EmptyExampleDir",
    "schema_ref_pointer": "UnresolvedRef",
    "schema_dir_missing": "MissingRoot",
    "template_past_depth_guard": "CycleDetected",
}
# A pattern the error detail of a case with exit code 1 must match: only a
# file that does not parse names a byte offset.
BAD_INPUT_DETAILS = {
    "template_not_json": r"not_json\.json: parse failure at byte offset 1: ",
    "cdm_too_deep": r"too_deep\.json: the JSON value is nested too deeply to read$",
    "template_tree_list": r"tree_list\.json: 'tree' is not an object$",
    "examples_without_leaves": r"no example in .*examples_without_leaves has a leaf value$",
    "ingest_examples_without_leaves": r"no example in .*examples_without_leaves has a leaf value$",
    "schema_properties_list": r"^contract\.schema\.json: 'properties' is not an object$",
    "schema_member_properties_number": r"^contract\.schema\.json#oneOf\[0\]: 'properties' is not an object$",
    "schema_ref_all_of_number": r"^x\.schema\.json: 'allOf' is not a list$",
    "schema_member_number": r"^contract\.schema\.json#oneOf\[0\]: the member is not an object$",
    "schema_ref_member_text": r"^x\.schema\.json#anyOf\[1\]: the member is not an object$",
    "schema_ref_pointer": r"'x\.schema\.json#/definitions/Y' \(referenced from contract\.schema\.json#x\)$",
    "report_contract_type_combined": r"r1\.report\.json: 'contract_type' 'combined' names the union row$",
    "examples_lone_surrogate": r"^e1\.json: the lone surrogate \\ud800 is not UTF-8 text$",
    "schema_lone_surrogate": r"^contract\.schema\.json: the lone surrogate \\udc00 is not UTF-8 text$",
    "template_lone_surrogate_key": r"lone_surrogate_key\.json: the lone surrogate \\udfff is not UTF-8 text$",
    "mock_script_lone_surrogate": r"lone_surrogate\.json: the lone surrogate \\ud800 is not UTF-8 text$",
    "kb_lone_surrogate": r"kb_lone_surrogate\.json: the lone surrogate \\ud800 is not UTF-8 text$",
    "config_lone_surrogate": r"config_lone_surrogate\.json: the lone surrogate \\udbff is not UTF-8 text$",
    "schema_dir_missing": r"^schema directory .*missing\.txt does not exist$",
    "schema_top_level_list": r"^bad\.json: top-level value is not an object$",
    "template_past_depth_guard": r"^schema traversal exceeded 64 levels at 'next(\.next){64}'$",
}
# Text the usage message of a case with exit code 2 must hold.
BAD_INPUT_USAGE = {
    "config_unknown_key": "'max_inflght'",
    "config_contract_unknown_key": "'kb_pth'",
    "config_provider_unknown_key": "'modle'",
    "config_duplicate_name": "contract name 'c1' is used twice",
    "config_duplicate_stem": "contract name 'commodity_option' is used twice",
    "config_provider_model_number": "error: model must be a string",
    "provider_timeout_inf": "error: timeout must be positive and at most ",
    "provider_timeout_nan": "error: timeout must be positive and at most ",
    "provider_timeout_1e300": "error: timeout must be positive and at most ",
    "config_provider_timeout_nan": "error: timeout must be positive and at most ",
    "config_provider_credential_env_number": "error: credential_env must be a string",
    "config_contract_type_number": "contract 'c1': contract_type must be a non-empty string other than 'combined'",
    "config_contract_type_combined": "contract 'c1': contract_type must be a non-empty string other than 'combined'",
    "config_contract_type_empty": "contract 'c1': contract_type must be a non-empty string other than 'combined'",
    "config_name_list": "error: contract name ['a'] is not a plain file name",
    "config_name_number": "error: contract name 5 is not a plain file name",
    "config_provider_list": "error: provider [['model', 'x']] is not an object",
    "config_contracts_number": "error: contracts 5 is not a list",
    "config_out_dir_number": "error: out_dir 5 is not a path",
    "config_out_dir_empty": "error: out_dir '' is not a path",
    "report_without_report_files": "error: no report files found in ",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_typed_not_a_traceback(
    case, tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, capsys
):
    template, contract, script = _write_template_and_script(
        tmp_path, cdm_index, examples_root, contracts_dir, "commodity_option"
    )
    job = {
        "name": "c1",
        "contract_type": "CommodityOption",
        "contract_path": str(contract),
        "examples_dir": str(examples_root / "commodity_option"),
    }
    config = {
        "schema_dir": str(cdm_schema_dir),
        "root_file": "contract.schema.json",
        "out_dir": str(tmp_path / "pipeline-out"),
        "mock_script": str(script),
        "contracts": [job],
    }
    http_config = {k: v for k, v in config.items() if k != "mock_script"}
    provider = {"endpoint": "http://127.0.0.1:9/v1/chat/completions", "timeout": 60}
    chunk = {"chunk_id": "a", "contract_type": "C", "source_path": "", "body": "{}", "token_estimate": 0}
    files = {
        "not_json": "{not json",
        "not_object": "[1, 2]",
        "too_deep": '{"a":' * 100_000 + "1" + "}" * 100_000,
        "empty_object": "{}",
        "config": json.dumps(config),
        "config_without_schema_dir": json.dumps({k: v for k, v in config.items() if k != "schema_dir"}),
        "config_rag_without_kb": json.dumps({**config, "use_rag": True}),
        "config_max_inflight_0": json.dumps({**config, "max_inflight": 0}),
        "config_coverage_text": json.dumps({**config, "coverage": "false"}),
        "config_max_inflight_float": json.dumps({**config, "max_inflight": 2.9}),
        "config_retry_limit_bool": json.dumps({**config, "retry_limit": True}),
        "config_depth_threshold_float": json.dumps({**config, "depth_threshold": 2.5}),
        "config_use_rag_number": json.dumps({**config, "use_rag": 0}),
        "config_mu_text": json.dumps({**config, "mu": "0.3"}),
        "config_provider_retries_float": json.dumps({**http_config, "provider": {**provider, "retries": 2.5}}),
        "config_provider_timeout_text": json.dumps({**http_config, "provider": {**provider, "timeout": "60"}}),
        "config_provider_timeout_nan": json.dumps({**http_config, "provider": {**provider, "timeout": float("nan")}}),
        "config_provider_model_number": json.dumps({**http_config, "provider": {**provider, "model": 5}}),
        "config_provider_credential_env_number": json.dumps(
            {**http_config, "provider": {**provider, "credential_env": 5}}
        ),
        "config_unknown_key": json.dumps({**config, "max_inflght": 8}),
        "config_contract_unknown_key": json.dumps({**config, "contracts": [{**job, "kb_pth": "kb.json"}]}),
        "config_provider_unknown_key": json.dumps({**http_config, "provider": {**provider, "modle": "m"}}),
        "config_duplicate_name": json.dumps({**config, "contracts": [job, job]}),
        "config_duplicate_stem": json.dumps({**config, "contracts": [{**job, "name": ""}, {**job, "name": None}]}),
        "config_contract_type_number": json.dumps({**config, "contracts": [{**job, "contract_type": 5}]}),
        "config_contract_type_combined": json.dumps({**config, "contracts": [{**job, "contract_type": "combined"}]}),
        "config_contract_type_empty": json.dumps({**config, "contracts": [{**job, "contract_type": ""}]}),
        "config_name_list": json.dumps({**config, "contracts": [{**job, "name": ["a"]}]}),
        "config_name_number": json.dumps({**config, "contracts": [{**job, "name": 5}]}),
        "config_provider_list": json.dumps({**http_config, "provider": [["model", "x"]]}),
        "config_contracts_number": json.dumps({**config, "contracts": 5}),
        "config_out_dir_number": json.dumps({**config, "out_dir": 5}),
        "config_out_dir_empty": json.dumps({**config, "out_dir": ""}),
        "script_usage_5": json.dumps({"0" * 64: {"text": "{}", "usage": 5}}),
        "blank": " \n\t\n",
        "cdm_one_key": json.dumps({"trade": {}}),
        "script_entry_42": json.dumps({"0" * 64: 42}),
        "kb_chunk_without_fields": json.dumps({"chunks": [{"chunk_id": "a"}]}),
        "kb_chunk_not_object": json.dumps({"chunks": [1]}),
        "kb_without_chunks": json.dumps({"chunks": []}),
        "kb_body_5": json.dumps({"chunks": [{**chunk, "body": 5}]}),
        "kb_chunk_id_7": json.dumps({"chunks": [chunk, {**chunk, "chunk_id": 7}]}),
        "tree_list": json.dumps({"tree": [1]}),
        "tree_text": json.dumps({"tree": "x"}),
        "contract_type_only": json.dumps({"contract_type": "x"}),
        "not_utf8": b'{"text": "caf\xe9"}',
        # Escapes of half a UTF-16 pair, written as text; "\\ud83d\\ude00" is a whole pair.
        "lone_surrogate": '{"%s": "A\\ud800B \\ud83d\\ude00"}' % ("0" * 64),
        "lone_surrogate_key": '{"tree": {"\\udfff": ""}}',
        "kb_lone_surrogate": json.dumps({"chunks": [{**chunk, "body": '{"a": "\ud800"}'}]}),
        "config_lone_surrogate": json.dumps({**config, "out_dir": str(tmp_path / "out-\udbff")}),
    }
    scores = {"syntactical_correctness": 100.0, "schema_adherence": 100.0}
    reports = {
        "not_json": files["not_json"],
        "contract_type_only": files["contract_type_only"],
        "lists_5": json.dumps({**scores, "lists": 5}),
        "captured_5": json.dumps({**scores, "lists": {"captured": 5}}),
        "score_text": json.dumps({**scores, "syntactical_correctness": "x"}),
        "detail_5": json.dumps({**scores, "per_path_detail": 5}),
        "contract_type_list": json.dumps({**scores, "contract_type": ["x"]}),
        "contract_type_combined": json.dumps({**scores, "contract_type": "combined"}),
    }
    files["config_kb_without_chunks"] = json.dumps(
        {
            **config,
            "use_rag": True,
            "contracts": [{**job, "kb_path": str(tmp_path / "kb_without_chunks.json")}],
        }
    )
    paths = {
        "template": template,
        "contract": contract,
        "script": script,
        "schema_dir": cdm_schema_dir,
        "examples": examples_root / "commodity_option",
        "missing": tmp_path / "missing.txt",
        "missing_root": tmp_path / "nonexistent" / "x.json",
    }
    def put(path, text):
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))

    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        put(paths[name], text)
    # Directories and their files: (directory, file name, content).
    dirs = [(f"reports_{name}", "r1.report.json", text) for name, text in reports.items()]
    dirs += [
        ("schema_not_utf8", "contract.schema.json", files["not_utf8"]),
        ("examples_not_utf8", "e1.json", files["not_utf8"]),
        ("examples_lone_surrogate", "e1.json", '{"trade": {"tradeId": "A\\ud800B", "notional": 5}}'),
        ("schema_lone_surrogate", "contract.schema.json", '{"properties": {"x": {"description": "\\uDC00"}}}'),
        ("examples_without_leaves", "e1.json", "{}"),
        ("examples_without_leaves", "e2.json", "[]"),
        ("schema_properties_list", "contract.schema.json", '{"properties": []}'),
        ("schema_member_properties_number", "contract.schema.json", '{"oneOf": [{"properties": 3}]}'),
        ("schema_ref_all_of_number", "contract.schema.json", '{"properties": {"x": {"$ref": "x.schema.json"}}}'),
        ("schema_ref_all_of_number", "x.schema.json", '{"allOf": 5}'),
        ("schema_member_number", "contract.schema.json", '{"properties": {"x": {"type": "string"}}, "oneOf": [5, "y"]}'),
        ("schema_ref_member_text", "contract.schema.json", '{"properties": {"x": {"$ref": "x.schema.json"}}}'),
        ("schema_ref_member_text", "x.schema.json", '{"type": "string", "anyOf": [{"type": "string"}, "y"]}'),
        ("schema_ref_pointer", "contract.schema.json", '{"properties": {"x": {"$ref": "x.schema.json#/definitions/Y"}}}'),
        ("schema_ref_pointer", "x.schema.json", '{"definitions": {"Y": {"type": "string"}}}'),
        ("reports_none", "notes.txt", "not a report"),
        ("schema_top_level_list", "contract.schema.json", '{"properties": {"x": {"type": "string"}}}'),
        ("schema_top_level_list", "bad.json", "[1]"),
        ("schema_self_reference", "node.json", '{"properties": {"next": {"$ref": "node.json"}, "v": {"type": "string"}}}'),
        ("examples_70_levels", "e1.json", '{"next": ' * 70 + '{"v": "x"}' + "}" * 70),
    ]
    for name, file_name, text in dirs:
        paths[name] = tmp_path / name
        paths[name].mkdir(exist_ok=True)
        put(paths[name] / file_name, text)
    expected_code, flags = BAD_INPUTS[case]
    argv = [part.format(**paths) for part in flags.split()]
    if argv[0] != "pipeline":
        argv += ["--out", tmp_path / "out.json"]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected_code
    assert "Traceback" not in err
    assert BAD_INPUT_USAGE.get(case, "") in err
    if expected_code == 1:
        error = json.loads(err.strip().splitlines()[-1])
        assert error["error"] == BAD_INPUT_ERRORS.get(case, "MalformedDocument")
        assert re.search(BAD_INPUT_DETAILS.get(case, ""), error["detail"])


def test_pipeline_failed_contract_gets_failure_row(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir
):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path,
        cdm_schema_dir,
        examples_root,
        contracts_dir,
        type_keys=["interest_rate_swap", "foreign_exchange"],
        retry_limit=0,
        sabotage={"foreign_exchange"},
    )
    assert run(["pipeline", "--config", config_path]) == 0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    by_group = {row["group"]: row for row in rows}
    assert by_group["InterestRateSwap"]["status"] == "ok"
    assert by_group["foreign_exchange"]["status"].startswith("failed:")
    assert "combined" in by_group


def test_pipeline_contract_whose_examples_have_no_leaf_gets_failure_row(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir
):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option", "foreign_exchange"]
    )
    leafless = tmp_path / "leafless"
    leafless.mkdir()
    (leafless / "e1.json").write_text("{}", encoding="utf-8")
    (leafless / "e2.json").write_text("[]", encoding="utf-8")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["contracts"][1]["examples_dir"] = str(leafless)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", config_path]) == 0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        status = {row["group"]: row["status"] for row in csv.DictReader(handle)}
    assert status == {"EquityOption": "ok", "combined": "ok", "foreign_exchange": "failed: EmptyExampleDir"}
    assert not list(out_dir.glob("foreign_exchange.*"))


class _ScriptThenRejectHandler(BaseHTTPRequestHandler):
    """Chat endpoint answering from a mock script until call ``reject_from``,
    then rejecting the credential (401) on every call."""

    script: dict = {}
    reject_from = 0
    calls = 0

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        handler = _ScriptThenRejectHandler
        handler.calls += 1
        if handler.calls >= handler.reject_from:
            self.send_response(401)
            self.end_headers()
            return
        system, user = (m["content"] for m in payload["messages"])
        text = handler.script[prompt_hash(PromptBundle(system_text=system, user_text=user))]
        raw = json.dumps({"choices": [{"message": {"content": text}, "finish_reason": "stop"}]})
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw.encode())

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_pipeline_stops_at_first_auth_failure(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, capsys, max_inflight
):
    names = ["interest_rate_swap", "equity_swap", "foreign_exchange"]
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    server = HTTPServer(("127.0.0.1", 0), _ScriptThenRejectHandler)
    _ScriptThenRejectHandler.script = json.loads(script_path.read_text(encoding="utf-8"))
    _ScriptThenRejectHandler.reject_from = 3
    _ScriptThenRejectHandler.calls = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    config = json.loads(config_path.read_text(encoding="utf-8"))
    del config["mock_script"]
    config["max_inflight"] = max_inflight
    config["provider"] = {
        "endpoint": f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
        "retries": 0,
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    try:
        code = run(["pipeline", "--config", config_path])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "AuthFailure"
    assert _ScriptThenRejectHandler.calls <= 2 + max_inflight
    provenance = json.loads((out_dir / f"{names[0]}.provenance.json").read_text(encoding="utf-8"))
    assert len(provenance) >= 2
    if max_inflight == 1:
        assert len(provenance) == 2
    assert not any(record["failed"] for record in provenance.values())
    assert not (out_dir / f"{names[0]}.cdm.json").exists()
    for name in names[1:]:
        assert not list(out_dir.glob(f"{name}.*"))
    assert not (out_dir / "summary.csv").exists()


def test_pipeline_out_dir_that_cannot_be_made_fails_before_any_call(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch, capsys
):
    config_path, _, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    gateway = _ProbeGateway(json.loads(script_path.read_text(encoding="utf-8")))
    monkeypatch.setattr("cdmgen.cli.MockProvider", SimpleNamespace(from_file=lambda path: gateway))
    assert run(["pipeline", "--config", config_path, "--out-dir", blocker]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "OutputUnwritable"
    assert gateway.calls == []


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_an_unwritable_artifact_stops_the_batch(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, capsys, max_inflight
):
    names = ["interest_rate_swap", "equity_swap", "foreign_exchange"]
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["max_inflight"] = max_inflight
    config_path.write_text(json.dumps(config), encoding="utf-8")
    (out_dir / f"{names[1]}.cdm.json").mkdir(parents=True)
    assert run(["pipeline", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "OutputUnwritable"
    # Not a failure row: the batch stopped, and no later contract was written.
    assert not (out_dir / "summary.csv").exists()
    assert (out_dir / f"{names[0]}.report.json").is_file()
    assert not list(out_dir.glob(f"{names[2]}.*"))
    assert not list(out_dir.glob(".*"))


# ---------------------------------------------------------------------------
# any sequence of replies and failures ends in an exit code, never a traceback

# What a call may get besides a valid reply; "valid" is drawn most often, and
# half the batches draw no outage, so that batches also run to their end.
REPLY_FAULTS = ("missing_key", "extra_key", "wrong_leaf_type", "length", "no_json", "lone_surrogate", "too_deep")
OUTAGES = ("unavailable", "timeout")


class _DrawnReplies:
    """A provider that answers each call with what the test draws: a valid
    reply (the dry run's for a task, lists for a coverage check), one of
    REPLY_FAULTS made from it, or an outage. Calls run on the calling thread."""

    calls_wait = False

    def __init__(self, valid: dict, draw, kinds):
        self.valid = valid
        self.draw = draw
        self.kinds = st.sampled_from(kinds)
        self.outages = 0
        self.coverage_system = prompts.load("coverage_system.txt")
        self.repair_text = "\n\n" + prompts.load("repair_followup.txt")

    def _valid_reply(self, prompt) -> dict:
        if prompt.system_text == self.coverage_system:
            return {"captured": ["notional"], "uncaptured": ["a date"], "extraneous": []}
        user_text = prompt.user_text
        if self.repair_text in user_text:
            user_text = user_text[: user_text.rindex(self.repair_text)]
        return json.loads(self.valid[prompt_hash(PromptBundle(prompt.system_text, user_text))])

    def complete(self, prompt):
        reply = self._valid_reply(prompt)
        kind = self.draw(self.kinds)
        if kind in OUTAGES:
            self.outages += 1
            raise (ProviderUnavailable if kind == "unavailable" else Timeout)(f"drawn {kind}")
        if kind == "missing_key":
            reply = dict(list(reply.items())[1:])
        elif kind == "extra_key":
            reply = {**reply, "unexpectedKey": 1}
        elif kind == "wrong_leaf_type":
            reply = next(_leaf_swaps(reply, lambda leaf: 5 if isinstance(leaf, str) else "x"))
        elif kind == "lone_surrogate":
            reply = next(
                _leaf_swaps(reply, lambda leaf: "A\ud800" if isinstance(leaf, str) else None),
                {**reply, "note": "\udfff"},
            )
        text = json.dumps(reply)
        if kind == "too_deep":
            # Deeper than the JSON parser's recursion limit.
            text = '{"a": ' * 100_000 + text + "}" * 100_000
        if kind == "length":
            return CompletionResult(text[: len(text) // 2], "length")
        return CompletionResult("I cannot answer that." if kind == "no_json" else text, "stop")


@pytest.fixture(scope="module")
def drawn_batch(tmp_path_factory, cdm_schema_dir, examples_root, contracts_dir):
    """The fixture batch with one retry and coverage, and the valid reply
    to each of its populate prompts."""
    config_path, _, script_path = helpers.prepare_pipeline(
        tmp_path_factory.mktemp("drawn"), cdm_schema_dir, examples_root, contracts_dir, retry_limit=1
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**config, "coverage": True}), encoding="utf-8")
    return config_path, json.loads(script_path.read_text(encoding="utf-8"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_reply_sequence_ends_the_pipeline_with_an_exit_code(drawn_batch, data):
    config_path, valid = drawn_batch
    outages = OUTAGES if data.draw(st.booleans()) else ()
    provider = _DrawnReplies(valid, data.draw, ("valid",) * 6 + REPLY_FAULTS + outages)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        with mock.patch.object(cli, "_make_gateway", lambda *args: provider), contextlib.redirect_stderr(stderr):
            code = main(["pipeline", "--config", str(config_path), "--out-dir", out_dir])
        # Only an outage stops a batch; every other fault fails its task or contract.
        assert code == (1 if provider.outages else 0)
        if code:
            error = json.loads(stderr.getvalue().strip().splitlines()[-1])
            assert error["error"] in ("ProviderUnavailable", "Timeout")
        else:
            assert (Path(out_dir) / "summary.csv").is_file()
        for file in Path(out_dir).iterdir():
            text = file.read_text(encoding="utf-8")
            if file.suffix == ".csv":
                assert list(csv.reader(io.StringIO(text)))[0] == list(cli.SUMMARY_COLUMNS)
            else:
                assert file.suffix == ".json" and json.loads(text) is not None


# ---------------------------------------------------------------------------
# endpoint precedence: --provider, then CDMGEN_ENDPOINT, then the run config

UNREACHABLE = "http://127.0.0.1:9/v1/chat/completions"


@pytest.fixture()
def script_server(monkeypatch):
    """A chat endpoint answering from ``_ScriptThenRejectHandler.script``
    and never rejecting; yields its URL. CDMGEN_ENDPOINT starts unset."""
    monkeypatch.delenv("CDMGEN_ENDPOINT", raising=False)
    handler = _ScriptThenRejectHandler
    handler.script, handler.reject_from, handler.calls = {}, float("inf"), 0
    server = HTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("where", ["flag", "environment"])
def test_baseline_reaches_the_flag_before_the_endpoint_variable(
    tmp_path, contracts_dir, script_server, monkeypatch, where
):
    contract = contracts_dir / "foreign_exchange.txt"
    reply = {"trade": {"tradeDate": "2024-07-01"}}
    _ScriptThenRejectHandler.script = {_baseline_hash(contract): json.dumps(reply)}
    out = tmp_path / "baseline.json"
    argv = ["baseline", "--contract", contract, "--provider-retries", 0, "--out", out]
    if where == "flag":
        # The variable names a dead endpoint, which the flag overrides.
        monkeypatch.setenv("CDMGEN_ENDPOINT", UNREACHABLE)
        argv += ["--provider", script_server]
    else:
        # The variable alone is enough: no --provider, no usage error.
        monkeypatch.setenv("CDMGEN_ENDPOINT", script_server)
    assert run(argv) == 0
    assert _ScriptThenRejectHandler.calls == 1
    assert json.loads(out.read_text(encoding="utf-8")) == reply


def test_endpoint_variable_beats_the_run_config_endpoint(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, script_server, monkeypatch
):
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    _ScriptThenRejectHandler.script = json.loads(script_path.read_text(encoding="utf-8"))
    config = json.loads(config_path.read_text(encoding="utf-8"))
    del config["mock_script"]
    config["provider"] = {"endpoint": UNREACHABLE, "retries": 0}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("CDMGEN_ENDPOINT", script_server)
    assert run(["pipeline", "--config", config_path]) == 0
    assert _ScriptThenRejectHandler.calls == len(_ScriptThenRejectHandler.script)
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        assert {row["status"] for row in csv.DictReader(handle)} == {"ok"}


@pytest.mark.parametrize("where", ["flag", "environment", "run_config"])
def test_an_endpoint_that_is_not_an_http_url_is_a_usage_error(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch, capsys, where
):
    monkeypatch.delenv("CDMGEN_ENDPOINT", raising=False)
    argv = ["baseline", "--contract", contracts_dir / "foreign_exchange.txt", "--out", tmp_path / "b.json"]
    if where == "flag":
        argv += ["--provider", "notaurl"]
    elif where == "environment":
        monkeypatch.setenv("CDMGEN_ENDPOINT", " ")
    else:
        config_path, _, _ = helpers.prepare_pipeline(
            tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
        )
        config = json.loads(config_path.read_text(encoding="utf-8"))
        del config["mock_script"]
        config["provider"] = {"endpoint": "ftp://127.0.0.1/v1/chat/completions"}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["pipeline", "--config", config_path]
    run_expecting_usage_error(argv)
    assert "is not an http or https URL with a host" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the settings rule: flag, then environment variable, then run config, then default

# Per variable: its flag, its run-config key, the values the flag, the
# variable and the run config give it below, and its default.
SETTING_SOURCES = {
    "CDMGEN_DEPTH": ("--depth", "depth_threshold", 1, 2, 3, PopulationConfig().depth_threshold),
    "CDMGEN_MU": ("--mu", "mu", 0.9, 0.7, 0.5, CoverageWeights().mu),
    "CDMGEN_EPSILON": ("--epsilon", "epsilon", 0.8, 0.6, 0.4, CoverageWeights().epsilon),
}
ONE_OF_EACH = json.dumps({"captured": ["c"], "uncaptured": ["u"], "extraneous": ["e"]})


class _ScriptOrOneOfEach(MockProvider):
    """Answers scripted prompts from the script and every other prompt, the
    coverage prompts, with one captured, one uncaptured and one extraneous
    item, so a report's coverage score is 100 / (1 + mu + epsilon)."""

    def complete(self, prompt):
        if prompt_hash(prompt) in self.script:
            return super().complete(prompt)
        return CompletionResult(text=ONE_OF_EACH, finish_reason="stop")


@pytest.mark.parametrize(
    "variable, command",
    [
        ("CDMGEN_DEPTH", "populate"),
        ("CDMGEN_DEPTH", "pipeline"),
        ("CDMGEN_MU", "evaluate"),
        ("CDMGEN_MU", "pipeline"),
        ("CDMGEN_EPSILON", "evaluate"),
        ("CDMGEN_EPSILON", "pipeline"),
    ],
)
def test_a_setting_takes_the_flag_then_the_variable_then_the_run_config_then_the_default(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, monkeypatch, variable, command
):
    flag, key, *values = SETTING_SOURCES[variable]
    value_of = dict(zip(("flag", "variable", "run_config", "default"), values))
    for name in SETTING_SOURCES:
        monkeypatch.delenv(name, raising=False)
    type_key = "interest_rate_swap"
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=[type_key]
    )
    examples = examples_root / type_key
    template = build_template(cdm_index, flatten_examples(examples), helpers.CONTRACT_TYPES[type_key])
    template_path = tmp_path / "template.json"
    template.save(template_path)
    contract = contracts_dir / f"{type_key}.txt"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    if key == "depth_threshold":
        for depth in values[:3]:
            cfg = PopulationConfig(depth_threshold=depth, max_inflight=1)
            script.update(build_population_script(cdm_index, template, contract.read_text(encoding="utf-8"), cfg))
    monkeypatch.setattr("cdmgen.cli.MockProvider", SimpleNamespace(from_file=lambda path: _ScriptOrOneOfEach(script)))
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["coverage"] = key != "depth_threshold"
    cdm = tmp_path / "cdm.json"
    cdm.write_text(json.dumps({"contractType": "InterestRateSwap"}), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = {
        "populate": [
            "populate", "--template", template_path, "--contract", contract, "--mock-script", script_path,
            "--max-inflight", 1, "--out", cdm, "--provenance", out,
        ],
        "evaluate": [
            "evaluate", "--contract", contract, "--cdm", cdm, "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json", "--coverage", "--mock-script", script_path, "--out", out,
        ],
        "pipeline": ["pipeline", "--config", config_path],
    }[command]
    if command == "pipeline":
        out = out_dir / f"{type_key}.{'provenance' if key == 'depth_threshold' else 'report'}.json"

    def expected(value):
        if key == "depth_threshold":
            return {task.target_path for task in populator.select_tasks(template, value)}
        weights = CoverageWeights(**{key: value})
        return pytest.approx(100 / (1 + weights.mu + weights.epsilon))

    cases = [("flag", "variable", "run_config"), ("variable", "run_config"), ("run_config",), ()]
    if command != "pipeline":  # a single command reads no run config
        cases = [("flag", "variable"), ("variable",), ()]
    if key == "depth_threshold":  # each source's depth plans its own tasks
        assert len({frozenset(expected(value)) for value in values}) == 4
    for sources in cases:
        if "variable" in sources:
            monkeypatch.setenv(variable, str(value_of["variable"]))
        else:
            monkeypatch.delenv(variable, raising=False)
        config.pop(key, None)
        if "run_config" in sources:
            config[key] = value_of["run_config"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run(argv + ([flag, value_of["flag"]] if "flag" in sources else [])) == 0
        written = json.loads(out.read_text(encoding="utf-8"))
        observed = set(written) if key == "depth_threshold" else written["coverage_score"]
        assert observed == expected(value_of[sources[0] if sources else "default"]), sources


def test_synthesize_empty_reply_is_generation_incomplete(tmp_path, examples_root, script_server, capsys):
    _ScriptThenRejectHandler.script = collections.defaultdict(lambda: None)  # "content": null
    out = tmp_path / "description.txt"
    argv = ["synthesize", "--example", examples_root / "equity_swap" / "eqs-001.json", "--out", out]
    assert run(argv + ["--provider", script_server]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "GenerationIncomplete"
    assert not out.exists()


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Chat endpoint that answers every request with the object ``{"a": 1}``
    and keeps the connection open for the next."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        raw = json.dumps({"choices": [{"message": {"content": '{"a": 1}'}, "finish_reason": "stop"}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("command", ["baseline", "populate", "synthesize", "evaluate", "pipeline"])
def test_a_command_closes_the_connections_it_opened(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch, command
):
    monkeypatch.delenv("CDMGEN_ENDPOINT", raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    opened = []

    class Recording(cli.HttpProvider):
        def _new_connection(self):
            opened.append(super()._new_connection())
            return opened[-1]

    monkeypatch.setattr(cli, "HttpProvider", Recording)
    contract = contracts_dir / "equity_option.txt"
    out = ["--out", tmp_path / "out.json"]
    provider = ["--provider", url, "--provider-retries", 0]
    template = tmp_path / "template.json"
    Template({"a": 0}, "T", "root.json").save(template)
    cdm = tmp_path / "cdm.json"
    cdm.write_text(json.dumps({"trade": {}}), encoding="utf-8")
    argv = {
        "baseline": ["baseline", "--contract", contract, *provider, *out],
        "populate": ["populate", "--template", template, "--contract", contract, *provider, *out],
        "synthesize": ["synthesize", "--example", examples_root / "equity_swap" / "eqs-001.json", *provider, *out],
        "evaluate": [
            "evaluate", "--contract", contract, "--cdm", cdm, "--schema-dir", cdm_schema_dir,
            "--root", "contract.schema.json", "--coverage", *provider, *out,
        ],
    }
    if command == "pipeline":
        config_path, _, _ = helpers.prepare_pipeline(
            tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
        )
        config = json.loads(config_path.read_text(encoding="utf-8"))
        del config["mock_script"]
        config["provider"] = {"endpoint": url, "retries": 0}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv["pipeline"] = ["pipeline", "--config", config_path]
    try:
        # The reply fits only some commands; whatever the exit code, every
        # connection is closed once the command returns.
        assert run(argv[command]) in (0, 1)
    finally:
        server.shutdown()
        server.server_close()
    assert opened
    assert all(connection.sock is None for connection in opened)


class _ProbeGateway:
    """In-process provider for pipeline runs: answers populate prompts from
    a mock script and coverage prompts with lists derived from the prompt,
    and records every call's prompt hash and the peak number of calls in
    flight.

    ``hold`` names a prompt hash whose call waits, at most ``HOLD_S``
    seconds, until a call of a prompt in ``release`` arrives; ``held_ok``
    says whether one did. The call of prompt hash ``fail`` waits, as long at
    most, until the calls of every hash in ``fail_after`` have returned,
    then raises ``AuthFailure``. ``coverage_error`` is raised by coverage
    calls instead of a reply, and coverage prompts whose text contains
    ``unparseable`` get a reply without lists. ``replies`` keeps the text
    of every reply by prompt hash, a script a :class:`MockProvider` can
    replay.
    """

    HOLD_S = 5.0

    def __init__(
        self,
        script,
        hold=None,
        release=(),
        fail=None,
        fail_after=(),
        coverage_error=None,
        unparseable=None,
    ):
        self.mock = MockProvider(script)
        self.hold = hold
        self.release = set(release)
        self.fail = fail
        self.fail_after = set(fail_after)
        self.coverage_error = coverage_error
        self.unparseable = unparseable
        self.calls: list[str] = []
        self.replies: dict[str, str] = {}
        self.returned: set[str] = set()
        self.inflight = 0
        self.peak = 0
        self.held_ok = None
        self._changed = threading.Condition()

    def _wait_until(self, ready) -> bool:
        with self._changed:
            return self._changed.wait_for(ready, self.HOLD_S)

    def complete(self, prompt):
        key = prompt_hash(prompt)
        with self._changed:
            self.calls.append(key)
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self._changed.notify_all()
        result = self._answer(key, prompt)
        self.replies[key] = result.text
        return result

    def _answer(self, key, prompt):
        try:
            if key == self.hold:
                self.held_ok = self._wait_until(lambda: not self.release.isdisjoint(self.calls))
            if key == self.fail:
                self._wait_until(lambda: self.fail_after <= self.returned)
                raise AuthFailure("credential rejected")
            if prompt.system_text != prompts.load("coverage_system.txt"):
                return self.mock.complete(prompt)
            if self.coverage_error is not None:
                raise self.coverage_error("coverage call refused")
            if self.unparseable and self.unparseable in prompt.user_text:
                return CompletionResult(text=json.dumps({"captured": ["c"]}), finish_reason="stop")
            lists = {"captured": [f"c{len(prompt.user_text)}"], "uncaptured": ["u"], "extraneous": []}
            return CompletionResult(text=json.dumps(lists), finish_reason="stop")
        finally:
            with self._changed:
                self.inflight -= 1
                self.returned.add(key)
                self._changed.notify_all()


def _pipeline_with_probe(monkeypatch, config_path, gateway, **settings):
    """Run ``cdmgen pipeline`` on ``gateway`` with ``settings`` put into the
    run config; returns the exit code."""
    monkeypatch.setattr("cdmgen.cli.MockProvider", SimpleNamespace(from_file=lambda path: gateway))
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(settings)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    try:
        return run(["pipeline", "--config", config_path])
    except SystemExit as exc:
        return exc.code


def _task_hashes(cdm_index, examples_root, contracts_dir, type_key) -> list[str]:
    """Populate prompt hashes of one fixture contract, in task order."""
    template = build_template(
        cdm_index, flatten_examples(examples_root / type_key), helpers.CONTRACT_TYPES[type_key]
    )
    text = (contracts_dir / f"{type_key}.txt").read_text(encoding="utf-8")
    return list(build_population_script(cdm_index, template, text, PopulationConfig()))


def test_pipeline_queues_the_next_contract_behind_the_current_one(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, monkeypatch
):
    names = ["interest_rate_swap", "equity_swap"]
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    first, second = (_task_hashes(cdm_index, examples_root, contracts_dir, name) for name in names)
    # Contract 1's last call is held until a call of contract 2 arrives,
    # which happens only if contract 2's tasks were queued before contract
    # 1 was collected.
    gateway = _ProbeGateway(
        json.loads(script_path.read_text(encoding="utf-8")), hold=first[-1], release=second
    )
    assert _pipeline_with_probe(monkeypatch, config_path, gateway, max_inflight=2) == 0
    assert gateway.held_ok is True
    assert gateway.peak <= 2
    assert sorted(gateway.calls) == sorted(first + second)
    for name in names:
        assert (out_dir / f"{name}.report.json").is_file()


def test_pipeline_with_coverage_writes_the_same_bytes_at_any_max_inflight(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch
):
    config_path, _, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    script = json.loads(script_path.read_text(encoding="utf-8"))
    # One contract's coverage replies never parse: a domain error fails
    # that contract's report only.
    unparseable = (contracts_dir / "foreign_exchange.txt").read_text(encoding="utf-8")
    outputs = {}
    for max_inflight in (1, 2, 4):
        gateway = _ProbeGateway(script, unparseable=unparseable)
        out_dir = tmp_path / f"out-{max_inflight}"
        code = _pipeline_with_probe(
            monkeypatch,
            config_path,
            gateway,
            coverage=True,
            max_inflight=max_inflight,
            out_dir=str(out_dir),
        )
        assert code == 0
        assert gateway.peak <= max_inflight
        outputs[max_inflight] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    # A mock script of the same replies is answered on the calling thread.
    out_dir = tmp_path / "out-mock"
    replay = MockProvider(gateway.replies)
    assert _pipeline_with_probe(
        monkeypatch, config_path, replay, coverage=True, max_inflight=4, out_dir=str(out_dir)
    ) == 0
    outputs["mock"] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert outputs[1] == outputs[2] == outputs[4] == outputs["mock"]
    with (tmp_path / "out-1" / "summary.csv").open(newline="", encoding="utf-8") as handle:
        status = {row["group"]: row["status"] for row in csv.DictReader(handle)}
    assert status.pop("foreign_exchange") == "failed: ListParseFailure"
    assert set(status.values()) == {"ok"}
    reports = [name for name in outputs[1] if name.endswith(".report.json")]
    assert len(reports) == len(helpers.CONTRACT_TYPES) - 1
    for name in reports:
        assert json.loads(outputs[1][name])["coverage_score"] is not None


def test_pipeline_blank_contract_gets_failure_row(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch
):
    names = ["interest_rate_swap", "equity_swap"]
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    blank = tmp_path / "blank.txt"
    blank.write_text(" \n\t\n", encoding="utf-8")
    contracts = json.loads(config_path.read_text(encoding="utf-8"))["contracts"]
    contracts[0]["contract_path"] = str(blank)
    gateway = _ProbeGateway(json.loads(script_path.read_text(encoding="utf-8")))
    code = _pipeline_with_probe(monkeypatch, config_path, gateway, coverage=True, contracts=contracts)
    assert code == 0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        status = {row["group"]: row["status"] for row in csv.DictReader(handle)}
    assert status == {
        "EquitySwap": "ok",
        "combined": "ok",
        "interest_rate_swap": "failed: MalformedDocument",
    }
    assert json.loads((out_dir / "equity_swap.report.json").read_text(encoding="utf-8"))["coverage_score"]
    assert not (out_dir / "interest_rate_swap.cdm.json").exists()


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_coverage_outage_stops_the_batch_leaving_files_that_parse(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch, capsys, max_inflight
):
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    script = json.loads(script_path.read_text(encoding="utf-8"))
    full = _ProbeGateway(script)
    assert _pipeline_with_probe(monkeypatch, config_path, full, out_dir=str(tmp_path / "full")) == 0
    capsys.readouterr()

    gateway = _ProbeGateway(script, coverage_error=AuthFailure)
    code = _pipeline_with_probe(
        monkeypatch, config_path, gateway, coverage=True, max_inflight=max_inflight, out_dir=str(out_dir)
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "AuthFailure"
    [failing] = [i for i, key in enumerate(gateway.calls) if key not in script]
    assert len(gateway.calls) - failing - 1 <= max_inflight
    assert not (out_dir / "summary.csv").exists()
    assert not list(out_dir.glob("*.report.json"))
    names = list(helpers.CONTRACT_TYPES)
    # The first contract is complete; the outage came from its coverage call.
    for suffix in (".template.json", ".provenance.json", ".cdm.json"):
        assert (out_dir / f"{names[0]}{suffix}").is_file()
    _assert_outage_files(out_dir, tmp_path / "full", gateway.calls)


def _assert_outage_files(out_dir, full_dir, calls) -> None:
    """Every file a stopped batch left in ``out_dir`` parses and belongs to
    a contract that made one of ``calls``, and every provenance record
    equals the one of the full run in ``full_dir``."""
    called = set()
    for path in full_dir.glob("*.provenance.json"):
        complete = json.loads(path.read_text(encoding="utf-8"))
        if {record["prompt_hash"] for record in complete.values()} & set(calls):
            called.add(path.name.split(".")[0])
    for path in out_dir.iterdir():
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert path.name.split(".")[0] in called
        if path.name.endswith(".provenance.json"):
            complete = json.loads((full_dir / path.name).read_text(encoding="utf-8"))
            assert all(complete[key] == record for key, record in payload.items())


@pytest.mark.parametrize("failing_task", [0, -1])
@pytest.mark.parametrize("coverage", [False, True])
@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_task_outage_in_a_later_contract_keeps_the_finished_one(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, monkeypatch, capsys,
    max_inflight, coverage, failing_task,
):
    names = ["interest_rate_swap", "equity_swap", "foreign_exchange"]
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    script = json.loads(script_path.read_text(encoding="utf-8"))
    full_dir = tmp_path / "full"
    assert _pipeline_with_probe(monkeypatch, config_path, _ProbeGateway(script), out_dir=str(full_dir)) == 0
    capsys.readouterr()

    first, second = (_task_hashes(cdm_index, examples_root, contracts_dir, name) for name in names[:2])
    # Contract 2's first or last call fails once every call of contract 1
    # has returned, so contract 1's tasks all finished before the outage.
    gateway = _ProbeGateway(script, fail=second[failing_task], fail_after=first)
    code = _pipeline_with_probe(
        monkeypatch, config_path, gateway, coverage=coverage, max_inflight=max_inflight, out_dir=str(out_dir)
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "AuthFailure"
    assert not (out_dir / "summary.csv").exists()
    _assert_outage_files(out_dir, full_dir, gateway.calls)
    # Contract 1 is written in full; with coverage on, its coverage call
    # was queued behind contract 2's tasks and may have been cancelled.
    suffixes = [".template.json", ".provenance.json", ".cdm.json"]
    if not coverage:
        suffixes.append(".report.json")
    for suffix in suffixes:
        name = f"{names[0]}{suffix}"
        assert (out_dir / name).read_bytes() == (full_dir / name).read_bytes()
    assert (out_dir / f"{names[1]}.provenance.json").is_file()
    assert not (out_dir / f"{names[1]}.cdm.json").exists()


def test_a_mock_script_is_answered_on_the_calling_thread(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch
):
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["interest_rate_swap", "equity_swap"]
    )
    callers, started = [], []
    complete, start = MockProvider.complete, threading.Thread.start

    def recorded_complete(self, prompt):
        callers.append(threading.current_thread())
        return complete(self, prompt)

    def recorded_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(MockProvider, "complete", recorded_complete)
    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**config, "max_inflight": 4}), encoding="utf-8")
    assert run(["pipeline", "--config", config_path]) == 0
    pipeline_calls = len(callers)
    assert pipeline_calls > 0
    code = run(
        [
            "populate",
            "--template", out_dir / "interest_rate_swap.template.json",
            "--contract", contracts_dir / "interest_rate_swap.txt",
            "--mock-script", script_path,
            "--max-inflight", 4,
            "--out", tmp_path / "cdm.json",
        ]
    )
    assert code == 0
    assert (tmp_path / "cdm.json").read_bytes() == (out_dir / "interest_rate_swap.cdm.json").read_bytes()
    assert len(callers) > pipeline_calls
    assert set(callers) == {threading.main_thread()}
    assert started == []


@pytest.mark.parametrize("failing_task", [0, 3, -1])
def test_a_mock_script_missing_a_later_contracts_hash_keeps_the_threaded_provenance_shape(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, monkeypatch, capsys, failing_task
):
    names = ["interest_rate_swap", "equity_swap", "foreign_exchange"]
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=names
    )
    script = json.loads(script_path.read_text(encoding="utf-8"))
    full_dir = tmp_path / "full"
    assert _pipeline_with_probe(monkeypatch, config_path, MockProvider(script), out_dir=str(full_dir)) == 0
    first, second = (_task_hashes(cdm_index, examples_root, contracts_dir, name) for name in names[:2])
    lacking = {key: text for key, text in script.items() if key != second[failing_task]}
    outcomes = {}
    for label, gateway, max_inflight in (
        ("serial", _ProbeGateway(lacking), 1),
        ("threaded", _ProbeGateway(lacking), 4),
        ("mock", MockProvider(lacking), 4),
    ):
        run_dir = tmp_path / label
        capsys.readouterr()
        code = _pipeline_with_probe(
            monkeypatch, config_path, gateway, max_inflight=max_inflight, out_dir=str(run_dir)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ProviderUnavailable"
        # A threaded run may have started contract 3's first calls too.
        calls = gateway.calls if isinstance(gateway, _ProbeGateway) else first + second
        _assert_outage_files(run_dir, full_dir, calls)
        outcomes[label] = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        # Contract 1 is written in full, contract 2 only as partial provenance.
        for suffix in (".template.json", ".provenance.json", ".cdm.json", ".report.json"):
            name = f"{names[0]}{suffix}"
            assert outcomes[label][name] == (full_dir / name).read_bytes()
        partial = json.loads(outcomes[label][f"{names[1]}.provenance.json"])
        complete = json.loads((full_dir / f"{names[1]}.provenance.json").read_text(encoding="utf-8"))
        assert list(partial) == [key for key in complete if key in partial]
        assert not (run_dir / f"{names[1]}.cdm.json").exists()
        assert not (run_dir / "summary.csv").exists()
    # Calls run on the caller's thread stop where a serial run stops.
    assert outcomes["mock"] == outcomes["serial"]


# ---------------------------------------------------------------------------
# one task plan per template and knowledge base in a batch


def _write_batch(tmp_path, cdm_schema_dir, jobs, script, **settings) -> Path:
    """Write a mock script and a pipeline config for ``jobs``; returns the
    config path. The batch writes to ``tmp_path / "out"``."""
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    config_path = tmp_path / "run.json"
    config = {
        "schema_dir": str(cdm_schema_dir),
        "root_file": "contract.schema.json",
        "out_dir": str(tmp_path / "out"),
        "contracts": jobs,
        "mock_script": str(script_path),
        **settings,
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_pipeline_plans_a_template_once_and_writes_what_single_runs_write(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, monkeypatch, max_inflight
):
    key = "interest_rate_swap"
    contract_type = helpers.CONTRACT_TYPES[key]
    template = build_template(cdm_index, flatten_examples(examples_root / key), contract_type)
    text = (contracts_dir / f"{key}.txt").read_text(encoding="utf-8")
    cfg = PopulationConfig()
    script, jobs = {}, []
    for i in range(3):
        contract = tmp_path / f"c{i}.txt"
        contract.write_text(f"{text}\nVariant {i}.\n", encoding="utf-8")
        script.update(build_population_script(cdm_index, template, contract.read_text(encoding="utf-8"), cfg))
        jobs.append(
            {
                "name": f"c{i}",
                "contract_type": contract_type,
                "contract_path": str(contract),
                "examples_dir": str(examples_root / key),
            }
        )
    config_path = _write_batch(tmp_path, cdm_schema_dir, jobs, script, max_inflight=max_inflight)
    plans = []
    select_tasks = populator.select_tasks

    def recording_select(*args):
        plans.append(select_tasks(*args))
        return plans[-1]

    monkeypatch.setattr(populator, "select_tasks", recording_select)
    assert run(["pipeline", "--config", config_path]) == 0
    assert len(plans) == 1
    # The three contracts shared the plan, and none of their runs changed it.
    fresh = select_tasks(template, cfg.depth_threshold)
    assert [task.target_subtree for task in plans[0]] == [task.target_subtree for task in fresh]
    assert [task.structure_text for task in plans[0]] == [task.structure_text for task in fresh]

    out_dir, single = tmp_path / "out", tmp_path / "single"
    template_path = single / "template.json"
    examples = examples_root / key
    schema = ["--schema-dir", cdm_schema_dir, "--root", "contract.schema.json"]
    assert run(["make-template", *schema, "--examples", examples, "--contract-type", contract_type, "--out", template_path]) == 0
    for job in jobs:
        name, contract = job["name"], job["contract_path"]
        assert run(
            [
                "populate", "--template", template_path, "--contract", contract,
                "--mock-script", tmp_path / "script.json", "--max-inflight", max_inflight,
                "--out", single / f"{name}.cdm.json", "--provenance", single / f"{name}.provenance.json",
            ]
        ) == 0
        assert run(
            [
                "evaluate", "--contract", contract, "--cdm", single / f"{name}.cdm.json", *schema,
                "--contract-type", contract_type, "--out", single / f"{name}.report.json",
            ]
        ) == 0
        assert (out_dir / f"{name}.template.json").read_bytes() == template_path.read_bytes()
        for suffix in (".cdm.json", ".provenance.json", ".report.json"):
            assert (out_dir / f"{name}{suffix}").read_bytes() == (single / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_pipeline_with_coverage_writes_the_reports_evaluate_writes(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, monkeypatch, max_inflight
):
    monkeypatch.delenv("CDMGEN_MU", raising=False)
    monkeypatch.delenv("CDMGEN_EPSILON", raising=False)
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    gateway = _ProbeGateway(json.loads(script_path.read_text(encoding="utf-8")))
    settings = {"coverage": True, "max_inflight": max_inflight, "mu": 0.2, "epsilon": 0.05}
    assert _pipeline_with_probe(monkeypatch, config_path, gateway, **settings) == 0
    schema = ["--schema-dir", cdm_schema_dir, "--root", "contract.schema.json"]
    for key, contract_type in helpers.CONTRACT_TYPES.items():
        single = tmp_path / f"{key}.single.report.json"
        assert run(
            [
                "evaluate", "--contract", contracts_dir / f"{key}.txt", "--cdm", out_dir / f"{key}.cdm.json",
                *schema, "--contract-type", contract_type, "--coverage", "--mu", 0.2, "--epsilon", 0.05,
                "--mock-script", script_path, "--out", single,
            ]
        ) == 0
        assert single.read_bytes() == (out_dir / f"{key}.report.json").read_bytes()
        assert json.loads(single.read_text(encoding="utf-8"))["coverage_score"] is not None


def test_populate_writes_the_incomplete_population_the_pipeline_writes(
    tmp_path, cdm_schema_dir, examples_root, contracts_dir, capsys
):
    key = "foreign_exchange"
    config_path, out_dir, script_path = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir,
        type_keys=["interest_rate_swap", key], retry_limit=0, sabotage={key},
    )
    assert run(["pipeline", "--config", config_path]) == 0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        status = {row["group"]: row["status"] for row in csv.DictReader(handle)}
    assert status[key] == "failed: PopulationIncomplete"
    capsys.readouterr()
    code = run(
        [
            "populate", "--template", out_dir / f"{key}.template.json", "--contract", contracts_dir / f"{key}.txt",
            "--mock-script", script_path, "--retries", 0,
            "--out", tmp_path / f"{key}.cdm.json", "--provenance", tmp_path / f"{key}.provenance.json",
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "PopulationIncomplete"
    assert err["detail"].startswith("tasks failed: ")
    for suffix in (".cdm.json", ".provenance.json"):
        assert (tmp_path / f"{key}{suffix}").read_bytes() == (out_dir / f"{key}{suffix}").read_bytes()


def _write_rag_pair(tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir):
    """Write a RAG batch (k=2) of two contracts that share one type, text
    and template, each with its own knowledge base built from different
    examples, so only their retrieved chunks differ. Returns the config
    path, the jobs, the template path and the contract path."""
    key = "interest_rate_swap"
    contract_type = helpers.CONTRACT_TYPES[key]
    template = build_template(cdm_index, flatten_examples(examples_root / key), contract_type)
    template_path = tmp_path / "template.json"
    template_path.write_text(template.to_text(), encoding="utf-8")
    contract = contracts_dir / f"{key}.txt"
    text = contract.read_text(encoding="utf-8")
    cfg = PopulationConfig(use_rag=True, k_chunks=2)
    script, jobs = {}, []
    for i, source in enumerate([key, "equity_swap"]):
        kb_path = tmp_path / f"kb{i}.json"
        ingest_examples(examples_root / source, contract_type, 60).save(kb_path)
        script.update(build_population_script(cdm_index, template, text, cfg, KnowledgeBase.load(kb_path)))
        jobs.append(
            {
                "name": f"c{i}",
                "contract_type": contract_type,
                "contract_path": str(contract),
                "examples_dir": str(examples_root / key),
                "kb_path": str(kb_path),
            }
        )
    config_path = _write_batch(tmp_path, cdm_schema_dir, jobs, script, use_rag=True, k_chunks=2)
    return config_path, jobs, template_path, contract


def test_pipeline_plans_a_template_once_per_knowledge_base(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir
):
    config_path, jobs, template_path, contract = _write_rag_pair(
        tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir
    )
    assert run(["pipeline", "--config", config_path]) == 0

    hashes = []
    for job in jobs:
        name = job["name"]
        single = tmp_path / f"{name}.single.provenance.json"
        assert run(
            [
                "populate", "--template", template_path, "--contract", contract,
                "--rag", "--kb", job["kb_path"], "--k-chunks", 2, "--mock-script", tmp_path / "script.json",
                "--out", tmp_path / f"{name}.single.cdm.json", "--provenance", single,
            ]
        ) == 0
        assert (tmp_path / "out" / f"{name}.provenance.json").read_bytes() == single.read_bytes()
        hashes.append({record["prompt_hash"] for record in json.loads(single.read_text(encoding="utf-8")).values()})
    assert hashes[0].isdisjoint(hashes[1])


@pytest.mark.parametrize("batch", ["fixtures", "rag_pair"])
def test_pipeline_writes_the_same_bytes_under_any_hash_seed(
    tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir, batch
):
    # Each run is a fresh interpreter with its own string hash seed, so
    # output ordered by iterating a set of strings would differ.
    if batch == "fixtures":
        config_path, _, _ = helpers.prepare_pipeline(tmp_path, cdm_schema_dir, examples_root, contracts_dir)
    else:
        config_path, *_ = _write_rag_pair(tmp_path, cdm_schema_dir, cdm_index, examples_root, contracts_dir)
    src = Path(cdmgen.__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        out_dir = tmp_path / f"seed-{seed}"
        result = subprocess.run(
            [sys.executable, "-m", "cdmgen.cli", "pipeline", "--config", str(config_path), "--out-dir", str(out_dir)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == (4 * len(helpers.CONTRACT_TYPES) + 1 if batch == "fixtures" else 4 * 2 + 1)


def test_mock_script_runs_never_load_the_http_transport(tmp_path, cdm_schema_dir, examples_root, contracts_dir):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir, type_keys=["equity_option"]
    )
    code = "\n".join(
        [
            "import sys",
            "loaded = lambda: [name for name in ('http.client', 'ssl') if name in sys.modules]",
            "import cdmgen.cli",
            "assert not loaded(), f'importing cdmgen.cli loaded {loaded()}'",
            f"assert cdmgen.cli.main(['pipeline', '--config', {str(config_path)!r}]) == 0",
            "assert not loaded(), f'a mock-script pipeline loaded {loaded()}'",
        ]
    )
    src = Path(cdmgen.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (out_dir / "summary.csv").is_file()


def test_public_names_resolve_and_cover_the_readme_imports():
    for name in cdmgen.__all__:
        assert hasattr(cdmgen, name), name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^from cdmgen import (?:\(([^)]*)\)|(.+))$", readme, re.MULTILINE)
    imported = {item.split()[0] for block in blocks for item in "".join(block).split(",") if item.strip()}
    assert imported, "README imports nothing from cdmgen"
    assert imported <= set(cdmgen.__all__)


# ---------------------------------------------------------------------------
# the command-line surface

# Every option of each subcommand as --help shows it: option strings, then
# the shown metavar, "required", the choices and nargs when there are any.
CLI_SURFACE = {
    "make-template": [
        "-h --help nargs=0",
        "--schema-dir SCHEMA_DIR required",
        "--root ROOT required",
        "--examples EXAMPLES required",
        "--contract-type CONTRACT_TYPE required",
        "--out OUT required",
    ],
    "ingest-kb": [
        "-h --help nargs=0",
        "--examples EXAMPLES required",
        "--contract-type CONTRACT_TYPE required",
        "--budget BUDGET required",
        "--out OUT required",
    ],
    "populate": [
        "-h --help nargs=0",
        "--template TEMPLATE required",
        "--contract CONTRACT required",
        "--kb KB",
        "--rag nargs=0",
        "--depth DEPTH",
        "--retries RETRIES",
        "--k-chunks K_CHUNKS",
        "--max-inflight MAX_INFLIGHT",
        "--out OUT required",
        "--provenance PROVENANCE",
        "--provider URL",
        "--model MODEL",
        "--credential-env CREDENTIAL_ENV",
        "--timeout TIMEOUT",
        "--provider-retries RETRIES",
        "--mock-script MOCK_SCRIPT",
    ],
    "baseline": [
        "-h --help nargs=0",
        "--contract CONTRACT required",
        "--kb KB",
        "--rag nargs=0",
        "--k-chunks K_CHUNKS",
        "--out OUT required",
        "--provider URL",
        "--model MODEL",
        "--credential-env CREDENTIAL_ENV",
        "--timeout TIMEOUT",
        "--provider-retries RETRIES",
        "--mock-script MOCK_SCRIPT",
    ],
    "synthesize": [
        "-h --help nargs=0",
        "--example EXAMPLE required",
        "--reference REFERENCE",
        "--out OUT required",
        "--provider URL",
        "--model MODEL",
        "--credential-env CREDENTIAL_ENV",
        "--timeout TIMEOUT",
        "--provider-retries RETRIES",
        "--mock-script MOCK_SCRIPT",
    ],
    "evaluate": [
        "-h --help nargs=0",
        "--contract CONTRACT required",
        "--cdm CDM required",
        "--schema-dir SCHEMA_DIR required",
        "--root ROOT required",
        "--contract-type CONTRACT_TYPE",
        "--mu MU",
        "--epsilon EPSILON",
        "--coverage nargs=0",
        "--out OUT required",
        "--provider URL",
        "--model MODEL",
        "--credential-env CREDENTIAL_ENV",
        "--timeout TIMEOUT",
        "--provider-retries RETRIES",
        "--mock-script MOCK_SCRIPT",
    ],
    "report": [
        "-h --help nargs=0",
        "--in INPUT required",
        "--out OUT required",
    ],
    "pipeline": [
        "-h --help nargs=0",
        "--config CONFIG required",
        "--out-dir OUT_DIR",
        "--depth DEPTH",
        "--mu MU",
        "--epsilon EPSILON",
        "--mock-script MOCK_SCRIPT",
    ],
}


def test_the_command_line_surface_is_pinned():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    surface = {}
    for name, sub in subcommands.items():
        formatter = sub._get_formatter()
        surface[name] = []
        for action in sub._actions:
            parts = list(action.option_strings)
            if action.nargs != 0:
                parts.append(formatter._format_args(action, formatter._get_default_metavar_for_optional(action)))
            if action.required:
                parts.append("required")
            if action.choices:
                parts.append(f"choices={','.join(action.choices)}")
            if action.nargs is not None:
                parts.append(f"nargs={action.nargs}")
            surface[name].append(" ".join(parts))
    assert surface == CLI_SURFACE
