"""Exact bytes of every file a six-contract fixture ``pipeline`` batch writes.

The batch runs plain (as :func:`helpers.prepare_pipeline` writes it), with
coverage, and with RAG at k=2 over a knowledge base per contract built by
:func:`ingest_examples`, each at ``max_inflight`` 1 and 4. Each pinned
value is the batch's file list with one sha256 per file; every variant
writes the same bytes at both ``max_inflight`` values. A deliberate change
to templates, prompts or artifacts updates this table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import helpers
from cdmgen.cli import main
from cdmgen.dryrun import build_population_script
from cdmgen.evaluator import coverage_prompt
from cdmgen.gateway import prompt_hash
from cdmgen.knowledge_base import KnowledgeBase, ingest_examples
from cdmgen.populator import PopulationConfig
from cdmgen.template_builder import build_template, flatten_examples

GOLDEN = {
    "plain": {
        "commodity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "commodity_option.provenance.json": "dd3dc4d9af9f69d4f53c2fe78e96916b973c698456a6a9b2105bd346f4f593a2",
        "commodity_option.report.json": "f81a4db6ec27bb42c856e69fbae12847c97c86095de4a7886a811871c8b396c5",
        "commodity_option.template.json": "b2c90ba94a1a3a20e0c3f7c889d0648610d4824fc5be50bff4f729255e247d6d",
        "credit_default_swap.cdm.json": "ee66bc72a268e77666a5844a8fef35f77a8a6e52b5fa5f06e46cffb58e81265b",
        "credit_default_swap.provenance.json": "aa1b9411f47114313b9bac1071bd56d37bb6350630e75146dede571902b37218",
        "credit_default_swap.report.json": "c446373d279e20ff2a4b852fd63301b639518da75b32e32acfbf5c6c388a7d3e",
        "credit_default_swap.template.json": "f742c0528ae14c160c8534d2bb3ef14242efff8e56ad397d49da00a0e6ee0eae",
        "equity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "equity_option.provenance.json": "c5f0b29e119ed99c06ff667126e95cd56890db20696a537a62fbadcb91dff372",
        "equity_option.report.json": "c6ca74f494ea83c4d3661d82f5279960288ba0db2bd89f5a1f419b2f2586f517",
        "equity_option.template.json": "ec013aa0cdbe058c502e27d1d457a46da710b61139deff8bcd86757203995fa5",
        "equity_swap.cdm.json": "00f82d1c392f2ec6b227ff85ceaef44ab4d7519f1c37a997736dec2d2bc7ef94",
        "equity_swap.provenance.json": "bb60b82785e829a23b8fd008179ea4d8c0872c4252ba8b1aa7a0a1b4b4f4307c",
        "equity_swap.report.json": "c598c9533b6a346f1cebcb3b738af623018f74e9709ee7af5e8ca5f2a005349c",
        "equity_swap.template.json": "e6ae3cbc939051451ce33ea33bfaafff4314b6fb23d9692231ef30d5bafe1b43",
        "foreign_exchange.cdm.json": "55730a77c16ca2b4bd6451c292dda98698608e9f40ec895907141f21775b8486",
        "foreign_exchange.provenance.json": "332b37b45528db15607e7e9ba43ed2e68dce2a91da12f7e6074c9254c893694b",
        "foreign_exchange.report.json": "c316fb62ff146894f17b24148ae4c689f91fba2a0650555bf5b4c492e58af05b",
        "foreign_exchange.template.json": "28efc651eb3352753b0af92741a1d367434f1b7b1e9622a7c98ce67e6ef84e88",
        "interest_rate_swap.cdm.json": "26fffee9b84c3aebcdc94f9fb8460bea064644be001a6c76a9b30802eab1c6f9",
        "interest_rate_swap.provenance.json": "51b4e2b1110961df1bee24ea0693b54b1f17ecc9d00dfa2800ee013f23810ba1",
        "interest_rate_swap.report.json": "0bdabef639b9184248bf2cb128933a77771705670ab590d4ab7e35be0506377a",
        "interest_rate_swap.template.json": "3f27a6a0376d56c04760872fa762e74fb39d24d05335044df98fc6cfa59217c1",
        "summary.csv": "932011d914d7d946346a41e3542fe50cad296cf60a2ba9c81fc9de3f81443ad5",
    },
    "coverage": {
        "commodity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "commodity_option.provenance.json": "dd3dc4d9af9f69d4f53c2fe78e96916b973c698456a6a9b2105bd346f4f593a2",
        "commodity_option.report.json": "cdf840a862bc63937ef16d12ee13f8733cd341e778a038c04708d8102eb6f1a8",
        "commodity_option.template.json": "b2c90ba94a1a3a20e0c3f7c889d0648610d4824fc5be50bff4f729255e247d6d",
        "credit_default_swap.cdm.json": "ee66bc72a268e77666a5844a8fef35f77a8a6e52b5fa5f06e46cffb58e81265b",
        "credit_default_swap.provenance.json": "aa1b9411f47114313b9bac1071bd56d37bb6350630e75146dede571902b37218",
        "credit_default_swap.report.json": "356639cf1e217e4c133412affac073f9beb512bc26284b886109b0118fdc7bc2",
        "credit_default_swap.template.json": "f742c0528ae14c160c8534d2bb3ef14242efff8e56ad397d49da00a0e6ee0eae",
        "equity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "equity_option.provenance.json": "c5f0b29e119ed99c06ff667126e95cd56890db20696a537a62fbadcb91dff372",
        "equity_option.report.json": "1c93833ee22297f1d70d849a09f801c08297b5855b148f6c1ec260355c2c38a1",
        "equity_option.template.json": "ec013aa0cdbe058c502e27d1d457a46da710b61139deff8bcd86757203995fa5",
        "equity_swap.cdm.json": "00f82d1c392f2ec6b227ff85ceaef44ab4d7519f1c37a997736dec2d2bc7ef94",
        "equity_swap.provenance.json": "bb60b82785e829a23b8fd008179ea4d8c0872c4252ba8b1aa7a0a1b4b4f4307c",
        "equity_swap.report.json": "199dc8e0d4e57b046ec05ca68f8f1a11669994c92cda3c3ecb2bb3195c9c5665",
        "equity_swap.template.json": "e6ae3cbc939051451ce33ea33bfaafff4314b6fb23d9692231ef30d5bafe1b43",
        "foreign_exchange.cdm.json": "55730a77c16ca2b4bd6451c292dda98698608e9f40ec895907141f21775b8486",
        "foreign_exchange.provenance.json": "332b37b45528db15607e7e9ba43ed2e68dce2a91da12f7e6074c9254c893694b",
        "foreign_exchange.report.json": "490d76c186fd42e37e430f5bb9b05bc90bcdb84fdd131b85871b9e0cd9f68c62",
        "foreign_exchange.template.json": "28efc651eb3352753b0af92741a1d367434f1b7b1e9622a7c98ce67e6ef84e88",
        "interest_rate_swap.cdm.json": "26fffee9b84c3aebcdc94f9fb8460bea064644be001a6c76a9b30802eab1c6f9",
        "interest_rate_swap.provenance.json": "51b4e2b1110961df1bee24ea0693b54b1f17ecc9d00dfa2800ee013f23810ba1",
        "interest_rate_swap.report.json": "b7ac6c7492cd882efb6d5b54d2ed041bdbc22c48f34091884bd89c320be763e6",
        "interest_rate_swap.template.json": "3f27a6a0376d56c04760872fa762e74fb39d24d05335044df98fc6cfa59217c1",
        "summary.csv": "ebeb1426d131a335d82f698dc2c4475f801d2861b82b5ddbe620fd48ec3eab45",
    },
    "rag": {
        "commodity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "commodity_option.provenance.json": "5ed981be5d0291174d7a9064ef5f0dca0bad68a7fafac84a7e6fc73d56ec8d7e",
        "commodity_option.report.json": "f81a4db6ec27bb42c856e69fbae12847c97c86095de4a7886a811871c8b396c5",
        "commodity_option.template.json": "b2c90ba94a1a3a20e0c3f7c889d0648610d4824fc5be50bff4f729255e247d6d",
        "credit_default_swap.cdm.json": "ee66bc72a268e77666a5844a8fef35f77a8a6e52b5fa5f06e46cffb58e81265b",
        "credit_default_swap.provenance.json": "30e2f2782b2741858fb1eae416edde4270a374fb85a93fdb0fe1294b694f189b",
        "credit_default_swap.report.json": "c446373d279e20ff2a4b852fd63301b639518da75b32e32acfbf5c6c388a7d3e",
        "credit_default_swap.template.json": "f742c0528ae14c160c8534d2bb3ef14242efff8e56ad397d49da00a0e6ee0eae",
        "equity_option.cdm.json": "593beb7e2c5b28d620810cfa0108e4e118f80e5d22a6a5afaf1e60ba8c6ea67d",
        "equity_option.provenance.json": "a82f3a3c07e9ec1e837874e7da7f05d2561ef71919c092b55b03bd01dd1dab96",
        "equity_option.report.json": "c6ca74f494ea83c4d3661d82f5279960288ba0db2bd89f5a1f419b2f2586f517",
        "equity_option.template.json": "ec013aa0cdbe058c502e27d1d457a46da710b61139deff8bcd86757203995fa5",
        "equity_swap.cdm.json": "00f82d1c392f2ec6b227ff85ceaef44ab4d7519f1c37a997736dec2d2bc7ef94",
        "equity_swap.provenance.json": "e4c789be96d1f5cfc915dd69b9ce367a945a7901bd98aae91f5dc2f50d052fb2",
        "equity_swap.report.json": "c598c9533b6a346f1cebcb3b738af623018f74e9709ee7af5e8ca5f2a005349c",
        "equity_swap.template.json": "e6ae3cbc939051451ce33ea33bfaafff4314b6fb23d9692231ef30d5bafe1b43",
        "foreign_exchange.cdm.json": "55730a77c16ca2b4bd6451c292dda98698608e9f40ec895907141f21775b8486",
        "foreign_exchange.provenance.json": "a2993b9f030f066d4bf60168f57424ce9e918652f12424c6974a3167de17fde2",
        "foreign_exchange.report.json": "c316fb62ff146894f17b24148ae4c689f91fba2a0650555bf5b4c492e58af05b",
        "foreign_exchange.template.json": "28efc651eb3352753b0af92741a1d367434f1b7b1e9622a7c98ce67e6ef84e88",
        "interest_rate_swap.cdm.json": "26fffee9b84c3aebcdc94f9fb8460bea064644be001a6c76a9b30802eab1c6f9",
        "interest_rate_swap.provenance.json": "167be2d5b350bd4fac4c541d929fbb34c4cca9cf049bba2be73b8064f43929f0",
        "interest_rate_swap.report.json": "0bdabef639b9184248bf2cb128933a77771705670ab590d4ab7e35be0506377a",
        "interest_rate_swap.template.json": "3f27a6a0376d56c04760872fa762e74fb39d24d05335044df98fc6cfa59217c1",
        "summary.csv": "932011d914d7d946346a41e3542fe50cad296cf60a2ba9c81fc9de3f81443ad5",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def _run(config_path, script: dict, out_dir, **settings) -> dict[str, str]:
    """Run ``pipeline`` on the config with ``settings`` and ``script`` put
    into it; return the digests of what it wrote."""
    script_path = out_dir.parent / f"{out_dir.name}.script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(settings, mock_script=str(script_path), out_dir=str(out_dir))
    batch_config = out_dir.parent / f"{out_dir.name}.run.json"
    batch_config.write_text(json.dumps(config), encoding="utf-8")
    assert main(["pipeline", "--config", str(batch_config)]) == 0
    return _digests(out_dir)


def _coverage_replies(config_path, out_dir) -> dict[str, str]:
    """A reply to each contract's coverage prompt over the document the
    plain batch in ``out_dir`` wrote for it."""
    replies = {}
    for job in json.loads(config_path.read_text(encoding="utf-8"))["contracts"]:
        with open(job["contract_path"], encoding="utf-8") as handle:
            text = handle.read()
        doc = json.loads((out_dir / f"{job['name']}.cdm.json").read_text(encoding="utf-8"))
        prompt = coverage_prompt(text, doc)
        lists = {"captured": [f"c{len(prompt.user_text)}"], "uncaptured": ["u"], "extraneous": []}
        replies[prompt_hash(prompt)] = json.dumps(lists)
    return replies


def _rag_batch(tmp_path, cdm_index, config_path) -> tuple[dict, dict]:
    """The contracts of the fixture batch with a knowledge base each, and
    the replies to their RAG prompts at k=2."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    cfg = PopulationConfig(use_rag=True, k_chunks=2)
    script, jobs = {}, []
    for job in config["contracts"]:
        kb_path = tmp_path / "kb" / f"{job['name']}.json"
        ingest_examples(job["examples_dir"], job["contract_type"], 60).save(kb_path)
        template = build_template(cdm_index, flatten_examples(job["examples_dir"]), job["contract_type"])
        with open(job["contract_path"], encoding="utf-8") as handle:
            text = handle.read()
        script.update(build_population_script(cdm_index, template, text, cfg, KnowledgeBase.load(kb_path)))
        jobs.append({**job, "kb_path": str(kb_path)})
    return script, {"contracts": jobs, "use_rag": True, "k_chunks": 2}


@pytest.fixture(scope="module")
def batches(tmp_path_factory, cdm_schema_dir, cdm_index, examples_root, contracts_dir):
    """Digests of each variant's batch at each ``max_inflight``."""
    tmp_path = tmp_path_factory.mktemp("batch_golden")
    config_path, _, script_path = helpers.prepare_pipeline(tmp_path, cdm_schema_dir, examples_root, contracts_dir)
    script = json.loads(script_path.read_text(encoding="utf-8"))
    rag_script, rag_settings = _rag_batch(tmp_path, cdm_index, config_path)
    digests = {}
    for inflight in (1, 4):
        plain_dir = tmp_path / f"plain-{inflight}"
        digests["plain", inflight] = _run(config_path, script, plain_dir, max_inflight=inflight)
        covered = {**script, **_coverage_replies(config_path, plain_dir)}
        digests["coverage", inflight] = _run(
            config_path, covered, tmp_path / f"coverage-{inflight}", max_inflight=inflight, coverage=True
        )
        digests["rag", inflight] = _run(
            config_path, rag_script, tmp_path / f"rag-{inflight}", max_inflight=inflight, **rag_settings
        )
    return digests


@pytest.mark.parametrize("max_inflight", [1, 4])
@pytest.mark.parametrize("variant", ["plain", "coverage", "rag"])
def test_batch_bytes_are_pinned(batches, variant, max_inflight):
    assert batches[variant, max_inflight] == GOLDEN[variant]
