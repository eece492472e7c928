"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

from __future__ import annotations

import csv
import functools
import json
import random
import time

import helpers
import oracles
import test_populator as populator_checks
from cdmgen.cli import main
from cdmgen.evaluator import (
    CoverageWeights,
    coverage_score,
    evaluate_document,
)
from cdmgen.gateway import MockProvider, PromptBundle, prompt_hash, prompt_head
from cdmgen import prompts
from cdmgen.knowledge_base import Chunk, KnowledgeBase, lexical_tokens, retrieve
from cdmgen.populator import (
    PopulationConfig,
    baseline_generate,
    build_prompt,
    clean,
    populate,
    repair_prompt,
    select_tasks,
    validate_shape,
)
from cdmgen.template_builder import Template, build_template, flatten_examples
from cdmgen import treeops


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {title}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------


@criterion(1, "structural guarantee: 100.0 on both metrics for all six types")
def test_criterion_1_structural_guarantee(tmp_path, cdm_schema_dir, examples_root, contracts_dir):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    started = time.monotonic()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"six-contract batch took {elapsed:.2f}s"

    for key, contract_type in helpers.CONTRACT_TYPES.items():
        report = json.loads((out_dir / f"{key}.report.json").read_text(encoding="utf-8"))
        assert report["contract_type"] == contract_type
        assert report["syntactical_correctness"] == 100.0
        assert report["schema_adherence"] == 100.0
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as handle:
        rows = {row["group"]: row for row in csv.DictReader(handle)}
    assert set(rows) == set(helpers.CONTRACT_TYPES.values()) | {"combined"}
    for row in rows.values():
        assert row["syntactical_mean"] == "100.0000"
        assert row["syntactical_stddev"] == "0.0000"
        assert row["adherence_mean"] == "100.0000"
        assert row["adherence_stddev"] == "0.0000"
        assert row["status"] == "ok"


@criterion(2, "baseline contrast: invented key and type clash score below 100")
def test_criterion_2_baseline_contrast(cdm_index, contracts_dir):
    contract_text = (contracts_dir / "interest_rate_swap.txt").read_text(encoding="utf-8")
    sections = [
        prompts.load("baseline_instructions.txt"),
        f"Contract description:\n{contract_text}",
    ]
    bundle = PromptBundle(
        system_text=prompts.load("baseline_system.txt"), user_text="\n\n".join(sections)
    )
    flawed = {"bogusKey": "irs", "trade": {"tradeDate": 20240311}}
    gateway = MockProvider({prompt_hash(bundle): json.dumps(flawed)})
    doc = baseline_generate(contract_text, None, gateway, PopulationConfig(max_inflight=1))
    assert doc == flawed
    result = evaluate_document(doc, cdm_index)
    assert result.syntactical_correctness < 100.0
    assert result.schema_adherence < 100.0
    # the invented key hurts existence; the type clash hurts adherence more
    assert result.schema_adherence < result.syntactical_correctness
    rows = {row["path"]: row for row in result.per_path_detail}
    assert rows["bogusKey"] == {"path": "bogusKey", "exists": False, "adheres": False}
    assert rows["trade.tradeDate"] == {"path": "trade.tradeDate", "exists": True, "adheres": False}


@criterion(3, "coverage formula reproduction and monotonicity over 1000 tuples")
def test_criterion_3_coverage_formula():
    from cdmgen.evaluator import CoverageLists

    def make_lists(c, u, e):
        return CoverageLists(
            captured=tuple(f"c{i}" for i in range(c)),
            uncaptured=tuple(f"u{i}" for i in range(u)),
            extraneous=tuple(f"e{i}" for i in range(e)),
        )

    weights = CoverageWeights(mu=0.3, epsilon=0.1)
    got = coverage_score(make_lists(8, 5, 3), weights)
    exact = oracles.coverage_score_fraction(8, 5, 3, 0.3, 0.1)
    assert abs(got - float(exact)) <= 1e-9
    assert abs(got - 81.63265306122449) <= 1e-9

    rng = random.Random(42)
    checked = 0
    while checked < 1000:
        c = rng.randint(0, 60)
        u = rng.randint(0, 60)
        e = rng.randint(0, 60)
        mu = rng.uniform(0.0, 1.0)
        eps = rng.uniform(0.0, 1.0)
        if c + mu * u + eps * e <= 0 or (c == u == e == 0):
            continue
        score = coverage_score(make_lists(c, u, e), CoverageWeights(mu=mu, epsilon=eps))
        oracle = float(oracles.coverage_score_fraction(c, u, e, mu, eps))
        assert abs(score - oracle) <= 1e-9
        w = CoverageWeights(mu=mu, epsilon=eps)
        assert coverage_score(make_lists(c + 1, u, e), w) >= score
        assert coverage_score(make_lists(c, u + 1, e), w) <= score
        assert coverage_score(make_lists(c, u, e + 1), w) <= score
        checked += 1
    assert checked == 1000


@criterion(4, "template derivation: byte-exact goldens and randomized invariants")
def test_criterion_4_template_goldens(tiny_index, tiny_schema_dir, golden_dir, tmp_path):
    # golden set 1: single chain
    single = build_template(
        tiny_index, frozenset({"party.address.city"}), "sample-record"
    )
    assert single.to_text() == (golden_dir / "template_single_chain.json").read_text(
        encoding="utf-8"
    )
    # golden set 2: multi branch, keys flattened from two example files
    example_dir = tmp_path / "multi"
    example_dir.mkdir()
    (example_dir / "e1.json").write_text(
        json.dumps(
            {"party": {"partyId": "P1", "role": "Buyer", "address": {"country": "SE"}}}
        ),
        encoding="utf-8",
    )
    (example_dir / "e2.json").write_text(
        json.dumps({"name": "Deal-7", "createdOn": "2024-01-02", "tags": ["blue"]}),
        encoding="utf-8",
    )
    multi = build_template(tiny_index, flatten_examples(example_dir), "sample-record")
    assert multi.to_text() == (golden_dir / "template_multi_branch.json").read_text(
        encoding="utf-8"
    )
    # golden set 3: a key the schema does not know
    absent = build_template(
        tiny_index, frozenset({"party.partyId", "ghost.spooky"}), "sample-record"
    )
    assert absent.to_text() == (golden_dir / "template_absent_key.json").read_text(
        encoding="utf-8"
    )

    # randomized soundness / completeness / minimality, brute-force oracle
    schema_leaves = sorted(
        oracles.enumerate_scalar_leaf_paths(tiny_schema_dir, "root.schema.json")
    )
    all_paths = oracles.enumerate_schema_paths(tiny_schema_dir, "root.schema.json")
    rng = random.Random(4)
    for _ in range(200):
        chosen = rng.sample(schema_leaves, rng.randint(1, len(schema_leaves)))
        bogus = [f"ghost.k{rng.randrange(5)}", "party.phantom"][: rng.randint(0, 2)]
        keys = frozenset(chosen + bogus)
        template = build_template(tiny_index, keys, "sample-record")
        leaf_paths = {path for path, _ in treeops.iter_leaf_paths(template.tree)}
        for path in leaf_paths:
            assert path in all_paths  # soundness
            assert any(k == path or k.startswith(path + ".") for k in keys)  # minimality
        for key in chosen:
            assert key in leaf_paths  # completeness


@criterion(5, "depth selection properties on 600 randomized cases plus the identifier fixture")
def test_criterion_5_depth_properties(cdm_index, examples_root):
    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        tree = populator_checks.random_template_tree(rng)
        previous = None
        for d in range(1, 7):
            count = populator_checks.check_task_properties(tree, d)
            if previous is not None:
                assert count <= previous
            previous = count
            cases += 1
    assert cases >= 500

    keys = flatten_examples(examples_root / "interest_rate_swap")
    template = build_template(cdm_index, keys, "InterestRateSwap")
    tasks = select_tasks(template, 4)
    paths = [t.target_path for t in tasks]
    assert "trade.tradeIdentifier.assignedIdentifier" in paths
    task = next(t for t in tasks if t.target_path == "trade.tradeIdentifier.assignedIdentifier")
    assert set(dict(treeops.data_items(task.target_subtree))) == {"identifier", "version"}


@criterion(6, "validation and repair loop outcomes for scripted mock sequences")
def test_criterion_6_repair_loop():
    template = Template(
        tree={"id": {"value": ""}, "amount": 0}, contract_type="sample", schema_root="r"
    )
    cfg = PopulationConfig(retry_limit=2, max_inflight=1)
    [task] = select_tasks(template, cfg.depth_threshold)
    first = build_prompt(task, prompt_head("populate", "contract"))
    good = {"id": {"value": "UC-1"}, "amount": 3}
    bad = {"id": {"value": "UC-1"}, "amount": 3, "extra": True}

    # sequence A: valid immediately
    gateway = MockProvider({prompt_hash(first): json.dumps(good)})
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"] == {
        "prompt_hash": prompt_hash(first),
        "attempts": 1,
        "failed": False,
    }

    # sequence B: invalid then valid, accepted with attempt count 2
    retry = repair_prompt(first, validate_shape(task.target_subtree, bad))
    gateway = MockProvider(
        {prompt_hash(first): json.dumps(bad), prompt_hash(retry): json.dumps(good)}
    )
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == good
    assert doc.provenance["(root)"]["attempts"] == 2
    assert doc.provenance["(root)"]["failed"] is False

    # sequence C: always invalid, placeholders kept and failure recorded
    gateway = MockProvider(
        {prompt_hash(first): json.dumps(bad), prompt_hash(retry): json.dumps(bad)}
    )
    doc = populate(template, "contract", None, gateway, cfg)
    assert doc.tree == {"id": {"value": ""}, "amount": 0}
    record = doc.provenance["(root)"]
    assert record["attempts"] == 3
    assert record["failed"] is True
    assert any(m["kind"] == "extra_key" for m in record["mismatches"])


@criterion(7, "clean fixpoint equivalence on 500 randomized documents")
def test_criterion_7_clean_fixpoint():
    import copy

    rng = random.Random(77)
    checked = 0
    while checked < 500:
        doc = populator_checks.random_document(rng)
        if not isinstance(doc, dict):
            doc = {"root": doc}
        cleaned = clean(copy.deepcopy(doc))
        assert cleaned == oracles.clean_fixpoint(doc)
        assert clean(copy.deepcopy(cleaned)) == cleaned
        # exactly the defined removal set: survivors are never removable
        for _, leaf in treeops.iter_leaf_paths(cleaned):
            assert leaf not in ("", treeops.DATE_TOKEN)
            assert leaf != {} and leaf != []
        checked += 1
    # zero and false are kept: they are values, not placeholders, after fill
    assert clean({"n": 0, "f": False, "s": ""}) == {"n": 0, "f": False}


@criterion(8, "lexical retrieval: stable over 100 calls, matches hand-computed ranking")
def test_criterion_8_retrieval_determinism():
    chunks = []
    for i in range(20):
        if i == 1:
            body = '{"alpha": 1}'
        elif i == 2:
            body = '{"alpha": "alpha alpha"}'
        elif i == 3:
            body = '{"notional": 100, "currency": "USD"}'
        elif i == 7:
            body = '{"notional": 5}'
        elif i == 11:
            body = '{"currency": "USD", "pad": "x y z"}'
        else:
            body = f'{{"fill{i:02d}": "pad{i:02d}"}}'
        chunks.append(
            Chunk(
                chunk_id=f"c{i:02d}",
                contract_type="sample",
                source_path="",
                body=body,
                token_estimate=len(lexical_tokens(body)),
            )
        )
    kb = KnowledgeBase(chunks=chunks)

    # query A hand scores: c03 3/4, c07 1/2, c11 2/6, others 0
    ranking_a = [c.chunk_id for c in retrieve(kb, "notional currency USD", k=3)]
    assert ranking_a == ["c03", "c07", "c11"]
    # query B hand scores: c01 1/2, c02 1/3, zeros tie-break by id from c00
    ranking_b = [c.chunk_id for c in retrieve(kb, "alpha", k=3)]
    assert ranking_b == ["c01", "c02", "c00"]
    # query C: no overlap anywhere, pure id ordering
    ranking_c = [c.chunk_id for c in retrieve(kb, "zzz", k=3)]
    assert ranking_c == ["c00", "c01", "c02"]

    for _ in range(100):
        assert [c.chunk_id for c in retrieve(kb, "notional currency USD", k=3)] == ranking_a
        assert [c.chunk_id for c in retrieve(kb, "alpha", k=3)] == ranking_b
        assert [c.chunk_id for c in retrieve(kb, "zzz", k=3)] == ranking_c


@criterion(9, "end-to-end determinism: byte-identical artifacts across pipeline runs")
def test_criterion_9_pipeline_determinism(tmp_path, cdm_schema_dir, examples_root, contracts_dir):
    config_path, out_dir, _ = helpers.prepare_pipeline(
        tmp_path, cdm_schema_dir, examples_root, contracts_dir
    )
    out_one = tmp_path / "run-one"
    out_two = tmp_path / "run-two"
    assert main(["pipeline", "--config", str(config_path), "--out-dir", str(out_one)]) == 0
    assert main(["pipeline", "--config", str(config_path), "--out-dir", str(out_two)]) == 0

    names_one = sorted(p.name for p in out_one.iterdir())
    names_two = sorted(p.name for p in out_two.iterdir())
    assert names_one == names_two
    assert len(names_one) == 4 * len(helpers.CONTRACT_TYPES) + 1  # artifacts + summary
    for name in names_one:
        assert (out_one / name).read_bytes() == (out_two / name).read_bytes(), name


# ---------------------------------------------------------------------------
# cross-module tie: populated output always scores 100/100 once cleaned


@criterion(10, "cross-module property: cleaned populated output scores 100/100")
def test_populator_output_always_evaluates_perfectly(cdm_index, examples_root, contracts_dir):
    from cdmgen.dryrun import build_population_script

    for key, contract_type in helpers.CONTRACT_TYPES.items():
        keys = flatten_examples(examples_root / key)
        template = build_template(cdm_index, keys, contract_type)
        contract_text = (contracts_dir / f"{key}.txt").read_text(encoding="utf-8")
        cfg = PopulationConfig(max_inflight=1)
        script = build_population_script(cdm_index, template, contract_text, cfg)
        doc = populate(template, contract_text, None, MockProvider(script), cfg)
        cleaned = clean(doc)
        report = evaluate_document(cleaned, cdm_index)
        assert report.syntactical_correctness == 100.0, key
        assert report.schema_adherence == 100.0, key
