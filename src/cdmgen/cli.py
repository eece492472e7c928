"""Command-line entry point exposing the pipeline stages as subcommands.

Exit codes: 0 on success, 1 on a domain error (a structured JSON error line
is printed to standard error), 2 on usage errors. Every artifact is written
atomically (temp file in the target directory, then rename), and no output
embeds timestamps, so identical inputs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import evaluator, populator
from .errors import CdmgenError, MalformedDocument, OutputUnwritable, PopulationIncomplete, ProviderOutage
from .gateway import HttpProvider, MockProvider, ProviderConfig, synthesize_description
from .knowledge_base import KnowledgeBase, ingest_examples
from .populator import PopulationConfig, clean, populate
from .schema_index import load_schema_dir
from .template_builder import Template, build_template, flatten_examples
from .treeops import iter_leaf_paths, make_dirs, read_json_object, read_text, write_text as atomic_write_text

# Named for the package, not __name__, so that ``python -m cdmgen.cli`` logs
# under the logger that -v turns on.
logger = logging.getLogger("cdmgen.cli")

# The settings an environment variable can give: field -> (variable, cast).
# Only a variable's text is converted: a flag is typed by its parser, and a
# run config's value is checked by the class it configures.
VARIABLES = {
    "depth_threshold": ("CDMGEN_DEPTH", int),
    "mu": ("CDMGEN_MU", float),
    "epsilon": ("CDMGEN_EPSILON", float),
    "endpoint": ("CDMGEN_ENDPOINT", str),
}
# The usage message of a field without a default that no source fills; such
# a field named here also counts as unset when its value is empty.
UNSET = {
    "endpoint": "a provider is required: --provider URL or --mock-script FILE "
    "(in a run config, provider.endpoint or mock_script)",
    "contracts": "pipeline config lists no contracts",
}

SUMMARY_COLUMNS = (
    "group",
    "count",
    "syntactical_mean",
    "syntactical_stddev",
    "adherence_mean",
    "adherence_stddev",
    "coverage_mean",
    "coverage_stddev",
    "status",
)


def write_json(path, payload) -> None:
    """Write an output artifact as one line of JSON. Without ``indent``,
    ``json`` encodes in C; ``python -m json.tool FILE`` pretty-prints it."""
    atomic_write_text(path, json.dumps(payload, ensure_ascii=False) + "\n")


def _configure(parser, config_class, args, file_values: dict):
    """The ``config_class`` dataclass with each field set by the one
    settings rule: the flag whose destination is the field's name, else
    the field's variable in VARIABLES when it is set and not empty, else
    the run config's key of that name in ``file_values``, else the default.

    A ValueError from the class or from converting a variable is a usage
    error, and so is a field without a default that no source fills.
    """
    values = {}
    try:
        for f in fields(config_class):
            flag = getattr(args, f.name, None)
            variable, cast = VARIABLES.get(f.name, (None, None))
            text = os.environ.get(variable) if variable else None
            if flag is not None:
                values[f.name] = flag
            elif text:
                values[f.name] = cast(text)
            elif f.name in file_values:
                values[f.name] = file_values[f.name]
            unset = f.name not in values or f.name in UNSET and not values[f.name]
            if unset and f.default is MISSING and f.default_factory is MISSING:
                parser.error(UNSET.get(f.name, f"{f.name} is required"))
        return config_class(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _read_contract(path) -> str:
    """A contract file's text; an empty or blank file, or one that is not
    UTF-8, raises :class:`MalformedDocument`."""
    text = read_text(path)
    if not text.strip():
        raise MalformedDocument(str(path), "the contract text is empty")
    return text


def _input_file(value: str) -> str:
    """argparse type of an input-file flag: a missing file, or a path that
    is not a regular file (a FIFO, a device, a directory), is a usage error."""
    path = Path(value)
    if not path.is_file():
        problem = f"{value} is not a regular file" if path.exists() else f"no such file: {value}"
        raise argparse.ArgumentTypeError(problem)
    return value


# ---------------------------------------------------------------------------
# provider construction


def _add_provider_flags(sub: argparse.ArgumentParser) -> None:
    """Provider flags, whose destinations are ProviderConfig's fields."""
    group = sub.add_argument_group("provider")
    group.add_argument("--provider", dest="endpoint", metavar="URL", help="chat-completion endpoint URL")
    group.add_argument("--model", help="model name sent to the provider")
    group.add_argument("--credential-env", help="environment variable holding the provider credential")
    group.add_argument("--timeout", type=float)
    group.add_argument("--provider-retries", dest="retries", type=int, help="transport retry limit")
    group.add_argument(
        "--mock-script",
        type=_input_file,
        help="JSON file mapping prompt hashes to scripted responses; replaces the provider",
    )


def _make_gateway(parser, args, mock_script, file_values: dict):
    """A command's provider: the mock script when one is named, else an
    HTTP client, configured from the provider flags and a run config's
    ``provider`` keys, that keeps a connection per call in flight. The
    client's connections are closed when the command returns."""
    if mock_script:
        return MockProvider.from_file(mock_script)
    provider = HttpProvider(_configure(parser, ProviderConfig, args, file_values))
    args.on_return.callback(provider.close)
    return provider


# ---------------------------------------------------------------------------
# subcommands


def cmd_make_template(args, parser) -> int:
    index = load_schema_dir(args.schema_dir, args.root)
    keys = flatten_examples(args.examples)
    template = build_template(index, keys, args.contract_type)
    template.save(args.out)
    # Both counts walk the whole template: only for a log line that is on.
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "template written out=%s leaves=%d depth=%d",
            args.out,
            sum(1 for _ in iter_leaf_paths(template.tree, items=dict.items)),
            populator.compute_depths(template) - 1,
        )
    return 0


def cmd_ingest_kb(args, parser) -> int:
    try:
        kb = ingest_examples(args.examples, args.contract_type, args.budget)
    except ValueError as exc:
        parser.error(str(exc))
    kb.save(args.out)
    logger.info("knowledge base written out=%s chunks=%d", args.out, len(kb.chunks))
    return 0


def _generation_inputs(args, parser):
    """Gateway, contract text and knowledge base of ``populate`` and
    ``baseline``."""
    if args.use_rag and not args.kb:
        parser.error("--rag requires --kb FILE")
    gateway = _make_gateway(parser, args, args.mock_script, {})
    return gateway, _read_contract(args.contract), KnowledgeBase.load(args.kb) if args.kb else None


def _write_population(doc: populator.PopulatedDocument, cdm_path, provenance_path) -> dict:
    """Write a population's provenance (when a path is given) and its cleaned
    document; return the latter, or raise PopulationIncomplete naming failed tasks."""
    if provenance_path:
        write_json(provenance_path, doc.provenance)
    cleaned = clean(doc)
    write_json(cdm_path, cleaned)
    failed = sorted(path for path, record in doc.provenance.items() if record.get("failed"))
    if failed:
        raise PopulationIncomplete(f"tasks failed: {', '.join(failed)}")
    return cleaned


def cmd_populate(args, parser) -> int:
    cfg = _configure(parser, PopulationConfig, args, {})
    gateway, contract_text, kb = _generation_inputs(args, parser)
    template = Template.load(args.template)
    try:
        doc = populate(template, contract_text, kb, gateway, cfg)
    except ProviderOutage as exc:
        if args.provenance:
            write_json(args.provenance, exc.provenance)
        raise
    _write_population(doc, args.out, args.provenance)
    return 0


def cmd_baseline(args, parser) -> int:
    cfg = _configure(parser, PopulationConfig, args, {})
    gateway, contract_text, kb = _generation_inputs(args, parser)
    result = populator.baseline_generate(contract_text, kb, gateway, cfg)
    write_json(args.out, result)
    return 0


def cmd_synthesize(args, parser) -> int:
    gateway = _make_gateway(parser, args, args.mock_script, {})
    example = read_json_object(args.example)
    if not example:
        raise MalformedDocument(args.example, "the example is an empty object")
    references = [read_text(p) for p in args.reference]
    text = synthesize_description(gateway, example, references)
    atomic_write_text(args.out, text if text.endswith("\n") else text + "\n")
    return 0


def _write_report(path, contract_type: str, report: evaluator.EvaluationReport, lists, weights) -> None:
    """Put the coverage ``lists``, when there are any, and their score into
    ``report``, then write it in its envelope."""
    if lists is not None:
        report.lists = lists
        report.coverage_score = evaluator.coverage_score(lists, weights)
    write_json(path, {"contract_type": contract_type, **report.to_dict()})


def cmd_evaluate(args, parser) -> int:
    if args.contract_type == evaluator.COMBINED:
        parser.error(f"--contract-type {evaluator.COMBINED!r} names the union row")
    if args.coverage and not args.contract:
        parser.error("--coverage requires --contract FILE")
    lists = None
    weights = _configure(parser, evaluator.CoverageWeights, args, {}) if args.coverage else None
    index = load_schema_dir(args.schema_dir, args.root)
    doc = read_json_object(args.cdm)
    report = evaluator.evaluate_document(doc, index)
    if args.coverage:
        gateway = _make_gateway(parser, args, args.mock_script, {})
        lists = evaluator.coverage_lists(_read_contract(args.contract), doc, gateway)
    _write_report(args.out, args.contract_type, report, lists, weights)
    return 0


def _summary_rows(groups: dict[str, list], failures: list[tuple[str, str]]) -> list[list]:
    rows = []
    stats = evaluator.aggregate(groups) if groups else {}
    ordered = [*sorted(groups), evaluator.COMBINED] if groups else []
    for group in ordered:
        row = stats[group]

        def cell(metric: str, kind: str) -> str:
            data = row.get(metric)
            if not data:
                return ""
            return f"{data[kind]:.4f}"

        cells = [cell(metric, kind) for metric in evaluator.METRICS for kind in ("mean", "stddev")]
        rows.append([group, str(row["count"]["n"]), *cells, "ok"])
    for name, detail in sorted(failures):
        rows.append([name, "0", "", "", "", "", "", "", f"failed: {detail}"])
    return rows


def _write_summary(path, rows: list[list]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(rows)
    atomic_write_text(path, text.getvalue())


def cmd_report(args, parser) -> int:
    report_dir = Path(args.input)
    files = sorted(file for file in report_dir.glob("*.json") if not file.is_dir())
    if not files:
        parser.error(f"no report files found in {report_dir}")
    groups: dict[str, list] = {}
    for file in files:
        group, scores = _read_report(file)
        groups.setdefault(group, []).append(scores)
    _write_summary(args.out, _summary_rows(groups, []))
    return 0


def _read_report(file: Path) -> tuple[str, evaluator.EvaluationReport]:
    """A report file's group and scores, once the whole file is read and
    checked; its per-path detail and coverage lists are not kept."""
    envelope = read_json_object(file, "syntactical_correctness", "schema_adherence")
    try:
        report = evaluator.EvaluationReport.from_dict(envelope)
    except ValueError as exc:
        raise MalformedDocument(str(file), str(exc)) from exc
    group = envelope.get("contract_type") or "unknown"
    if not isinstance(group, str):
        raise MalformedDocument(str(file), "'contract_type' is not a string")
    if group == evaluator.COMBINED:
        raise MalformedDocument(str(file), f"'contract_type' {group!r} names the union row")
    return group, report.scores_only()


# ---------------------------------------------------------------------------
# pipeline


def _existing(value, test, kind: str) -> Path:
    """``value`` as a Path when ``test`` (``Path.is_file`` or ``Path.is_dir``)
    accepts it; else a ValueError names ``kind`` and the value, and says
    whether the path is missing or of the wrong kind."""
    path = Path(value) if isinstance(value, (str, Path)) and value != "" else None
    if path is None or not path.exists():
        raise ValueError(f"{kind} does not exist: {value}")
    if not test(path):
        raise ValueError(f"{kind} {value} is not {'a directory' if test is Path.is_dir else 'a regular file'}")
    return path


@dataclass
class ContractJob:
    """A run config's contract. Its ``name``, by default its contract file's
    stem, names its files, so it must be a plain file name."""

    contract_type: str
    contract_path: Path
    examples_dir: Path
    name: Optional[str] = None
    kb_path: Optional[Path] = None

    def __post_init__(self):
        if self.name in (None, "") and isinstance(self.contract_path, (str, Path)):
            self.name = Path(self.contract_path).stem
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or set(self.name) & set("/\\\0"):
            raise ValueError(f"contract name {self.name!r} is not a plain file name")
        if not isinstance(self.contract_type, str) or self.contract_type in ("", evaluator.COMBINED):
            raise ValueError(
                f"contract {self.name!r}: contract_type must be a non-empty string other than "
                f"{evaluator.COMBINED!r}, which names the union row"
            )
        self.contract_path = _existing(self.contract_path, Path.is_file, "contract file")
        self.examples_dir = _existing(self.examples_dir, Path.is_dir, "examples dir")
        self.kb_path = _existing(self.kb_path, Path.is_file, "knowledge base") if self.kb_path else None


def _check_keys(parser, mapping, where: str, *classes) -> None:
    """Usage error for a run-config ``mapping``, named by ``where``, that is
    not an object or holds a key that no field of ``classes`` reads."""
    if not isinstance(mapping, dict):
        parser.error(f"{where}{mapping!r} is not an object")
    unknown = sorted(set(mapping) - {f.name for config_class in classes for f in fields(config_class)})
    if unknown:
        parser.error(f"unknown {where}key {unknown[0]!r}")


@dataclass
class RunConfig:
    """A batch run. ``provider`` holds the run config's ProviderConfig keys,
    as written, for :func:`_configure`. Each input it names must exist."""

    schema_dir: Path
    root_file: str
    out_dir: Path
    contracts: list[ContractJob]
    coverage: bool = False
    mock_script: Optional[Path] = None
    provider: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.coverage, bool):
            raise ValueError("coverage must be true or false")
        if not isinstance(self.contracts, list):
            raise ValueError(f"contracts {self.contracts!r} is not a list")
        names = set()
        for job in self.contracts:
            if job.name in names:
                raise ValueError(f"contract name {job.name!r} is used twice")
            names.add(job.name)
        if not isinstance(self.out_dir, (str, Path)) or self.out_dir == "":
            raise ValueError(f"out_dir {self.out_dir!r} is not a path")
        self.out_dir = Path(self.out_dir)
        if self.mock_script:
            self.mock_script = _existing(self.mock_script, Path.is_file, "mock script")
        self.schema_dir = _existing(self.schema_dir, Path.is_dir, "schema_dir")
        root = self.schema_dir / self.root_file if isinstance(self.root_file, str) else self.root_file
        _existing(root, Path.is_file, "root schema file")


def _run_config(parser, args) -> tuple[RunConfig, dict]:
    """The ``--config`` file's RunConfig and values. Its relative paths, and
    ``out_dir``'s default ``pipeline-out``, are resolved against its
    directory before :func:`_configure` fills each object; a flag's are not."""
    values = read_json_object(args.config)
    base = Path(args.config).parent
    paths = {"schema_dir", "out_dir", "mock_script", "contract_path", "examples_dir", "kb_path"}

    def resolved(entry: dict) -> dict:
        return {**entry, **{k: base / v for k, v in entry.items() if k in paths and isinstance(v, str) and v}}

    _check_keys(parser, values, "", RunConfig, PopulationConfig, evaluator.CoverageWeights)
    _check_keys(parser, values.get("provider", {}), "provider ", ProviderConfig)
    jobs = values.get("contracts")
    if isinstance(jobs, list):
        for entry in jobs:
            _check_keys(parser, entry, "contract ", ContractJob)
        jobs = [_configure(parser, ContractJob, argparse.Namespace(), resolved(entry)) for entry in jobs]
    run = resolved({"out_dir": "pipeline-out", **values, "contracts": jobs})
    return _configure(parser, RunConfig, args, run), values


def cmd_pipeline(args, parser) -> int:
    run, values = _run_config(parser, args)
    cfg = _configure(parser, PopulationConfig, args, values)
    weights = _configure(parser, evaluator.CoverageWeights, args, values)
    for job in run.contracts:
        if cfg.use_rag and not job.kb_path:
            parser.error(f"use_rag needs a kb_path for contract {job.name}")
    gateway = _make_gateway(parser, args, run.mock_script, run.provider)

    # Contracts naming the same knowledge base share it, and contracts of
    # one type built from the same examples share a template and its file
    # text; those that also share a base share one task plan. None of them
    # is mutated by a run. A base that does not load stops the batch
    # before any file is written.
    kb_paths = dict.fromkeys(job.kb_path for job in run.contracts if job.kb_path)
    bases = {path: KnowledgeBase.load(path) for path in kb_paths}
    templates: dict[tuple[Path, str], tuple[Template, str]] = {}
    plans: dict[tuple[Path, str, Optional[Path]], list[populator.PopulationTask]] = {}
    index = load_schema_dir(run.schema_dir, run.root_file)
    make_dirs(run.out_dir)
    groups: dict[str, list] = {}
    failures: list[tuple[str, str]] = []
    # The population of each contract whose tasks are queued and not yet
    # collected, by contract name.
    pending: dict[str, populator.PendingPopulation] = {}

    def artifact(name: str, kind: str) -> Path:
        return run.out_dir / f"{name}.{kind}.json"

    def turns(job: ContractJob):
        """One contract's three turns: queue its tasks; write its template,
        provenance and document, score it and queue its coverage call;
        collect the coverage, write its report and group its scores. A
        domain error stops the contract, as a failure row; one met while
        queuing is kept for the second turn."""
        logger.info("pipeline contract=%s type=%s", job.name, job.contract_type)
        template_text = error = None
        try:
            template_key = (job.examples_dir, job.contract_type)
            if template_key not in templates:
                template = build_template(index, flatten_examples(job.examples_dir), job.contract_type)
                templates[template_key] = template, template.to_text()
            template, template_text = templates[template_key]
            text = _read_contract(job.contract_path)
            plan_key = (*template_key, job.kb_path)
            if plan_key not in plans:
                plans[plan_key] = populator.plan_tasks(template, cfg, bases.get(job.kb_path))
            pending[job.name] = populator.submit_population(pool, template, plans[plan_key], text, gateway, cfg)
        except CdmgenError as exc:
            error = exc
        yield
        if template_text is not None:
            atomic_write_text(artifact(job.name, "template"), template_text)
        try:
            if error is not None:
                raise error
            doc = pending[job.name].collect()
            del pending[job.name]
            cleaned = _write_population(doc, artifact(job.name, "cdm"), artifact(job.name, "provenance"))
            scores = evaluator.evaluate_document(cleaned, index)
            coverage = pool.submit(evaluator.coverage_lists, text, cleaned, gateway) if run.coverage else None
            # Only the scores and the coverage call are kept for the last turn.
            del doc, cleaned, text
            yield
            lists = None if coverage is None else pool.result(coverage)
            _write_report(artifact(job.name, "report"), job.contract_type, scores, lists, weights)
        except (ProviderOutage, OutputUnwritable):
            raise
        except CdmgenError as exc:
            pending.pop(job.name, None)
            failures.append((job.name, type(exc).__name__))
        else:
            groups.setdefault(job.contract_type, []).append(scores.scores_only())

    # Step i queues contract i+1's tasks behind contract i's before i is
    # collected, and collects i-1's coverage call one step after it was
    # queued, so the pool's slots stay busy across contracts (a pool that
    # runs its calls on this thread has run them by then). Files are still
    # written, and reports grouped, in contract order.
    with populator.CallPool(cfg.max_inflight, gateway) as pool:
        contracts = [turns(job) for job in run.contracts]
        try:
            for step in range(-1, len(contracts) + 1):
                for i in (step + 1, step - 1, step):
                    if 0 <= i < len(contracts):
                        next(contracts[i], None)
        except ProviderOutage:
            for name, population in pending.items():
                records = population.finished_records()
                if records is not None:
                    write_json(artifact(name, "provenance"), records)
            raise

    _write_summary(run.out_dir / "summary.csv", _summary_rows(groups, failures))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmgen",
        description="Convert derivative contract text into CDM-conformant JSON "
        "via schema-derived templates, and score the results.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-template", help="derive a template from schemas plus examples")
    p.add_argument("--schema-dir", required=True)
    p.add_argument("--root", required=True, help="root schema file")
    p.add_argument("--examples", required=True, help="directory of example instances")
    p.add_argument("--contract-type", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_template)

    p = sub.add_parser("ingest-kb", help="chunk example instances into a knowledge base")
    p.add_argument("--examples", required=True)
    p.add_argument("--contract-type", required=True)
    p.add_argument("--budget", type=int, required=True, help="chunk token budget")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest_kb)

    p = sub.add_parser("populate", help="fill a template from contract text")
    p.add_argument("--template", required=True, type=_input_file)
    p.add_argument("--contract", required=True, type=_input_file)
    p.add_argument("--kb", type=_input_file)
    p.add_argument("--rag", dest="use_rag", action="store_true", default=None)
    p.add_argument("--depth", dest="depth_threshold", metavar="DEPTH", type=int)
    p.add_argument("--retries", dest="retry_limit", metavar="RETRIES", type=int)
    p.add_argument("--k-chunks", type=int)
    p.add_argument("--max-inflight", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    _add_provider_flags(p)
    p.set_defaults(func=cmd_populate)

    p = sub.add_parser("baseline", help="direct single-prompt generation, no template")
    p.add_argument("--contract", required=True, type=_input_file)
    p.add_argument("--kb", type=_input_file)
    p.add_argument("--rag", dest="use_rag", action="store_true", default=None)
    p.add_argument("--k-chunks", type=int)
    p.add_argument("--out", required=True)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("synthesize", help="write a contract description for a CDM instance")
    p.add_argument("--example", required=True, type=_input_file, help="structured instance (JSON)")
    p.add_argument(
        "--reference", action="append", default=[], type=_input_file, help="reference term sheet (repeatable)"
    )
    p.add_argument("--out", required=True)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("evaluate", help="score a generated document against the schema")
    p.add_argument("--contract", type=_input_file, help="contract text; read only by --coverage")
    p.add_argument("--cdm", required=True, type=_input_file)
    p.add_argument("--schema-dir", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--contract-type", default="")
    p.add_argument("--mu", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--coverage", action="store_true", help="also run semantic coverage")
    p.add_argument("--out", required=True)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate evaluation reports into a summary table")
    p.add_argument("--in", dest="input", required=True, help="directory of report JSON files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="template + populate + evaluate for a batch")
    p.add_argument("--config", required=True, type=_input_file, help="run configuration JSON")
    p.add_argument("--out-dir")
    p.add_argument("--depth", dest="depth_threshold", metavar="DEPTH", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--mock-script", type=_input_file)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Root handlers are made once, when the process has none. -v sets the
    # package logger's level for this call and puts it back afterwards;
    # without -v, the logging configuration decides.
    logging.basicConfig(format="%(levelname)s %(name)s %(message)s", stream=sys.stderr)
    try:
        with contextlib.ExitStack() as args.on_return:
            if args.verbose:
                package = logging.getLogger("cdmgen")
                args.on_return.callback(package.setLevel, package.level)
                package.setLevel(logging.INFO)
            return args.func(args, parser)
    except CdmgenError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
