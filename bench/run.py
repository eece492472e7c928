"""Benchmark of the ``cdmgen pipeline`` command on seeded workloads.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's input files from the seed, then runs ``cdmgen pipeline`` in a
fresh process again and again for S seconds (at least twice) in a closed
loop: one batch at a time, ``max_inflight`` = 2. Between batches it times
the user's one-off set-up and a fixed reference task that tracks the
host's drifting speed (see ``HostMeter``).
It checks every batch's outputs and prints one JSON line last:
end-to-end metrics with ``--trace 0``, per-layer metrics from one extra,
traced batch with ``--trace 1``. Workloads, metrics and their bases are
described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("batch_latency", "cdm_scale_cpu", "cdm_scale_rag")
MAX_INFLIGHT = 2
DEPTH = 4
RETRY_LIMIT = 2
K_CHUNKS = 3
KB_BUDGET = 200
LATENCY_REPLICAS = 3
# Simulated model server: decode dominates, as on real servers.
LATENCY = {"base_ms": 10.0, "prompt_ms_per_char": 0.002, "completion_ms_per_char": 0.25}
FAULTS = ("missing_key", "extra_key", "wrong_type", "prose")
SETUP_REPEATS = 7
# The host is a share of a machine whose speed drifts by tens of percent
# over seconds to minutes. A fixed reference task, timed after every batch
# and set-up, tracks that drift over the run; the CPU part of each measured
# time is rescaled to a host on which the task takes REFERENCE_NOMINAL_S
# (see HostMeter).
REFERENCE_REPS = 256
REFERENCE_NOMINAL_S = 0.4
PIPELINE_TIMEOUT_S = 60
ARTIFACT_SUFFIXES = (".template.json", ".cdm.json", ".provenance.json", ".report.json")


@dataclass
class Prepared:
    """A workload's generated inputs plus everything needed to check outputs."""

    config_path: Path
    out_dir: Path
    contracts: list[str]
    coverage: bool
    prompts: dict[str, str]  # populate prompt hash -> system + user text
    replies: dict[str, str]  # populate prompt hash -> correct reply
    setup: Callable[[], tuple[float, float, float]]  # -> (wall, CPU, ingest) seconds
    server: Optional["FakeServer"] = None
    sizes: dict = field(default_factory=dict)
    setup_times: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class Batch:
    """Outputs of one ``cdmgen pipeline`` run."""

    wall_s: float
    cpu_s: float  # user + system time of the pipeline process
    rss_mb: float
    exit_code: int
    digest: str
    reached: int
    reports: dict[str, dict]
    provenance: dict[str, dict]
    artifact_bytes: int
    server: dict


_REFERENCE_DOC = {
    f"field{i:03d}": {
        "path": "trade.economics.leg." * (1 + i % 3),
        "value": i * 1.25,
        "tags": [f"t{j}" for j in range(i % 5)],
    }
    for i in range(200)
}


def reference_work() -> int:
    """Fixed interpreter work of the kinds the pipeline does (JSON, dicts,
    strings, sorting, hashing, arithmetic), independent of the program."""
    text = json.dumps(_REFERENCE_DOC, sort_keys=True)
    doc = json.loads(text)
    size = 0
    for key in sorted(doc, key=lambda k: doc[k]["path"] + k):
        entry = doc[key]
        size += len(f"{key}={entry['path']}:{entry['value']}") + len(entry["tags"])
    size += sum(i * i % 7 for i in range(5000))
    return size + len(hashlib.sha256(text.encode()).digest())


def reference_seconds() -> float:
    """Time REFERENCE_REPS runs of the reference task, an equal share on each
    CPU this process may use: the pipeline's threads move between all of
    them, and their speeds drift apart."""
    cpus = sorted(os.sched_getaffinity(0))
    reps = max(1, REFERENCE_REPS // len(cpus))
    elapsed = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(reps):
                reference_work()
            elapsed += time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
    return elapsed * REFERENCE_REPS / (reps * len(cpus))


class HostMeter:
    """Times of the reference task, taken between batches through a run."""

    def __init__(self) -> None:
        self.references = [reference_seconds()]

    def tick(self) -> None:
        self.references.append(reference_seconds())

    def scaled(self, wall: float, cpu: float) -> float:
        """``wall`` with the part spent on a CPU rescaled to the reference host.

        That part is multiplied by REFERENCE_NOMINAL_S over the mean reference
        time of the run; waiting (for the model server, for instance) is left
        as measured. The mean over the whole run follows the host's drift
        while averaging out the reference's own jitter from one timing to
        the next.
        """
        busy = min(cpu, wall)
        return wall - busy + busy * REFERENCE_NOMINAL_S / statistics.fmean(self.references)


class FakeServer:
    """The scripted model server, run as a second process on loopback."""

    def __init__(self, config_path: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fake_server.py"), "--config", str(config_path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = _readline(self.proc, timeout=60)
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"fake server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def _request(self, path: str, method: str) -> dict:
        data = b"{}" if method == "POST" else None
        request = urllib.request.Request(self.base + path, data=data, method=method)
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(request, timeout=30) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._request("/reset", "POST")

    def stats(self) -> dict:
        return self._request("/stats", "GET")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    result: list[str] = []
    reader = threading.Thread(target=lambda: result.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return result[0].strip() if result else ""


def child_env() -> dict:
    """Environment for the pipeline and the server: no endpoint override,
    no configuration from the environment, no proxy for loopback."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CDMGEN_")}
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


# ---------------------------------------------------------------------------
# preparation


def prepare(workload: str, seed: int, scale: str, work: Path, env: dict) -> Prepared:
    import cdmgen.dryrun as dryrun
    import corpus
    from cdmgen import prompts as prompt_texts
    from cdmgen.gateway import prompt_hash
    from cdmgen.knowledge_base import KnowledgeBase, ingest_examples
    from cdmgen.populator import PopulationConfig
    from cdmgen.schema_index import load_schema_dir
    from cdmgen.template_builder import build_template, flatten_examples

    rng = random.Random(f"{workload}:{seed}")
    inputs = work / "inputs"
    if workload == "batch_latency":
        replicas = 1 if scale == "smoke" else LATENCY_REPLICAS
        batch = corpus.fixture_batch(ROOT / "tests" / "fixtures", inputs, rng, replicas)
    else:
        spec = corpus.SMOKE_SCALE if scale == "smoke" else corpus.CDM_SCALE
        if workload == "cdm_scale_rag" and scale != "smoke":
            # Each retrieval scans every chunk of the base, so one example and
            # one contract of each of two types keep a batch near two
            # seconds, and the host-speed reference is timed often enough to
            # follow the host. The bases' sizes differ by under 1 % between
            # seeds, so two types suffice.
            spec = replace(spec, types=2, examples_per_type=1, contracts_per_type=1)
        batch = corpus.cdm_scale_batch(inputs, rng, spec)
    use_rag = workload == "cdm_scale_rag"
    kb_paths = {t: inputs / "kb" / f"{t}.json" for t in batch.examples_dirs} if use_rag else {}

    def setup() -> tuple[float, float, float]:
        """The user's one-off preparation, as calls into the public API."""
        cpu = time.process_time()
        start = time.perf_counter()
        load_schema_dir(batch.schema_dir, batch.root_file)
        loaded = time.perf_counter()
        for contract_type, path in kb_paths.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            ingest_examples(batch.examples_dirs[contract_type], contract_type, KB_BUDGET).save(path)
        end = time.perf_counter()
        return end - start, time.process_time() - cpu, (end - loaded) if kb_paths else 0.0

    setup()  # writes the knowledge bases; repeats between batches are timed

    # The reply script, built the way the test suite drives offline runs.
    # Wrapping build_prompt records each populate prompt's full text.
    cfg = PopulationConfig(depth_threshold=DEPTH, use_rag=use_rag, k_chunks=K_CHUNKS, max_inflight=MAX_INFLIGHT)
    index = load_schema_dir(batch.schema_dir, batch.root_file)
    prompts: dict[str, str] = {}
    original_build = dryrun.build_prompt

    def recording_build(*args, **kwargs):
        bundle = original_build(*args, **kwargs)
        prompts[prompt_hash(bundle)] = bundle.system_text + bundle.user_text
        return bundle

    replies: dict[str, str] = {}
    templates: dict[str, object] = {}
    knowledge: dict[str, object] = {}
    task_hashes: dict[str, list[str]] = {}  # contract -> prompt hashes in task order
    dryrun.build_prompt = recording_build
    try:
        for contract in batch.contracts:
            t = contract.contract_type
            if t not in templates:
                templates[t] = build_template(index, flatten_examples(contract.examples_dir), t)
                knowledge[t] = KnowledgeBase.load(kb_paths[t]) if use_rag else None
            text = contract.contract_path.read_text(encoding="utf-8")
            known = len(prompts)
            replies.update(dryrun.build_population_script(index, templates[t], text, cfg, knowledge[t]))
            task_hashes[contract.name] = list(prompts)[known:]
    finally:
        dryrun.build_prompt = original_build

    coverage = workload == "batch_latency"
    out_dir = work / "out"
    config = {
        "schema_dir": str(batch.schema_dir),
        "root_file": batch.root_file,
        "out_dir": str(out_dir),
        "contracts": [
            {
                "name": c.name,
                "contract_type": c.contract_type,
                "contract_path": str(c.contract_path),
                "examples_dir": str(c.examples_dir),
                **({"kb_path": str(kb_paths[c.contract_type])} if use_rag else {}),
            }
            for c in batch.contracts
        ],
        "depth_threshold": DEPTH,
        "use_rag": use_rag,
        "retry_limit": RETRY_LIMIT,
        "k_chunks": K_CHUNKS,
        "max_inflight": MAX_INFLIGHT,
        "coverage": coverage,
    }
    server = None
    if workload == "batch_latency":
        server_config = work / "server.json"
        server_config.write_text(
            json.dumps(
                {
                    "replies": replies,
                    "broken": choose_faults(batch.contracts, task_hashes, rng),
                    "repair_marker": "\n\n" + prompt_texts.load("repair_followup.txt"),
                    "coverage_system": prompt_texts.load("coverage_system.txt"),
                    "latency": LATENCY,
                }
            ),
            encoding="utf-8",
        )
        server = FakeServer(server_config, env)
        config["provider"] = {
            "endpoint": server.base + "/v1/chat/completions",
            "model": "scripted",
            "timeout": 60,
            "retries": 2,
        }
    else:
        script_path = work / "script.json"
        script_path.write_text(json.dumps(replies), encoding="utf-8")
        config["mock_script"] = str(script_path)
    config_path = work / "run.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    sizes = {
        "contracts": len(batch.contracts),
        "contract_types": len(batch.examples_dirs),
        "schema_documents": len(index.documents),
        "populate_prompts": len(replies),
    }
    return Prepared(
        config_path=config_path,
        out_dir=out_dir,
        contracts=[c.name for c in batch.contracts],
        coverage=coverage,
        prompts=prompts,
        replies=replies,
        setup=setup,
        server=server,
        sizes=sizes,
    )


def choose_faults(contracts, task_hashes: dict[str, list[str]], rng: random.Random) -> dict[str, str]:
    """Prompt hash -> fault kind for the faulty first replies.

    Replicas of a contract type share their tasks and scripted replies. Of
    each task's replicas exactly one, chosen by seed, gets a faulty first
    reply, and the fault kinds go round the tasks in a fixed order, so the
    number and size of faulty replies and repairs do not change with the
    seed.
    """
    groups: dict[tuple[str, int], list[str]] = {}
    for contract in contracts:
        for position, key in enumerate(task_hashes[contract.name]):
            groups.setdefault((contract.contract_type, position), []).append(key)
    return {
        rng.choice(groups[group]): FAULTS[i % len(FAULTS)]
        for i, group in enumerate(sorted(groups))
    }


# ---------------------------------------------------------------------------
# one pipeline batch


def run_batch(prepared: Prepared, env: dict, trace_path: Optional[Path] = None) -> Batch:
    shutil.rmtree(prepared.out_dir, ignore_errors=True)
    if prepared.server:
        prepared.server.reset()
    peak_rss = prepared.config_path.parent / "peak_rss_kb.txt"
    peak_rss.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "launch.py"), "--peak-rss", str(peak_rss)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    command += ["pipeline", "--config", str(prepared.config_path)]
    log = prepared.config_path.parent / "pipeline.log"
    with open(log, "w", encoding="utf-8") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(PIPELINE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = int(peak_rss.read_text(encoding="ascii")) / 1024.0 if peak_rss.is_file() else 0.0
    return collect(prepared, wall, cpu, rss_mb, proc.returncode)


def collect(prepared: Prepared, wall: float, cpu: float, rss_mb: float, exit_code: int) -> Batch:
    out = prepared.out_dir
    files = sorted(out.glob("*")) if out.is_dir() else []
    digest = hashlib.sha256()
    artifact_bytes = 0
    for path in files:
        if path.name != "summary.csv" and not path.name.endswith(ARTIFACT_SUFFIXES):
            continue
        data = path.read_bytes()
        artifact_bytes += len(data)
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    reached = 0
    summary = out / "summary.csv"
    if summary.is_file():
        with open(summary, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if row["status"] == "ok" and row["group"] != "combined":
                    reached += int(row["count"])

    def read(name: str) -> Optional[dict]:
        path = out / name
        return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None

    reports = {c: r for c in prepared.contracts if (r := read(f"{c}.report.json")) is not None}
    provenance = {c: p for c in prepared.contracts if (p := read(f"{c}.provenance.json")) is not None}
    return Batch(
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=rss_mb,
        exit_code=exit_code,
        digest=digest.hexdigest(),
        reached=reached,
        reports=reports,
        provenance=provenance,
        artifact_bytes=artifact_bytes,
        server=prepared.server.stats() if prepared.server else {},
    )


# ---------------------------------------------------------------------------
# checks and metrics


@dataclass
class Counts:
    contracts: int
    tasks: int
    failed_tasks: int
    first_try_ok: int
    calls: int
    prompt_chars: int
    completion_chars: int
    prefix_share: float
    prefix_base: str


def count(prepared: Prepared, batch: Batch) -> Counts:
    """Exact model-facing counts of one batch.

    Calls are provenance attempts plus one coverage call per report. With
    the fake server, characters are the server's own counts; with a mock
    script (where every task succeeds on its only attempt) they are the
    recorded populate prompts and scripted replies of each provenance
    record.
    """
    records = [r for p in batch.provenance.values() for r in p.values()]
    attempts = sum(r["attempts"] for r in records)
    coverage_calls = len(batch.reports) if prepared.coverage else 0
    if prepared.server:
        prompt_chars = batch.server["prompt_chars"]
        completion_chars = batch.server["completion_chars"]
    else:
        prompt_chars = sum(len(prepared.prompts[r["prompt_hash"]]) * r["attempts"] for r in records)
        completion_chars = sum(len(prepared.replies[r["prompt_hash"]]) * r["attempts"] for r in records)
    shared = mean_total = 0.0
    prompt_count = 0
    for provenance in batch.provenance.values():
        texts = [prepared.prompts[r["prompt_hash"]] for r in provenance.values()]
        if texts:
            shared += len(os.path.commonprefix(texts))
            mean_total += sum(map(len, texts)) / len(texts)
            prompt_count += len(texts)
    return Counts(
        contracts=len(prepared.contracts),
        tasks=len(records),
        failed_tasks=sum(1 for r in records if r.get("failed")),
        first_try_ok=sum(1 for r in records if r["attempts"] == 1 and not r.get("failed")),
        calls=attempts + coverage_calls,
        prompt_chars=prompt_chars,
        completion_chars=completion_chars,
        prefix_share=shared / mean_total if mean_total else 0.0,
        prefix_base=f"{prompt_count} populate prompts in {len(batch.provenance)} contracts",
    )


def check(prepared: Prepared, batch: Batch, reference: Optional[Batch]) -> list[str]:
    """Problems with one batch's outputs; empty when the batch is correct."""
    problems = []
    if batch.exit_code != 0:
        problems.append(f"pipeline exited with {batch.exit_code}")
    if batch.reached != len(prepared.contracts):
        problems.append(f"{batch.reached} of {len(prepared.contracts)} contracts reached the summary")
    for name in prepared.contracts:
        report = batch.reports.get(name)
        if report is None:
            problems.append(f"{name}: no report")
        elif not report["syntactical_correctness"] == report["schema_adherence"] == 100:
            problems.append(
                f"{name}: syntactical {report['syntactical_correctness']}, "
                f"adherence {report['schema_adherence']}"
            )
        elif prepared.coverage and report.get("coverage_score") is None:
            problems.append(f"{name}: no coverage score")
    if reference is not None and batch.digest != reference.digest:
        problems.append("artifacts differ from the first batch of this seed")
    if prepared.server:
        counts = count(prepared, batch)
        stats = batch.server
        if stats["requests"] != counts.calls:
            problems.append(
                f"server saw {stats['requests']} requests, provenance and coverage account for {counts.calls}"
            )
        coverage_calls = len(batch.reports) if prepared.coverage else 0
        for kind, expected in (
            ("populate", counts.tasks),
            ("repair", counts.calls - coverage_calls - counts.tasks),
            ("coverage", coverage_calls),
        ):
            if stats[kind] != expected:
                problems.append(f"server saw {stats[kind]} {kind} prompts, expected {expected}")
        if stats["max_concurrent"] > MAX_INFLIGHT:
            problems.append(f"server saw {stats['max_concurrent']} concurrent requests")
    return problems


def end_to_end(prepared: Prepared, batches: list[Batch], host: HostMeter, counts: Counts) -> dict:
    contracts = counts.contracts
    scaled = sum(host.scaled(b.wall_s, b.cpu_s) for b in batches)
    return {
        "contracts_per_s": (sum(b.reached for b in batches) / scaled, "1/s"),
        "setup_s": (statistics.median(host.scaled(w, cpu) for w, cpu, _ in prepared.setup_times), "s"),
        "calls_per_contract": (counts.calls / contracts, "count"),
        "prompt_chars_per_contract": (counts.prompt_chars / contracts, "chars"),
        "completion_chars_per_contract": (counts.completion_chars / contracts, "chars"),
        "prefix_share": (counts.prefix_share, "ratio"),
        "task_ok_share": ((counts.tasks - counts.failed_tasks) / counts.tasks if counts.tasks else 0.0, "ratio"),
        "contract_ok_share": (len(batches[0].reports) / contracts, "ratio"),
        "peak_rss_mb": (statistics.median(b.rss_mb for b in batches), "MB"),
    }


def layer_metrics(
    prepared: Prepared,
    traced: Batch,
    trace_path: Path,
    untraced: list[Batch],
    host: HostMeter,
    counts: Counts,
) -> tuple[dict, list[str], list[str]]:
    import tracer
    from cdmgen.treeops import iter_leaf_paths

    untraced_walls = [b.wall_s for b in untraced]
    absent, spans = tracer.load(trace_path)
    layers = tracer.Layers(spans)
    metrics = tracer.per_layer(layers, MAX_INFLIGHT)
    leaves = [
        sum(1 for _ in iter_leaf_paths(json.loads(path.read_text(encoding="utf-8"))["tree"]))
        for path in prepared.out_dir.glob("*.template.json")
    ]
    metrics.update(
        {
            "template_builder.leaves": (statistics.fmean(leaves) if leaves else 0, "count"),
            "knowledge_base.ingest_s": (statistics.median(i for _, _, i in prepared.setup_times), "s"),
            "gateway.server.requests": (traced.server.get("requests", 0), "count"),
            "gateway.server.max_concurrent": (traced.server.get("max_concurrent", 0), "count"),
            "populator.first_try_ok_share": (counts.first_try_ok / counts.tasks if counts.tasks else 0.0, "ratio"),
            "cli.artifact_bytes": (traced.artifact_bytes, "bytes"),
            "trace.wall_s": (traced.wall_s, "s"),
            "trace.overhead_share": (traced.wall_s / statistics.median(untraced_walls) - 1.0, "ratio"),
            "host.reference_s": (statistics.fmean(host.references), "s"),
            "host.unscaled_contracts_per_s": (sum(b.reached for b in untraced) / sum(untraced_walls), "1/s"),
            "trace.spans": (len(spans), "count"),
            "trace.absent": (len(absent), "count"),
        }
    )
    problems = []
    if not set(tracer.CALLS) & set(absent):
        for name, expected in (
            ("gateway.calls", counts.calls),
            ("gateway.prompt_chars", counts.prompt_chars),
            ("gateway.completion_chars", counts.completion_chars),
        ):
            if metrics[name][0] != expected:
                problems.append(f"traced {name} is {metrics[name][0]}, expected {expected}")
    lines = tracer.table(layers)
    if absent:
        lines.append("absent trace targets: " + ", ".join(absent))
    return metrics, problems, lines


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdmgen pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: smallest inputs")
    args = parser.parse_args(argv)

    if not (SRC / "cdmgen" / "cli.py").is_file() or not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: run from the root of a cdmgen source checkout ({SRC} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    prepared = None
    try:
        prepared = prepare(args.workload, args.seed, args.scale, work, env)
        batches: list[Batch] = []
        problems: list[str] = []
        started = time.perf_counter()
        host = HostMeter()
        while len(batches) < 2 or time.perf_counter() - started < args.seconds:
            batch = run_batch(prepared, env)
            prepared.setup_times.append(prepared.setup())
            host.tick()
            problems += check(prepared, batch, batches[0] if batches else None)
            batches.append(batch)
            if batch.exit_code != 0:
                break
        while len(prepared.setup_times) < SETUP_REPEATS:
            prepared.setup_times.append(prepared.setup())
        counts = count(prepared, batches[0])
        metrics = end_to_end(prepared, batches, host, counts)
        report_lines = []
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            traced = run_batch(prepared, env, trace_path)
            problems += check(prepared, traced, batches[0])
            batches.append(traced)
            metrics, trace_problems, report_lines = layer_metrics(
                prepared, traced, trace_path, batches[:-1], host, counts
            )
            problems += trace_problems
        failed = sum(len(prepared.contracts) - len(b.reports) for b in batches)
        attempted = len(prepared.contracts) * len(batches)
    except Exception:
        traceback.print_exc()
        contracts = len(prepared.contracts) if prepared else 1
        print(json.dumps({"correct": False, "attempted": contracts, "failed": contracts, "metrics": {}}))
        return 1
    finally:
        if prepared and prepared.server:
            prepared.server.stop()
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {prepared.sizes}")
    print(f"batches {len(batches)}, walls " + " ".join(f"{b.wall_s:.3f}" for b in batches))
    print("reference task " + " ".join(f"{r:.3f}" for r in host.references))
    print(f"prefix_share base: {counts.prefix_base}")
    for line in report_lines:
        print(line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
