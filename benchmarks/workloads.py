"""Run one measured workload in a process of its own and write its result.

``run.py`` calls this after it has generated the corpus and, for qa,
built the index with ``docrag ingest``, so the peak RSS seen here covers
the workload (and the processes it starts), not the preparation. Both
workloads are one client in a closed loop: each operation starts when the
previous one has finished, and no threads are started here.

    ingest  whole passes of cmd_ingest's calls (ingest_pass.py)
    qa      whole passes of answer_question -> score_answer ->
            cost_per_call over every question of the corpus (qa_pass.py);
            then the checks and the CLI path as ``docrag eval`` and
            ``docrag query`` processes

Each pass is a fresh process, and passes run in whole groups of three,
for at least --seconds. No timed input is repeated within a process, so a
memo or cache in the program helps a timed operation only as much as it
would help one ``docrag ingest`` or one evaluation. An operation's time
is the CPU time of its process while it ran (``time.process_time``): it
runs alone and waits for no input, so its CPU time is its wall time less
the spells the host took the CPU away. Wall times are recorded next to it
in the ``env`` line.

The host also has spells, from about a second to longer than a pass, in
which everything runs up to half as fast again, and runs differ in how
much of them they catch. So within each group of passes an operation
counts at its time in the slowest of the passes, which keeps to the usual
speed unless every pass caught a spell at it; medians and rates are taken
over those times. Tails are taken over every operation that ran (see
Run.latencies).

With ``--trace 1`` every other pass is traced; the per-layer metrics come
from the traced passes and the tracing overhead is the mean traced
operation less the mean untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from docrag.chunking import ChunkMetadata
from docrag.embedding import HashingEmbedder
from docrag.evaluation import load_dataset
from docrag.index import DEFAULT_K, RetrievalConfig, VectorIndex, embed
from docrag.providers import ContextLookupLLM

from metrics import END_TO_END, LAYERS, PER_LAYER
from qa_pass import MODEL_TAG, SEARCH_CLASSES, answer_partwise
from tracing import NullTracer, Tracer, wrapped

BENCH_DIR = Path(__file__).resolve().parent


class Sizes:
    """Work per run, besides the corpus itself."""

    def __init__(self, tiny: bool):
        self.passes = 2 if tiny else 3  # per group; whole groups run
        self.cli_queries = 2  # checked docrag query processes per run
        self.cli_traced_queries = 3 if tiny else 11  # with --trace 1
        self.eval_questions = 20 if tiny else 200
        self.setup_reps = 1  # after each pass
        self.import_reps = 1 if tiny else 5
        self.brute_force_searches = 5 if tiny else 30
        # with --trace 1; a multiple of the 0/1/2-filter rotation
        self.counted_searches = 30 if tiny else 150


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (at most 99; the median for fewer than twenty samples)."""
    return max(50, min(99, math.floor(100 - 1000 / max(samples, 1))))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "docrag.cli", *argv]


class Run:
    """Operation and check bookkeeping shared by every workload."""

    def __init__(self, args):
        self.args = args
        self.sizes = Sizes(args.tiny)
        self.tracer = Tracer() if args.trace else NullTracer()
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
        self.env: dict = {}

    def op_failed(self, what: str) -> None:
        self.failed += 1
        sys.stderr.write(f"benchmark: {what} failed\n{traceback.format_exc()}\n")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"benchmark: check failed: {what}\n")

    def child(self, argv: list[str], what: str) -> tuple[float, subprocess.CompletedProcess]:
        """Run a process to its end; a non-zero exit is a failed operation."""
        self.attempted += 1
        started = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            self.failed += 1
            sys.stderr.write(f"benchmark: {what} failed: {done.stderr[-500:]}\n")
        return wall, done

    def passes(self, argv: list[str], result_path: Path, check, setup: list[str]) -> dict[bool, list[dict]]:
        """Run fresh-process passes, in whole groups and for at least
        --seconds; in a traced run every other pass gets ``--trace``.
        ``argv`` writes a pass's result to ``result_path``, and ``check``
        checks each result. After each pass, ``setup_reps`` set-up probes
        (probe.py with the arguments ``setup``) run; setup_s is the median
        of their wall times. Returns the results, keyed by traced or not."""
        setup_walls = []
        passes = {False: [], True: []}
        group = self.sizes.passes
        started = time.perf_counter()
        count = 0
        while count % group or count < group or time.perf_counter() - started < self.args.seconds:
            traced = self.tracer.enabled and count % 2 == 1
            _, done = self.child(argv + (["--trace"] if traced else []), f"pass {count}")
            count += 1
            if done.returncode != 0:
                break
            result = json.loads(result_path.read_text(encoding="utf-8"))
            check(result)
            passes[traced].append(result)
            setup_walls += [
                self.child([sys.executable, str(BENCH_DIR / "probe.py"), *setup], "set-up probe")[0]
                for _ in range(self.sizes.setup_reps)
            ]
        if setup_walls:
            self.e2e["setup_s"] = statistics.median(setup_walls)
        return passes

    def slowest(self, per_pass: list[list]) -> list[list]:
        """For each group of passes, each operation at its (wall, cpu) in
        the group's slowest pass at it, by CPU time. ``per_pass`` holds
        each pass's operations in the same order; an operation that failed
        (None) in any pass of the group is left out."""
        group = self.sizes.passes
        return [
            [max(times, key=lambda t: t[1]) for times in zip(*per_pass[i:i + group]) if None not in times]
            for i in range(0, len(per_pass), group)
        ]

    def latencies(self, per_pass: list[list], typical: list) -> None:
        """Set the latency metrics from (wall, cpu) seconds per operation:
        the median over ``typical``, the tail over the operations of every
        pass. When a pass alone has enough operations for a p99 (qa's
        1,050 questions), the tail is the median over the passes of each
        pass's p99: the unfiltered searches that make qa's tail slow down
        more than the rest in the host's slow spells, and the median drops
        the pass that caught one. Otherwise (ingest's 70 documents) the
        passes are pooled."""
        passes = [[op for op in ops if op] for ops in per_pass]
        pooled = [op for ops in passes for op in ops]
        if passes and min(map(len, passes)) >= 1000:
            tail = 99
            tails = [(percentile([w for w, _ in ops], tail), percentile([c for _, c in ops], tail))
                     for ops in passes]
            wall_tail, cpu_tail = (statistics.median(t[i] for t in tails) for i in (0, 1))
        else:
            tail = tail_percentile(len(pooled))
            wall_tail = percentile([w for w, _ in pooled], tail)
            cpu_tail = percentile([c for _, c in pooled], tail)
        self.e2e["latency_p50_ms"] = percentile([c for _, c in typical], 50) * 1e3
        self.e2e["latency_tail_ms"] = cpu_tail * 1e3
        self.env.update({
            "latency_samples": len(pooled),
            "latency_tail_percentile": tail,
            "wall_p50_ms": percentile([w for w, _ in typical], 50) * 1e3,
            "wall_tail_ms": wall_tail * 1e3,
        })

    def answers(self, index_path: Path, dataset: Path) -> list:
        """One untimed qa pass: each question's outcome, for the quality
        metrics of a workload that times no questions."""
        result_path = Path(self.args.work) / "answers.json"
        _, done = self.child([sys.executable, str(BENCH_DIR / "qa_pass.py"), str(index_path), str(dataset),
                              str(result_path)], "qa pass")
        if done.returncode != 0:
            return []
        outcomes = json.loads(result_path.read_text(encoding="utf-8"))["outcomes"]
        self.attempted += len(outcomes)
        self.failed += outcomes.count(None)
        return outcomes


def set_quality(run: Run, examples, outcomes: list) -> None:
    """The exact answer-quality metrics over every question."""
    count = len(examples)
    done = [(e, o) for e, o in zip(examples, outcomes) if o]
    run.e2e["accuracy"] = sum(o["correct"] for _, o in done) / count
    run.e2e["retrieval_hit_rate"] = sum(
        any(document_id == e.document_id for _, document_id, _ in o["retrieved"]) for e, o in done
    ) / count
    run.e2e["cost_usd_per_question"] = sum(o["cost"] for _, o in done) / count


# --- ingest -------------------------------------------------------------------


def workload_ingest(run: Run, corpus: Path, reference_path: Path) -> None:
    """Passes of every document; every pass's index must equal the one
    ``docrag ingest`` writes."""
    layout_dir = corpus / "layout"
    work = Path(run.args.work)
    run.child(_cli("ingest", "--layout", str(layout_dir), "--index", str(reference_path)), "docrag ingest")
    reference = hashlib.sha256(reference_path.read_bytes()).hexdigest()

    result_path = work / "pass.json"
    passes = run.passes(
        [sys.executable, str(BENCH_DIR / "ingest_pass.py"), str(layout_dir),
         str(work / "replica.index"), str(result_path)],
        result_path,
        lambda result: run.check(result["digest"] == reference,
                                 "replica index is byte-identical to docrag ingest's"),
        ["ingest", str(layout_dir)],
    )
    untraced = passes[False]
    docs = run.slowest([p["ops"] for p in untraced])
    persists = run.slowest([[p["persist"]] for p in untraced])
    run.latencies([p["ops"] for p in untraced], [op for group in docs for op in group])
    # chunks per CPU second of a pass at those times, persist included;
    # median over groups
    run.e2e["items_per_s"] = statistics.median(
        p["chunks"] / (sum(c for _, c in group) + persist[1])
        for p, group, (persist,) in zip(untraced[::run.sizes.passes], docs, persists)
    )
    run.env["wall_items_per_s"] = statistics.median(
        p["chunks"] / (sum(w for w, _ in p["ops"]) + p["persist"][0]) for p in untraced
    )

    examples = load_dataset(corpus / "qa.jsonl")
    set_quality(run, examples, run.answers(reference_path, corpus / "qa.jsonl"))

    if run.tracer.enabled and passes[True]:
        traced = passes[True]
        tracer = run.tracer
        for p in traced:
            tracer.extend(p["spans"])
        index = VectorIndex.load(reference_path)
        docs = sum(len(p["ops"]) for p in traced)
        per_pass = lambda name: len(tracer.durations(name)) / len(traced)  # noqa: E731
        embeds = tracer.durations("embedding.embed")
        token_counts = [index.get(cid).chunk.token_count for cid in index.chunk_ids()]
        run.layer.update({
            "layout.parse_ms_per_doc": sum(tracer.durations("layout.parse_layout_payload")) / docs * 1e3,
            "preprocess.ms_per_doc": sum(tracer.durations("preprocess.preprocess_document")) / docs * 1e3,
            "tables.flattened": per_pass("tables.flatten_table"),
            "charts.converted": per_pass("charts.chart_csv_to_records"),
            "charts.skipped": per_pass("providers.csv_for") - per_pass("charts.chart_csv_to_records"),
            "chunking.split_ms_per_page": (
                sum(tracer.durations("chunking.split_pages")) / sum(p["pages"] for p in traced) * 1e3
            ),
            "chunking.chunks": _mean(p["chunks"] for p in traced),
            "chunking.tokens_per_chunk": _mean(token_counts),
            "embedding.us_per_chunk": _mean(embeds) * 1e6,
            "embedding.features_per_chunk": sum(p["counts"]["embedding.features"] for p in traced) / len(embeds),
            "index.upsert_ms_per_doc": sum(tracer.durations("index.upsert_many")) / docs * 1e3,
            "index.persist_s": statistics.median(tracer.durations("index.persist")),
            "trace.overhead_ms_per_op": (
                _mean(c for p in traced for _, c in p["ops"])
                - _mean(c for p in untraced for _, c in p["ops"])
            ) * 1e3,
        })


# --- qa -------------------------------------------------------------------------


def _brute_force(index: VectorIndex, norms: dict, query, filters, k):
    """Pure-Python exact scan, the oracle of acceptance criterion 06."""
    query_norm = math.sqrt(sum(x * x for x in query))
    scored = []
    for chunk_id in index.chunk_ids():
        entry = index.get(chunk_id)
        metadata = entry.chunk.metadata.as_dict()
        if not all(metadata.get(name) == value for name, value in filters):
            continue
        if query_norm == 0.0 or norms[chunk_id] == 0.0:
            score = 0.0
        else:
            score = sum(a * b for a, b in zip(entry.vector, query)) / (norms[chunk_id] * query_norm)
        scored.append((score, chunk_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored[:k]


def check_brute_force(run: Run, index: VectorIndex, examples) -> None:
    rng = random.Random(run.args.seed)
    embedder = HashingEmbedder(dimension=index.dimension)
    norms = {
        cid: math.sqrt(sum(x * x for x in index.get(cid).vector)) for cid in index.chunk_ids()
    }
    for example in rng.sample(examples, min(run.sizes.brute_force_searches, len(examples))):
        query = embed(example.question, embedder)
        results = index.search(query, RetrievalConfig(k=DEFAULT_K, filters=example.filters))
        expected = _brute_force(index, norms, query, example.filters, DEFAULT_K)
        run.check(
            [r.chunk.chunk_id for r in results] == [cid for _, cid in expected]
            and all(
                math.isclose(r.score, score, rel_tol=1e-9, abs_tol=1e-12)
                for r, (score, _) in zip(results, expected)
            ),
            f"search equals brute-force scan ({example.question!r})",
        )


def check_partwise(run: Run, index: VectorIndex, examples, outcomes: list) -> None:
    """answer_partwise, the path traced passes time, gives the outcome
    answer_question gave in the first pass, for a seeded sample of the
    questions. (In a traced run the traced pass checks every question.)"""
    rng = random.Random(run.args.seed + 1)
    embedder = HashingEmbedder(dimension=index.dimension)
    llm = ContextLookupLLM()
    for position in rng.sample(range(len(outcomes)), min(run.sizes.brute_force_searches, len(outcomes))):
        example = examples[position]
        config = RetrievalConfig(k=DEFAULT_K, filters=example.filters)
        answer, results = answer_partwise(example.question, index, config, llm, embedder, NullTracer())
        outcome = outcomes[position]
        run.check(
            outcome is not None
            and [answer.text, answer.prompt_token_count, answer.completion_token_count]
            == [outcome["answer"], outcome["prompt_tokens"], outcome["completion_tokens"]]
            and [[r.chunk.chunk_id, r.chunk.metadata.document_id, r.score] for r in results]
            == outcome["retrieved"],
            f"part-wise answer equals answer_question's ({example.question!r})",
        )


def count_candidates(run: Run, index: VectorIndex, examples) -> None:
    """index.candidates_per_search: the metadata rows the filter reads,
    counted from the program's own ``ChunkMetadata.as_dict`` calls over
    untimed searches for the first questions."""
    tracer = run.tracer
    embedder = HashingEmbedder(dimension=index.dimension)
    sample = examples[: run.sizes.counted_searches]
    with wrapped(tracer, [(ChunkMetadata, "as_dict", tracer.counted("index.metadata_reads"))]):
        for example in sample:
            index.search(embed(example.question, embedder), RetrievalConfig(k=DEFAULT_K, filters=example.filters))
    run.layer["index.candidates_per_search"] = tracer.counts.get("index.metadata_reads", 0) / len(sample)


def workload_qa(run: Run, corpus: Path, index_path: Path) -> None:
    """Passes over every question; every pass must give the first pass's
    outcomes, so in a traced run the part-wise path must give
    answer_question's. Then, untimed, the CLI processes and the
    brute-force and part-wise checks."""
    dataset = corpus / "qa.jsonl"
    examples = load_dataset(dataset)
    started = time.perf_counter()
    index = VectorIndex.load(index_path)
    run.layer["index.load_s"] = time.perf_counter() - started

    first: list[list] = []

    def check(result: dict) -> None:
        run.attempted += len(result["ops"])
        run.failed += result["ops"].count(None)
        if first:
            run.check(result["outcomes"] == first[0], "a pass gives the first pass's outcomes")
        else:
            first.append(result["outcomes"])

    result_path = Path(run.args.work) / "pass.json"
    passes = run.passes(
        [sys.executable, str(BENCH_DIR / "qa_pass.py"), str(index_path), str(dataset), str(result_path)],
        result_path, check, ["serve", str(index_path)],
    )
    untraced = passes[False]
    ops = run.slowest([p["ops"] for p in untraced])
    run.latencies([p["ops"] for p in untraced], [op for group in ops for op in group])
    # questions per CPU second at those times; median over groups
    run.e2e["items_per_s"] = statistics.median(len(group) / sum(c for _, c in group) for group in ops)
    outcomes = first[0] if first else []
    set_quality(run, examples, outcomes)

    cli = CliProcesses(run, corpus, index_path, examples)
    cli.evaluate()
    for _ in range(run.sizes.cli_queries):
        cli.query()
    check_brute_force(run, index, examples)
    check_partwise(run, index, examples, outcomes)

    tracer = run.tracer
    if tracer.enabled and passes[True]:
        traced = passes[True]
        for p in traced:
            tracer.extend(p["spans"])
        for cls in SEARCH_CLASSES:
            durations = tracer.durations(f"index.search_{cls}")
            run.layer[f"index.search_{cls}_ms"] = percentile(durations, 50) * 1e3
            run.layer[f"index.search_{cls}_p99_ms"] = percentile(durations, 99) * 1e3
        count_candidates(run, index, examples)
        run.layer.update({
            "embedding.us_per_question": _mean(tracer.durations("embedding.embed")) * 1e6,
            "generation.prompt_ms": _mean(tracer.durations("generation.build_prompt")) * 1e3,
            "generation.prompt_tokens": _mean(o["prompt_tokens"] for o in outcomes if o),
            "providers.lookup_llm_ms": _mean(tracer.durations("providers.complete")) * 1e3,
            "evaluation.score_us": _mean(tracer.durations("evaluation.score_answer")) * 1e6,
            "trace.overhead_ms_per_op": (
                _mean(op[1] for p in traced for op in p["ops"] if op)
                - _mean(op[1] for p in untraced for op in p["ops"] if op)
            ) * 1e3,
        })
        for _ in range(run.sizes.cli_traced_queries - run.sizes.cli_queries):
            cli.query()
        run.layer.update(cli.timings())
    cli.check(outcomes)


# --- the CLI as whole processes ------------------------------------------------


class CliProcesses:
    """``python -m docrag.cli`` processes against the qa workload's index,
    run one at a time after the passes.

    Their wall times are per-layer metrics of the ``cli`` layer, not
    end-to-end ones: a whole process is mostly interpreter start-up, import
    and index load, and on a shared machine its time drifts with the host
    by more than an end-to-end bound allows.
    """

    def __init__(self, run: Run, corpus: Path, index_path: Path, examples):
        self.run, self.index_path = run, index_path
        work = Path(run.args.work)
        self.eval_set = examples[: run.sizes.eval_questions]
        self.eval_path = work / "eval.jsonl"
        with open(corpus / "qa.jsonl", encoding="utf-8") as source:
            self.eval_path.write_text(
                "".join(source.readlines()[: len(self.eval_set)]), encoding="utf-8"
            )
        self.config_path = work / "cli-config.json"
        self.config_path.write_text(json.dumps({
            "provider": "lookup",
            "model_tag": MODEL_TAG,
            # one client: the eval answers its questions one at a time
            "eval_workers": 1,
        }), encoding="utf-8")
        self.report_path = work / "report.json"
        self.asked = 0
        self.queries: list[tuple[int, str, float]] = []  # position, stdout, wall
        self.reports: list[tuple[dict, float]] = []

    def evaluate(self) -> None:
        wall, done = self.run.child(_cli(
            "--config", str(self.config_path), "eval", "--index", str(self.index_path),
            "--dataset", str(self.eval_path), "--report", str(self.report_path),
        ), "docrag eval")
        if done.returncode == 0:
            self.reports.append((json.loads(self.report_path.read_text(encoding="utf-8")), wall))

    def query(self) -> None:
        """A ``docrag query`` process for the next question of the eval set."""
        self.asked += 1
        example = self.eval_set[self.asked - 1]
        argv = _cli("--config", str(self.config_path), "query", "--index", str(self.index_path),
                    "--question", example.question)
        for name, value in example.filters:
            argv += ["--filter", f"{name}={value}"]
        wall, done = self.run.child(argv, "docrag query")
        if done.returncode == 0:
            self.queries.append((self.asked - 1, done.stdout, wall))

    def check(self, outcomes: list) -> None:
        """docrag query prints the answer and retrieval of the first qa
        pass; docrag eval reports that pass's correct count and cost over
        the same questions."""
        expected = outcomes[: len(self.eval_set)]
        for position, stdout, _ in self.queries:
            outcome = expected[position] if position < len(expected) else None
            self.run.check(
                outcome is not None and stdout.splitlines() == [
                    f"answer: {outcome['answer']}", "retrieved:",
                    *(f"  {chunk_id}  {score:.6f}" for chunk_id, _, score in outcome["retrieved"]),
                ],
                f"docrag query output equals in-process answer ({self.eval_set[position].question!r})",
            )
        correct = sum(o["correct"] for o in expected if o)
        cost = sum(o["cost"] for o in expected if o)
        for report, _ in self.reports:
            self.run.check(
                report["correct"] == correct and report["total"] == len(self.eval_set)
                and math.isclose(report["total_cost_usd"], cost, rel_tol=1e-9),
                "docrag eval accuracy and cost equal the in-process ones",
            )

    def timings(self) -> dict[str, float]:
        imports = [
            self.run.child([sys.executable, "-c", "import docrag.cli"], "import docrag.cli")[0]
            for _ in range(self.run.sizes.import_reps)
        ]
        return {
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.query_ms": statistics.median(wall for _, _, wall in self.queries) * 1e3,
            "cli.eval_s": min((wall for _, wall in self.reports), default=0.0),
        }


# --- entry point -----------------------------------------------------------------


WORKLOADS = {"ingest": workload_ingest, "qa": workload_qa}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--index", required=True, help="index written by docrag ingest")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    run = Run(args)
    index_path = Path(args.index)
    try:
        WORKLOADS[args.workload](run, Path(args.corpus), index_path)
    except Exception:
        run.attempted += 1
        run.op_failed(f"workload {args.workload}")
    if index_path.is_file():
        with open(index_path, encoding="utf-8") as handle:
            chunks = json.loads(handle.readline())["count"]
        run.e2e["index_bytes_per_chunk"] = index_path.stat().st_size / chunks
    else:
        run.check(False, f"{index_path} was written")
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    if run.tracer.enabled:
        tracer = run.tracer
        ops = max(len(tracer.roots()), 1)
        self_s = tracer.self_seconds()
        for layer in LAYERS:
            run.layer[f"{layer}.self_ms_per_op"] = self_s.get(layer, 0.0) / ops * 1e3
        run.layer["trace.spans_per_op"] = len(tracer.spans) / ops
        tracer.write(Path(args.work).parent / f"trace-{args.workload}.jsonl")

    result = {
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "end_to_end": {m.name: run.e2e.get(m.name, 0.0) for m in END_TO_END},
        "per_layer": run.layer,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            **run.env,
        },
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
