"""Metric catalogue: the single list of what the benchmark reports.

Every workload reports every metric, so runs of different workloads have
the same shape. A per-layer metric of a layer a workload does not exercise
reads 0; its ``workload`` field names where it is meaningful. ``moves``
names the end-to-end metric a change to that layer is expected to move.
BENCHMARK.json lists the same names, units and directions.
"""

from __future__ import annotations

from dataclasses import dataclass

# In-process layers with spans. The cli layer runs in child processes, so
# its time is measured whole: cli.import_ms, cli.query_ms and cli.eval_s.
LAYERS = (
    "layout", "tables", "charts", "preprocess", "chunking", "tokens", "embedding",
    "index", "generation", "providers", "evaluation", "costs",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workload: str = "all"
    moves: str = ""
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("latency_p50_ms", "ms", "lower", bound=0.25),
    Metric("latency_tail_ms", "ms", "lower", bound=0.25),
    Metric("items_per_s", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("index_bytes_per_chunk", "B", "lower", bound=0.05),
    Metric("accuracy", "ratio", "higher", bound=0.15),
    Metric("retrieval_hit_rate", "ratio", "higher", bound=0.15),
    Metric("cost_usd_per_question", "USD", "lower", bound=0.15),
)

_INGEST_RATE = "items_per_s"
_QUERY = "latency_p50_ms"

PER_LAYER = (
    Metric("layout.parse_ms_per_doc", "ms", "lower", "ingest", _INGEST_RATE),
    Metric("preprocess.ms_per_doc", "ms", "lower", "ingest", _INGEST_RATE),
    Metric("tables.flattened", "count", "lower", "ingest", _INGEST_RATE),
    Metric("charts.converted", "count", "lower", "ingest", _INGEST_RATE),
    Metric("charts.skipped", "count", "lower", "ingest", _INGEST_RATE),
    Metric("chunking.split_ms_per_page", "ms", "lower", "ingest", _INGEST_RATE),
    Metric("chunking.chunks", "count", "lower", "ingest", _INGEST_RATE),
    Metric("chunking.tokens_per_chunk", "count", "higher", "ingest", _INGEST_RATE),
    Metric("embedding.us_per_chunk", "us", "lower", "ingest", _INGEST_RATE),
    Metric("embedding.features_per_chunk", "count", "lower", "ingest", _INGEST_RATE),
    Metric("embedding.us_per_question", "us", "lower", "qa", _QUERY),
    Metric("index.upsert_ms_per_doc", "ms", "lower", "ingest", _INGEST_RATE),
    Metric("index.persist_s", "s", "lower", "ingest", _INGEST_RATE),
    Metric("index.load_s", "s", "lower", "qa", "setup_s"),
    Metric("index.search_unfiltered_ms", "ms", "lower", "qa", _QUERY),
    Metric("index.search_unfiltered_p99_ms", "ms", "lower", "qa", "latency_tail_ms"),
    Metric("index.search_1filter_ms", "ms", "lower", "qa", _QUERY),
    Metric("index.search_1filter_p99_ms", "ms", "lower", "qa", "latency_tail_ms"),
    Metric("index.search_2filter_ms", "ms", "lower", "qa", _QUERY),
    Metric("index.search_2filter_p99_ms", "ms", "lower", "qa", "latency_tail_ms"),
    Metric("index.candidates_per_search", "count", "lower", "qa", _QUERY),
    Metric("generation.prompt_ms", "ms", "lower", "qa", _QUERY),
    Metric("generation.prompt_tokens", "count", "lower", "qa", "cost_usd_per_question"),
    Metric("providers.lookup_llm_ms", "ms", "lower", "qa", _QUERY),
    Metric("evaluation.score_us", "us", "lower", "qa", _QUERY),
    Metric("cli.import_ms", "ms", "lower", "qa", "setup_s"),
    Metric("cli.query_ms", "ms", "lower", "qa", ""),
    Metric("cli.eval_s", "s", "lower", "qa", ""),
    *(
        Metric(f"{layer}.self_ms_per_op", "ms", "lower", "all", _QUERY)
        for layer in LAYERS
    ),
    Metric("trace.overhead_ms_per_op", "ms", "lower", "all", ""),
    Metric("trace.spans_per_op", "count", "lower", "all", ""),
)
