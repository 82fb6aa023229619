"""Command-line surface: ingest, query, eval, cost.

Failures exit non-zero with a one-line JSON error object on stderr so
calling scripts can parse them. The HTTP LLM's endpoint and API key are
read from environment variables only (DOCRAG_LLM_ENDPOINT,
DOCRAG_LLM_KEY); flags never carry secrets. Setting precedence: CLI
flag, then --config file, then built-in default. Queries embed with the
one embedder an index header can name, and refuse any other header.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .chunking import DEFAULT_CHUNK_SIZE, split_pages
from .costs import DEFAULT_PRICING, PricingConfig, format_cost_report, load_pricing
from .embedding import HashingEmbedder
from .errors import DocragError
from .evaluation import DEFAULT_EVAL_WORKERS, load_dataset, run_eval, write_report
from .generation import answer_question
from .index import DEFAULT_K, IndexEntry, RetrievalConfig, VectorIndex, embed
from .layout import parse_layout_payload
from .preprocess import TABLE_FORMATS, preprocess_document
from .providers import (
    ContextLookupLLM,
    DirectoryChartProvider,
    HttpLLM,
    MockLLM,
    NullChartProvider,
)
from .tokens import DEFAULT_TOKENIZER


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return config


def _setting(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _coerce_filter_value(value: str):
    # integer-looking values compare against integer metadata (year, page)
    try:
        return int(value)
    except ValueError:
        return value


def _parse_filters(pairs: list[str] | None) -> tuple[tuple[str, object], ...]:
    filters = []
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad filter {pair!r}; expected key=value")
        filters.append((name, _coerce_filter_value(value)))
    return tuple(filters)


def _embedder_for_index(index: VectorIndex) -> HashingEmbedder:
    """The query embedder the index header names; any other header is refused."""
    if index.tokenizer_tag != DEFAULT_TOKENIZER.tag:
        raise ValueError(
            f"index was built with unknown tokenizer {index.tokenizer_tag!r}; "
            f"expected {DEFAULT_TOKENIZER.tag!r}"
        )
    embedder = HashingEmbedder(dimension=index.dimension)
    if embedder.tag != index.provider_tag:
        raise ValueError(
            f"index was built with unknown embedding provider {index.provider_tag!r} "
            f"for dimension {index.dimension}"
        )
    return embedder


def _llm_for(name: str, answers_path: str | None):
    if name == "lookup":
        return ContextLookupLLM()
    if name == "mock":
        answers = {}
        if answers_path:
            with open(answers_path, encoding="utf-8") as handle:
                answers = json.load(handle)
        return MockLLM(answers)
    if name == "http":
        return HttpLLM()
    raise ValueError(f"unknown provider {name!r}; expected lookup, mock, or http")


def _pricing_from(args, config: dict) -> PricingConfig:
    path = _setting(getattr(args, "pricing", None), config, "pricing", None)
    pricing = load_pricing(path) if path else DEFAULT_PRICING
    tokens = getattr(args, "tokens_per_page", None)
    if tokens is not None:
        pricing = PricingConfig(
            tokens_per_page=tokens,
            per_token=pricing.per_token,
            per_call_flat=pricing.per_call_flat,
            per_page=pricing.per_page,
            credits=pricing.credits,
        )
    return pricing


def cmd_ingest(args, config: dict) -> int:
    layout_dir = Path(args.layout)
    table_format = _setting(args.table_format, config, "table_format", "json")
    chunk_size = int(_setting(args.chunk_size, config, "chunk_size", DEFAULT_CHUNK_SIZE))
    payload_paths = sorted(layout_dir.glob("*.json"))
    if not payload_paths:
        raise ValueError(f"no layout payloads (*.json) found in {layout_dir}")

    charts_dir = _setting(args.charts, config, "charts", None)
    if charts_dir is None and (layout_dir / "charts").is_dir():
        charts_dir = layout_dir / "charts"
    chart_provider = DirectoryChartProvider(charts_dir) if charts_dir else NullChartProvider()

    embedder = HashingEmbedder()
    index = VectorIndex(
        dimension=embedder.dimension,
        tokenizer_tag=DEFAULT_TOKENIZER.tag,
        provider_tag=embedder.tag,
    )
    documents = 0
    for path in payload_paths:
        with open(path, encoding="utf-8") as handle:
            payload = parse_layout_payload(json.load(handle))
        pages = preprocess_document(payload, chart_provider, table_format)
        chunks = split_pages(pages, chunk_size=chunk_size, attributes=payload.attributes)
        index.upsert_many(
            [IndexEntry(chunk=c, vector=tuple(embed(c.text, embedder))) for c in chunks]
        )
        documents += 1
    index.persist(args.index)
    print(f"indexed {len(index)} chunks from {documents} documents into {args.index}")
    return 0


def cmd_query(args, config: dict) -> int:
    index = VectorIndex.load(args.index)
    embedder = _embedder_for_index(index)
    k = int(_setting(args.k, config, "k", DEFAULT_K))
    retrieval = RetrievalConfig(k=k, filters=_parse_filters(args.filter))
    provider = _llm_for(_setting(args.provider, config, "provider", "lookup"), args.answers)
    model_tag = _setting(args.model_tag, config, "model_tag", None)

    answer = answer_question(
        args.question, index, retrieval, provider, embedder, model_tag=model_tag
    )
    print(f"answer: {answer.text}")
    print("retrieved:")
    for result in answer.retrieved:
        print(f"  {result.chunk.chunk_id}  {result.score:.6f}")
    return 0


def cmd_eval(args, config: dict) -> int:
    workers = int(_setting(None, config, "eval_workers", DEFAULT_EVAL_WORKERS))
    if workers < 1:
        raise ValueError(f"eval_workers must be >= 1, got {workers}")
    index = VectorIndex.load(args.index)
    embedder = _embedder_for_index(index)
    examples = load_dataset(args.dataset)
    provider = _llm_for(_setting(args.provider, config, "provider", "lookup"), args.answers)
    report = run_eval(
        examples,
        index,
        provider,
        embedder,
        k=int(_setting(args.k, config, "k", DEFAULT_K)),
        model_tag=_setting(args.model_tag, config, "model_tag", None),
        pricing=_pricing_from(args, config),
        max_workers=workers,
    )
    write_report(report, args.report)
    print(
        f"accuracy {report.accuracy:.3f} ({report.correct}/{report.total}), "
        f"cost ${report.total_cost_usd:.4f}, report written to {args.report}"
    )
    return 0


def cmd_cost(args, config: dict) -> int:
    print(format_cost_report(_pricing_from(args, config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docrag",
        description="Document pre-processing and retrieval-augmented QA toolkit.",
    )
    parser.add_argument("--config", help="JSON config file with default settings")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="build and persist an index from layout payloads")
    ingest.add_argument("--layout", required=True, help="directory of layout payload JSON files")
    ingest.add_argument("--index", required=True, help="output index file")
    ingest.add_argument("--table-format", choices=TABLE_FORMATS, dest="table_format")
    ingest.add_argument("--chunk-size", type=int, dest="chunk_size")
    ingest.add_argument("--charts", help="directory of chart CSV fixtures")
    ingest.set_defaults(handler=cmd_ingest)

    query = sub.add_parser("query", help="answer one question against an index")
    query.add_argument("--index", required=True)
    query.add_argument("--question", required=True)
    query.add_argument("--k", type=int)
    query.add_argument(
        "--filter",
        action="append",
        metavar="KEY=VALUE",
        help="metadata equality filter; repeatable; integer-looking values compare as integers",
    )
    query.add_argument("--provider", choices=("lookup", "mock", "http"))
    query.add_argument("--answers", help="JSON question-to-answer mapping for --provider mock")
    query.add_argument("--model-tag", dest="model_tag")
    query.set_defaults(handler=cmd_query)

    evaluate = sub.add_parser("eval", help="run a QA dataset and write a report")
    evaluate.add_argument("--index", required=True)
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--report", required=True)
    evaluate.add_argument("--k", type=int)
    evaluate.add_argument("--provider", choices=("lookup", "mock", "http"))
    evaluate.add_argument("--answers", help="JSON question-to-answer mapping for --provider mock")
    evaluate.add_argument("--model-tag", dest="model_tag")
    evaluate.add_argument("--pricing", help="JSON pricing override file")
    evaluate.set_defaults(handler=cmd_eval)

    cost = sub.add_parser("cost", help="print the per-page and per-call cost comparison")
    cost.add_argument("--pricing", help="JSON pricing override file")
    cost.add_argument("--tokens-per-page", type=int, dest="tokens_per_page")
    cost.set_defaults(handler=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except (DocragError, ValueError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
