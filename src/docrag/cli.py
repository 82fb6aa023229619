"""Command-line surface: ingest, query, eval, cost.

Failures exit 1, and usage errors 2 as argparse's do, each with a
one-line JSON error object on stderr so calling scripts can parse them;
an error in one layout payload names its file first. The HTTP LLM's
endpoint and API key are read from environment variables only
(DOCRAG_LLM_ENDPOINT, DOCRAG_LLM_KEY); flags never carry secrets.
Setting precedence: CLI flag, then --config file, then the built-in
default in ``_SETTINGS``; ``main`` resolves each setting once into
``args``. The config's types and choices are checked before any other
file is read, and the output path (``ingest --index``,
``eval --report``) against ``check_destination`` next, so a bad one
fails before any work. The question commands read the index only after every
cheaper input (answers file, filters, question, dataset, pricing, priced
model tag) has been checked, and ``query`` refuses filters that keep no
chunk of the index, or an index of none, before it embeds. A provider's
name is its LLM's tag. Queries embed with the one embedder an index
header can name, and refuse any other header.

The module loads only what every command shares (chunk rules, the
embedder, the index and the providers). Each ``cmd_*`` imports its own
layer when it runs: ``cmd_ingest`` the layout parser and pre-processing
(with tables and charts), ``cmd_query`` generation, ``cmd_eval`` the eval
harness and pricing, ``cmd_cost`` pricing; ``build_parser`` imports
argparse.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .chunking import DEFAULT_CHUNK_SIZE, DEFAULT_EVAL_WORKERS, INTEGER_FIELDS, TABLE_FORMATS, split_pages
from .embedding import HashingEmbedder
from .errors import DocragError, check_count, check_destination, check_record, read_json
from .index import DEFAULT_K, RetrievalConfig, VectorIndex
from .providers import (
    ContextLookupLLM,
    DirectoryChartProvider,
    HttpLLM,
    MockLLM,
    NullChartProvider,
)
from .tokens import DEFAULT_TOKENIZER

if TYPE_CHECKING:
    import argparse

    from .costs import PricingConfig


# Each LLM by its tag, which names it on the command line and prices its calls.
_LLMS = {llm.tag: llm for llm in (ContextLookupLLM, MockLLM, HttpLLM)}
_PROVIDERS = tuple(_LLMS)

# Each setting's type and default: a config key must hold its type, and a
# setting that neither a flag nor the config gives takes its default.
_SETTINGS = {
    "chunk_size": (int, DEFAULT_CHUNK_SIZE),
    "k": (int, DEFAULT_K),
    "eval_workers": (int, DEFAULT_EVAL_WORKERS),
    "table_format": (str, "json"),
    "charts": (str, None),
    "provider": (str, "lookup"),
    "model_tag": (str, None),
    "pricing": (str, None),
}

# The settings whose flag offers choices: a config value must be one of them.
_CHOICES = {"table_format": TABLE_FORMATS, "provider": _PROVIDERS}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = check_record(read_json(path), "config", _SETTINGS)
    for key, value in config.items():
        kind = _SETTINGS[key][0]
        if type(value) is not kind:
            expected = "an integer" if kind is int else "a string"
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"config key {key!r} must be one of {_CHOICES[key]}, got {value!r}")
    return config


def _parse_filters(pairs: list[str] | None) -> tuple[tuple[str, object], ...]:
    """KEY=VALUE pairs as filters; only an integer field's value is an int.
    ``RetrievalConfig`` refuses a KEY that is no metadata field."""
    filters = []
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad filter {pair!r}; expected key=value")
        if name in INTEGER_FIELDS:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"filter {name} must be an integer, got {value!r}") from None
        filters.append((name, value))
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
    """The LLM named ``name``; an answers file is refused unless it is ``mock``,
    the one provider that reads it, and ``MockLLM`` holds its rule."""
    if name != "mock":
        if answers_path is not None:
            raise ValueError(f"--answers is read only by provider 'mock', not {name!r}")
        return _LLMS[name]()
    answers = read_json(answers_path) if answers_path else {}
    try:
        return MockLLM(answers)
    except ValueError as exc:
        raise ValueError(f"answers file {answers_path}: {exc}") from None


def _reader(args):
    """The index, its query embedder and the LLM that answers from it. The
    LLM comes first, so its provider and answers file are refused before
    the index is read."""
    llm = _llm_for(args.provider, args.answers)
    index = VectorIndex.load(args.index)
    return index, _embedder_for_index(index), llm


def _pricing_from(args) -> PricingConfig:
    from .costs import DEFAULT_PRICING, load_pricing

    pricing = load_pricing(args.pricing) if args.pricing else DEFAULT_PRICING
    tokens = getattr(args, "tokens_per_page", None)
    if tokens is not None:
        pricing = dataclasses.replace(pricing, tokens_per_page=tokens)
    return pricing


def cmd_ingest(args) -> int:
    from .layout import parse_layout_payload
    from .preprocess import preprocess_document

    layout_dir = Path(args.layout)
    payload_paths = sorted(layout_dir.glob("*.json"))
    charts_dir = args.charts
    if charts_dir is None and (layout_dir / "charts").is_dir():
        charts_dir = layout_dir / "charts"
    chart_paths = Path(charts_dir).glob("*.csv") if charts_dir else ()
    check_destination(args.index, *payload_paths, *chart_paths, args.config)
    split_pages([], chunk_size=args.chunk_size)  # refuses a bad chunk size before any payload is read
    if not payload_paths:
        raise ValueError(f"no layout payloads (*.json) found in {layout_dir}")
    chart_provider = NullChartProvider() if charts_dir is None else DirectoryChartProvider(charts_dir)

    embedder = HashingEmbedder()
    index = VectorIndex(
        dimension=embedder.dimension,
        tokenizer_tag=DEFAULT_TOKENIZER.tag,
        provider_tag=embedder.tag,
    )
    sources: dict[str, Path] = {}  # document_id -> the payload file that holds it
    for path in payload_paths:
        try:
            payload = parse_layout_payload(read_json(path))
            pages = preprocess_document(payload, chart_provider, args.table_format)
        except (DocragError, ValueError, OSError) as exc:
            return _fail(exc, f"{path}: ")
        if payload.document_id in sources:
            raise ValueError(
                f"document_id {payload.document_id!r} is in both "
                f"{sources[payload.document_id]} and {path}"
            )
        sources[payload.document_id] = path
        index.add_pages(pages, embedder, chunk_size=args.chunk_size, attributes=payload.attributes)
    index.persist(args.index)
    print(f"indexed {len(index)} chunks from {len(sources)} documents into {args.index}")
    return 0


def cmd_query(args) -> int:
    from .generation import answer_question, check_question

    retrieval = RetrievalConfig(k=args.k, filters=_parse_filters(args.filter))
    check_question(args.question)
    index, embedder, llm = _reader(args)
    if not index.document_ids(retrieval.filters):  # an answer from no context
        raise ValueError(f"filters {dict(retrieval.filters)} keep no chunk of index {args.index}")
    answer = answer_question(
        args.question, index, retrieval, llm, embedder, model_tag=args.model_tag
    )
    print(f"answer: {answer.text}")
    print("retrieved:")
    for result in answer.retrieved:
        print(f"  {result.chunk.chunk_id}  {result.score:.6f}")
    return 0


def cmd_eval(args) -> int:
    from .costs import cost_per_call
    from .evaluation import load_dataset, run_eval, write_report

    check_destination(args.report, args.index, args.dataset, args.answers, args.pricing, args.config)
    check_count("eval_workers", args.eval_workers)
    RetrievalConfig(k=args.k)  # refuses a bad k before the index is read
    examples = load_dataset(args.dataset)
    if not examples:  # run_eval would report accuracy 0.000 (0/0)
        raise ValueError(f"dataset {args.dataset} holds no examples")
    pricing = _pricing_from(args)
    # a provider's name is its tag, so the priced tag is known before the index is read
    cost_per_call(args.provider if args.model_tag is None else args.model_tag, 0, pricing)
    index, embedder, llm = _reader(args)
    report = run_eval(
        examples,
        index,
        llm,
        embedder,
        k=args.k,
        model_tag=args.model_tag,
        pricing=pricing,
        max_workers=args.eval_workers,
    )
    write_report(report, args.report)
    print(
        f"accuracy {report.accuracy:.3f} ({report.correct}/{report.total}), "
        f"cost ${report.total_cost_usd:.4f}, report written to {args.report}"
    )
    return 0


def cmd_cost(args) -> int:
    from .costs import format_cost_report

    print(format_cost_report(_pricing_from(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports a usage error, as every failure, in the one-line JSON
        error object, with argparse's exit status 2; subparsers are made
        of the same class."""

        def error(self, message):
            _fail(argparse.ArgumentError(None, message))
            self.exit(2)

    parser = Parser(
        prog="docrag",
        description="Document pre-processing and retrieval-augmented QA toolkit.",
    )
    parser.add_argument("--config", help="JSON config file with default settings")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by the two question commands, and by the two priced ones.
    asking = argparse.ArgumentParser(add_help=False)
    asking.add_argument("--index", required=True)
    asking.add_argument("--k", type=int)
    asking.add_argument("--provider", choices=_PROVIDERS)
    asking.add_argument("--answers", help="JSON question-to-answer mapping for --provider mock")
    asking.add_argument("--model-tag", dest="model_tag")
    priced = argparse.ArgumentParser(add_help=False)
    priced.add_argument("--pricing", help="JSON pricing override file")

    ingest = sub.add_parser("ingest", help="build and persist an index from layout payloads")
    ingest.add_argument("--layout", required=True, help="directory of layout payload JSON files")
    ingest.add_argument("--index", required=True, help="output index file")
    ingest.add_argument("--table-format", choices=TABLE_FORMATS, dest="table_format")
    ingest.add_argument("--chunk-size", type=int, dest="chunk_size")
    ingest.add_argument("--charts", help="directory of chart CSV fixtures")
    ingest.set_defaults(handler=cmd_ingest)

    query = sub.add_parser("query", parents=[asking], help="answer one question against an index")
    query.add_argument("--question", required=True)
    query.add_argument(
        "--filter",
        action="append",
        metavar="KEY=VALUE",
        help="metadata equality filter; repeatable; the value of "
        f"{' or '.join(INTEGER_FIELDS)} must be an integer, any other is a string",
    )
    query.set_defaults(handler=cmd_query)

    evaluate = sub.add_parser(
        "eval", parents=[asking, priced], help="run a QA dataset and write a report"
    )
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--report", required=True)
    evaluate.set_defaults(handler=cmd_eval)

    cost = sub.add_parser(
        "cost", parents=[priced], help="print the per-page and per-call cost comparison"
    )
    cost.add_argument("--tokens-per-page", type=int, dest="tokens_per_page")
    cost.set_defaults(handler=cmd_cost)

    return parser


def _fail(exc: Exception, prefix: str = "") -> int:
    """Write ``exc`` as the one-line JSON error object, its message after
    ``prefix``; return the exit status 1."""
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": prefix + str(exc)}) + "\n"
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        for key, (_, default) in _SETTINGS.items():  # flag, then config, then default
            if getattr(args, key, None) is None:
                setattr(args, key, config.get(key, default))
        return args.handler(args)
    except (DocragError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
