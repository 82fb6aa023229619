"""docrag: document pre-processing and retrieval-augmented QA toolkit.

Turns layout-analysis output for PDF documents (narrative text, nested
tables, charts) into flat text records, chunks and indexes them for
filtered cosine retrieval, assembles LLM prompts, and accounts for API
cost. All external models sit behind pluggable provider adapters with
deterministic offline defaults.

Each public name is imported from its submodule on first use (PEP 562),
so ``import docrag`` loads no submodule and a command loads only the ones
it runs.
"""

from __future__ import annotations

import importlib

# Each public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "charts": ("ChartExtraction", "chart_csv_to_records"),
        "chunking": ("ChunkMetadata", "DocumentChunk", "combine_page_text", "split_pages"),
        "costs": (
            "DEFAULT_PRICING",
            "PricingConfig",
            "SolutionCost",
            "cost_per_call",
            "cost_per_page",
            "savings_ratio",
        ),
        "embedding": ("HashingEmbedder",),
        "errors": (
            "ChartExtractionError",
            "DocragError",
            "IndexLoadError",
            "MissingDocumentsError",
            "ProviderError",
            "SchemaError",
        ),
        "evaluation": (
            "EvalReport",
            "Outcome",
            "QAExample",
            "evaluate_example",
            "load_dataset",
            "run_eval",
            "score_answer",
        ),
        "generation": ("Answer", "answer_question", "build_prompt", "retrieve"),
        "index": ("IndexEntry", "RetrievalConfig", "RetrievalResult", "VectorIndex", "embed"),
        "layout": (
            "BlockRole",
            "DocumentAttributes",
            "LayoutPage",
            "LayoutPayload",
            "TextBlock",
            "parse_layout_payload",
        ),
        "preprocess": ("PageContent", "preprocess_document"),
        "tables": (
            "BoundingRegion",
            "CellKind",
            "FlatRecord",
            "TableCell",
            "TableGrid",
            "flatten_table",
            "merge_column_headers",
            "serialize_dataframe",
            "serialize_json",
        ),
        "tokens": ("WhitespacePunctTokenizer", "count_tokens"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
