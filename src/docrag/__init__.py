"""docrag: document pre-processing and retrieval-augmented QA toolkit.

Turns layout-analysis output for PDF documents (narrative text, nested
tables, charts) into flat text records, chunks and indexes them for
filtered cosine retrieval, assembles LLM prompts, and accounts for API
cost. All external models sit behind pluggable provider adapters with
deterministic offline defaults.
"""

from .charts import ChartExtraction, chart_csv_to_records
from .chunking import ChunkMetadata, DocumentChunk, combine_page_text, split_pages
from .costs import (
    DEFAULT_PRICING,
    PricingConfig,
    SolutionCost,
    cost_per_call,
    cost_per_page,
    savings_ratio,
)
from .embedding import HashingEmbedder
from .errors import (
    ChartExtractionError,
    DocragError,
    IndexLoadError,
    MissingDocumentsError,
    ProviderError,
    SchemaError,
)
from .evaluation import (
    EvalReport,
    Outcome,
    QAExample,
    evaluate_example,
    load_dataset,
    run_eval,
    score_answer,
)
from .generation import Answer, answer_question, build_prompt, retrieve
from .index import (
    IndexEntry,
    RetrievalConfig,
    RetrievalResult,
    VectorIndex,
    embed,
)
from .layout import (
    BlockRole,
    DocumentAttributes,
    LayoutPage,
    LayoutPayload,
    TextBlock,
    parse_layout_payload,
)
from .preprocess import PageContent, preprocess_document
from .tables import (
    BoundingRegion,
    CellKind,
    FlatRecord,
    TableCell,
    TableGrid,
    flatten_table,
    merge_column_headers,
    serialize_dataframe,
    serialize_json,
)
from .tokens import WhitespacePunctTokenizer, count_tokens

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BlockRole",
    "BoundingRegion",
    "CellKind",
    "ChartExtraction",
    "ChartExtractionError",
    "ChunkMetadata",
    "DEFAULT_PRICING",
    "DocragError",
    "DocumentAttributes",
    "DocumentChunk",
    "EvalReport",
    "FlatRecord",
    "HashingEmbedder",
    "IndexEntry",
    "IndexLoadError",
    "LayoutPage",
    "LayoutPayload",
    "MissingDocumentsError",
    "Outcome",
    "PageContent",
    "PricingConfig",
    "ProviderError",
    "QAExample",
    "RetrievalConfig",
    "RetrievalResult",
    "SchemaError",
    "SolutionCost",
    "TableCell",
    "TableGrid",
    "TextBlock",
    "VectorIndex",
    "WhitespacePunctTokenizer",
    "answer_question",
    "build_prompt",
    "chart_csv_to_records",
    "combine_page_text",
    "cost_per_call",
    "cost_per_page",
    "count_tokens",
    "embed",
    "evaluate_example",
    "flatten_table",
    "load_dataset",
    "merge_column_headers",
    "parse_layout_payload",
    "preprocess_document",
    "retrieve",
    "run_eval",
    "savings_ratio",
    "score_answer",
    "serialize_dataframe",
    "serialize_json",
    "split_pages",
]
