"""Dataset loading, automated answer scoring, and the eval harness.

Scoring is a deliberate proxy for human judgment: answers are normalized
(case, whitespace, currency punctuation), numbers compare with a relative
tolerance, and everything else requires the gold string to appear
token-bounded inside the prediction. Paraphrases a human would accept can
still score as wrong.
"""

from __future__ import annotations

import json
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .costs import DEFAULT_PRICING, PricingConfig, cost_per_call
from .errors import MissingDocumentsError, SchemaError
from .generation import answer_question
from .index import RetrievalConfig, VectorIndex
from .providers import EmbeddingProvider, LLMProvider
from .tokens import DEFAULT_TOKENIZER

logger = logging.getLogger(__name__)

DEFAULT_EVAL_WORKERS = 4


class Difficulty(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Target(str, Enum):
    TABLE = "table"
    CHART = "chart"
    TEXT = "text"


@dataclass(frozen=True)
class QAExample:
    question: str
    gold_answer: str
    difficulty: Difficulty
    target: Target
    document_id: str
    reference_count: int = 1
    filters: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.reference_count < 1:
            raise ValueError("reference_count must be >= 1")
        object.__setattr__(self, "filters", tuple((f, v) for f, v in self.filters))


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    accuracy: float
    per_target: dict[str, dict[str, int]]
    per_difficulty: dict[str, dict[str, int]]
    total_cost_usd: float

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "per_target": self.per_target,
            "per_difficulty": self.per_difficulty,
            "total_cost_usd": self.total_cost_usd,
        }


def load_dataset(path: str | Path) -> list[QAExample]:
    """Read a JSON-lines dataset of QAExample records."""
    examples = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"line {line_number}"
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise SchemaError(where, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise SchemaError(where, "expected an object")
            try:
                filters = tuple(
                    (str(name), value) for name, value in (record.get("filters") or {}).items()
                )
                examples.append(
                    QAExample(
                        question=str(record["question"]),
                        gold_answer=str(record["gold_answer"]),
                        difficulty=Difficulty(record["difficulty"]),
                        target=Target(record["target"]),
                        document_id=str(record["document_id"]),
                        reference_count=int(record.get("reference_count", 1)),
                        filters=filters,
                    )
                )
            except KeyError as exc:
                raise SchemaError(where, f"missing field {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise SchemaError(where, str(exc)) from exc
    return examples


_CURRENCY_RE = re.compile(r"[$€£¥¢,%]")
_WS_RE = re.compile(r"\s+")


def normalize_answer(text: str) -> str:
    """Lowercase, drop currency symbols/commas/percent signs, collapse
    whitespace."""
    text = _CURRENCY_RE.sub("", text.lower())
    return _WS_RE.sub(" ", text).strip()


def _as_number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    # "nan" parses but nan != nan; compare such strings as tokens instead
    return value if math.isfinite(value) else None


def score_answer(predicted: str, gold: str) -> bool:
    """True iff the prediction matches the gold answer after normalization.

    Both numeric: relative tolerance 1e-3. Otherwise the gold tokens must
    appear as a contiguous run inside the prediction's tokens.
    """
    norm_predicted = normalize_answer(predicted)
    norm_gold = normalize_answer(gold)
    number_predicted = _as_number(norm_predicted)
    number_gold = _as_number(norm_gold)
    if number_predicted is not None and number_gold is not None:
        return math.isclose(number_predicted, number_gold, rel_tol=1e-3)
    gold_tokens = DEFAULT_TOKENIZER.tokens(norm_gold)
    predicted_tokens = DEFAULT_TOKENIZER.tokens(norm_predicted)
    if not gold_tokens:
        return not predicted_tokens or norm_gold == norm_predicted
    span = len(gold_tokens)
    return any(
        predicted_tokens[i : i + span] == gold_tokens
        for i in range(len(predicted_tokens) - span + 1)
    )


def run_eval(
    examples: list[QAExample],
    index: VectorIndex,
    llm: LLMProvider,
    embedder: EmbeddingProvider,
    k: int = 3,
    model_tag: str | None = None,
    pricing: PricingConfig = DEFAULT_PRICING,
    max_workers: int = DEFAULT_EVAL_WORKERS,
) -> EvalReport:
    """Answer and score every example; aggregate accuracy and call cost.

    ``max_workers`` threads (at least one) answer the examples; the report
    follows the examples' order whatever the count. All referenced documents must already be indexed; missing ones are
    reported up front, before any provider call.
    """
    indexed_documents = {chunk.metadata.document_id for chunk in index.chunks()}
    missing = sorted(
        {e.document_id for e in examples} - indexed_documents
    )
    if missing:
        raise MissingDocumentsError(missing)

    def answer_one(example: QAExample):
        config = RetrievalConfig(k=k, filters=example.filters)
        answer = answer_question(
            example.question, index, config, llm, embedder, model_tag=model_tag
        )
        correct = score_answer(answer.text, example.gold_answer)
        cost = cost_per_call(answer.model_tag, answer.prompt_token_count, pricing)
        return correct, cost

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        outcomes = list(pool.map(answer_one, examples))

    per_target: dict[str, dict[str, int]] = {}
    per_difficulty: dict[str, dict[str, int]] = {}
    correct_total = 0
    cost_total = 0.0
    for example, (correct, cost) in zip(examples, outcomes):
        correct_total += int(correct)
        cost_total += cost
        for bucket, key in (
            (per_target, example.target.value),
            (per_difficulty, example.difficulty.value),
        ):
            counts = bucket.setdefault(key, {"total": 0, "correct": 0})
            counts["total"] += 1
            counts["correct"] += int(correct)

    total = len(examples)
    return EvalReport(
        total=total,
        correct=correct_total,
        accuracy=(correct_total / total) if total else 0.0,
        per_target=per_target,
        per_difficulty=per_difficulty,
        total_cost_usd=cost_total,
    )


def write_report(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, ensure_ascii=False, indent=2)
        handle.write("\n")
