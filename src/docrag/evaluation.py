"""Dataset loading, automated answer scoring, and the eval harness.

Scoring is a deliberate proxy for human judgment: answers are normalized
(case, whitespace, currency punctuation), numbers compare with a relative
tolerance, and everything else requires the gold string to appear
token-bounded inside the prediction. Paraphrases a human would accept can
still score as wrong.
``evaluate_example`` is one question's pass (retrieve, answer, score,
price) and returns an ``Outcome``; ``run_eval`` maps it over a dataset.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path

from .chunking import DEFAULT_EVAL_WORKERS, checked_filters  # re-exported: the default thread count
from .costs import DEFAULT_PRICING, PricingConfig, cost_per_call
from .errors import MissingDocumentsError, SchemaError, check_count, check_record, decode_json, replacing
from .generation import Answer, answer_question, check_question
from .index import DEFAULT_K, RetrievalConfig, VectorIndex
from .providers import EmbeddingProvider, LLMProvider
from .tokens import DEFAULT_TOKENIZER


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
    """One dataset question. ``question`` (not blank), ``gold_answer`` and
    ``document_id`` are exact strings and ``reference_count`` an exact int
    >= 1; ``difficulty`` and ``target`` take a member or its value (``"low"``,
    ``"table"``) and hold the member; ``filters`` must pass
    ``checked_filters``. Anything else raises ``ValueError``.
    ``reference_count`` is accepted and ignored: no score, report or check
    reads it. Dataset files carry it, so it is validated, not refused."""

    question: str
    gold_answer: str
    difficulty: Difficulty
    target: Target
    document_id: str
    reference_count: int = 1
    filters: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("question", "gold_answer", "document_id"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValueError(f"{name}: expected a string, got {value!r}")
        check_question(self.question)  # build_prompt's rule, before any call
        check_count("reference_count", self.reference_count)
        object.__setattr__(self, "difficulty", Difficulty(self.difficulty))
        object.__setattr__(self, "target", Target(self.target))
        object.__setattr__(self, "filters", checked_filters(self.filters))


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    accuracy: float
    per_target: dict[str, dict[str, int]]
    per_difficulty: dict[str, dict[str, int]]
    total_cost_usd: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# The keys a dataset line may hold: QAExample's fields.
_RECORD_KEYS = tuple(f.name for f in dataclasses.fields(QAExample))


def load_dataset(path: str | Path) -> list[QAExample]:
    """Read a JSON-lines dataset of QAExample records; a line with a key
    that is no QAExample field, or a value QAExample refuses, raises a
    ``SchemaError`` naming the line."""
    examples = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"line {line_number}"
            try:
                record = decode_json(line)
            except ValueError as exc:
                raise SchemaError(where, f"invalid JSON: {exc}") from exc
            try:
                check_record(record, "example", _RECORD_KEYS)
                filters = check_record({} if record.get("filters") is None else record["filters"], "filters")
                examples.append(
                    QAExample(
                        question=record["question"],
                        gold_answer=record["gold_answer"],
                        difficulty=record["difficulty"],
                        target=record["target"],
                        document_id=record["document_id"],
                        reference_count=record.get("reference_count", 1),
                        filters=tuple((str(name), value) for name, value in filters.items()),
                    )
                )
            except KeyError as exc:
                raise SchemaError(where, f"missing field {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise SchemaError(where, str(exc)) from exc
    return examples


_DROPPED = str.maketrans("", "", "$€£¥¢,%")


def normalize_answer(text: str) -> str:
    """Lowercase, drop currency symbols/commas/percent signs, collapse
    whitespace (the characters ``str.isspace`` holds, as ``re``'s ``\\s``)."""
    return " ".join(text.lower().translate(_DROPPED).split())


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


@dataclass(frozen=True)
class Outcome:
    """One example's answer (with its retrieved results), verdict and call cost."""
    answer: Answer
    correct: bool
    cost_usd: float


def evaluate_example(
    example: QAExample, index: VectorIndex, llm: LLMProvider, embedder: EmbeddingProvider,
    k: int = DEFAULT_K, model_tag: str | None = None, pricing: PricingConfig = DEFAULT_PRICING,
) -> Outcome:
    """Answer ``example`` from its filtered top k, score and price it. A
    provider failure propagates with the prompt attached (``answer_question``)."""
    config = RetrievalConfig(k=k, filters=example.filters)
    answer = answer_question(example.question, index, config, llm, embedder, model_tag=model_tag)
    correct = score_answer(answer.text, example.gold_answer)
    return Outcome(answer, correct, cost_per_call(answer.model_tag, answer.prompt_token_count, pricing))


def run_eval(
    examples: list[QAExample],
    index: VectorIndex,
    llm: LLMProvider,
    embedder: EmbeddingProvider,
    k: int = DEFAULT_K,
    model_tag: str | None = None,
    pricing: PricingConfig = DEFAULT_PRICING,
    max_workers: int = DEFAULT_EVAL_WORKERS,
) -> EvalReport:
    """Answer and score every example; aggregate accuracy and call cost.

    ``max_workers`` threads (at least one) answer the examples; the report
    follows the examples' order whatever the count. All referenced
    documents must already be indexed, and the priced tag (``model_tag``,
    else the provider's) must have a rate; either failure is reported up
    front, before any provider call. So is every example whose filters
    keep no chunk of its own document, a certain miss that would read as
    a retrieval failure: one ``ValueError`` lists each such example's
    question, filters and document. Each distinct filter set is resolved
    once, through the filter memo its searches then reuse.
    """
    missing = sorted({e.document_id for e in examples} - index.document_ids())
    if missing:
        raise MissingDocumentsError(missing)
    kept: dict[tuple, set[str]] = {}  # filters -> the documents they keep
    excluded = []
    for e in examples:
        if e.filters:
            if e.filters not in kept:
                kept[e.filters] = index.document_ids(e.filters)
            if e.document_id not in kept[e.filters]:
                excluded.append(f"question {e.question!r}, filters {dict(e.filters)}, document {e.document_id!r}")
    if excluded:
        raise ValueError("examples whose filters keep no chunk of their document: " + "; ".join(excluded))
    cost_per_call(model_tag if model_tag is not None else llm.tag, 0, pricing)

    one = partial(evaluate_example, index=index, llm=llm, embedder=embedder, k=k, model_tag=model_tag, pricing=pricing)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        outcomes = list(pool.map(one, examples))

    per_target: dict[str, dict[str, int]] = {}
    per_difficulty: dict[str, dict[str, int]] = {}
    correct_total = 0
    cost_total = 0.0
    for example, outcome in zip(examples, outcomes):
        correct_total += int(outcome.correct)
        cost_total += outcome.cost_usd
        for bucket, key in (
            (per_target, example.target.value),
            (per_difficulty, example.difficulty.value),
        ):
            counts = bucket.setdefault(key, {"total": 0, "correct": 0})
            counts["total"] += 1
            counts["correct"] += int(outcome.correct)

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
    """Write ``report`` as indented JSON through ``errors.replacing``."""
    with replacing(path) as handle:
        handle.write(json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n")
