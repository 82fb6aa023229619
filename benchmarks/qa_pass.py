"""One pass over a corpus's questions, in a process of its own.

    python benchmarks/qa_pass.py INDEX QA_JSONL RESULT_JSON [--trace]

Loads the index and answers every question once, in order, with
``run_eval``'s per-question calls: ``answer_question`` -> ``score_answer``
-> ``cost_per_call``, priced as gpt-4o. Each pass is a fresh process, so
nothing a pass leaves in memory (a memo, a warm cache) can speed up the
next one: a pass costs what one evaluation costs. Writes each question's
wall and CPU seconds and its outcome (answer, token counts, score, cost,
retrieved chunks) to RESULT_JSON. With ``--trace`` each question is
answered part-wise instead, each call in a span, and the spans are
written too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import docrag.generation
from docrag.costs import cost_per_call
from docrag.embedding import HashingEmbedder
from docrag.evaluation import load_dataset, score_answer
from docrag.generation import DEFAULT_MAX_OUTPUT_TOKENS, Answer, answer_question, build_prompt
from docrag.index import DEFAULT_K, RetrievalConfig, VectorIndex, embed
from docrag.providers import ContextLookupLLM, LLMRequest
from docrag.tokens import DEFAULT_TOKENIZER, count_tokens

from tracing import NullTracer, Tracer, wrapped

# gpt-4o is priced per token, so cost tracks prompt size; the offline
# lookup reader itself is free.
MODEL_TAG = "gpt-4o"
SEARCH_CLASSES = ("unfiltered", "1filter", "2filter")


def search_class(filters) -> str:
    return SEARCH_CLASSES[min(len(filters), 2)]


def answer_partwise(question, index, config, llm, embedder, tracer):
    """answer_question split into its calls, so each can carry a span."""
    with tracer.span("index.embed"):
        vector = embed(question, embedder)
    with tracer.span(f"index.search_{search_class(config.filters)}"):
        results = index.search(vector, config)
    with tracer.span("generation.build_prompt"):
        prompt = build_prompt([r.chunk.text for r in results], question)
    request = LLMRequest(model_tag=MODEL_TAG, prompt=prompt, max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS)
    with tracer.span("providers.complete"):
        response = llm.complete(request)
    with tracer.span("tokens.count_tokens"):
        prompt_tokens = count_tokens(prompt)
    answer = Answer(
        text=response.text,
        model_tag=MODEL_TAG,
        prompt_token_count=prompt_tokens,
        completion_token_count=max(0, response.completion_tokens),
    )
    return answer, results


def answer_all(index_path: Path, dataset: Path, tracer) -> dict:
    index = VectorIndex.load(index_path)
    examples = load_dataset(dataset)
    embedder = HashingEmbedder(dimension=index.dimension)
    llm = ContextLookupLLM()
    retrieved: list = []

    def keep(retrieve):
        """What answer_question retrieved, for the hit rate and the checks."""
        def call(*args, **kwargs):
            results = retrieve(*args, **kwargs)
            retrieved.append(results)
            return results

        return call

    if tracer.enabled:
        patches = [(DEFAULT_TOKENIZER, "spans", "tokens.spans"), (embedder, "embed", "embedding.embed")]
    else:
        patches = [(docrag.generation, "retrieve", keep)]
    ops, outcomes = [], []
    with wrapped(tracer, patches):
        for example in examples:
            config = RetrievalConfig(k=DEFAULT_K, filters=example.filters)
            retrieved.clear()
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                with tracer.span("op.question"):
                    if tracer.enabled:
                        answer, results = answer_partwise(example.question, index, config, llm, embedder, tracer)
                    else:
                        answer = answer_question(example.question, index, config, llm, embedder,
                                                 model_tag=MODEL_TAG)
                    with tracer.span("evaluation.score_answer"):
                        correct = score_answer(answer.text, example.gold_answer)
                    with tracer.span("costs.cost_per_call"):
                        cost = cost_per_call(answer.model_tag, answer.prompt_token_count)
            except Exception:
                sys.stderr.write(f"question {example.question!r} failed\n{traceback.format_exc()}\n")
                ops.append(None)
                outcomes.append(None)
                continue
            ops.append((time.perf_counter() - wall, time.process_time() - cpu))
            if not tracer.enabled:
                results = retrieved[0]
            outcomes.append({
                "answer": answer.text,
                "prompt_tokens": answer.prompt_token_count,
                "completion_tokens": answer.completion_token_count,
                "correct": correct,
                "cost": cost,
                "retrieved": [[r.chunk.chunk_id, r.chunk.metadata.document_id, r.score] for r in results],
            })
    return {
        "ops": ops,
        "outcomes": outcomes,
        "spans": getattr(tracer, "spans", []),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("index")
    parser.add_argument("dataset")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = answer_all(Path(args.index), Path(args.dataset), Tracer() if args.trace else NullTracer())
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
