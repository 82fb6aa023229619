"""The read path pinned as the goldens pin the write path: one digest over
every qa outcome of the benchmark's seed-101 corpus.

The corpus is ``benchmarks/corpus.py``'s, built here from its seed. A
change to ``corpus.py`` changes what is pinned, so a benchmark change that
edits it must update both digests below and say why. So must a change
that moves qa outcomes on purpose, with how accuracy moved per target.

Verified on Python 3.11.7 with numpy 2.4.6 (OpenBLAS). Other Python and
numpy releases may round a dot product differently and so move a score's
last bit, which the digest would show.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from docrag.cli import main
from docrag.embedding import HashingEmbedder
from docrag.evaluation import evaluate_example, load_dataset
from docrag.index import VectorIndex
from docrag.providers import ContextLookupLLM

_CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus.py"

INDEX_SHA256 = "3b26640601ff75cfd0a78b774666f7c802e7d22708d39cf38f6a96538cc3a257"
OUTCOMES_SHA256 = "05ad49a640d70390c88d13136b37c1c3b71bf570ed26339d2df2d469b0a598f1"


def _corpus_module():
    spec = importlib.util.spec_from_file_location("benchmark_corpus", _CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_101_ingest_and_every_qa_outcome_match_their_digests(tmp_path, capsys):
    _corpus_module().build(101, tmp_path)
    index_path = tmp_path / "seed-101.index"
    assert main(["ingest", "--layout", str(tmp_path / "layout"), "--index", str(index_path)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(index_path.read_bytes()).hexdigest() == INDEX_SHA256

    index = VectorIndex.load(index_path)
    embedder = HashingEmbedder(dimension=index.dimension)
    llm = ContextLookupLLM()
    examples = load_dataset(tmp_path / "qa.jsonl")
    assert len(examples) == 1050
    digest, correct = hashlib.sha256(), 0
    for example in examples:
        outcome = evaluate_example(example, index, llm, embedder, model_tag="gpt-4o")
        record = {
            "retrieved": [[r.chunk.chunk_id, float.hex(r.score)] for r in outcome.answer.retrieved],
            "prompt_tokens": outcome.answer.prompt_token_count,
            "answer": outcome.answer.text,
            "correct": outcome.correct,
            "cost": float.hex(outcome.cost_usd),
        }
        digest.update(json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n")
        correct += outcome.correct
    assert correct == 594
    assert digest.hexdigest() == OUTCOMES_SHA256
