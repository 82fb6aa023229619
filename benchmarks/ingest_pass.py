"""One ingest pass over a corpus, in a process of its own.

    python benchmarks/ingest_pass.py LAYOUT_DIR INDEX_OUT RESULT_JSON [--trace]

Makes ``cmd_ingest``'s calls, in its order, on its default settings. Each
pass is a fresh process, so nothing a pass leaves in memory (a memo, a
warm cache) can speed up the next one: a pass costs what one ``docrag
ingest`` costs. Writes each document's wall and CPU seconds (read through
upsert), the persist time, the chunk and page counts and the index's
SHA-256 to RESULT_JSON; with ``--trace`` also the spans and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import docrag.preprocess
from docrag.chunking import DEFAULT_CHUNK_SIZE, split_pages
from docrag.embedding import HashingEmbedder
from docrag.index import IndexEntry, VectorIndex, embed
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import DirectoryChartProvider
from docrag.tokens import DEFAULT_TOKENIZER

from tracing import NullTracer, Tracer, wrapped


def _patches(tracer: Tracer, embedder, chart_provider) -> list:
    """Spans on calls made inside the program, where they are looked up."""
    return [
        (docrag.preprocess, "flatten_table", "tables.flatten_table"),
        (docrag.preprocess, "serialize_json", "tables.serialize_json"),
        (docrag.preprocess, "chart_csv_to_records", "charts.chart_csv_to_records"),
        (chart_provider, "csv_for", "providers.csv_for"),
        (DEFAULT_TOKENIZER, "spans", "tokens.spans"),
        (embedder, "embed", "embedding.embed"),
        # the unigram and bigram features the embedder actually hashes
        (embedder, "_features", tracer.counted("embedding.features", len)),
    ]


def ingest(layout_dir: Path, out: Path, tracer) -> dict:
    embedder = HashingEmbedder()
    chart_provider = DirectoryChartProvider(layout_dir / "charts")
    index = VectorIndex(
        dimension=embedder.dimension,
        tokenizer_tag=DEFAULT_TOKENIZER.tag,
        provider_tag=embedder.tag,
    )
    ops = []  # per document
    pages_seen = 0
    patches = _patches(tracer, embedder, chart_provider) if tracer.enabled else []
    with wrapped(tracer, patches):
        for path in sorted(layout_dir.glob("*.json")):
            wall, cpu = time.perf_counter(), time.process_time()
            with tracer.span("op.doc"):
                with open(path, encoding="utf-8") as handle:
                    raw = json.load(handle)
                with tracer.span("layout.parse_layout_payload"):
                    payload = parse_layout_payload(raw)
                with tracer.span("preprocess.preprocess_document"):
                    pages = preprocess_document(payload, chart_provider, "json")
                pages_seen += len(pages)
                with tracer.span("chunking.split_pages"):
                    chunks = split_pages(pages, chunk_size=DEFAULT_CHUNK_SIZE, attributes=payload.attributes)
                entries = []
                for chunk in chunks:
                    with tracer.span("index.embed"):
                        vector = embed(chunk.text, embedder)
                    with tracer.span("index.IndexEntry"):
                        entries.append(IndexEntry(chunk=chunk, vector=tuple(vector)))
                with tracer.span("index.upsert_many"):
                    index.upsert_many(entries)
            ops.append((time.perf_counter() - wall, time.process_time() - cpu))
        wall, cpu = time.perf_counter(), time.process_time()
        with tracer.span("op.persist"):
            with tracer.span("index.persist"):
                index.persist(out)
        persist = (time.perf_counter() - wall, time.process_time() - cpu)
    return {
        "ops": ops,
        "persist": persist,
        "chunks": len(index),
        "pages": pages_seen,
        "digest": hashlib.sha256(out.read_bytes()).hexdigest(),
        "spans": getattr(tracer, "spans", []),
        "counts": getattr(tracer, "counts", {}),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layout")
    parser.add_argument("index")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = ingest(Path(args.layout), Path(args.index), Tracer() if args.trace else NullTracer())
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
