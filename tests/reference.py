"""The slow, plainly correct version of each pipeline stage: the one home
of the oracles the tests compare the program with.

Each stage's oracle is written for clarity, not speed, and several are
the program's own code as it was before an optimisation replaced it:

- ``oracle_merge``: stacked column headers merged into keys, re-derived
  from the cell list;
- ``split_pages_by_pieces``: the chunker that tokenized each segment into
  pieces (``_PIECE_RE``) and summed their lengths to place its cuts;
- ``reference_embed``: feature hashing with one keyed blake2b per feature
  occurrence, summed in Python floats;
- ``load_line_by_line``: ``VectorIndex.load``'s per-line entry loop;
- ``cosine``, ``ranked`` and ``brute_force``: filtered search as a
  pure-Python cosine and one full sort;
- ``reference_question_in``, ``reference_harvest``, ``reference_lookup``
  and ``reference_answer``: the prompt's question block, and the lookup
  reader's longest-key rule over every pair of the context.

``reference_ingest`` and ``reference_outcome`` compose them into the
reference pipeline: the index file ``docrag ingest`` must write, and one
question's retrieval, answer, verdict and cost. This module imports only
the standard library, numpy and docrag, so it loads without the test
extra.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from docrag import index as index_module
from docrag.chunking import ChunkMetadata, DocumentChunk, combine_page_text
from docrag.costs import DEFAULT_PRICING
from docrag.errors import IndexLoadError
from docrag.evaluation import score_answer
from docrag.generation import CONTEXT_SEPARATOR, POSTAMBLE, build_prompt
from docrag.index import IndexEntry, VectorIndex
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import DirectoryChartProvider, NullChartProvider
from docrag.tables import CellKind, TableGrid
from docrag.tokens import DEFAULT_TOKENIZER, count_tokens

# --- tables: merged column headers ---------------------------------------------


def oracle_merge(table: TableGrid) -> list[str]:
    """Brute-force re-derivation of merged keys straight from the cell list."""
    header_depth = 0
    for cell in table.cells:
        if cell.kind is CellKind.COLUMN_HEADER:
            header_depth = max(header_depth, cell.row_index + cell.row_span)
    if header_depth == 0:
        return [f"col_{c}" for c in range(table.column_count)]
    keys = []
    for c in range(table.column_count):
        key = ""
        for r in range(header_depth):
            segment = ""
            for cell in table.cells:
                if (
                    cell.kind is CellKind.COLUMN_HEADER
                    and cell.row_index <= r < cell.row_index + cell.row_span
                    and cell.column_index <= c < cell.column_index + cell.column_span
                ):
                    segment = cell.content
            key += segment + ";"
        keys.append(key)
    seen: dict[str, int] = {}
    out = []
    for key in keys:
        n = seen.get(key, 0) + 1
        seen[key] = n
        out.append(key if n == 1 else f"{key}#{n}")
    return out


# --- chunking: the piece-sum chunker ---------------------------------------------

# One token with the whitespace before it: the chunker summed these pieces'
# lengths to place its cuts before it counted tokens per distinct word.
_PIECE_RE = re.compile(r"\s*(?:\w+|[^\w\s]+)")


def split_pages_by_pieces(pages, chunk_size, attributes=None):
    """The chunker as it was when it tokenized each segment into pieces."""
    chunks = []
    for p in pages:
        text = combine_page_text(p)
        if not text:
            continue
        segments = [(p.narrative_text, False)] if p.narrative_text else []
        segments += [(t, True) for t in (*p.table_texts, *p.chart_texts)]
        cuts = [(0, 0)]
        count = tokens = offset = 0
        for segment, protected in segments:
            pieces = _PIECE_RE.findall(segment)
            size = len(pieces)
            if protected and size <= chunk_size:
                if count + size > chunk_size:
                    head = pieces[0]
                    cuts.append((tokens, offset + len(head) - len(head.lstrip())))
                    count = 0
                count += size
            else:
                done, position = 0, offset
                for token in range(chunk_size - count, size, chunk_size):
                    position += sum(map(len, pieces[done:token]))
                    piece = pieces[token]
                    cuts.append((tokens + token, position + len(piece) - len(piece.lstrip())))
                    done = token
                    count -= chunk_size
                count += size
            tokens += size
            offset += len(segment) + len("\n\n")
        cuts.append((tokens, len(text)))
        metadata = ChunkMetadata(
            document_id=p.document_id,
            page_number=p.page_number,
            company=attributes.company if attributes else None,
            year=attributes.year if attributes else None,
            quarter=attributes.quarter if attributes else None,
            section_title=p.section_title,
        )
        chunks += [
            DocumentChunk(f"{p.document_id}:{p.page_number}:{ordinal}", text[start:end], last - first, metadata)
            for ordinal, ((first, start), (last, end)) in enumerate(zip(cuts, cuts[1:]))
        ]
    return chunks


# --- embedding: feature hashing written out ---------------------------------------


def reference_embed(text: str, dimension: int) -> list[float]:
    """Feature hashing written out: one keyed blake2b per feature occurrence,
    summed one term at a time into Python floats."""
    tokens = [text[s:e].lower() for s, e in DEFAULT_TOKENIZER.spans(text)]
    features = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    values = [0.0] * dimension
    for feature in features:
        digest = hashlib.blake2b(
            feature.encode("utf-8", "surrogatepass"), key=b"docrag-hash-v1", digest_size=8
        ).digest()
        bucket = int.from_bytes(digest, "big")
        values[(bucket >> 1) % dimension] += 1.0 if bucket & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in values))
    return values if norm == 0.0 else [v / norm for v in values]


# --- index: load, and filtered search ----------------------------------------------


def load_line_by_line(path):
    """What ``VectorIndex.load`` gave when it read each entry line with
    ``json.loads`` into an array of its own and stacked the arrays: its
    entry loop as it was. The header is taken as valid."""
    with open(path, "rb") as handle:
        raw_header = handle.readline()
        header = json.loads(raw_header)
        dimension, count = header["dimension"], header["count"]
        index = VectorIndex(dimension=dimension, tokenizer_tag=header["tokenizer"], provider_tag=header["provider"])
        offset = len(raw_header)
        chunks, rows, seen = [], [], set()
        while True:
            raw = handle.readline()
            if not raw:
                break
            if raw.strip():
                try:
                    record = json.loads(raw.decode("utf-8"))
                    chunk = DocumentChunk.from_dict(record)
                    vector = record["vector"]
                    if type(vector) is not list:
                        raise TypeError(f"vector must be an array, got {vector!r:.80}")
                    vector = index_module._vector(vector)
                    if vector.shape != (dimension,):
                        raise ValueError(f"vector has shape {vector.shape}, header says {dimension}")
                except (ValueError, KeyError, TypeError) as exc:
                    raise IndexLoadError(offset, f"bad entry line: {exc}") from exc
                if chunk.chunk_id in seen:
                    raise IndexLoadError(offset, f"chunk_id {chunk.chunk_id!r} repeats an earlier entry line")
                seen.add(chunk.chunk_id)
                chunks.append(chunk)
                rows.append(vector)
            offset += len(raw)
    if len(chunks) != count:
        raise IndexLoadError(offset, f"header count {count} but the file holds {len(chunks)} entry lines")
    index._merge(chunks, np.array(rows, dtype=np.float64).reshape(len(rows), dimension))
    return index


def cosine(u, v):
    """Cosine similarity; an all-zero vector scores 0."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    dot = sum(a * b for a, b in zip(u, v))
    norm_u = math.sqrt(sum(a * a for a in u))
    norm_v = math.sqrt(sum(b * b for b in v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def ranked(entries, query, filters=()):
    """``(cosine, chunk_id)`` of every entry (a ``.chunk`` and a ``.vector``)
    whose metadata passes every filter: one full sort, by descending score,
    ties by ascending chunk_id."""
    kept = []
    for e in entries:
        metadata = e.chunk.metadata.as_dict()
        if all(metadata.get(name) == value for name, value in filters):
            kept.append(e)
    scored = [(cosine(e.vector, query), e.chunk.chunk_id) for e in kept]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored


def brute_force(entries, query, k, filters=()):
    """The chunk_ids of the top ``k`` of ``ranked``."""
    return [cid for _, cid in ranked(entries, query, filters)[:k]]


# --- the prompt and the lookup reader ------------------------------------------------


# How MockLLM found the question before generation.read_prompt, kept as the
# reference it must match.
def reference_question_in(prompt):
    _, head, block = prompt.rpartition(POSTAMBLE + "\n\nQuestion: ")
    if not head or not block.endswith("\nAnswer:"):
        return prompt
    return block[: -len("\nAnswer:")]


# The lookup reader before its block memo, kept as the reference it must
# match: it harvests every pair of the retrieved context, whatever its key.
def reference_harvest(context):
    pairs = []
    for line in context.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") or stripped.startswith("{"):
            try:
                decoded = json.loads(stripped)
            except ValueError:
                continue
            records = decoded if isinstance(decoded, list) else [decoded]
            for record in records:
                if isinstance(record, dict):
                    for key, value in record.items():
                        pairs.append((str(key), str(value)))
            continue
        if ": " in stripped:
            key, _, value = stripped.partition(": ")
            if value:
                pairs.append((key, value))
    return pairs


def reference_lookup(pairs, question):
    question_lower = question.lower()
    best = None
    for key, value in pairs:
        key_lower = key.lower().strip()
        for candidate in {key_lower, key_lower.rstrip(";").strip()}:
            if candidate and candidate in question_lower:
                if best is None or len(candidate) > best[0]:
                    best = (len(candidate), value)
    return best[1] if best else ""


def reference_answer(context, question):
    return reference_lookup(reference_harvest(context), question)


# --- the pipeline composed --------------------------------------------------------------


def reference_ingest(layout_dir: Path, chunk_size: int, dimension: int, provider_tag: str):
    """What ``docrag ingest --layout layout_dir`` must store and write with
    the json table format: ``(entries, bytes)``, each entry an
    ``IndexEntry`` of a chunk and its reference vector. Each payload, in
    file name order, is pre-processed by the program
    (``preprocess_document``, chart CSVs from ``layout_dir/charts`` when
    it exists) and chunked by ``split_pages_by_pieces``; chunks of 0
    tokens are dropped, and every other one is embedded by
    ``reference_embed``. The bytes are the header line, then one
    ``json.dumps(..., ensure_ascii=False)`` line per entry in chunk_id
    order, its vector last."""
    charts = layout_dir / "charts"
    provider = DirectoryChartProvider(charts) if charts.is_dir() else NullChartProvider()
    entries = []
    for path in sorted(layout_dir.glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        pages = preprocess_document(payload, provider, "json")
        for chunk in split_pages_by_pieces(pages, chunk_size, payload.attributes):
            if chunk.token_count:
                entries.append(IndexEntry(chunk, reference_embed(chunk.text, dimension)))
    entries.sort(key=lambda e: e.chunk.chunk_id)
    header = {"dimension": dimension, "count": len(entries), "tokenizer": DEFAULT_TOKENIZER.tag,
              "provider": provider_tag}
    lines = [json.dumps(header, ensure_ascii=False)]
    lines += [json.dumps({**e.chunk.as_dict(), "vector": e.vector}, ensure_ascii=False) for e in entries]
    return entries, "".join(line + "\n" for line in lines).encode("utf-8")


@dataclass(frozen=True)
class ReferenceOutcome:
    ranking: list[tuple[float, str]]  # every kept chunk, as ``ranked`` orders them
    answer: str
    correct: bool
    prompt_tokens: int
    cost_usd: float


def reference_outcome(entries, dimension, example, retrieved_ids, model_tag):
    """One ``QAExample`` through the reference stages. ``ranking`` is the
    full sort of the chunks its filters keep, by their reference cosine with
    the question's reference vector. The prompt holds the texts of
    ``retrieved_ids``: the ids the program retrieved, which the caller
    checks against ``ranking``, since chunks whose scores tie within
    rounding may come in either order. Its tokens are counted over the
    whole prompt text, the answer is ``reference_answer`` over its context,
    and the cost is the model's per-token rate times the tokens."""
    question = example.question
    ranking = ranked(entries, reference_embed(question, dimension), example.filters)
    texts = {e.chunk.chunk_id: e.chunk.text for e in entries}
    context = [texts[chunk_id] for chunk_id in retrieved_ids]
    answer = reference_answer(CONTEXT_SEPARATOR.join(context), question)
    tokens = count_tokens(build_prompt(context, question))
    return ReferenceOutcome(
        ranking=ranking,
        answer=answer,
        correct=score_answer(answer, example.gold_answer),
        prompt_tokens=tokens,
        cost_usd=DEFAULT_PRICING.per_token[model_tag] * tokens,
    )
