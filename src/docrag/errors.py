"""Exception types shared across the toolkit, and the one rule that decodes JSON."""

from __future__ import annotations

import json


class DocragError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(DocragError):
    """A payload failed structural validation.

    Carries the path of the first offending element, e.g.
    ``pages[0].tables[1].cells[3].row_span``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ChartExtractionError(DocragError):
    """Chart CSV text could not be converted to records.

    ``row`` and ``column`` are 1-based positions of the offending field.
    """

    def __init__(self, row: int, column: int, message: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column}: {message}")


class ProviderError(DocragError):
    """An external provider call failed.

    ``prompt`` is set when an LLM call fails so the request can be
    replayed.
    """

    def __init__(self, message: str, *, prompt: str | None = None):
        self.prompt = prompt
        super().__init__(message)


class IndexLoadError(DocragError):
    """A persisted index file is corrupt; ``byte_offset`` locates the damage."""

    def __init__(self, byte_offset: int, message: str):
        self.byte_offset = byte_offset
        super().__init__(f"byte {byte_offset}: {message}")


class MissingDocumentsError(DocragError):
    """An eval dataset references documents absent from the index."""

    def __init__(self, document_ids: list[str]):
        self.document_ids = list(document_ids)
        super().__init__("documents not indexed: " + ", ".join(self.document_ids))


def decode_json(text, decode=json.loads):
    """``decode(text)``, failing on bad JSON only with a ``ValueError``: a
    ``str`` that starts with U+FEFF gets ``json.loads``'s own BOM error
    whatever ``decode`` is, and a document nested too deeply to decode a
    ``json.JSONDecodeError`` in place of ``RecursionError``."""
    if isinstance(text, str) and text.startswith("\ufeff"):
        decode = json.loads  # refuses it with the error that names the BOM
    try:
        return decode(text)
    except RecursionError as exc:  # raised with no position, so the start is named
        raise json.JSONDecodeError("document nested too deeply to decode", "", 0) from exc


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``, through ``decode_json``."""
    with open(path, encoding="utf-8") as handle:
        return decode_json(handle.read())
