"""Exception types shared across the toolkit, the one rule that decodes
JSON, the two rules every input's values meet, and the one rule that
writes an output file.

``check_count`` states a whole number of at least some minimum (a bool is
none), and ``check_record`` a JSON object whose keys come from a fixed set:
every setting, dataset line, index line and pricing file is held to them,
each refusal in one wording.

``replacing`` writes both outputs, the index and the eval report: a fresh
temp file beside the destination, synced to disk, renamed over it, and the
directory synced after (Pillai et al., OSDI 2014), so a reader sees the old
file or the new one, never a part. ``check_destination`` states what a
destination must be; the CLI runs it before any other work.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


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


def check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a ``value`` that is no ``int`` (``True`` and ``2.0`` are not)
    or is below ``minimum``, with a ``ValueError`` naming ``name``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_record(data, what: str, keys=None) -> dict:
    """``data`` if it is a JSON object (a ``dict``) whose every key is one
    of ``keys`` (any key when ``keys`` is None); else a ``ValueError``
    naming ``what`` and the first key, in ``data``'s order, that is not."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r:.80}")
    if keys is not None:
        for key in data:
            if key not in keys:
                raise ValueError(f"{what} key {key!r} is not one of {', '.join(keys)}")
    return data


def check_destination(path, *sources) -> Path:
    """``path`` as a ``Path`` if it can be an output: its directory exists,
    and it is no directory and none of the ``sources`` the same command
    reads (a falsy one is skipped). Each refusal names ``path`` as given."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(f"output path {path} is a directory")
    if not target.absolute().parent.is_dir():
        raise FileNotFoundError(f"output path {path}: its directory does not exist")
    for source in sources:
        if source and target.exists() and os.path.exists(source) and target.samefile(source):
            raise ValueError(f"output path {path} is the input {source}")
    return target


@contextmanager
def replacing(path):
    """A UTF-8 text handle on a fresh temp file beside ``path``, which must
    pass ``check_destination``. On a clean exit the file is flushed and
    synced, renamed over ``path``, and the directory synced; on any error it
    is removed and ``path`` is left as it was. The file is created as
    ``open()`` creates one (``O_EXCL``, and the umask sets its mode), and a
    symlink at ``path`` is replaced, not followed."""
    path = check_destination(path)
    # 64 random bits: no other file has the name, so removing it is safe.
    temp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        with open(temp_name, "x", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
        os.fsync(directory)
    finally:
        os.close(directory)
        temp_name.unlink(missing_ok=True)  # gone already after the rename
