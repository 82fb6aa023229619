"""Token segmentation used for chunk sizing and prompt accounting.

The one tokenizer segments on Unicode whitespace and splits runs of
punctuation or symbol characters into their own tokens, so ``"Q1/23E
Core"`` yields ``Q1``, ``/``, ``23E``, ``Core``. It is deliberately
model-agnostic. Chunk sizes, stored token counts, embedding features and
prompt prices all come from ``DEFAULT_TOKENIZER``; an index header names
its tag (``ws-punct-v1``), and an index naming any other tag is refused.
"""

from __future__ import annotations

import re

# A token is a maximal run of word characters or a maximal run of
# non-word, non-whitespace characters (punctuation/symbols).
_TOKEN_RE = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


class WhitespacePunctTokenizer:
    """Whitespace segmentation + punctuation splitting."""

    tag = "ws-punct-v1"

    def spans(self, text: str) -> list[tuple[int, int]]:
        """Return (start, end) character offsets of each token, in order."""
        return [m.span() for m in _TOKEN_RE.finditer(text)]

    def tokens(self, text: str) -> list[str]:
        return [m.group() for m in _TOKEN_RE.finditer(text)]


DEFAULT_TOKENIZER = WhitespacePunctTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens in ``text``."""
    return len(DEFAULT_TOKENIZER.spans(text))
