"""Token segmentation used for chunk sizing and prompt accounting.

The one tokenizer segments on Unicode whitespace and splits runs of
punctuation or symbol characters into their own tokens, so ``"Q1/23E
Core"`` yields ``Q1``, ``/``, ``23E``, ``Core``. It is deliberately
model-agnostic. Chunk sizes, stored token counts, embedding features and
prompt prices all come from ``DEFAULT_TOKENIZER``; an index header names
its tag (``ws-punct-v1``), and an index naming any other tag is refused.
Its entry points are ``tokens`` (the token strings), ``spans`` (their
character offsets) and ``count_tokens``; one pattern defines them all.

No token contains whitespace, so the count of texts joined by whitespace
is the sum of their counts. Prompt pricing relies on this: a prompt is
counted as its template plus the retrieved chunks' stored counts. The
pattern's ``\\s`` is ``str.isspace``, so a text's tokens are also its
``str.split`` words' tokens in order, and the embedder hashes them so.
A token is a maximal run of word characters or of other non-whitespace
characters, so the chunker finds a text's token starts from each code
point's class under the pattern, without running it over the text. No
command calls ``spans``; it stays for library callers and the tests'
reference chunkers.
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
        """The tokens themselves: ``[text[s:e] for s, e in spans(text)]``."""
        return _TOKEN_RE.findall(text)  # the pattern has no groups


DEFAULT_TOKENIZER = WhitespacePunctTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens in ``text``."""
    return len(_TOKEN_RE.findall(text))
