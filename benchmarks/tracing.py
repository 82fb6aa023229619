"""In-memory spans recorded from outside the program under test.

A span has a name (``<layer>.<call>``), a start, an end, a parent and the
root op it belongs to (one document, question or process). Spans are kept
in a list and written out once, when the run ends. ``NullTracer`` keeps the
same interface and records nothing, so the untraced run executes the same
benchmark code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        op = tracer.spans[parent][2] if parent >= 0 else len(tracer.spans)
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, parent, op, perf_counter_ns(), 0])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][4] = perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op index, start ns, end ns]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another tracer (another process)."""
        offset = len(self.spans)
        for name, parent, op, start, end in spans:
            self.spans.append([
                name, parent + offset if parent >= 0 else -1, op + offset, start, end,
            ])

    def counted(self, name: str, size=None):
        """A ``how`` for ``wrapped``: add one per call, or ``size(result)``,
        to ``counts[name]``, without a span."""
        def wrap(function):
            def call(*args, **kwargs):
                result = function(*args, **kwargs)
                self.counts[name] = self.counts.get(name, 0) + (size(result) if size else 1)
                return result

            return call

        return wrap

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [(s[4] - s[3]) / 1e9 for s in self.spans if s[0] == name]

    def roots(self) -> list[list]:
        return [s for s in self.spans if s[1] < 0]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_ns):
            layer = span[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (span[4] - span[3] - children) / 1e9
        return totals

    def write(self, path: Path) -> None:
        fields = ("name", "parent", "op", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


@contextmanager
def wrapped(tracer: Tracer, targets):
    """Replace attributes of modules, classes or objects for the block.

    ``targets`` holds ``(owner, attribute, how)`` triples, where ``how``
    is a span name to wrap the original in, or a function that takes the
    original and returns its replacement. Patching the name where it is
    looked up lets a span see calls the benchmark does not make itself,
    such as ``flatten_table`` inside ``preprocess_document`` or the
    tokenizer's ``spans`` inside the embedder.
    """
    saved = []
    try:
        for owner, attribute, how in targets:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original, attribute in vars(owner)))
            replacement = _spanned(tracer, how, original) if isinstance(how, str) else how(original)
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original, own in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:  # a method found on the class: drop the instance's copy
                delattr(owner, attribute)


def _spanned(tracer: Tracer, name: str, function):
    def call(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return call
