"""Fresh-process set-up probe, timed from outside by the workload runner.

``python benchmarks/probe.py ingest LAYOUT_DIR`` imports the CLI and builds
what ``cmd_ingest`` builds before its loop. ``python benchmarks/probe.py
serve INDEX`` imports the CLI, loads the index and builds the embedder and
reader that ``cmd_query`` and ``cmd_eval`` use. Running in a new process
counts import-time work too, so work moved into import or load shows up in
``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    mode, target = sys.argv[1], Path(sys.argv[2])
    from docrag import cli

    if mode == "ingest":
        embedder = cli.HashingEmbedder()
        cli.VectorIndex(
            dimension=embedder.dimension,
            tokenizer_tag=cli.DEFAULT_TOKENIZER.tag,
            provider_tag=embedder.tag,
        )
        cli.DirectoryChartProvider(target / "charts")
        return 0 if sorted(target.glob("*.json")) else 1
    if mode == "serve":
        index = cli.VectorIndex.load(target)
        cli.HashingEmbedder(dimension=index.dimension)
        cli.ContextLookupLLM()
        return 0 if len(index) else 1
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
