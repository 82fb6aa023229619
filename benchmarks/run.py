"""docrag benchmark: one command, two seeded workloads.

    python3 benchmarks/run.py --workload {ingest,qa} --seed N --seconds S --trace {0,1}

Run from the repository root. It generates the corpus for the seed
(benchmarks/corpus.py), builds the index with ``docrag ingest`` for qa
(``python -m docrag.cli`` with ``src`` on PYTHONPATH, because the package
need not be installed), then measures the workload in a fresh process
(benchmarks/workloads.py), in whole groups of three passes and for at
least S seconds; one group takes 30-40 s. Working files go under
``.bench_work/`` and are removed at the end; a traced run leaves its spans
in ``.bench_work/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the Python and numpy versions, the CPU count, the
latency sample count and wall-time latencies. Any failed
operation or output check makes ``correct`` false and the exit code 1.
``--tiny`` shrinks the corpus for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from corpus import DOCS, PAGES, build
from metrics import END_TO_END, PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
TINY_DOCS, TINY_PAGES = 4, 6
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170  # the whole run, so that it ends within three minutes


def _fail(message: str) -> int:
    sys.stderr.write(f"benchmark: {message}\n")
    return 1


def _run(argv: list[str], env: dict, deadline: float, capture: bool) -> subprocess.CompletedProcess:
    """Run a child in its own process group; past the deadline, kill the
    group (the child and anything it started) and wait for it."""
    with subprocess.Popen(
        argv, env=env, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else None, stderr=subprocess.PIPE if capture else None,
    ) as child:
        try:
            out, err = child.communicate(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    return subprocess.CompletedProcess(argv, child.returncode, out, err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ingest", "qa"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small documents (smoke test)")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "docrag" / "__init__.py").is_file():
        return _fail(f"no docrag sources under {src}; run from the repository root")
    docs, pages = (TINY_DOCS, TINY_PAGES) if args.tiny else (DOCS, PAGES)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # numpy's BLAS on the calling thread: one client uses one CPU, and a
    # helper thread's spin-waiting would count as work and add noise
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    try:
        corpus = work / "corpus"
        build(args.seed, corpus, docs, pages)
        index = work / "reference.index"
        if args.workload != "ingest":  # the ingest workload times its own
            done = _run(
                [sys.executable, "-m", "docrag.cli", "ingest",
                 "--layout", str(corpus / "layout"), "--index", str(index)],
                env, deadline, capture=True,
            )
            if done.returncode != 0:
                return _fail(f"docrag ingest failed: {done.stderr.strip()}")
        out = work / "result.json"
        done = _run(
            [sys.executable, str(BENCH_DIR / "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--corpus", str(corpus), "--index", str(index),
             "--work", str(work), "--out", str(out)] + (["--tiny"] if args.tiny else []),
            env, deadline, capture=False,
        )
        if done.returncode != 0 or not out.is_file():
            return _fail(f"workload {args.workload} exited with {done.returncode}")
        result = json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        return _fail(f"timed out after {DEADLINE_S} s: {exc.cmd[:3]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalogue = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    correct = result["failed"] == 0
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
