"""Benchmark of ecglearn's ingest, pretraining and PE fine-tuning paths.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and the tracing overhead, and writes the spans and the
per-layer table under ``.perfbench/results/``. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _pin_threads() -> str:
    """One process, no more BLAS threads than CPUs; must precede numpy."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return threads


def fingerprint(threads: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = _pin_threads()
    src = ROOT / "src"
    if not (src / "ecglearn" / "__init__.py").is_file():
        print(f"perfbench: no ecglearn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    correct = True
    try:
        attempted, metrics, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except CheckFailed:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        return 1

    if tracer is not None:
        write_trace(tracer, metrics, args, fingerprint(threads))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def write_trace(tracer, metrics, args, machine: dict):
    """The spans (one JSON array per line) and the per-layer table."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}-spans.jsonl", "w") as fh:
        fh.write('["id", "name", "parent", "start", "end"]\n')
        for i, (name, parent, start, end) in enumerate(tracer.spans):
            fh.write(json.dumps([i, name, parent, start, end]) + "\n")
    table = {"workload": args.workload, "seed": args.seed, "machine": machine,
             "traced_rounds": tracer.rounds,
             "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
             "spans": tracer.layer_table()}
    Path(f"{stem}-layers.json").write_text(json.dumps(table, indent=1) + "\n")
    print(f"perfbench: wrote {stem}-spans.jsonl and {stem}-layers.json",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
