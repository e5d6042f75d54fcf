"""One fresh process of the benchmark: set up, run one CLI command, report.

    python3 benchmark/child.py MODE WORKLOAD SEED DIR [--jobs N]

The process imports the program, writes the workload's inputs for SEED into
DIR and, unless MODE is ``setup``, runs the command through
``dirtybench.cli.main`` with DIR as its working directory.  It writes
``result.json`` to DIR:

- ``ready``: ``time.monotonic()`` when the command starts, so the caller can
  take set-up time from its own clock;
- ``wall_s``, ``cpu_s`` (this process and its pool workers), ``worker_cpu_s``,
  ``peak_rss_mb`` and ``exit_code`` of the command.

Modes: ``setup`` stops before the command; ``run`` runs it untouched;
``pool`` also counts the bytes pickled into pool tasks; ``trace`` records
spans (``layers`` in the result, every span in ``spans.jsonl``); ``peak``
records tracemalloc peaks of the peak families (``peaks``).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import layers
from spans import Patcher, PeakRecorder, Recorder
from workloads import WORKLOADS, write_inputs

MODES = ("setup", "run", "pool", "trace", "peak")


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("dir", type=Path)
    parser.add_argument("--jobs", type=int)
    args = parser.parse_args(argv)

    from dirtybench import cli

    workload = WORKLOADS[args.workload]
    repo_root = Path(__file__).resolve().parents[1]
    config = write_inputs(workload, args.seed, args.dir, repo_root)
    os.chdir(args.dir)
    result: dict = {}
    if args.mode == "setup":
        result["ready"] = time.monotonic()
        Path("result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    rec = {"trace": Recorder, "peak": PeakRecorder}.get(args.mode, Patcher)()
    pool_stats = {"tasks": 0, "payload_bytes": 0}
    if args.mode == "pool":
        layers.count_pool_payload(rec, pool_stats)
    elif args.mode in ("trace", "peak"):
        layers.install(rec, peaks_only=args.mode == "peak")
    argv = [workload.command, config.name]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]

    self0, workers0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    result["ready"] = time.monotonic()
    start = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        rec.restore()
    worker_cpu = _cpu(resource.RUSAGE_CHILDREN) - workers0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(
        wall_s=wall,
        cpu_s=_cpu(resource.RUSAGE_SELF) - self0 + worker_cpu,
        worker_cpu_s=worker_cpu,
        peak_rss_mb=peak_kb / 1024.0,
        exit_code=exit_code,
    )
    if args.mode == "pool":
        result["pool"] = pool_stats
    elif args.mode == "trace":
        result["layers"] = rec.table()
        rec.write("spans.jsonl")
    elif args.mode == "peak":
        result["peaks"] = {name: b / 2**20 for name, b in rec.peaks.items()}
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
