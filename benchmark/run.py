"""dirtybench benchmark: run one workload through the CLI, timed or traced.

    python3 benchmark/run.py --workload desk --seed 1 --seconds 30 --trace 0

Every command runs in a fresh process (``child.py``) that imports the
program from ``src/``, writes the workload's inputs for the seed and calls
``dirtybench.cli.main``.  Outputs go under ``.bench_work/`` and are removed
once checked.

``--trace 0`` repeats the command until ``--seconds`` are used up (at least
once) and reports medians of the end-to-end metrics:

- ``wall_s``: command start to return;
- ``cpu_s``: user + system CPU of the command, pool workers included;
- ``points_per_s``: ledger rows (sweeps) or written files (inject) per wall
  second;
- ``setup_s``: process start, imports and input generation, up to the
  command's start; the median over every iteration plus set-up-only
  processes, at least five in all;
- ``peak_rss_mb``: the highest resident set size of the process or of any
  pool worker.

``--trace 1`` runs the command untraced (as timed; plus serially when the
workload uses a pool), then traced at one worker, then once more with
tracemalloc on inside the peak families.  It reports per-layer calls, self
time and peaks, the pool's utilisation and task payload, and the tracing
overhead: traced minus untraced serial wall time.

Every command's outputs pass the correctness gate (``gate.py``).  At
``RECORD_SEED`` their masked digest must equal ``digests.json``; in a traced
run every pass must produce the same masked outputs.  ``--record`` stores
the digest of this run instead, for use after a change that is meant to
alter results.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from layers import FAMILIES, PEAK_FAMILIES, PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"
RECORD_SEED = 0
MIN_SETUPS = 5
TIME_LIMIT_S = 170.0
END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("points_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Run:
    """Children of one benchmark invocation, the verdicts on their outputs,
    and the time limit they share."""

    def __init__(self, workload, seed: int, work_dir: Path, expected_digest: str | None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.expected_digest = expected_digest
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._count = 0

    def child(self, mode: str, jobs: int | None = None, label: str | None = None) -> dict:
        """Run one child; check its outputs unless it only set up."""
        self._count += 1
        dest = self.work_dir / f"{self._count:02d}-{mode}"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, self.workload.name,
               str(self.seed), str(dest)]
        if jobs is not None:
            cmd += ["--jobs", str(jobs)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, start_new_session=True, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the {TIME_LIMIT_S:.0f} s limit")
        finally:
            # the child's own session holds its pool workers too
            _kill_group(proc.pid)
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{err[-3000:]}")
        result = json.loads((dest / "result.json").read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - started
        if mode != "setup":
            verdict = gate.check(self.workload, dest / "out", result["exit_code"],
                                 self.expected_digest)
            self.attempted += verdict.attempted
            self.failed += verdict.failed
            self.problems += [f"{label or mode}: {p}" for p in verdict.problems]
            self.digests[label or f"{self._count}-{mode}"] = verdict.digest
            result["points"] = verdict.attempted - verdict.failed
            if mode == "trace":
                shutil.copyfile(dest / "spans.jsonl",
                                WORK_DIR / f"{self.workload.name}-spans.jsonl")
        shutil.rmtree(dest, ignore_errors=True)
        return result


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def timed(run: Run, seconds: float) -> dict[str, float]:
    results = []
    start = time.monotonic()
    while True:
        results.append(run.child("run"))
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(results)
        if elapsed + per_iteration > seconds or time.monotonic() + 2 * per_iteration > run.deadline:
            break
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setups.append(run.child("setup")["setup_s"])
    samples = {
        "wall_s": [r["wall_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "points_per_s": [r["points"] / r["wall_s"] for r in results],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    _print_samples(samples)
    return {name: statistics.median(values) for name, values in samples.items()}


def traced(run: Run) -> dict[str, float]:
    workload = run.workload
    if workload.jobs > 1:
        untraced = run.child("pool", label=f"untraced jobs={workload.jobs}")
        serial = run.child("run", jobs=1, label="untraced jobs=1")
        pool = untraced["pool"]
        utilization = untraced["worker_cpu_s"] / (workload.jobs * untraced["wall_s"])
    else:
        serial = run.child("run", label="untraced")
        pool = {"tasks": 0, "payload_bytes": 0}
        utilization = 0.0
    traced_result = run.child("trace", jobs=1, label="traced jobs=1")
    peak_result = run.child("peak", jobs=1, label="tracemalloc jobs=1")

    layers, peaks = traced_result["layers"], peak_result["peaks"]
    unknown = set(layers) - set(FAMILIES)
    if unknown:
        raise BenchError(f"spans outside the declared families: {sorted(unknown)}")
    metrics: dict[str, float] = {}
    for fam in FAMILIES:
        entry = layers.get(fam, {"calls": 0, "self_s": 0.0})
        metrics[f"{fam}.calls"] = entry["calls"]
        metrics[f"{fam}.self_s"] = entry["self_s"]
    for fam in PEAK_FAMILIES:
        metrics[f"{fam}.peak_mb"] = peaks.get(fam, 0.0)
    metrics["robustness.pool.utilization"] = utilization
    metrics["robustness.pool.payload_bytes"] = pool["payload_bytes"]
    metrics["robustness.pool.tasks"] = pool["tasks"]
    overhead = traced_result["wall_s"] - serial["wall_s"]
    metrics["trace.overhead_s"] = overhead

    print(f"{'layer':<40} {'calls':>8} {'self_s':>10} {'peak_mb':>9}")
    for fam in sorted(FAMILIES, key=lambda f: -metrics[f"{f}.self_s"]):
        if not metrics[f"{fam}.calls"]:
            continue
        peak = metrics.get(f"{fam}.peak_mb")
        print(f"{fam:<40} {metrics[f'{fam}.calls']:>8} {metrics[f'{fam}.self_s']:>10.4f} "
              f"{'' if peak is None else f'{peak:.2f}':>9}")
    print(f"pool: {pool['tasks']} tasks, {pool['payload_bytes']} B pickled, "
          f"utilization {utilization:.3f}")
    print(f"tracing overhead: traced {traced_result['wall_s']:.3f} s - untraced "
          f"{serial['wall_s']:.3f} s = {overhead:+.3f} s")
    return metrics


def _print_samples(samples: dict[str, list[float]]) -> None:
    units = dict(END_TO_END)
    print(f"{'metric':<14} {'unit':<5} {'median':>12} {'min':>12} {'max':>12} {'n':>3}")
    for name, values in samples.items():
        print(f"{name:<14} {units[name]:<5} {statistics.median(values):>12.5g} "
              f"{min(values):>12.5g} {max(values):>12.5g} {len(values):>3}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's masked output digest as the expected one")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so children are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.record and args.seed != RECORD_SEED:
        parser.error(f"--record needs --seed {RECORD_SEED}")

    for needed in (ROOT / "src" / "dirtybench" / "cli.py", ROOT / "data" / "iris.csv"):
        if not needed.is_file():
            print(f"benchmark: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    expected = None
    if args.seed == RECORD_SEED and not args.record:
        expected = digests.get(args.workload)
        if expected is None:
            print(f"benchmark: no recorded digest for {args.workload}", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, work_dir, expected)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    try:
        if args.trace:
            metrics = traced(run)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = timed(run, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # one seed must give the same masked outputs in every pass: repeated,
    # traced, or at another worker count
    if len(set(run.digests.values())) != 1:
        run.problems.append(f"masked outputs differ between passes: {run.digests}")
    if args.record and not run.problems:
        digests[args.workload] = next(iter(run.digests.values()))
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    correct = not run.problems
    print(f"failed_share: {run.failed}/{run.attempted} points")
    for problem in run.problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
