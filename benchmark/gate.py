"""Correctness gate: checks one command's outputs, on every benchmark run.

At any seed it checks invariants the README promises:

- a sweep emits exactly the expected grid points and no failures, and F is
  the harmonic mean of P and R on every ledger row;
- ``inject`` writes one distinct file per summary row, and every achieved
  rate lies within one cell (missing) or one row (inconsistent,
  conflicting) of its target.

It also returns a digest of the outputs with timing and the config hash
masked, which must equal the digest recorded for the workload at the
recording seed, and which two runs of one seed must share whatever the
worker count or tracing.  Only the standard library is used.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

MASKED_COLUMNS = ("time_log10_ms",)
MASKED_KEYS = ("config_hash", "time_log10_ms")


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def check(workload: Workload, out_dir: Path, exit_code: int,
          expected_digest: str | None = None) -> Verdict:
    expected = workload.expected_points()
    verdict = Verdict(attempted=len(expected), failed=0)
    if exit_code != 0:
        verdict.problems.append(f"command exited with {exit_code}")
    try:
        if workload.command == "sweep":
            _check_sweep(out_dir, expected, verdict)
        else:
            _check_inject(workload, out_dir, expected, verdict)
        verdict.digest = digest(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        verdict.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        verdict.failed = verdict.attempted
    if expected_digest is not None and verdict.digest != expected_digest:
        verdict.problems.append(
            f"masked output digest {verdict.digest[:16]} != recorded {expected_digest[:16]}"
        )
    return verdict


def _point(dataset: str, algorithm: str, error_type: str, rate) -> tuple:
    return dataset, algorithm, error_type, round(float(rate), 9)


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_sweep(out_dir: Path, expected: list, verdict: Verdict) -> None:
    rows = _read_csv(out_dir / "results.csv")
    got = Counter(_point(r["dataset"], r["algorithm"], r["error_type"], r["rate"]) for r in rows)
    want = Counter(_point(*p) for p in expected)
    if got - want:
        verdict.problems.append(f"ledger has unexpected points: {sorted(got - want)[:3]}")
    verdict.failed = sum((want - got).values())
    if verdict.failed:
        verdict.problems.append(f"{verdict.failed} grid points missing from the ledger")
    errors = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["errors"]
    if errors:
        verdict.problems.append(f"{len(errors)} failed points, first: {errors[0]['message']}")
    for r in rows:
        if r["precision"] == "" or r["recall"] == "":
            continue
        p, rc, f = float(r["precision"]), float(r["recall"]), float(r["f_measure"])
        harmonic = 0.0 if p + rc == 0 else 2 * p * rc / (p + rc)
        if not math.isclose(f, harmonic, rel_tol=1e-9, abs_tol=1e-12):
            verdict.problems.append(
                f"F {f} is not the harmonic mean of P {p} and R {rc} "
                f"({r['dataset']}/{r['algorithm']}@{r['rate']})"
            )


def _check_inject(workload: Workload, out_dir: Path, expected: list, verdict: Verdict) -> None:
    rows = _read_csv(out_dir / "injection_summary.csv")
    got = Counter(_point(r["dataset"], "", r["error_type"], r["target_rate"]) for r in rows)
    want = Counter(_point(*p) for p in expected)
    verdict.failed = sum((want - got).values())
    if got != want:
        verdict.problems.append(f"summary has {len(rows)} rows for {len(expected)} expected files")
    files = [r["file"] for r in rows]
    written = {p.name for p in (out_dir / "injected").iterdir()}
    if len(set(files)) != len(files) or set(files) != written:
        verdict.problems.append("summary rows and written files are not one-to-one")
    datasets = {d["name"]: d for d in workload.datasets}
    for r in rows:
        n_rows = int(r["rows"])
        if r["error_type"] == "missing":
            entry = datasets[r["dataset"]]
            with open(out_dir / "injected" / r["file"], encoding="utf-8") as fh:
                width = len(next(csv.reader(fh)))
            features = width - len(entry.get("keys", ())) - (1 if entry.get("target") else 0)
            units = n_rows * features
        else:
            units = n_rows
        # achieved rates are written rounded to 6 decimals
        off = abs(float(r["achieved_rate"]) - float(r["target_rate"])) * units
        if off > 1 + 1e-6 * units:
            verdict.problems.append(
                f"{r['file']}: achieved {r['achieved_rate']} is {off:.2f} {r['unit']} "
                f"from target {r['target_rate']}"
            )


def digest(out_dir: Path) -> str:
    """sha256 over every output file, with the stamp lines, the timing column
    and the config hash masked; the resolved config is left out because it
    records the worker count."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if path.name == "resolved_config.json":
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            text = json.dumps(_mask_json(json.loads(text)), sort_keys=True)
        elif path.suffix == ".csv":
            text = _mask_csv(text)
        h.update(rel.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def _mask_json(value):
    if isinstance(value, dict):
        return {k: _mask_json(v) for k, v in value.items() if k not in MASKED_KEYS}
    if isinstance(value, list):
        return [_mask_json(v) for v in value]
    return value


def _mask_csv(text: str) -> str:
    lines = [ln for ln in text.splitlines() if not ln.startswith("# config_hash=")]
    if not lines:
        return ""
    header = next(csv.reader([lines[0]]))
    drop = [i for i, name in enumerate(header) if name in MASKED_COLUMNS]
    if not drop:
        return "\n".join(lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in csv.reader(lines):
        writer.writerow([v for i, v in enumerate(row) if i not in drop])
    return out.getvalue()
