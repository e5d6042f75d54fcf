"""Tests of the benchmark's own parts: workload generators at a tiny size,
the span recorders, and the correctness gate."""
from __future__ import annotations

import csv
import shutil
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
from spans import Patcher, PeakRecorder, Recorder  # noqa: E402
from workloads import WORKLOADS, tiny, write_inputs  # noqa: E402

from dirtybench import classify, cli, cluster, config, evaluate, regress, robustness  # noqa: E402


def _run_tiny(name: str, dest: Path, monkeypatch, rec=None) -> Path:
    workload = tiny(WORKLOADS[name])
    config_path = write_inputs(workload, 3, dest, BENCH_DIR.parent)
    monkeypatch.chdir(dest)
    if rec is not None:
        layers.install(rec)
    try:
        assert cli.main([workload.command, config_path.name]) == 0
    finally:
        if rec is not None:
            rec.restore()
    return dest / "out"


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Outputs of each tiny workload, produced once for the module."""
    mp = pytest.MonkeyPatch()
    try:
        return {
            name: _run_tiny(name, tmp_path_factory.mktemp(name), mp)
            for name in WORKLOADS
        }
    finally:
        mp.undo()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_the_gate(name, tiny_outputs):
    workload = tiny(WORKLOADS[name])
    verdict = gate.check(workload, tiny_outputs[name], 0)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted == len(workload.expected_points()) > 0
    assert gate.check(workload, tiny_outputs[name], 0, verdict.digest).problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    root = BENCH_DIR.parent

    def files(seed, sub):
        write_inputs(workload, seed, tmp_path / sub, root)
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    first = files(5, "a")
    assert files(5, "b") == first
    assert files(6, "c") != first


def test_full_workloads_have_the_documented_grids():
    assert len(WORKLOADS["desk"].expected_points()) == 90
    assert len(WORKLOADS["scale2k"].expected_points()) == 75
    assert len(WORKLOADS["inject10k"].expected_points()) == 18


def _snapshot() -> list[dict]:
    """Copies of every namespace the recorders patch."""
    modules = (classify, cli, cluster, config, evaluate, regress, robustness)
    namespaces = [vars(m) for m in modules] + [
        evaluate.CLASSIFIER_TYPES, evaluate.REGRESSOR_FITTERS, vars(config.RunConfig),
    ]
    return [dict(ns) for ns in namespaces]


def _same(a: list[dict], b: list[dict]) -> bool:
    return all(x.keys() == y.keys() and all(x[k] is y[k] for k in x) for x, y in zip(a, b))


@pytest.mark.parametrize("make", [
    lambda rec: layers.install(rec),
    lambda rec: layers.install(rec, peaks_only=True),
    lambda rec: layers.count_pool_payload(rec, {"tasks": 0, "payload_bytes": 0}),
])
@pytest.mark.parametrize("recorder", [Recorder, PeakRecorder, Patcher])
def test_recorder_restores_every_original(make, recorder):
    before = _snapshot()
    rec = recorder()
    make(rec)
    assert not _same(before, _snapshot())
    rec.restore()
    assert _same(before, _snapshot())


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 6.5, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    inner = rec.wrap(lambda: None, "inner")

    def outer():
        inner()  # 2.0 -> 5.0
        inner()  # 6.0 -> 6.5
    rec.wrap(outer, "outer")()  # 0.0 -> 10.0
    table = rec.table()
    assert table["inner"] == {"calls": 2, "self_s": 3.5}
    assert table["outer"] == {"calls": 1, "self_s": 6.5}
    assert [s[1] for s in rec.spans] == [-1, 0, 0]


def test_peak_recorder_sees_nested_allocations():
    rec = PeakRecorder()
    inner = rec.wrap(lambda: bytearray(4 << 20), "inner")

    def outer():
        keep = bytearray(1 << 20)
        inner()
        return keep
    rec.wrap(outer, "outer")()
    assert rec.peaks["inner"] >= 4 << 20
    assert rec.peaks["outer"] >= 5 << 20
    assert not tracemalloc.is_tracing()


def test_traced_run_records_declared_spans_and_changes_no_output(
        tiny_outputs, tmp_path, monkeypatch):
    rec = Recorder()
    out = _run_tiny("desk", tmp_path, monkeypatch, rec)
    table = rec.table()
    assert set(table) <= set(layers.FAMILIES)
    assert table["classify.random_forest.fit"]["calls"] == 2 * 2  # rates x folds
    assert table["robustness.run_sweep"]["calls"] == 1
    assert gate.digest(out) == gate.digest(tiny_outputs["desk"])


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    stamp, body = lines[0], list(csv.reader(lines[1:]))
    edit(body)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(stamp + "\n")
        csv.writer(fh).writerows(body)


def test_gate_rejects_a_perturbed_ledger(tiny_outputs, tmp_path):
    workload = tiny(WORKLOADS["desk"])
    good = gate.check(workload, tiny_outputs["desk"], 0)

    def perturbed(edit) -> gate.Verdict:
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        shutil.copytree(tiny_outputs["desk"], out)
        _rewrite_csv(out / "results.csv", edit)
        return gate.check(workload, out, 0, good.digest)

    def bump_f(body):
        col = body[0].index("f_measure")
        body[1][col] = str(float(body[1][col]) + 1e-6)

    def drop_row(body):
        del body[1]

    def bump_time(body):
        col = body[0].index("time_log10_ms")
        body[1][col] = "9.9"

    assert any("harmonic mean" in p for p in perturbed(bump_f).problems)
    assert any("digest" in p for p in perturbed(bump_f).problems)
    dropped = perturbed(drop_row)
    assert dropped.failed == 1 and dropped.problems
    assert perturbed(bump_time).problems == []  # timing is masked
    assert gate.check(workload, tiny_outputs["desk"], 3).problems  # exit code


def test_gate_rejects_an_injection_off_its_rate(tiny_outputs, tmp_path):
    workload = tiny(WORKLOADS["inject10k"])
    out = tmp_path / "out"
    shutil.copytree(tiny_outputs["inject10k"], out)

    def shift(body):
        col = body[0].index("achieved_rate")
        body[-1][col] = str(float(body[-1][col]) + 0.05)
    _rewrite_csv(out / "injection_summary.csv", shift)
    assert any("from target" in p for p in gate.check(workload, out, 0).problems)

    extra = replace(workload, rate_count=2)
    assert gate.check(extra, tiny_outputs["inject10k"], 0).failed == 3  # one rate x 3 types
