"""Tests of the benchmark itself: tracer arithmetic, checks, and tiny runs.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from evadegan import gan, masks, nslkdd, synthetic
from evadegan.evaluate import EvalReport, EvalRow

import checks
import corpus
import layers
import measure
import run
from tracer import Tracer, find_wrapped

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def _fake_package():
    """``fakepkg.outer`` calls ``inner`` through ``fakepkg.sub``'s own binding."""
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def inner():
        return "inner"

    def outer():
        return sub.inner() + sub.inner()

    pkg.inner, pkg.outer, sub.inner = inner, outer, inner
    return pkg, sub


def test_self_time_is_total_minus_children(monkeypatch):
    pkg, sub = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    # outer 0..10 encloses inner 1..4 and inner 5..7
    tracer = Tracer(clock=_clock(0.0, 1.0, 4.0, 5.0, 7.0, 10.0))
    tracer.wrap_function(pkg, "outer", "outer")
    tracer.wrap_function(pkg, "inner", "inner")
    assert pkg.outer() == "innerinner"
    tracer.close()

    outer, first, second = tracer.spans
    assert (outer.name, outer.total_s, outer.self_s) == ("outer", 10.0, 5.0)
    assert [(s.name, s.self_s, s.parent) for s in (first, second)] == [("inner", 3.0, 0), ("inner", 2.0, 0)]
    assert tracer.enclosing(1, "outer") is outer
    assert pkg.inner is sub.inner and not find_wrapped("fakepkg")


def test_tracer_restores_originals_when_the_call_raises(monkeypatch):
    pkg, sub = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)

    def boom():
        raise ValueError("boom")

    sub.inner = pkg.inner = boom
    tracer = Tracer()
    tracer.wrap_function(pkg, "outer", "outer")
    tracer.wrap_function(pkg, "inner", "inner")
    assert find_wrapped("fakepkg") == ["fakepkg.inner", "fakepkg.outer", "fakepkg.sub.inner"]
    with pytest.raises(ValueError):
        pkg.outer()
    tracer.close()
    assert not find_wrapped("fakepkg")
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert all(np.isfinite(s.end) for s in tracer.spans)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    synthetic.write_corpus_pair(path / "train.txt", path / "test.txt", 1500, 500, seed=5)
    return path


@pytest.mark.parametrize("name", sorted(measure.WORKLOADS))
def test_tiny_run_of_each_workload(name, tiny_corpus, tmp_path):
    workload = dataclasses.replace(
        measure.WORKLOADS[name], n_train=1500, n_test=500, epochs=min(2, measure.WORKLOADS[name].epochs)
    )
    record = measure.measure(
        workload, tiny_corpus / "train.txt", tiny_corpus / "test.txt", 5, 0, True, tmp_path / "out"
    )
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    # a warm-up set-up rep, three cycles of (two set-up reps, serial grid),
    # a --jobs 2 grid, a traced grid, the determinism check
    cells = len(workload.cells)
    assert record["attempted"] == 1 + 3 * (2 + cells) + cells + cells + 1
    assert set(record["metrics"]) == set(run.END_TO_END_UNITS)
    assert record["metrics"]["ok_ratio"] == 1.0
    assert [n for n, _ in layers.METRICS] == list(record["per_layer"])
    per_layer = record["per_layer"]
    assert per_layer["masks.frozen_violations"] == 0
    assert per_layer["nslkdd.rows"] == 2000
    assert len(record["output_sha256"]["report.csv"]) == 1
    assert per_layer["gan.critic_updates_attempted"] > 0
    assert 0.0 < per_layer["detectors.query_share"] < 1.0
    assert not find_wrapped("evadegan")


def test_wrappers_exist_only_inside_the_traced_block():
    assert not find_wrapped("evadegan")
    with layers.LayerTrace():
        wrapped = find_wrapped("evadegan")
        assert "evadegan.evaluate.encode_batch" in wrapped
        assert "evadegan.gan.postprocess" in wrapped
        assert "evadegan.detectors.KNearestNeighbors.predict" in wrapped
    assert not find_wrapped("evadegan")


def test_generated_violations_counts_each_broken_row():
    mask = masks.mask_for(nslkdd.AttackCategory.DOS, masks.FUNCTIONAL_ONLY)
    schema = nslkdd.FeatureSchema()
    originals = np.full((4, nslkdd.N_FEATURES), 0.25)
    binary = list(schema.binary_indices)
    originals[:, binary] = 1.0
    good = originals.copy()
    good[:, mask.modifiable] = 0.5
    good[:, binary] = np.where(mask.modifiable[binary], 0.0, 1.0)
    assert checks.generated_violations(originals, mask, schema, good, good) == 0

    bad = good.copy()
    frozen = int(np.flatnonzero(~mask.modifiable)[0])
    bad[0, frozen] = np.nextafter(bad[0, frozen], 1.0)  # one ulp off the source
    bad[1, mask.modifiable] = 1.5
    free_binary = [i for i in binary if mask.modifiable[i]]
    bad[2, free_binary[0]] = 0.5
    assert checks.generated_violations(originals, mask, schema, good, bad) == 3


def _write_report(out: Path, epochs: int = 2) -> list[tuple]:
    report = EvalReport()
    cells = [("lr", "dos", "functional_only"), ("lr", "u2r_r2l", "functional_only")]
    for algorithm, attack, setting in cells:
        report.rows.append(
            EvalRow(algorithm, attack, setting, 0.5, 0.25, 0.5, 8, 4, 2, False)
        )
    out.mkdir(parents=True)
    report.write_csv(out / "report.csv")
    (out / "traces").mkdir()
    for cell in cells:
        history = [gan.EpochStats(e, 0.1, float("nan"), 0.3) for e in range(epochs)]
        gan.write_trace_csv(out / "traces" / ("_".join(cell) + ".csv"), history)
    return cells


def test_check_report_accepts_a_consistent_report(tmp_path):
    cells = _write_report(tmp_path / "out")
    assert checks.check_report(tmp_path / "out", cells, epochs=2) == {}
    assert checks.report_eir_mean(tmp_path / "out") == 0.5


@pytest.mark.parametrize(
    "old, new, problem",
    [
        (",0.5,0.25,0.5,", ",0.5,0.375,0.5,", "adversarial_dr disagrees"),
        (",0.5,0.25,0.5,", ",0.5,0.25,0.25,", "eir != 1"),
        (",8,4,2,", ",8,5,2,", "original_dr disagrees"),
    ],
)
def test_check_report_flags_a_tampered_row(tmp_path, old, new, problem):
    cells = _write_report(tmp_path / "out")
    path = tmp_path / "out" / "report.csv"
    path.write_text(path.read_text().replace(old, new, 1))
    found = checks.check_report(tmp_path / "out", cells, epochs=2)
    assert list(found) == [cells[0]]
    assert any(problem in p for p in found[cells[0]])


def test_check_report_flags_missing_rows_and_bad_traces(tmp_path):
    cells = _write_report(tmp_path / "out")
    extra = ("knn", "dos", "ablation")
    trace = tmp_path / "out" / "traces" / "lr_u2r_r2l_functional_only.csv"
    trace.write_text(trace.read_text().replace("0.1,", "inf,", 1))
    found = checks.check_report(tmp_path / "out", cells + [extra], epochs=3)
    assert "0 report rows" in found[extra]
    assert any("non-finite" in p for p in found[cells[1]])
    assert any("expected 3" in p for p in found[cells[0]])


def test_check_report_flags_rows_outside_the_grid_and_garbage(tmp_path):
    cells = _write_report(tmp_path / "out")
    path = tmp_path / "out" / "report.csv"
    path.write_text(path.read_text().replace(",8,4,2,", ",8,four,2,", 1))
    found = checks.check_report(tmp_path / "out", cells[1:], epochs=2)
    assert found == {cells[0]: ["report row for a cell outside the grid", "unparsable report row"]}


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(measure.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.METRICS


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corpus_is_written_once_and_rewritten_when_it_changed(tmp_path):
    train, test, spent = corpus.ensure(tmp_path, 300, 100, seed=3)
    original = train.read_bytes()
    assert spent > 0
    assert corpus.ensure(tmp_path, 300, 100, seed=3)[2] == 0.0
    train.write_bytes(original[:-10])
    assert corpus.ensure(tmp_path, 300, 100, seed=3)[2] > 0
    assert train.read_bytes() == original
    assert corpus.ensure(tmp_path, 300, 100, seed=4)[0].parent != train.parent


def test_git_commit_reads_only_the_checkout_itself(tmp_path):
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(git + ["init", "-q", str(tmp_path)], check=True)
    subprocess.run(git + ["-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "x"], check=True)
    head = subprocess.run(
        ["git", "-C", str(tmp_path), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    assert run.git_commit(tmp_path) == head
    (tmp_path / "checkout").mkdir()
    assert run.git_commit(tmp_path / "checkout") is None
