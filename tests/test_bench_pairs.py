"""scripts/bench_pairs.py: the pair summary (quartiles, wins, failed runs) and the environment."""

import importlib.util
import json
from pathlib import Path

import pytest

from evadegan import evaluate

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.24},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]


def run(wall, ok=1.0):
    return {"metrics": {"wall_s": wall, "ok_ratio": ok}}


def test_summary_counts_wins_by_direction():
    pairs = [
        {"base": run(5.0), "change": run(4.0)},
        {"base": run(6.0), "change": run(4.5, ok=0.5)},
        {"base": run(4.0), "change": run(4.2)},
        {"base": run(5.5), "change": run(5.5)},
        {"base": run(7.0), "change": {"error": "exit 1"}},
    ]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    wall = summary["wall_s"]
    assert wall["pairs"] == 4  # the failed run's pair is left out
    assert wall["change_wins"] == 2  # a tie counts for neither side
    assert wall["base"]["median"] == 5.25
    assert wall["base"]["q1"] == pytest.approx(4.75)
    assert wall["base"]["q3"] == pytest.approx(5.625)
    assert wall["change"]["median"] == pytest.approx(4.35)
    assert wall["median_change"] == pytest.approx(4.35 / 5.25 - 1)
    assert wall["median_gap_exceeds_base_iqr"] is True
    # higher is better: the 0.5 run loses, the others tie
    assert summary["ok_ratio"]["change_wins"] == 0


def test_summary_without_results():
    pairs = [{"base": {"error": "x"}, "change": run(1.0)}]
    assert bench_pairs.summarize(pairs, END_TO_END)["wall_s"] == {"pairs": 0}


def test_environment_names_the_blas_kernel_and_its_threads():
    set_threads = evaluate._openblas_threads("set")
    if set_threads is None:
        pytest.skip("numpy's BLAS has no scipy-openblas thread control")
    env = bench_pairs.environment()
    golden = json.loads((Path(__file__).parent / "golden" / "small_grid_traces.json").read_text())
    assert set(golden["environment"]) <= set(env)  # the fields the golden traces record
    assert isinstance(env["blas_core"], str) and env["blas_core"]
    before = env["blas_threads"]
    assert isinstance(before, int) and before >= 1
    set_threads(1)
    try:
        assert bench_pairs.environment()["blas_threads"] == 1  # the live setting, not nproc
    finally:
        set_threads(before)
