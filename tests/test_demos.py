"""Smoke runs of the demos that read data files, on a tiny synthetic corpus."""

import runpy
import sys
from pathlib import Path

import pytest

from evadegan import gan, synthetic
from evadegan.evaluate import ExperimentConfig, run_experiment

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo_corpus")
    synthetic.write_corpus_pair(path / "train.txt", path / "test.txt", 600, 300, seed=3)
    return path


@pytest.mark.parametrize(
    "demo,args,expected",
    [
        ("01_dataset_encoding.py", ["--train", "{train}"], "all 41 values inside [0,1]: True"),
        (
            "03_detectors.py",
            ["--train", "{train}", "--test", "{test}"],
            "detection rate on test attacks",
        ),
        (
            "04_evasion_attack.py",
            ["--train", "{train}", "--test", "{test}", "--epochs", "1", "--out", "{out}"],
            "frozen features untouched across all records: True",
        ),
    ],
)
def test_demo_runs(demo, args, expected, tiny_corpus, tmp_path, monkeypatch, capsys):
    paths = {"train": tiny_corpus / "train.txt", "test": tiny_corpus / "test.txt", "out": tmp_path}
    monkeypatch.setattr(sys, "argv", [demo] + [a.format(**paths) for a in args])
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert expected in capsys.readouterr().out


def test_demo_04_reports_the_evaluate_cell(tiny_corpus, tmp_path, monkeypatch, capsys):
    """Demo 04 runs the grid's cell: its trace bytes and DRs are `run_experiment`'s."""
    train, test = str(tiny_corpus / "train.txt"), str(tiny_corpus / "test.txt")
    cell = ("nb", "dos", "ablation")
    args = ["--train", train, "--test", test, "--ids", "nb", "--setting", "ablation",
            "--epochs", "2", "--seed", "5", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", ["04_evasion_attack.py", *args])
    runpy.run_path(str(DEMOS / "04_evasion_attack.py"), run_name="__main__")
    out = capsys.readouterr().out

    config = ExperimentConfig(
        train_path=train,
        test_path=test,
        master_seed=5,
        algorithms=cell[:1],
        attacks=cell[1:2],
        settings=cell[2:],
        gan=gan.TrainConfig(epochs=2),
    )
    histories = {}
    result = run_experiment(config, on_cell=lambda key, c: histories.update({key: c.history}))
    gan.write_trace_csv(tmp_path / "evaluate.csv", histories[cell])
    demo_trace = tmp_path / "trace_nb_dos_ablation.csv"
    assert demo_trace.read_bytes() == (tmp_path / "evaluate.csv").read_bytes()
    (row,) = result.report.rows
    assert f"original detection rate on test attacks: {100 * row.original_dr:.2f}%" in out
    assert f"adversarial detection rate: {100 * row.adversarial_dr:.2f}% " in out


def test_demo_05_writes_the_evaluate_layout(tiny_corpus, tmp_path, monkeypatch, capsys):
    """Demo 05 is `evadegan evaluate`: it exits 0 and writes a trace per cell under traces/."""
    out = tmp_path / "grid"
    args = ["--train", str(tiny_corpus / "train.txt"), "--test", str(tiny_corpus / "test.txt"),
            "--out", str(out)]
    monkeypatch.setattr(sys, "argv", ["05_experiment_grid.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(DEMOS / "05_experiment_grid.py"), run_name="__main__")
    assert exc.value.code == 0
    assert f"report -> {out / 'report.csv'}" in capsys.readouterr().out
    assert sorted(p.name for p in (out / "traces").iterdir()) == sorted(
        f"{algorithm}_{attack}_{setting}.csv"
        for algorithm in ("lr", "dt", "nb")
        for attack in ("dos", "u2r_r2l")
        for setting in ("functional_only", "ablation")
    )


def test_demo_04_rejects_a_cell_without_a_mask(tmp_path, monkeypatch, capsys):
    """probe has no ablation mask: demo 04 exits 2, before it reads either (missing) file."""
    missing = str(tmp_path / "missing.txt")
    args = ["--train", missing, "--test", missing, "--attack", "probe", "--setting", "ablation"]
    monkeypatch.setattr(sys, "argv", ["04_evasion_attack.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(DEMOS / "04_evasion_attack.py"), run_name="__main__")
    assert exc.value.code == 2
    assert "probe/ablation" in capsys.readouterr().err
