"""Smoke runs of the demos that read data files, on a tiny synthetic corpus."""

import runpy
import sys
from pathlib import Path

import pytest

from evadegan import synthetic

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
