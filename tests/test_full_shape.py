"""The round summary of scripts/full_shape.py: quartiles, wins and digest agreement."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "full_shape.py"
_spec = importlib.util.spec_from_file_location("full_shape", _PATH)
full_shape = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(full_shape)


def side(epoch, history="h1"):
    return {
        "ingest_s": 0.7,
        "knn_fit_s": 9.0,
        "knn_dos_epoch_s": epoch,
        "ingest_maxrss_mb": 200.0,
        "end_maxrss_mb": 250.0,
        "digests": {"inputs": "i", "labels": "l", "history": history, "parameters": "p"},
    }


def test_wins_quartiles_and_equal_digests():
    rounds = [{"base": side(10.0), "change": side(e)} for e in (5.0, 6.0, 11.0)]
    summary = full_shape.summarize(rounds)
    assert summary["rounds"] == 3
    assert summary["knn_dos_epoch_s"]["change_wins"] == 2
    assert summary["knn_dos_epoch_s"]["change"]["median"] == 6.0
    assert summary["ingest_s"]["change_wins"] == 0  # ties count for neither side
    assert all(d["equal"] for d in summary["digests"].values())


def test_digest_mismatch_and_failed_rounds():
    rounds = [
        {"base": side(10.0), "change": side(5.0, history="h2")},
        {"base": {"error": "exit 1"}, "change": side(5.0)},
    ]
    summary = full_shape.summarize(rounds)
    assert summary["rounds"] == 1
    assert summary["digests"]["history"]["equal"] is False
    assert summary["digests"]["inputs"]["equal"] is True
    assert full_shape.summarize(rounds[1:]) == {"rounds": 0}
