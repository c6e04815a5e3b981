"""scripts/full_shape.py's output handling: a child's last line, the round summary and the memory comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "full_shape.py"
_spec = importlib.util.spec_from_file_location("full_shape", _PATH)
full_shape = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(full_shape)


def side(epoch, history="h1"):
    return {
        "ingest_s": 0.7,
        "knn_fit_s": 9.0,
        "knn_dos_epoch_s": epoch,
        "digests": {"inputs": "i", "labels": "l", "history": history, "parameters": "p"},
    }


def memory(detector_mb, digest="ab"):
    return {
        "algorithm": "knn",
        "ingest_maxrss_mb": 250.0,
        "fit_s": 4.0,
        "detector_mb": detector_mb,
        "labels_sha256": digest,
        "n_labels": 10,
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


def test_last_line_is_the_measurement():
    for record, keys in ((memory(12.5), full_shape.MEMORY_KEYS), (side(3.0), full_shape.EPOCH_KEYS)):
        stdout = "a warning\n" + json.dumps(record) + "\n"
        assert full_shape.parse_child_output(stdout, keys) == record


@pytest.mark.parametrize("stdout", ["", "\n", json.dumps({"algorithm": "knn"}), "not json"])
def test_empty_or_partial_output_rejected(stdout):
    with pytest.raises(ValueError):
        full_shape.parse_child_output(stdout, full_shape.MEMORY_KEYS)


def test_compare_ratio_and_label_equality():
    entry = full_shape.compare(memory(50.0), memory(25.0))
    assert entry["detector_ratio"] == 0.5
    assert entry["labels_equal"] is True
    assert full_shape.compare(memory(50.0), memory(25.0, digest="cd"))["labels_equal"] is False


def test_compare_with_failed_side():
    entry = full_shape.compare({"error": "exit 1"}, memory(25.0))
    assert "detector_ratio" not in entry and "labels_equal" not in entry


def test_measurements_run_against_this_package(corpus_dir):
    """The children's measurements call `evaluate` as it is, on the small corpus."""
    from evadegan import gan

    real_train = gan.train
    train, test = str(corpus_dir / "train.txt"), str(corpus_dir / "test.txt")
    epoch = full_shape.measure_epoch(train, test)
    assert gan.train is real_train
    assert set(full_shape.EPOCH_KEYS) <= set(epoch)
    assert all(epoch[name] > 0 for name in full_shape.METRICS)
    assert set(epoch["digests"]) == set(full_shape.DIGESTS)
    record = full_shape.measure_memory("knn", train, test)
    assert set(full_shape.MEMORY_KEYS) <= set(record)
    assert record["fit_s"] > 0 and record["detector_mb"] > 0 and record["n_labels"] > 0
