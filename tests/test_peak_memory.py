"""The output handling of scripts/peak_memory.py: a child's last line and the side comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "peak_memory.py"
_spec = importlib.util.spec_from_file_location("peak_memory", _PATH)
peak_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_memory)


def child(end, digest="ab", **extra):
    return {
        "algorithm": "knn",
        "ingest_maxrss_mb": 250.0,
        "end_maxrss_mb": end,
        "labels_sha256": digest,
        "n_labels": 10,
    } | extra


def test_last_line_is_the_measurement():
    stdout = "a warning\n" + json.dumps(child(249.5)) + "\n"
    assert peak_memory.parse_child_output(stdout) == child(249.5)


@pytest.mark.parametrize("stdout", ["", "\n", json.dumps({"algorithm": "knn"})])
def test_empty_or_partial_output_rejected(stdout):
    with pytest.raises(ValueError):
        peak_memory.parse_child_output(stdout)


def test_compare_ratio_and_label_equality():
    entry = peak_memory.compare(child(500.0), child(250.0))
    assert entry["end_ratio"] == 0.5
    assert entry["labels_equal"] is True
    assert peak_memory.compare(child(500.0), child(250.0, digest="cd"))["labels_equal"] is False


def test_compare_with_failed_side():
    entry = peak_memory.compare({"error": "exit 1"}, child(250.0))
    assert "end_ratio" not in entry and "labels_equal" not in entry
