"""Shared fixtures: a small synthetic corpus in NSL-KDD format.

The real benchmark files are not shipped with the repository; tests that
require them read the directory named by the NSLKDD_DIR environment
variable and skip when it is unset. Everything else runs on the seeded
synthetic corpus below.
"""

import os
from pathlib import Path

import pytest

from evadegan import evaluate, nslkdd, synthetic

CORPUS_SEED = 20240917
N_TRAIN = 2600
N_TEST = 1000


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    synthetic.write_corpus_pair(
        path / "train.txt", path / "test.txt", N_TRAIN, N_TEST, seed=CORPUS_SEED
    )
    return path


@pytest.fixture(scope="session")
def train_records(corpus_dir):
    return nslkdd.load_file(corpus_dir / "train.txt")


@pytest.fixture(scope="session")
def test_records(corpus_dir):
    return nslkdd.load_file(corpus_dir / "test.txt")


@pytest.fixture(scope="session")
def halves(train_records):
    return nslkdd.split_train(train_records, seed=42)


@pytest.fixture(scope="session")
def schema(halves):
    return nslkdd.build_schema(halves[0])


@pytest.fixture(scope="session")
def encoded(halves, schema):
    """(ids_X, ids_y, gan_X, generator-half records) from the synthetic corpus."""
    ids_half, gan_half = halves
    return (
        nslkdd.encode_batch(ids_half, schema),
        evaluate.detector_labels(ids_half),
        nslkdd.encode_batch(gan_half, schema),
        gan_half,
    )


def real_dataset_dir():
    """Directory holding KDDTrain+.txt / KDDTest+.txt, or None."""
    path = os.environ.get("NSLKDD_DIR")
    if not path:
        return None
    path = Path(path)
    if (path / "KDDTrain+.txt").exists() and (path / "KDDTest+.txt").exists():
        return path
    return None


requires_real_dataset = pytest.mark.skipif(
    real_dataset_dir() is None,
    reason="real NSL-KDD files not found; set NSLKDD_DIR to a directory "
    "containing KDDTrain+.txt and KDDTest+.txt",
)
