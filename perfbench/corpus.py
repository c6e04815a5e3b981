"""Seeded synthetic corpora, written once per (shape, seed) and verified on reuse.

`evadegan.synthetic.write_corpus_pair` writes each pair (about 5.5k rows/s
on one core, so it stays outside every timed rep). A manifest holds each
file's SHA-256; every use re-hashes the files and rewrites the pair if they
differ.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from evadegan import synthetic

from checks import sha256_file

FILES = ("train.txt", "test.txt")


def _verified(directory: Path) -> bool:
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError):
        return False
    return all(
        (directory / name).is_file() and sha256_file(directory / name) == manifest["sha256"].get(name)
        for name in FILES
    )


def ensure(cache: Path, n_train: int, n_test: int, seed: int) -> tuple[Path, Path, float]:
    """Paths of the verified (train, test) pair and the seconds spent writing it."""
    directory = cache / f"{n_train}x{n_test}-seed{seed}"
    spent = 0.0
    if not _verified(directory):
        start = time.perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        train, test = (directory / name for name in FILES)
        synthetic.write_corpus_pair(train, test, n_train, n_test, seed)
        manifest = {
            "n_train": n_train,
            "n_test": n_test,
            "seed": seed,
            "sha256": {name: sha256_file(directory / name) for name in FILES},
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        spent = time.perf_counter() - start
    return directory / FILES[0], directory / FILES[1], spent
