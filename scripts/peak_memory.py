"""Peak memory of each detector at full shape, base revision against the working tree.

    python3 scripts/peak_memory.py --base HEAD --out peak_memory.json

For each algorithm and side, a fresh interpreter runs what one detector
costs in a grid run: ``evaluate.prepare_grid_inputs`` (ingest), then
``evaluate.fit_detector`` (fit and the original predictions on every attack
group's test records), then the fitted model's own ``predict``, which
both sides have, over all generator-half normals. It reports its peak
resident set size (``ru_maxrss``) after ingest and at the end, and a
SHA-256 of every label it computed, so the two sides' labels can be
compared. The corpus is the seeded synthetic one at NSL-KDD
shape (125,973 train and 22,544 test rows), written once under
``.bench_work/peak_memory``. The base side is exported with ``git archive``
as in ``bench_pairs.py``, whose environment fields the output repeats.
These are single runs: memory, unlike time, barely varies between them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, environment, export_revision, git  # noqa: E402

N_TRAIN, N_TEST = 125_973, 22_544
SEED = 11  # corpus and master seed
# Not read from evadegan here: each child must import the package of its own
# side, which PYTHONPATH selects.
ALGORITHMS = ("svm", "nb", "mlp", "lr", "dt", "rf", "knn")


def maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(algorithm: str, train: str, test: str) -> dict:
    """One detector's ingest, fit and labelling in this interpreter."""
    from evadegan import evaluate

    config = evaluate.ExperimentConfig(
        train_path=train, test_path=test, master_seed=SEED, algorithms=(algorithm,)
    )
    inputs = evaluate.prepare_grid_inputs(config)
    ingest = maxrss_mb()
    fitted = evaluate.fit_detector(inputs, config, algorithm)
    normals = fitted.model.predict(inputs.gan_normals)
    end = maxrss_mb()
    digest = hashlib.sha256()
    for attack in config.attacks:
        digest.update(fitted.original_predictions[attack].astype("<i8").tobytes())
    digest.update(normals.astype("<i8").tobytes())
    return {
        "algorithm": algorithm,
        "ingest_maxrss_mb": ingest,
        "end_maxrss_mb": end,
        "labels_sha256": digest.hexdigest(),
        "n_labels": sum(len(p) for p in fitted.original_predictions.values()) + len(normals),
    }


def parse_child_output(stdout: str) -> dict:
    """The measurement a child printed as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the measurement printed nothing")
    record = json.loads(lines[-1])
    missing = {"algorithm", "ingest_maxrss_mb", "end_maxrss_mb", "labels_sha256"} - set(record)
    if missing:
        raise ValueError(f"measurement lacks {sorted(missing)}")
    return record


def run_child(root: Path, algorithm: str, train: Path, test: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--measure", algorithm,
        "--train", str(train), "--test", str(test),
    ]  # fmt: skip
    env = os.environ | {"PYTHONPATH": str(root / "src")}
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    return parse_child_output(done.stdout)


def compare(base: dict, change: dict) -> dict:
    """Both sides of one algorithm, with the end-peak ratio and label equality."""
    out = {"base": base, "change": change}
    if "error" not in base and "error" not in change:
        out["end_ratio"] = change["end_maxrss_mb"] / base["end_maxrss_mb"]
        out["labels_equal"] = change["labels_sha256"] == base["labels_sha256"]
    return out


def ensure_corpus(directory: Path) -> tuple[Path, Path]:
    train, test = directory / "train.txt", directory / "test.txt"
    if not (train.is_file() and test.is_file()):
        from evadegan import synthetic

        directory.mkdir(parents=True, exist_ok=True)
        synthetic.write_corpus_pair(train, test, N_TRAIN, N_TEST, SEED)
    return train, test


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", choices=ALGORITHMS, help=argparse.SUPPRESS)
    parser.add_argument("--train", help=argparse.SUPPRESS)
    parser.add_argument("--test", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.train, args.test)))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")

    sys.path.insert(0, str(ROOT / "src"))
    train, test = ensure_corpus(ROOT / ".bench_work" / "peak_memory" / f"seed{SEED}")
    record = {
        "change_commit": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "shape": [N_TRAIN, N_TEST],
        "seed": SEED,
        "env": environment(),
        "algorithms": {},
    }
    with tempfile.TemporaryDirectory(prefix="peak-memory-base-") as tmp:
        record["base_commit"] = export_revision(args.base, Path(tmp))
        for algorithm in ALGORITHMS:
            sides = {side: run_child(root, algorithm, train, test)
                     for side, root in (("base", Path(tmp)), ("change", ROOT))}  # fmt: skip
            record["algorithms"][algorithm] = entry = compare(sides["base"], sides["change"])
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            print(
                f"{algorithm:4s} end peak {sides['base'].get('end_maxrss_mb', '-')} -> "
                f"{sides['change'].get('end_maxrss_mb', '-')} MB, "
                f"labels equal: {entry.get('labels_equal')}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
