"""Full-shape ingest, one k-NN DoS epoch and each detector's memory, base revision against the working tree.

    python3 scripts/full_shape.py --base HEAD --out full_shape.json

The benchmark runs at 10k/2.5k rows; this script measures what shows at
NSL-KDD's own shape: 125,973 train and 22,544 test rows of the seeded
synthetic corpus, seed 11, written once under ``.bench_work/full_shape``.

Timing rounds (``--rounds``; rounds alternate which side runs first):

- ``ingest_s``: ``evaluate.prepare_grid_inputs``, the median of three reps
  after one untimed warm-up rep;
- ``knn_dos_epoch_s``: ``gan.train`` for one ``functional_only`` epoch of the
  k-NN DoS cell, run through ``evaluate.run_cell``;
- ``knn_fit_s``: ``evaluate.fit_detector`` for k-NN, reported so that work
  moved out of the epoch and into the fit shows.

Per metric the output gives each round's values, each side's median and
quartiles and how many rounds the change won. Per side it records the
SHA-256 of the encoded inputs, of the detector's labels for the DoS test
records, of the epoch's trace CSV and of the trained generator and critic
parameters, and whether the two sides agree on each.

Memory and fit time, one run per algorithm and side (memory, unlike time,
barely varies between runs): ingest, then ``evaluate.fit_detector`` twice,
each call fitting the detector and labelling every attack group's test
records and the generator-half normals. It reports

- ``ingest_maxrss_mb``: the peak resident set size (``ru_maxrss``) after
  ingest;
- ``fit_s``: the wall time of the first call, which runs untraced;
- ``detector_mb``: the ``tracemalloc`` peak over the second call.
  numpy reports its arrays to ``tracemalloc``, which starts after ingest,
  so this counts only what the detector phase allocates and shows a
  detector that holds more memory even while it stays under ingest's peak;
- ``labels_sha256``: a SHA-256 of every label computed, and per algorithm
  whether the two sides' labels are equal.

Each measurement runs in a fresh interpreter with its own side's ``src`` on
PYTHONPATH; the base side is exported with ``git archive`` as in
``bench_pairs.py``, whose environment fields the output repeats.
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
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, environment, export_revision, git, quartiles  # noqa: E402

N_TRAIN, N_TEST = 125_973, 22_544
SEED = 11  # corpus and master seed
# Not read from evadegan here: each child must import the package of its own
# side, which PYTHONPATH selects.
ALGORITHMS = ("svm", "nb", "mlp", "lr", "dt", "rf", "knn")
EPOCH = "knn_dos_epoch"  # the child task of a timing round; the others are algorithms
INGEST_REPS = 3
# All lower-is-better.
METRICS = ("ingest_s", "knn_fit_s", "knn_dos_epoch_s")
DIGESTS = ("inputs", "labels", "history", "parameters")
# What each kind of child must print.
EPOCH_KEYS = (*METRICS, "digests")
MEMORY_KEYS = ("algorithm", "ingest_maxrss_mb", "fit_s", "detector_mb", "labels_sha256")


def maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_epoch(train: str, test: str) -> dict:
    """Ingest reps, then the k-NN fit and one DoS epoch, in this interpreter."""
    from evadegan import evaluate, gan

    config = evaluate.ExperimentConfig(
        train_path=train,
        test_path=test,
        master_seed=SEED,
        algorithms=("knn",),
        attacks=("dos",),
        settings=("functional_only",),
        gan=gan.TrainConfig(epochs=1),
    )
    inputs = evaluate.prepare_grid_inputs(config)
    ingest = []
    for _ in range(INGEST_REPS):
        inputs = None  # one set of inputs alive at a time, as in a run
        start = time.perf_counter()
        inputs = evaluate.prepare_grid_inputs(config)
        ingest.append(time.perf_counter() - start)

    start = time.perf_counter()
    fitted = evaluate.fit_detector(inputs, config, "knn")
    knn_fit_s = time.perf_counter() - start
    inputs.detectors["knn"] = fitted

    # The cell's history and networks are read off its `gan.train` call, not
    # off `run_cell`'s return value, which differs between revisions.
    trained = {}
    real_train = gan.train

    def timed_train(*args, **kwargs):
        start = time.perf_counter()
        history = real_train(*args, **kwargs)
        trained.update(epoch_s=time.perf_counter() - start, networks=args[:2], history=history)
        return history

    gan.train = timed_train
    try:
        evaluate.run_cell(inputs, config, "knn", "dos", "functional_only")
    finally:
        gan.train = real_train
    history = trained["history"]

    digest = hashlib.sha256(inputs.fingerprint.encode())
    for matrix in (inputs.ids_X, inputs.ids_y, inputs.gan_normals):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    for group in sorted(inputs.gan_attacks):
        digest.update(np.ascontiguousarray(inputs.gan_attacks[group]).tobytes())
        digest.update(np.ascontiguousarray(inputs.test_attacks[group]).tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        gan.write_trace_csv(trace, history)
        history_sha = hashlib.sha256(trace.read_bytes()).hexdigest()
    labels = fitted.original_predictions["dos"].astype("<i8").tobytes()
    return {
        "ingest_s": sorted(ingest)[len(ingest) // 2],
        "knn_fit_s": knn_fit_s,
        "knn_dos_epoch_s": trained["epoch_s"],
        "digests": {
            "inputs": digest.hexdigest(),
            "labels": hashlib.sha256(labels).hexdigest(),
            "history": history_sha,
            "parameters": hashlib.sha256(
                b"".join(net.params.tobytes() for net in trained["networks"])
            ).hexdigest(),
        },
    }


def measure_memory(algorithm: str, train: str, test: str) -> dict:
    """One detector's ingest, then its fit and labelling timed and traced, in this interpreter."""
    import tracemalloc

    from evadegan import evaluate

    config = evaluate.ExperimentConfig(
        train_path=train, test_path=test, master_seed=SEED, algorithms=(algorithm,)
    )
    inputs = evaluate.prepare_grid_inputs(config)
    ingest = maxrss_mb()
    start = time.perf_counter()
    evaluate.fit_detector(inputs, config, algorithm)  # freed before the traced call
    fit_s = time.perf_counter() - start
    tracemalloc.start()
    fitted = evaluate.fit_detector(inputs, config, algorithm)
    normals = fitted.normal_labels
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    digest = hashlib.sha256()
    for attack in config.attacks:
        digest.update(fitted.original_predictions[attack].astype("<i8").tobytes())
    digest.update(normals.astype("<i8").tobytes())
    return {
        "algorithm": algorithm,
        "ingest_maxrss_mb": ingest,
        "fit_s": fit_s,
        "detector_mb": peak / 2**20,
        "labels_sha256": digest.hexdigest(),
        "n_labels": sum(len(p) for p in fitted.original_predictions.values()) + len(normals),
    }


def parse_child_output(stdout: str, keys) -> dict:
    """The measurement a child printed as its last line, which must hold every one of `keys`."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the measurement printed nothing")
    record = json.loads(lines[-1])
    missing = set(keys) - set(record)
    if missing:
        raise ValueError(f"measurement lacks {sorted(missing)}")
    return record


def run_child(root: Path, task: str, train: Path, test: Path) -> dict:
    """Run `task` (`EPOCH` or an algorithm's memory run) against ``root/src``; failures become an error entry."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--measure", task,
        "--train", str(train), "--test", str(test),
    ]  # fmt: skip
    env = os.environ | {"PYTHONPATH": str(root / "src")}
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    try:
        return parse_child_output(done.stdout, EPOCH_KEYS if task == EPOCH else MEMORY_KEYS)
    except ValueError as exc:
        return {"error": str(exc)}


def summarize(rounds: list) -> dict:
    """Per metric both sides' quartiles and change wins; per digest whether the sides agree.

    Rounds where either side failed are left out.
    """
    done = [r for r in rounds if "error" not in r["base"] and "error" not in r["change"]]
    out = {"rounds": len(done)}
    if not done:
        return out
    for name in METRICS:
        base = [r["base"][name] for r in done]
        change = [r["change"][name] for r in done]
        out[name] = {
            "base": quartiles(base),
            "change": quartiles(change),
            "change_wins": sum(c < b for b, c in zip(base, change)),
        }
    out["digests"] = {}
    for kind in DIGESTS:
        base, change = ({r[side]["digests"][kind] for r in done} for side in ("base", "change"))
        out["digests"][kind] = {
            "base": sorted(base),
            "change": sorted(change),
            "equal": len(base) == 1 and base == change,
        }
    return out


def compare(base: dict, change: dict) -> dict:
    """Both sides of one algorithm's memory run, with the detector-phase ratio and label equality."""
    out = {"base": base, "change": change}
    if "error" not in base and "error" not in change:
        out["detector_ratio"] = change["detector_mb"] / base["detector_mb"]
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
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--measure", choices=(EPOCH, *ALGORITHMS), help=argparse.SUPPRESS)
    parser.add_argument("--train", help=argparse.SUPPRESS)
    parser.add_argument("--test", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure == EPOCH:
        print(json.dumps(measure_epoch(args.train, args.test)))
        return 0
    if args.measure:
        print(json.dumps(measure_memory(args.measure, args.train, args.test)))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")

    sys.path.insert(0, str(ROOT / "src"))
    train, test = ensure_corpus(ROOT / ".bench_work" / "full_shape" / f"seed{SEED}")
    record = {
        "change_commit": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "shape": [N_TRAIN, N_TEST],
        "seed": SEED,
        "env": environment(),
        "rounds": [],
        "memory": {},
    }
    with tempfile.TemporaryDirectory(prefix="full-shape-base-") as tmp:
        record["base_commit"] = export_revision(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        for i in range(args.rounds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            entry = {"first": order[0]}
            for side in order:
                entry[side] = run_child(sides[side], EPOCH, train, test)
            record["rounds"].append(entry)
            record["summary"] = summarize(record["rounds"])
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            epoch = {s: entry[s].get("knn_dos_epoch_s", entry[s].get("error")) for s in sides}
            print(f"round {i}: epoch base {epoch['base']} change {epoch['change']}", file=sys.stderr)
        for algorithm in ALGORITHMS:
            runs = {side: run_child(root, algorithm, train, test) for side, root in sides.items()}
            record["memory"][algorithm] = entry = compare(runs["base"], runs["change"])
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            print(
                f"{algorithm:4s} fit {runs['base'].get('fit_s', '-')} -> "
                f"{runs['change'].get('fit_s', '-')} s, "
                f"detector {runs['base'].get('detector_mb', '-')} -> "
                f"{runs['change'].get('detector_mb', '-')} MB, "
                f"labels equal: {entry.get('labels_equal')}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
