"""Full-shape ingest and one k-NN DoS epoch, base revision against the working tree.

    python3 scripts/full_shape.py --base HEAD --out full_shape.json

The benchmark runs at 10k/2.5k rows; this script measures the two steps whose
cost shows at NSL-KDD's own shape (125,973 train and 22,544 test rows, the
seeded synthetic corpus, seed 11, written once under
``.bench_work/peak_memory`` as ``peak_memory.py`` writes it):

- ``ingest_s``: ``evaluate.prepare_grid_inputs``, the median of three reps
  after one untimed warm-up rep;
- ``knn_dos_epoch_s``: ``gan.train`` for one ``functional_only`` epoch of the
  k-NN DoS cell, run through ``evaluate.run_cell``;
- ``knn_fit_s``: ``evaluate.fit_detector`` for k-NN, reported so that work
  moved out of the epoch and into the fit shows;
- ``ingest_maxrss_mb`` and ``end_maxrss_mb``: the peak resident set size
  (``ru_maxrss``) after the first ingest and at the end.

Each side runs in a fresh interpreter with its own ``src`` on PYTHONPATH;
the base side is exported with ``git archive`` as in ``bench_pairs.py``,
whose environment fields the output repeats. Rounds alternate which side
runs first. Per metric the output gives each round's values, each side's
median and quartiles and how many rounds the change won. Per side it
records the SHA-256 of the encoded inputs, of the detector's labels for the
DoS test records, of the epoch's trace CSV and of the trained generator and
critic parameters, and whether the two sides agree on each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, environment, export_revision, git, quartiles  # noqa: E402
from peak_memory import N_TEST, N_TRAIN, SEED, ensure_corpus, maxrss_mb  # noqa: E402

INGEST_REPS = 3
# All lower-is-better.
METRICS = ("ingest_s", "knn_fit_s", "knn_dos_epoch_s", "ingest_maxrss_mb", "end_maxrss_mb")
DIGESTS = ("inputs", "labels", "history", "parameters")


def measure(train: str, test: str) -> dict:
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
    ingest_maxrss_mb = maxrss_mb()
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

    trained = {}
    real_train = gan.train

    def timed_train(*args, **kwargs):
        start = time.perf_counter()
        history = real_train(*args, **kwargs)
        trained.update(epoch_s=time.perf_counter() - start, networks=args[:2])
        return history

    gan.train = timed_train
    _, history = evaluate.run_cell(inputs, config, "knn", "dos", "functional_only")

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
        "ingest_maxrss_mb": ingest_maxrss_mb,
        "end_maxrss_mb": maxrss_mb(),
        "digests": {
            "inputs": digest.hexdigest(),
            "labels": hashlib.sha256(labels).hexdigest(),
            "history": history_sha,
            "parameters": hashlib.sha256(
                b"".join(net.params.tobytes() for net in trained["networks"])
            ).hexdigest(),
        },
    }


def run_child(root: Path, train: Path, test: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--measure",
        "--train", str(train), "--test", str(test),
    ]  # fmt: skip
    env = os.environ | {"PYTHONPATH": str(root / "src")}
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--train", help=argparse.SUPPRESS)
    parser.add_argument("--test", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.train, args.test)))
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
        "rounds": [],
    }
    with tempfile.TemporaryDirectory(prefix="full-shape-base-") as tmp:
        record["base_commit"] = export_revision(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        for i in range(args.rounds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            entry = {"first": order[0]}
            for side in order:
                entry[side] = run_child(sides[side], train, test)
            record["rounds"].append(entry)
            record["summary"] = summarize(record["rounds"])
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            epoch = {s: entry[s].get("knn_dos_epoch_s", entry[s].get("error")) for s in sides}
            print(f"round {i}: epoch base {epoch['base']} change {epoch['change']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
