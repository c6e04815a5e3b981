"""evadegan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0

Run from the repository root. The corpus for (workload shape, seed) is
written once under ``.bench_work/corpus`` and its SHA-256 checked before
every run. The measurement itself runs in a fresh interpreter
(``measure.py``), so its peak memory counts only the program and the pool
workers it forks. Workloads, metrics and bounds are listed in
``BENCHMARK.json``.

Output: one line per metric with its unit, the output digests and the
environment, then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}`` as JSON. ``--trace 0`` reports the end-to-end metrics (no
wrapper is installed); ``--trace 1`` also makes a ``--jobs 2`` rep and a
traced rep, and reports the per-layer metrics. The full record is kept
under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# A run must end within 180 s; the measurement gets what the corpus left.
DEADLINE_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def git_commit(root: Path) -> str | None:
    """HEAD of the git checkout at `root`, or None if `root` is not one.

    Asked here, not in the measured process, whose peak memory counts its
    children.
    """
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            # Stop at `root`: a checkout nested in another repository is not that repository.
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _measure(args, train, test, out, budget: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--train", str(train),
        "--test", str(test),
        "--out", str(out),
    ]  # fmt: skip
    # A process group of its own, so a timeout also stops the pool workers it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"measurement did not finish within {budget:.0f} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"measurement exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    if not (ROOT / "src" / "evadegan").is_dir():
        print(f"error: no evadegan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import corpus
    import layers
    from measure import WORKLOADS

    parser = argparse.ArgumentParser(description="evadegan benchmark run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    train, test, corpus_s = corpus.ensure(WORK / "corpus", workload.n_train, workload.n_test, args.seed)
    out = WORK / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        record = _measure(args, train, test, out, DEADLINE_S - (time.monotonic() - start))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = dict(layers.METRICS)
        values = record["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = record["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, corpus_write_s=corpus_s)
    record["env"]["git_commit"] = git_commit(ROOT)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  outputs sha256: {record['output_sha256']}")
    print(f"  environment: {json.dumps(record['env'])}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps(result | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
