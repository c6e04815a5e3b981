"""One benchmark run in a fresh interpreter: timed reps, then a traced rep.

Usage (``run.py`` starts it after the corpus is ready)::

    python3 perfbench/measure.py --workload grid --seed 1 --seconds 50 \\
        --trace 0 --train T --test T --out DIR

It prints one JSON record as its last line of output. Reps run one after
another from this single process (a closed loop with one client). The timed
reps carry no wrapper; with ``--trace 1`` a ``--jobs 2`` rep and a rep under
`layers.LayerTrace` follow them, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from evadegan import cli, detectors, evaluate  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import find_wrapped  # noqa: E402

ATTACKS = ("dos", "u2r_r2l")
MIN_CYCLES = 3
# Workers of the one pooled rep in a traced run; nproc on the 2-core
# machine the benchmark was tuned on.
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """A corpus shape and the `evaluate` grid run on it."""

    name: str
    n_train: int
    n_test: int
    algorithms: tuple
    settings: tuple = ("functional_only", "ablation")
    epochs: int = 1

    @property
    def cells(self) -> list[tuple]:
        return [(a, k, s) for a in self.algorithms for k in ATTACKS for s in self.settings]

    def cli_args(self, train, test, out, seed: int, jobs: int) -> list[str]:
        return [
            "evaluate",
            "--train", str(train),
            "--test", str(test),
            "--out", str(out),
            "--seed", str(seed),
            "--ids", ",".join(self.algorithms),
            "--attack", ",".join(ATTACKS),
            "--setting", ",".join(self.settings),
            "--jobs", str(jobs),
            "--set", f"gan.epochs={self.epochs}",
        ]  # fmt: skip


# Why each workload exists is in BENCHMARK.json. The grid corpus is far
# smaller than the ~42k x 10k one the grid was first profiled on, so that
# five or more grid cycles fit one run and the whole benchmark fits its
# fixed time. Its k-NN reference (the ~5k-row detector half) thus stays
# below the 20k-row cap; no workload reaches that cap.
GRID_ROWS = (10_000, 2_500)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", *GRID_ROWS, algorithms=detectors.ALGORITHMS),
        Workload(
            "attack_lr", *GRID_ROWS,
            algorithms=("lr",), settings=("functional_only",), epochs=100,
        ),
    )
}  # fmt: skip


class Run:
    """One workload on one corpus: its reps, their checks and output digests.

    Checked operations are ingest passes, grid cells, and one check that
    every rep of the seed wrote the same outputs.
    """

    def __init__(self, workload: Workload, train, test, seed: int, out):
        self.workload = workload
        self.train, self.test, self.seed, self.out = train, test, seed, out
        self.config = evaluate.ExperimentConfig(
            train_path=str(train), test_path=str(test), master_seed=seed
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = {"inputs": set(), "report.csv": set()}

    def tally(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def ingest_rep(self) -> float:
        """One `evaluate.prepare_grid_inputs`; returns its wall time."""
        w = self.workload
        start = time.perf_counter()
        inputs = evaluate.prepare_grid_inputs(self.config)
        wall = time.perf_counter() - start
        self.tally("ingest", checks.check_inputs(inputs, w.n_train, w.n_test))
        self.digests["inputs"].add(checks.inputs_digest(inputs))
        return wall

    def evaluate_rep(self, jobs: int, traced=None) -> float:
        """One in-process `evadegan evaluate`; returns its wall time.

        With a `layers.LayerTrace`, cells whose ``gan.generate`` outputs
        broke a constraint fail too.
        """
        w = self.workload
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(w.cli_args(self.train, self.test, self.out, self.seed, jobs))
        except Exception:  # a crashing rep fails its cells; the run goes on
            traceback.print_exc()
            code = "an exception"
        wall = time.perf_counter() - start
        if code != cli.EXIT_OK:
            found = {cell: [f"evaluate exited with {code}"] for cell in w.cells}
        else:
            found = checks.check_report(self.out, w.cells, w.epochs)
            self.digests["report.csv"].add(checks.sha256_file(Path(self.out) / "report.csv"))
        for cell in w.cells + [c for c in found if c not in w.cells]:
            problems = found.get(cell, [])
            if traced is not None and "/".join(cell) in traced.violating_cells:
                problems = problems + ["gan.generate output breaks a constraint"]
            self.tally("/".join(cell), problems)
        return wall

    def check_digests(self) -> None:
        self.tally(
            "determinism",
            [f"{kind} differs between reps" for kind, seen in self.digests.items() if len(seen) > 1],
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg": os.getloadavg(),
    }


def measure(workload: Workload, train, test, seed: int, seconds: float, trace: bool, out) -> dict:
    """Run `workload` for about `seconds` and return its record.

    One untimed set-up rep warms the process first. Then the run is a
    series of cycles, each two set-up reps (``prepare_grid_inputs``) and
    one serial ``evadegan evaluate`` rep. Set-up samples are thus spread
    over the run like the others, so the host's speed swings hit both
    alike. At least `MIN_CYCLES` run; more run while the median cycle still
    fits in `seconds`. Peak memory is read after the first cycle: later
    reps in the same process only add heap fragmentation.
    """
    start = time.perf_counter()
    run = Run(workload, train, test, seed, out)
    run.ingest_rep()
    setup, wall, cycles = [], [], []
    peak_mb = None
    while len(cycles) < MIN_CYCLES or (
        time.perf_counter() - start + statistics.median(cycles) <= seconds
    ):
        began = time.perf_counter()
        setup += [run.ingest_rep(), run.ingest_rep()]
        wall.append(run.evaluate_rep(jobs=1))
        cycles.append(time.perf_counter() - began)
        peak_mb = peak_mb or peak_rss_mb()
    metrics = {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    record = {"samples": {"setup_s": setup, "wall_s": wall}}
    if trace:
        record["per_layer"] = traced_rep(run, metrics)
    run.check_digests()
    metrics["ok_ratio"] = 1.0 - run.failed / run.attempted
    record.update(
        correct=run.failed == 0,
        attempted=run.attempted,
        failed=run.failed,
        metrics=metrics,
        output_sha256={kind: sorted(seen) for kind, seen in run.digests.items()},
        problems=run.problems[:20],
    )
    return record


def traced_rep(run: Run, metrics: dict) -> dict:
    """The per-layer metrics from one rep under `LayerTrace`.

    One untraced ``--jobs 2`` rep comes first, the only path
    through evaluate's process pool: its report must match the serial ones,
    and its run time is what the pool efficiency is measured against. The
    trace overhead is the traced wall time minus the untraced median.
    """
    pool_run_s = run.evaluate_rep(jobs=POOL_JOBS) - metrics["setup_s"]
    with layers.LayerTrace() as lt:
        traced = run.evaluate_rep(jobs=1, traced=lt)
    leftover = find_wrapped("evadegan")
    if leftover:
        raise RuntimeError(f"tracing wrappers left behind: {leftover}")
    return lt.metrics(
        run_s=metrics["wall_s"] - metrics["setup_s"],
        pool_run_s=pool_run_s,
        traced_s=traced,
        untraced_s=metrics["wall_s"],
        eir_mean=checks.report_eir_mean(run.out),
        jobs=POOL_JOBS,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--train", required=True)
    parser.add_argument("--test", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env_before = environment()
    record = measure(
        WORKLOADS[args.workload], args.train, args.test, args.seed, args.seconds, bool(args.trace), args.out
    )
    record["env"] = env_before
    record["env"]["loadavg_after"] = os.getloadavg()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
