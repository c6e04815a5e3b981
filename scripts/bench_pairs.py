"""Alternating base/change pairs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py --base HEAD --workload attack_lr \
        --first-seed 601 --out BENCH_5.json

The change side is the working tree this script sits in; the base side is
``--base`` (any git revision), exported with ``git archive`` into a
temporary directory, so the repository itself is never touched. Each
workload gets ten pairs, the number a claimed gain is judged on; pair i runs
both sides on seed ``first_seed + i``: the base first on even pairs, the
change first on odd ones, so a drift in the host's speed falls on both
sides alike. Each run is ``python3 perfbench/run.py --trace 0`` from that
side's root, for ``BENCHMARK.json``'s ``run_seconds``; its last output line
carries the end-to-end metrics named there.

For every end-to-end metric the output gives each pair's two values, each
side's median and quartiles, how many pairs the change won (by the metric's
``better`` direction) and the relative change of the medians, with the
machine's core count, Python, numpy, BLAS, the OpenBLAS kernel and thread
count, and the BLAS thread variables.
``change_commit`` is the working tree's HEAD and ``change_dirty`` says
whether tracked files differ from it.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# perfbench/run.py stops itself within 180 s; this only catches a hung run.
RUN_TIMEOUT_S = 600
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def export_revision(rev: str, dest: Path) -> str:
    """Unpack `rev`'s tree into `dest` with ``git archive``; returns its commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # numpy's linear-algebra extension links its BLAS, so OpenBLAS's own
    # queries resolve through it; each field is None where they are missing.
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": _call_first(lib, "get_corename", ctypes.c_char_p),
        "blas_threads": _call_first(lib, "get_num_threads", ctypes.c_int),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _call_first(lib, query: str, restype):
    """The first of OpenBLAS's spellings of ``query`` that `lib` exports, called."""
    for name in (f"scipy_openblas_{query}64_", f"openblas_{query}64_", f"openblas_{query}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            value = fn()
            return value.decode() if isinstance(value, bytes) else value
    return None


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run from `root`: its outcome and end-to-end metrics."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    last = json.loads(lines[-1])
    return {
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: both sides' quartiles, change wins and the relative median change.

    Pairs where either side failed to produce a result are left out.
    """
    done = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]]
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        if not done:
            out[name] = {"pairs": 0}
            continue
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        out[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "pairs": len(done),
            "change_wins": int(wins),
            "base": b,
            "change": c,
            "median_change": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
            "median_gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > b["iqr"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    known = {w["name"] for w in spec["workloads"]}
    if unknown := set(args.workload) - known:
        parser.error(f"unknown workload(s): {sorted(unknown)}")

    record = {"workloads": {}}
    change_commit = git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_root = Path(tmp)
        base_commit = export_revision(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
        for workload in args.workload:
            env = environment() | {"loadavg_before": os.getloadavg()}
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    started = time.monotonic()
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                    pair[side]["elapsed_s"] = round(time.monotonic() - started, 1)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} {pair[side].get('metrics', {}).get('wall_s', pair[side].get('error'))}"
                    for side in ("base", "change")
                ), file=sys.stderr)
            env["loadavg_after"] = os.getloadavg()
            record["workloads"][workload] = {
                "base_commit": base_commit,
                "change_commit": change_commit,
                "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                "seconds": seconds,
                "env": env,
                "pairs": pairs,
                "summary": summarize(pairs, spec["end_to_end"]),
            }
            args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            if s.get("pairs"):
                print(
                    f"{workload:10s} {name:12s} {s['base']['median']:10.4g} -> "
                    f"{s['change']['median']:10.4g}  wins {s['change_wins']}/{s['pairs']}  "
                    f"base IQR {s['base']['iqr']:.4g}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
