"""Output checks made on every benchmark rep.

Each check returns the problems it found as strings, so one broken cell
does not hide the next; the caller counts them as failed operations.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from evadegan import detectors

# DR and EIR are written with repr(), so they round-trip; the slack only
# absorbs a future change in how the library sums its counts.
_TOL = 1e-12


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def inputs_digest(inputs) -> str:
    """SHA-256 over every encoded matrix that `prepare_grid_inputs` returns."""
    digest = hashlib.sha256(inputs.fingerprint.encode())
    for matrix in (inputs.ids_X, inputs.ids_y, inputs.gan_normals):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    for group in sorted(inputs.gan_attacks):
        digest.update(np.ascontiguousarray(inputs.gan_attacks[group]).tobytes())
        digest.update(np.ascontiguousarray(inputs.test_attacks[group]).tobytes())
    return digest.hexdigest()


def check_inputs(inputs, n_train: int, n_test: int) -> list[str]:
    """Every train row lands in exactly one encoded matrix, all in [0,1]."""
    problems = []
    gan_rows = len(inputs.gan_normals) + sum(len(m) for m in inputs.gan_attacks.values())
    if len(inputs.ids_X) + gan_rows != n_train:
        problems.append(f"ingest: {len(inputs.ids_X)} + {gan_rows} encoded rows != {n_train}")
    if len(inputs.ids_y) != len(inputs.ids_X):
        problems.append("ingest: label count differs from detector-half rows")
    if not np.isin(inputs.ids_y, (detectors.LABEL_NORMAL, detectors.LABEL_ATTACK)).all():
        problems.append("ingest: detector labels outside {0,1}")
    if sum(len(m) for m in inputs.test_attacks.values()) > n_test:
        problems.append("ingest: more test attack rows than test rows")
    matrices = [inputs.ids_X, inputs.gan_normals]
    matrices += list(inputs.gan_attacks.values()) + list(inputs.test_attacks.values())
    for matrix in matrices:
        if not (np.isfinite(matrix).all() and (matrix >= 0.0).all() and (matrix <= 1.0).all()):
            problems.append("ingest: encoded value outside [0,1]")
            break
    return problems


def check_report(out_dir, cells, epochs: int) -> dict[tuple, list[str]]:
    """Problems per cell in ``report.csv`` and ``traces/`` under `out_dir`.

    A row for a cell outside `cells` is reported under its own key.

    Checks: one report row per cell; DR equals the ``n_detected_*`` counts;
    EIR = 1 - adversarial/original DR (empty when original DR is 0); one
    trace row per epoch with finite values. ``loss_d`` may be NaN, which
    the library writes for an epoch whose critic updates were all skipped.
    """
    out_dir = Path(out_dir)
    problems = {cell: [] for cell in cells}
    try:
        with open(out_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        return {cell: ["report.csv missing"] for cell in cells}
    seen = {}
    for row in rows:
        cell = (row["algorithm"], row["attack"], row["setting"])
        if cell not in problems:
            problems[cell] = ["report row for a cell outside the grid"]
        seen[cell] = seen.get(cell, 0) + 1
        problems[cell] += _row_problems(row)
    for cell in cells:
        if seen.get(cell) != 1:
            problems[cell].append(f"{seen.get(cell, 0)} report rows")
        problems[cell] += _trace_problems(out_dir / "traces" / ("_".join(cell) + ".csv"), epochs)
    return {cell: found for cell, found in problems.items() if found}


def _row_problems(row) -> list[str]:
    try:
        n = int(row["n_attack_records"])
        original = float(row["original_dr"])
        adversarial = float(row["adversarial_dr"])
        detected = int(row["n_detected_original"]), int(row["n_detected_adversarial"])
        eir = float(row["eir"]) if row["eir"] else None
    except (TypeError, ValueError):
        return ["unparsable report row"]
    problems = []
    if n <= 0:
        return ["no attack records"]
    if abs(original - detected[0] / n) > _TOL:
        problems.append("original_dr disagrees with n_detected_original")
    if abs(adversarial - detected[1] / n) > _TOL:
        problems.append("adversarial_dr disagrees with n_detected_adversarial")
    if original > 0.0:
        if eir is None or abs(eir - (1.0 - adversarial / original)) > _TOL:
            problems.append("eir != 1 - adversarial_dr / original_dr")
    elif eir is not None:
        problems.append("eir given although original_dr is 0")
    return problems


def _trace_problems(path: Path, epochs: int) -> list[str]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        return [f"trace {path.name} missing"]
    problems = []
    if len(rows) != epochs:
        problems.append(f"trace has {len(rows)} epochs, expected {epochs}")
    for row in rows:
        values = [float(row["loss_g"]), float(row["probe_adv_dr"])]
        loss_d = float(row["loss_d"])
        if not (all(math.isfinite(v) for v in values) and (math.isfinite(loss_d) or math.isnan(loss_d))):
            problems.append(f"non-finite trace value in epoch {row['epoch']}")
            break
    return problems


def report_eir_mean(out_dir) -> float:
    """Mean EIR over the report rows where it is defined (0.0 when none is)."""
    with open(Path(out_dir) / "report.csv", newline="") as fh:
        eirs = [float(row["eir"]) for row in csv.DictReader(fh) if row["eir"]]
    return sum(eirs) / len(eirs) if eirs else 0.0


def generated_violations(originals, mask, schema, continuous, discrete) -> int:
    """Rows of a `gan.generate` result that break the constraint invariants.

    Frozen positions must be bit-equal to the source in both views, every
    value must lie in [0,1], and binary features of the discrete view must
    be exactly 0 or 1.
    """
    source = np.ascontiguousarray(np.asarray(originals, dtype=float)).view(np.uint64)
    frozen = ~mask.modifiable
    bad = np.zeros(len(source), dtype=bool)
    for view in (continuous, discrete):
        view = np.asarray(view, dtype=float)
        bits = np.ascontiguousarray(view).view(np.uint64)
        bad |= (bits[:, frozen] != source[:, frozen]).any(axis=1)
        bad |= ~(np.isfinite(view) & (view >= 0.0) & (view <= 1.0)).all(axis=1)
    binary = np.asarray(discrete, dtype=float)[:, list(schema.binary_indices)]
    bad |= ~((binary == 0.0) | (binary == 1.0)).all(axis=1)
    return int(bad.sum())

