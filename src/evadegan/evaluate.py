"""Detection-rate metrics and the (algorithm x attack x setting) experiment grid.

As in the paper, each black-box detector is trained once per run on the
detector half, seeded from (master seed, algorithm), and its predictions on
each requested attack group's test records are made once. Every grid cell
then attacks its algorithm's detector: it trains the adversarial generator
against it on the generator half, regenerates the test attacks adversarially
and measures the drop in detection rate. Generators are seeded per cell, so
any subset of the grid reproduces the full grid's rows exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import detectors, gan, nn
from .masks import ABLATION, FUNCTIONAL_ONLY, mask_for
from .nslkdd import AttackCategory, FeatureSchema, Records, build_schema, encode_batch
from .nslkdd import load_file, split_train

ATTACK_GROUPS = {
    "dos": (AttackCategory.DOS,),
    "u2r_r2l": (AttackCategory.U2R, AttackCategory.R2L),
    "probe": (AttackCategory.PROBE,),
}

LOW_CONFIDENCE_DR = 0.02


class EmptyEvaluationSet(ValueError):
    pass


class UndefinedEIR(ValueError):
    """EIR has no value when the original detection rate is zero."""


class ExperimentCellError(RuntimeError):
    """Wraps a sub-module failure with its experiment-cell coordinates.

    ``cause`` is the wrapped exception. Unlike ``__cause__``, it survives the
    trip back from a pool worker.
    """

    def __init__(self, message: str, cause: BaseException):
        super().__init__(message)
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.args[0], self.cause)


def detection_rate(predictions, total: int | None = None) -> float:
    """Fraction of ground-truth attack records that were labeled attack."""
    predictions = np.asarray(predictions)
    if total is None:
        total = len(predictions)
    if total == 0:
        raise EmptyEvaluationSet("no attack records to evaluate")
    return float((predictions == detectors.LABEL_ATTACK).sum() / total)


def evasion_increase_rate(original_dr: float, adversarial_dr: float) -> float:
    """1 - adversarial/original detection rate."""
    if original_dr <= 0.0:
        raise UndefinedEIR("original detection rate is zero")
    return 1.0 - adversarial_dr / original_dr


@dataclass
class EvalRow:
    algorithm: str
    attack: str
    setting: str
    original_dr: float
    adversarial_dr: float
    eir: float | None
    n_attack_records: int
    n_detected_original: int
    n_detected_adversarial: int
    low_confidence: bool


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)

    CSV_HEADER = (
        "algorithm,attack,setting,original_dr,adversarial_dr,eir,"
        "original_dr_pct,adversarial_dr_pct,eir_pct,"
        "n_attack_records,n_detected_original,n_detected_adversarial,low_confidence"
    )

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.algorithm, r.attack, r.setting))

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.sorted_rows():
            eir = "" if r.eir is None else repr(r.eir)
            eir_pct = "" if r.eir is None else f"{100.0 * r.eir:.2f}"
            lines.append(
                f"{r.algorithm},{r.attack},{r.setting},"
                f"{r.original_dr!r},{r.adversarial_dr!r},{eir},"
                f"{100.0 * r.original_dr:.2f},{100.0 * r.adversarial_dr:.2f},{eir_pct},"
                f"{r.n_attack_records},{r.n_detected_original},{r.n_detected_adversarial},"
                f"{str(r.low_confidence).lower()}"
            )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        out = {}
        for r in self.sorted_rows():
            cell = {
                "original_dr": r.original_dr,
                "adversarial_dr": r.adversarial_dr,
                "eir": r.eir,
                "n_attack_records": r.n_attack_records,
                "n_detected_original": r.n_detected_original,
                "n_detected_adversarial": r.n_detected_adversarial,
                "low_confidence": r.low_confidence,
            }
            out.setdefault(r.algorithm, {}).setdefault(r.attack, {})[r.setting] = cell
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class ExperimentConfig:
    train_path: str
    test_path: str
    master_seed: int = 42
    algorithms: tuple = detectors.ALGORITHMS
    attacks: tuple = ("dos", "u2r_r2l")
    settings: tuple = (FUNCTIONAL_ONLY, ABLATION)
    gan: gan.TrainConfig = field(default_factory=gan.TrainConfig)
    ids_hyperparams: dict = field(default_factory=dict)
    jobs: int = 1


@dataclass
class ExperimentResult:
    report: EvalReport
    traces: dict
    schema: FeatureSchema


@dataclass
class _GridInputs:
    """Everything a single cell needs, precomputed once per run."""

    schema: FeatureSchema
    fingerprint: str
    ids_X: np.ndarray
    ids_y: np.ndarray
    gan_normals: np.ndarray
    gan_attacks: dict
    test_attacks: dict
    # algorithm -> FittedDetector, filled in by run_experiment
    detectors: dict = field(default_factory=dict)


@dataclass
class FittedDetector:
    """One algorithm's detector, trained once per run and shared by its cells."""

    model: detectors.ClassifierModel
    # attack group -> the detector's labels for that group's test records
    original_predictions: dict


def detector_labels(records: Records) -> np.ndarray:
    """The detectors' binary target: normal traffic against any attack."""
    return np.where(
        records.is_in((AttackCategory.NORMAL,)), detectors.LABEL_NORMAL, detectors.LABEL_ATTACK
    )


def prepare_grid_inputs(config: ExperimentConfig) -> _GridInputs:
    train = load_file(config.train_path)
    test = load_file(config.test_path)
    ids_half, gan_half = split_train(train, config.master_seed)

    # Ranges and vocabularies come from the detector training half only.
    schema = build_schema(ids_half)

    gan_X = encode_batch(gan_half, schema)
    test_X = encode_batch(test, schema)
    return _GridInputs(
        schema=schema,
        fingerprint=schema.fingerprint(),
        ids_X=encode_batch(ids_half, schema),
        ids_y=detector_labels(ids_half),
        gan_normals=gan_X[gan_half.is_in((AttackCategory.NORMAL,))],
        gan_attacks={name: gan_X[gan_half.is_in(group)] for name, group in ATTACK_GROUPS.items()},
        test_attacks={name: test_X[test.is_in(group)] for name, group in ATTACK_GROUPS.items()},
    )


def detector_seed(master_seed: int, algorithm: str) -> int:
    """The seed an algorithm's detector is trained with in a run."""
    return nn.derive_seed(master_seed, "ids", algorithm)


def fit_detector(inputs: _GridInputs, config: ExperimentConfig, algorithm: str) -> FittedDetector:
    """Train `algorithm` on the detector half and label each requested test group."""
    try:
        for attack in config.attacks:
            if len(inputs.test_attacks[attack]) == 0:
                raise EmptyEvaluationSet(f"no {attack} attack records in the test split")
        model = detectors.fit(
            algorithm,
            inputs.ids_X,
            inputs.ids_y,
            seed=detector_seed(config.master_seed, algorithm),
            schema_fingerprint=inputs.fingerprint,
            hyperparams=config.ids_hyperparams.get(algorithm),
        )
        original = {
            attack: detectors.predict(model, inputs.test_attacks[attack], inputs.fingerprint)
            for attack in config.attacks
        }
        return FittedDetector(model=model, original_predictions=original)
    except Exception as exc:
        raise ExperimentCellError(f"detector (algorithm={algorithm}): {exc}", exc) from exc


def run_cell(
    inputs: _GridInputs,
    config: ExperimentConfig,
    algorithm: str,
    attack: str,
    setting: str,
):
    """One grid cell against ``inputs.detectors[algorithm]``.

    Returns (EvalRow, per-epoch training history).
    """
    cell = f"(algorithm={algorithm}, attack={attack}, setting={setting})"
    try:
        detector = inputs.detectors[algorithm]
        cell_seed = nn.derive_seed(config.master_seed, algorithm, attack, setting)
        mask = mask_for(ATTACK_GROUPS[attack][0], setting)

        test_X = inputs.test_attacks[attack]
        original_pred = detector.original_predictions[attack]
        n_detected_original = int((original_pred == detectors.LABEL_ATTACK).sum())
        original_dr = detection_rate(original_pred)

        gan_config = replace(config.gan, seed=nn.derive_seed(cell_seed, "gan"))
        generator = gan.build_generator(
            gan_config, nn.make_rng(nn.derive_seed(gan_config.seed, "gen-init"))
        )
        critic = gan.build_critic(
            gan_config, nn.make_rng(nn.derive_seed(gan_config.seed, "critic-init"))
        )
        data = gan.TrainData(normals=inputs.gan_normals, attacks=inputs.gan_attacks[attack])
        history = gan.train(
            generator, critic, detector.model, data, mask, inputs.schema, gan_config
        )

        eval_noise = nn.make_rng(nn.derive_seed(cell_seed, "eval-noise"))
        _, adversarial = gan.generate(generator, test_X, mask, inputs.schema, eval_noise)
        adv_pred = detectors.predict(detector.model, adversarial, inputs.fingerprint)
        n_detected_adv = int((adv_pred == detectors.LABEL_ATTACK).sum())
        adversarial_dr = detection_rate(adv_pred)

        eir = None if original_dr == 0.0 else evasion_increase_rate(original_dr, adversarial_dr)
        row = EvalRow(
            algorithm=algorithm,
            attack=attack,
            setting=setting,
            original_dr=original_dr,
            adversarial_dr=adversarial_dr,
            eir=eir,
            n_attack_records=len(test_X),
            n_detected_original=n_detected_original,
            n_detected_adversarial=n_detected_adv,
            low_confidence=original_dr < LOW_CONFIDENCE_DR,
        )
        return row, history
    except Exception as exc:
        raise ExperimentCellError(f"cell {cell}: {exc}", exc) from exc


def _fit_task(inputs, config, algorithm):
    return algorithm, fit_detector(inputs, config, algorithm)


def _cell_task(inputs, config, task):
    algorithm, attack, setting, detector = task
    # A pool worker's copy of the inputs predates the fits.
    inputs.detectors[algorithm] = detector
    row, history = run_cell(inputs, config, algorithm, attack, setting)
    return (algorithm, attack, setting), row, history


# (inputs, config) inside a pool worker. The fork hands them over without
# pickling, so tasks carry no matrices.
_worker_run = None


def _start_worker(inputs, config):
    global _worker_run
    _worker_run = (inputs, config)


def _in_worker(fn, task):
    return fn(*_worker_run, task)


@contextmanager
def _task_map(inputs, config: ExperimentConfig):
    """map(fn, tasks) calling fn(inputs, config, task).

    A plain loop, or with ``config.jobs > 1`` a fork pool running one task
    per chunk.
    """
    if config.jobs <= 1:
        yield lambda fn, tasks: [fn(inputs, config, t) for t in tasks]
        return
    import multiprocessing  # only here: the import alone adds ~0.6 MB to a serial run

    with multiprocessing.get_context("fork").Pool(
        config.jobs, initializer=_start_worker, initargs=(inputs, config)
    ) as pool:
        yield lambda fn, tasks: pool.map(partial(_in_worker, fn), tasks, chunksize=1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Fit each detector once, then run every cell against it.

    Rows come out in sorted cell order.
    """
    inputs = prepare_grid_inputs(config)
    with _task_map(inputs, config) as task_map:
        fitted = dict(task_map(_fit_task, config.algorithms))
        cells = [
            (algorithm, attack, setting, fitted[algorithm])
            for algorithm in config.algorithms
            for attack in config.attacks
            for setting in config.settings
        ]
        results = task_map(_cell_task, cells)

    report = EvalReport()
    traces = {}
    for key, row, history in sorted(results, key=lambda r: r[0]):
        report.rows.append(row)
        traces[key] = history
    return ExperimentResult(report=report, traces=traces, schema=inputs.schema)
