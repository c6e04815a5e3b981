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
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import detectors, gan, nn
from .masks import ABLATION, FUNCTIONAL_ONLY, mask_for
from .nslkdd import AttackCategory, FeatureSchema, Records, encode_batch, load_file
from .nslkdd import split_and_schema

ATTACK_GROUPS = {
    "dos": (AttackCategory.DOS,),
    "u2r_r2l": (AttackCategory.U2R, AttackCategory.R2L),
    "probe": (AttackCategory.PROBE,),
}


def cells_without_mask(attacks, settings) -> list[str]:
    """Each (attack group, constraint setting) pair that has no constraint mask, with why."""
    missing = []
    for attack in attacks:
        for setting in settings:
            try:
                mask_for(ATTACK_GROUPS[attack][0], setting)
            except ValueError as exc:
                missing.append(f"{attack}/{setting} ({exc})")
    return missing


LOW_CONFIDENCE_DR = 0.02
# Rows encoded per `encode_batch` call while ingest encodes a file in place.
_ENCODE_ROWS = 4096


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


def detection_rate(predictions) -> float:
    """Fraction of ground-truth attack records that were labeled attack."""
    predictions = np.asarray(predictions)
    if len(predictions) == 0:
        raise EmptyEvaluationSet("no attack records to evaluate")
    return float((predictions == detectors.LABEL_ATTACK).sum() / len(predictions))


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
    """One run: its inputs, grid, seeds and hyperparameters.

    The CLI fills it from config files and flags (where ``master_seed`` is
    the ``seed`` key); ``out_dir`` is where the CLI writes the artifacts.
    """

    train_path: str | None = None
    test_path: str | None = None
    out_dir: str = "runs/default"
    master_seed: int = 42
    algorithms: tuple = detectors.ALGORITHMS
    attacks: tuple = ("dos", "u2r_r2l")
    settings: tuple = (FUNCTIONAL_ONLY, ABLATION)
    gan: gan.TrainConfig = field(default_factory=gan.TrainConfig)
    ids_hyperparams: dict = field(default_factory=dict)
    jobs: int = 1


@dataclass
class ExperimentResult:
    """A run's report rows (none without a test file) and its inputs.

    ``inputs.detectors`` holds each algorithm's fitted detector.
    """

    report: EvalReport
    inputs: _GridInputs


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
    # the detector's labels for the generator-half normals (gan.TrainData),
    # None when the grid has no cells
    normal_labels: np.ndarray | None


def detector_labels(records: Records) -> np.ndarray:
    """The detectors' binary target: normal traffic against any attack."""
    return np.where(
        records.is_in((AttackCategory.NORMAL,)), detectors.LABEL_NORMAL, detectors.LABEL_ATTACK
    )


def _encode_in_place(records: Records, schema: FeatureSchema) -> np.ndarray:
    """Overwrite ``records.values`` with their encoding, `_ENCODE_ROWS` rows at a time.

    Returns the encoded matrix; the records' values are spent. Each slice
    is one `encode_batch` call, so only a slice is ever copied.
    """
    for start in range(0, len(records), _ENCODE_ROWS):
        rows = slice(start, start + _ENCODE_ROWS)
        records.values[rows] = encode_batch(records.take(rows), schema)
    return records.values


def prepare_grid_inputs(config: ExperimentConfig) -> _GridInputs:
    """Split, schema and encoded matrices of a run, derived from its train file and seed.

    The test file is read only when ``config.test_path`` is set, after the
    train file's matrices are made; the staged commands train without one,
    and their ``test_attacks`` is empty.
    """
    train = load_file(config.train_path)
    ids_rows, gan_rows, schema = split_and_schema(train, config.master_seed)

    ids_y = detector_labels(train)[ids_rows]
    normal_rows = gan_rows[train.is_in((AttackCategory.NORMAL,))[gan_rows]]
    attack_rows = {
        name: gan_rows[train.is_in(group)[gan_rows]] for name, group in ATTACK_GROUPS.items()
    }
    # Encoding works row by row, so the halves are rows of one encoded train
    # matrix, encoded in place. The records go before the halves are cut, and
    # the test file is read once that matrix has gone too, so ingest holds two
    # value matrices at most.
    train_X = _encode_in_place(train, schema)
    del train
    ids_X, gan_normals = train_X[ids_rows], train_X[normal_rows]
    gan_attacks = {name: train_X[rows] for name, rows in attack_rows.items()}
    del train_X

    test_attacks = {}
    if config.test_path is not None:
        test = load_file(config.test_path)
        test_X = _encode_in_place(test, schema)
        test_attacks = {name: test_X[test.is_in(group)] for name, group in ATTACK_GROUPS.items()}
    return _GridInputs(
        schema=schema,
        fingerprint=schema.fingerprint(),
        ids_X=ids_X,
        ids_y=ids_y,
        gan_normals=gan_normals,
        gan_attacks=gan_attacks,
        test_attacks=test_attacks,
    )


def detector_seed(master_seed: int, algorithm: str) -> int:
    """The seed an algorithm's detector is trained with in a run."""
    return nn.derive_seed(master_seed, "ids", algorithm)


def cell_seed(master_seed: int, algorithm: str, attack: str, setting: str) -> int:
    """The seed a grid cell's GAN and its evaluation noise derive from."""
    return nn.derive_seed(master_seed, algorithm, attack, setting)


def fit_detector(inputs: _GridInputs, config: ExperimentConfig, algorithm: str) -> FittedDetector:
    """Train `algorithm` on the detector half with the run's seed and hyperparameters.

    Every command fits its detectors here, so a staged detector, and the one
    a staged GAN attacks, is the one the grid scores. The model labels each
    requested test group when the run has a test file, then the
    generator-half normals, which every cell of the algorithm trains on, when
    the grid has cells; ``gan.train`` takes their labels from here and
    queries the detector only about its adversarial rows.
    """
    try:
        tested = config.attacks if inputs.test_attacks else ()
        for attack in tested:
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
        return FittedDetector(
            model=model,
            original_predictions={a: model.predict(inputs.test_attacks[a]) for a in tested},
            normal_labels=model.predict(inputs.gan_normals) if config.attacks else None,
        )
    except Exception as exc:
        raise ExperimentCellError(f"detector (algorithm={algorithm}): {exc}", exc) from exc


@dataclass
class CellResult:
    """A trained cell: its networks, per-epoch history and, with a test file, its report row."""

    generator: nn.Network
    critic: nn.Network
    history: list
    row: EvalRow | None


def run_cell(
    inputs: _GridInputs,
    config: ExperimentConfig,
    algorithm: str,
    attack: str,
    setting: str,
) -> CellResult:
    """Train one grid cell's generator and critic against ``inputs.detectors[algorithm]``.

    With a test file, the generator then regenerates the group's test
    attacks and the detector scores them into the cell's `EvalRow`.
    """
    try:
        detector = inputs.detectors[algorithm]
        mask = mask_for(ATTACK_GROUPS[attack][0], setting)
        seed = cell_seed(config.master_seed, algorithm, attack, setting)
        gan_seed = nn.derive_seed(seed, "gan")
        generator = gan.build_generator(
            config.gan, nn.make_rng(nn.derive_seed(gan_seed, "gen-init"))
        )
        critic = gan.build_critic(config.gan, nn.make_rng(nn.derive_seed(gan_seed, "critic-init")))
        data = gan.TrainData(
            normals=inputs.gan_normals,
            normal_labels=detector.normal_labels,
            attacks=inputs.gan_attacks[attack],
        )
        history = gan.train(
            generator, critic, detector.model, data, mask, inputs.schema, config.gan, gan_seed
        )

        row = None
        if inputs.test_attacks:
            test_X = inputs.test_attacks[attack]
            original_pred = detector.original_predictions[attack]
            original_dr = detection_rate(original_pred)
            eval_noise = nn.make_rng(nn.derive_seed(seed, "eval-noise"))
            _, adversarial = gan.generate(generator, test_X, mask, inputs.schema, eval_noise)
            adv_pred = detector.model.predict(adversarial)
            adversarial_dr = detection_rate(adv_pred)
            eir = None
            if original_dr > 0.0:
                eir = evasion_increase_rate(original_dr, adversarial_dr)
            row = EvalRow(
                algorithm=algorithm,
                attack=attack,
                setting=setting,
                original_dr=original_dr,
                adversarial_dr=adversarial_dr,
                eir=eir,
                n_attack_records=len(test_X),
                n_detected_original=int((original_pred == detectors.LABEL_ATTACK).sum()),
                n_detected_adversarial=int((adv_pred == detectors.LABEL_ATTACK).sum()),
                low_confidence=original_dr < LOW_CONFIDENCE_DR,
            )
        return CellResult(generator=generator, critic=critic, history=history, row=row)
    except Exception as exc:
        cell = f"cell (algorithm={algorithm}, attack={attack}, setting={setting})"
        raise ExperimentCellError(f"{cell}: {exc}", exc) from exc


def _fit_task(inputs, config, algorithm):
    return algorithm, fit_detector(inputs, config, algorithm)


def _cell_task(inputs, config, key):
    return key, run_cell(inputs, config, *key)


# (inputs, config) inside a pool worker. The fork hands them over without
# pickling, fitted detectors included, so tasks carry no matrices.
_worker_run = None


def _start_worker(inputs, config):
    global _worker_run
    _worker_run = (inputs, config)
    # A forked worker inherits OpenBLAS's one thread per core, so N workers
    # would oversubscribe the cores N times over.
    set_threads = _openblas_threads("set")
    if set_threads is not None:
        set_threads(1)


def _openblas_threads(verb: str):
    """``scipy_openblas_{verb}_num_threads64_`` of numpy's BLAS, or None if it has none.

    numpy's linear-algebra extension links the library, so its symbols
    resolve through it.
    """
    import ctypes

    fn = getattr(
        ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_openblas_{verb}_num_threads64_", None
    )
    if fn is not None:
        fn.argtypes, fn.restype = ([ctypes.c_int], None) if verb == "set" else ([], ctypes.c_int)
    return fn


def _in_worker(fn, task):
    return fn(*_worker_run, task)


@contextmanager
def _task_map(inputs, config: ExperimentConfig, n_tasks: int):
    """Lazy map(fn, tasks) calling fn(inputs, config, task), results in task order.

    A fork pool's ``imap`` running one task per chunk, with ``config.jobs``
    workers capped at `n_tasks`, the length of the task list the map is
    given; with one worker, a generator and no pool. Workers fork on entry,
    so they see `inputs` as it is then. Consume the results inside the
    ``with`` block.
    """
    workers = min(config.jobs, n_tasks)
    if workers <= 1:
        yield lambda fn, tasks: (fn(inputs, config, t) for t in tasks)
        return
    import multiprocessing  # only here: the import alone adds ~0.6 MB to a serial run

    with multiprocessing.get_context("fork").Pool(
        workers, initializer=_start_worker, initargs=(inputs, config)
    ) as pool:
        yield lambda fn, tasks: pool.imap(partial(_in_worker, fn), tasks, chunksize=1)


def run_experiment(config: ExperimentConfig, on_cell=None) -> ExperimentResult:
    """Fit each detector once, then run every cell against it.

    This is the one loop over the grid: ``evaluate`` runs it with a test
    file, ``train-gan`` without one and ``train-ids`` with no attack groups,
    which fits the detectors and trains no GAN. The fits and the cells run
    as two phases, each in its own task map: the cells' workers fork after
    the fits, so they inherit the fitted detectors and a cell task is just
    its key. ``on_cell(key, cell)`` sees each cell's `CellResult` in this
    process as it finishes, in grid order, and is where a cell's networks
    and history leave the run; only its row is kept. Rows come out in
    sorted cell order.
    """
    inputs = prepare_grid_inputs(config)
    with _task_map(inputs, config, len(config.algorithms)) as task_map:
        inputs.detectors.update(task_map(_fit_task, config.algorithms))
    cells = [
        (algorithm, attack, setting)
        for algorithm in config.algorithms
        for attack in config.attacks
        for setting in config.settings
    ]
    report = EvalReport()
    with _task_map(inputs, config, len(cells)) as task_map:
        for key, cell in task_map(_cell_task, cells):
            if on_cell is not None:
                on_cell(key, cell)
            if cell.row is not None:
                report.rows.append(cell.row)
    report.rows = report.sorted_rows()
    return ExperimentResult(report=report, inputs=inputs)
