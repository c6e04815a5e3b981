"""DR/EIR metrics and the experiment grid."""

import ctypes
import dataclasses
import hashlib
import json
import multiprocessing
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from evadegan import detectors, evaluate, gan
from evadegan.detectors import LABEL_ATTACK, LABEL_NORMAL
from evadegan.evaluate import (
    EmptyEvaluationSet,
    EvalReport,
    EvalRow,
    ExperimentConfig,
    UndefinedEIR,
    detection_rate,
    evasion_increase_rate,
    run_experiment,
)


class TestDetectionRate:
    def test_fraction_detected(self):
        preds = np.array([LABEL_ATTACK] * 8237 + [LABEL_NORMAL] * 1763)
        assert detection_rate(preds) == pytest.approx(0.8237)

    def test_none_detected(self):
        assert detection_rate(np.full(50, LABEL_NORMAL)) == 0.0

    def test_all_detected(self):
        assert detection_rate(np.full(50, LABEL_ATTACK)) == 1.0

    def test_empty_set(self):
        with pytest.raises(EmptyEvaluationSet):
            detection_rate(np.array([]))


class TestEvasionIncreaseRate:
    def test_published_dos_svm_cell(self):
        # original 82.37%, adversarial 0.04% -> EIR 99.95...%
        assert evasion_increase_rate(0.8237, 0.0004) == pytest.approx(
            0.9995143863056938, abs=1e-12
        )

    def test_no_change_gives_zero(self):
        assert evasion_increase_rate(0.5, 0.5) == 0.0

    def test_total_evasion_gives_one(self):
        assert evasion_increase_rate(0.7, 0.0) == 1.0

    def test_zero_original_dr_undefined(self):
        with pytest.raises(UndefinedEIR):
            evasion_increase_rate(0.0, 0.0)


def make_row(**kw):
    base = dict(
        algorithm="lr",
        attack="dos",
        setting="functional_only",
        original_dr=0.8,
        adversarial_dr=0.1,
        eir=evasion_increase_rate(0.8, 0.1),
        n_attack_records=100,
        n_detected_original=80,
        n_detected_adversarial=10,
        low_confidence=False,
    )
    base.update(kw)
    return EvalRow(**base)


class TestEvalReport:
    def test_csv_shape_and_rounding(self):
        report = EvalReport(rows=[make_row()])
        lines = report.to_csv_text().strip().splitlines()
        assert lines[0].startswith("algorithm,attack,setting,original_dr")
        cells = lines[1].split(",")
        assert cells[:3] == ["lr", "dos", "functional_only"]
        assert cells[6] == "80.00"  # pct columns rounded to 2 decimals
        assert cells[7] == "10.00"
        assert cells[8] == "87.50"

    def test_undefined_eir_rendered_empty(self):
        report = EvalReport(
            rows=[make_row(original_dr=0.0, n_detected_original=0, eir=None, low_confidence=True)]
        )
        line = report.to_csv_text().strip().splitlines()[1]
        cells = line.split(",")
        assert cells[5] == "" and cells[8] == ""
        assert cells[-1] == "true"

    def test_rows_sorted_for_output(self):
        rows = [
            make_row(algorithm="rf"),
            make_row(algorithm="dt", setting="ablation"),
            make_row(algorithm="dt"),
        ]
        report = EvalReport(rows=rows)
        got = [(r.algorithm, r.setting) for r in report.sorted_rows()]
        assert got == [("dt", "ablation"), ("dt", "functional_only"), ("rf", "functional_only")]

    def test_json_nested_by_algorithm(self, tmp_path):
        report = EvalReport(rows=[make_row(), make_row(attack="u2r_r2l")])
        report.write_json(tmp_path / "report.json")
        obj = json.loads((tmp_path / "report.json").read_text())
        assert set(obj) == {"lr"}
        assert set(obj["lr"]) == {"dos", "u2r_r2l"}
        assert obj["lr"]["dos"]["functional_only"]["original_dr"] == 0.8

    def test_eir_recomputable_from_row(self):
        row = make_row()
        assert abs(row.eir - evasion_increase_rate(row.original_dr, row.adversarial_dr)) <= 1e-12

    def test_counts_reconcile(self):
        row = make_row()
        undetected = row.n_attack_records - row.n_detected_original
        assert undetected + row.n_detected_original == row.n_attack_records
        assert row.original_dr == pytest.approx(row.n_detected_original / row.n_attack_records)


def run_with_histories(config):
    """`run_experiment`'s result and the history `on_cell` receives for each cell."""
    histories = {}
    result = run_experiment(config, on_cell=lambda key, cell: histories.update({key: cell.history}))
    return result, histories


@pytest.fixture(scope="module")
def small_grid_result(corpus_dir):
    """The lr/dt grid's config, result and per-cell histories."""
    config = ExperimentConfig(
        train_path=str(corpus_dir / "train.txt"),
        test_path=str(corpus_dir / "test.txt"),
        master_seed=11,
        algorithms=("lr", "dt"),
        attacks=("dos", "u2r_r2l"),
        settings=("functional_only", "ablation"),
        gan=gan.TrainConfig(epochs=8, probe_size=32),
    )
    return (config, *run_with_histories(config))


class TestRunExperiment:
    def test_grid_row_count(self, small_grid_result):
        _, result, _ = small_grid_result
        assert len(result.report.rows) == 2 * 2 * 2

    def test_rows_cover_grid(self, small_grid_result):
        _, result, _ = small_grid_result
        keys = {(r.algorithm, r.attack, r.setting) for r in result.report.rows}
        assert keys == {
            (a, g, s)
            for a in ("lr", "dt")
            for g in ("dos", "u2r_r2l")
            for s in ("functional_only", "ablation")
        }

    def test_counts_reconcile(self, small_grid_result):
        _, result, _ = small_grid_result
        for row in result.report.rows:
            assert 0 <= row.n_detected_original <= row.n_attack_records
            assert 0 <= row.n_detected_adversarial <= row.n_attack_records
            assert row.original_dr == pytest.approx(
                row.n_detected_original / row.n_attack_records
            )
            assert row.adversarial_dr == pytest.approx(
                row.n_detected_adversarial / row.n_attack_records
            )

    def test_eir_consistency(self, small_grid_result):
        _, result, _ = small_grid_result
        for row in result.report.rows:
            if row.original_dr == 0.0:
                assert row.eir is None
            else:
                expected = evasion_increase_rate(row.original_dr, row.adversarial_dr)
                assert abs(row.eir - expected) <= 1e-12

    def test_low_confidence_flag(self, small_grid_result):
        _, result, _ = small_grid_result
        for row in result.report.rows:
            assert row.low_confidence == (row.original_dr < evaluate.LOW_CONFIDENCE_DR)

    def test_traces_present_per_cell(self, small_grid_result):
        config, result, histories = small_grid_result
        assert set(histories) == {(r.algorithm, r.attack, r.setting) for r in result.report.rows}
        for history in histories.values():
            assert len(history) == config.gan.epochs

    def test_deterministic_rerun(self, small_grid_result):
        config, result, _ = small_grid_result
        again = run_experiment(config)
        assert again.report.to_csv_text() == result.report.to_csv_text()

    def test_one_detector_fit_per_algorithm(self, corpus_dir, monkeypatch):
        fits = Counter()
        real_fit = detectors.fit

        def counting_fit(algorithm, *args, **kwargs):
            fits[algorithm] += 1
            return real_fit(algorithm, *args, **kwargs)

        monkeypatch.setattr(detectors, "fit", counting_fit)
        config = ExperimentConfig(
            train_path=str(corpus_dir / "train.txt"),
            test_path=str(corpus_dir / "test.txt"),
            algorithms=("lr", "dt"),
            gan=gan.TrainConfig(epochs=1, probe_size=32),
        )
        result = run_experiment(config)
        assert len(result.report.rows) == 2 * 2 * 2
        assert fits == {"lr": 1, "dt": 1}

    def test_attack_subset_matches_full_grid(self, small_grid_result):
        config, result, _ = small_grid_result
        subset = run_experiment(dataclasses.replace(config, attacks=("u2r_r2l",)))
        assert subset.report.rows == [r for r in result.report.rows if r.attack == "u2r_r2l"]

    def test_jobs_give_identical_report(self, small_grid_result):
        config, result, histories = small_grid_result
        pooled, pooled_histories = run_with_histories(dataclasses.replace(config, jobs=2))
        assert pooled.report.to_csv_text() == result.report.to_csv_text()
        assert pooled_histories == histories
        # k-NN's labels rest on fixed call shapes, which the pool must keep
        knn = dataclasses.replace(config, algorithms=("knn",))
        serial, serial_histories = run_with_histories(knn)
        pooled, pooled_histories = run_with_histories(dataclasses.replace(knn, jobs=2))
        assert pooled.report.to_csv_text() == serial.report.to_csv_text()
        assert pooled_histories == serial_histories

    def test_pool_workers_run_one_blas_thread(self):
        get_threads = evaluate._openblas_threads("get")
        if get_threads is None:
            pytest.skip("numpy's BLAS has no scipy-openblas thread control")
        before = get_threads()
        with evaluate._task_map(None, ExperimentConfig(jobs=2), 4) as task_map:
            assert list(task_map(_blas_threads, range(4))) == [1, 1, 1, 1]
        assert get_threads() == before  # the parent process keeps its setting

    @pytest.mark.parametrize("attacks,workers", [(("dos",), 0), (("dos", "u2r_r2l"), 2)])
    def test_pool_starts_no_more_workers_than_tasks(self, corpus_dir, attacks, workers):
        # one fit and one or two cells under --jobs 4: one task runs
        # serially, two run in a pool of two
        config = ExperimentConfig(
            train_path=str(corpus_dir / "train.txt"),
            algorithms=("nb",),
            attacks=attacks,
            settings=("functional_only",),
            gan=gan.TrainConfig(epochs=1, probe_size=32),
            jobs=4,
        )
        live = []
        run_experiment(config, on_cell=lambda key, cell: live.append(
            len(multiprocessing.active_children())
        ))
        assert live == [workers] * len(attacks)

    def test_cell_error_carries_context(self, corpus_dir):
        config = ExperimentConfig(
            train_path=str(corpus_dir / "train.txt"),
            test_path=str(corpus_dir / "train.txt"),
            algorithms=("lr",),
            attacks=("probe",),
            settings=("ablation",),  # no ablation list exists for probe
            gan=gan.TrainConfig(epochs=1),
        )
        with pytest.raises(evaluate.ExperimentCellError, match="attack=probe"):
            run_experiment(config)


def _blas_threads(inputs, config, task):
    return evaluate._openblas_threads("get")()


GOLDEN_REPORT = Path(__file__).parent / "golden" / "small_grid_report.csv"


def test_small_grid_matches_golden_report(small_grid_result):
    """The lr/dt grid's report.csv, byte for byte.

    A change that moves these bytes on purpose rewrites the file with
    ``EVADEGAN_WRITE_GOLDEN=1 python -m pytest tests/test_evaluate.py`` and
    says in CHANGES.md which rows moved and why.
    """
    _, result, _ = small_grid_result
    text = result.report.to_csv_text()
    if os.environ.get("EVADEGAN_WRITE_GOLDEN"):
        GOLDEN_REPORT.parent.mkdir(exist_ok=True)
        GOLDEN_REPORT.write_bytes(text.encode("utf-8"))
    assert text.encode("utf-8") == GOLDEN_REPORT.read_bytes()


GOLDEN_TRACES = Path(__file__).parent / "golden" / "small_grid_traces.json"


def blas_environment() -> dict:
    """numpy, its BLAS and, for OpenBLAS, the kernel it picked for this CPU.

    The losses' last bits follow the GEMM kernel, so a digest mismatch on
    another BLAS or kernel need not be a fault in the code.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):  # fmt: skip
        if hasattr(lib, symbol):
            getattr(lib, symbol).restype = ctypes.c_char_p
            env["blas_core"] = getattr(lib, symbol)().decode()
            break
    return env


def test_small_grid_matches_golden_traces(small_grid_result, tmp_path):
    """SHA-256 of every trace CSV of the lr/dt grid, as `evaluate` writes them.

    The traces hold each epoch's losses as ``repr``, so a last-bit drift in
    the GAN step shows here even when no DR count moves. The golden file
    also names the numpy, BLAS and BLAS kernel it was recorded with. Rewrite
    with ``EVADEGAN_WRITE_GOLDEN=1 python -m pytest tests/test_evaluate.py``.
    """
    _, _, histories = small_grid_result
    digests = {}
    for cell, history in sorted(histories.items()):
        path = tmp_path / ("_".join(cell) + ".csv")
        gan.write_trace_csv(path, history)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if os.environ.get("EVADEGAN_WRITE_GOLDEN"):
        record = {"environment": blas_environment(), "digests": digests}
        GOLDEN_TRACES.write_text(json.dumps(record, indent=2) + "\n")
    golden = json.loads(GOLDEN_TRACES.read_text())
    assert digests == golden["digests"], (
        f"recorded with {golden['environment']}, run with {blas_environment()}"
    )


GOLDEN_INGEST = json.loads((Path(__file__).parent / "golden" / "ingest_digests.json").read_text())


def inputs_digest(inputs) -> str:
    """SHA-256 over every encoded matrix of `prepare_grid_inputs`, schema first."""
    digest = hashlib.sha256(inputs.fingerprint.encode())
    for matrix in (inputs.ids_X, inputs.ids_y, inputs.gan_normals):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    for group in sorted(inputs.gan_attacks):
        digest.update(np.ascontiguousarray(inputs.gan_attacks[group]).tobytes())
        digest.update(np.ascontiguousarray(inputs.test_attacks[group]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_INGEST["prepare_grid_inputs"]))
def test_grid_inputs_match_golden_digest(corpus_dir, seed):
    """Encoded grid inputs, byte for byte, as the record-by-record ingest produced them."""
    config = ExperimentConfig(
        train_path=str(corpus_dir / "train.txt"),
        test_path=str(corpus_dir / "test.txt"),
        master_seed=int(seed),
    )
    inputs = evaluate.prepare_grid_inputs(config)
    assert inputs_digest(inputs) == GOLDEN_INGEST["prepare_grid_inputs"][seed]
