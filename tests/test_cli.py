"""Command-line workflows: staging, artifacts, exit codes, reproducibility."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from evadegan import detectors, evaluate, gan, nn, nslkdd, synthetic
from evadegan.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    ConfigError,
    build_run_config,
    effective_config_text,
    main,
    make_parser,
    parse_config_file,
)

FAST_GAN = [
    "--set", "gan.epochs=3",
    "--set", "gan.probe_size=16",
    "--set", "gan.gen_hidden=16,16,16,16",
    "--set", "gan.critic_hidden=16,8",
]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def prepared(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = run_cli(
        "prepare", "--train", str(corpus_dir / "train.txt"), "--out", str(out), "--seed", "5"
    )
    assert code == EXIT_OK
    return out


class TestConfigParsing:
    def test_file_flags_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data.train = /data/train.txt\n"
            "seed = 7\n"
            "gan.epochs = 9  # trimmed for testing\n"
            "ids.knn.k = 3\n"
        )
        parser = make_parser()
        args = parser.parse_args(["evaluate", "--config", str(cfg), "--seed", "12"])
        config = build_run_config(args)
        assert config.train_path == "/data/train.txt"
        assert config.master_seed == 12  # flag wins over file
        assert config.gan.epochs == 9
        assert config.ids_hyperparams["knn"]["k"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.train = x\ngan.bogus = 1\n")
        args = make_parser().parse_args(["prepare", "--config", str(cfg)])
        with pytest.raises(ConfigError):
            build_run_config(args)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_missing_train_path_is_config_error(self):
        assert run_cli("prepare") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "name", ["missing.cfg", ".", "latin1.cfg"], ids=["missing", "directory", "not-utf8"]
    )
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, name):
        (tmp_path / "latin1.cfg").write_bytes(b"seed = 1 # caf\xe9\n")
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", str(tmp_path / name), "--out", str(out))
        assert code == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algorithm_is_config_error(self, corpus_dir):
        code = run_cli(
            "prepare", "--train", str(corpus_dir / "train.txt"), "--ids", "lstm"
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ("--set", "seed=x1"),
            ("--seed", "-1"),
            ("--set", "jobs=abc"),
            ("--jobs", "0"),
            ("--jobs", "-2"),
            ("--set", "ids.knn.kk=3"),
            ("--set", "ids.svm.k=3"),
            ("--set", "ids.knn.k=0"),
            ("--set", "ids.knn.k=2.5"),
            ("--set", "gan.batch_size=0"),
            ("--set", "gan.epochs=-1"),
            ("--set", "gan.epochs=1.5"),
            ("--set", "gan.lr_g=fast"),
            ("--set", "ids.knn.max_reference=-5"),
            ("--set", "ids.knn.max_reference=2.5"),
            ("--set", "ids.rf.n_trees=0"),
            ("--set", "ids.svm.epochs=2.5"),
            ("--set", "ids.svm.lam=abc"),
            ("--set", "ids.mlp.hidden=0"),
            ("--set", "ids.mlp.hidden=,"),
            ("--set", "ids.dt.max_depth=-1"),
            ("--set", "ids.rf.features_per_split=0"),
            ("--set", "gan.probe_size=0"),
            ("--set", "gan.rmsprop_rho=abc"),
            ("--set", "gan.rmsprop_rho=1.5"),
            ("--set", "gan.rmsprop_epsilon=0"),
            ("--set", "gan.gen_hidden=0"),
            ("--set", "gan.critic_hidden=16,0"),
            ("--set", "gan.critic_hidden=,"),
            ("--set", "ids.algorithms="),
            ("--set", "attacks="),
            ("--set", "settings= , "),
            # values effective.cfg cannot carry unchanged
            ("--out", "r #1"),
            ("--out", "#r"),
            ("--out", " lead "),
            ("--test", "trail.txt "),
            ("--test", "t\t#1"),
            ("--train", "line\nbreak.txt"),
        ],
        ids=lambda flags: flags[1],
    )
    def test_bad_value_is_config_error(self, corpus_dir, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = run_cli(
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(corpus_dir / "test.txt"), "--out", str(out), *flags,
        )
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--attack", "probe", "--setting", "ablation"), ("--attack", "dos,probe")],
        ids=["probe-ablation", "default-settings"],
    )
    def test_grid_cell_without_mask_is_config_error(self, tmp_path, capsys, flags):
        """probe has no ablation feature list; the grid is refused before any file is read."""
        out = tmp_path / "o"
        code = run_cli(
            "evaluate", "--train", str(tmp_path / "missing.txt"),
            "--test", str(tmp_path / "missing.txt"), "--out", str(out), *flags,
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "probe/ablation" in err and "dos/" not in err and "functional_only" not in err
        assert not out.exists()

    @pytest.mark.parametrize("with_test", [True, False], ids=["test", "no-test"])
    @pytest.mark.parametrize("command", ["prepare", "train-ids", "train-gan", "evaluate"])
    def test_effective_config_round_trips(self, tmp_path, corpus_dir, command, with_test):
        out = tmp_path / "run#1"
        test = ["--test", str(corpus_dir / "test.txt")] if with_test else []
        args = make_parser().parse_args(
            [command, "--train", str(corpus_dir / "train.txt"), *test, "--out", str(out),
             "--seed", "3", "--ids", "lr, knn", "--attack", "dos", "--jobs", "2",
             "--set", "gan.epochs=2", "--set", "gan.critic_hidden=16",
             "--set", "ids.rf.n_trees=5", "--set", "ids.mlp.hidden=8"]
        )
        config = build_run_config(args)
        out.mkdir()
        (out / "effective.cfg").write_text(effective_config_text(config))
        again = build_run_config(
            make_parser().parse_args([command, "--config", str(out / "effective.cfg")])
        )
        assert again == config

    def test_effective_config_lists_every_gan_field(self):
        """Every TrainConfig field is a gan.* key, so effective.cfg sets all of them."""
        config = build_run_config(make_parser().parse_args(["evaluate", "--train", "t.txt"]))
        keys = {line.split(" = ")[0] for line in effective_config_text(config).splitlines()}
        assert {f"gan.{f.name}" for f in dataclasses.fields(gan.TrainConfig)} <= keys

    @pytest.mark.parametrize(
        "case",
        [
            ("--train", "data.train", "other.txt"),
            ("--test", "data.test", "test.txt"),
            ("--out", "out", "runs/r#1"),
            ("--seed", "seed", "7"),
            ("--ids", "ids.algorithms", "lr, knn"),
            ("--attack", "attacks", "u2r_r2l"),
            ("--setting", "settings", "ablation"),
            ("--jobs", "jobs", "2"),
        ],
        ids=lambda case: case[0],
    )
    def test_flag_is_shorthand_for_its_key(self, case):
        flag, key, value = case

        def config(*argv):
            args = make_parser().parse_args(["evaluate", "--set", "data.train=t.txt", *argv])
            return build_run_config(args)

        flagged = config(flag, value)
        assert flagged == config("--set", f"{key}={value}")
        assert flagged != config()


class TestPrepare:
    def test_artifacts_written(self, prepared):
        for name in ("schema.txt", "split_ids.txt", "split_gan.txt", "prepare_summary.json"):
            assert (prepared / name).exists()

    def test_halves_differ_by_at_most_one(self, prepared):
        summary = json.loads((prepared / "prepare_summary.json").read_text())
        sizes = [summary["halves"][h]["size"] for h in ("ids_half", "gan_half")]
        assert abs(sizes[0] - sizes[1]) <= 1
        assert sum(sizes) == summary["n_records"]

    def test_rerun_identical_manifests(self, prepared, corpus_dir, tmp_path):
        out2 = tmp_path / "again"
        run_cli("prepare", "--train", str(corpus_dir / "train.txt"), "--out", str(out2), "--seed", "5")
        for name in ("schema.txt", "split_ids.txt", "split_gan.txt", "prepare_summary.json"):
            assert (out2 / name).read_bytes() == (prepared / name).read_bytes()

    def test_corrupt_line_names_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        lines = ["0," * 40 + "0,normal,1"] * 3
        lines[1] = "this,is,short"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("prepare", "--train", str(bad), "--out", str(tmp_path / "o"))
        assert code == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = run_cli("prepare", "--train", str(tmp_path / "nope.txt"))
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "command,flag",
        [("prepare", "--train"), ("train-ids", "--train"), ("evaluate", "--train"),
         ("evaluate", "--test")],
    )
    def test_directory_as_data_file_is_data_error(self, corpus_dir, tmp_path, capsys, command,
                                                  flag):
        """A path that cannot be opened is a data error naming it; nothing is written."""
        paths = {"--train": corpus_dir / "train.txt", "--test": corpus_dir / "test.txt"}
        paths[flag] = tmp_path
        out = tmp_path / "o"
        data = [str(a) for item in paths.items() for a in item]
        code = run_cli(command, *data, "--ids", "nb", "--attack", "dos", "--out", str(out))
        assert code == EXIT_DATA
        assert f"data error: {tmp_path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_data_error(self, tmp_path, capsys):
        """Ingest reads its files twice, so a pipe is refused by name."""
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            code = run_cli("prepare", "--train", f"/dev/fd/{read_end}", "--out", str(tmp_path / "o"))
        finally:
            os.close(read_end)
        assert code == EXIT_DATA
        assert "unseekable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,train",
        [
            pytest.param("prepare", "nope.txt", id="nope.txt"),
            pytest.param("prepare", "bad.txt", id="bad.txt"),
            pytest.param("evaluate", "bad.txt", id="evaluate-bad.txt"),
        ],
    )
    def test_failed_prepare_leaves_no_directory(self, tmp_path, command, train):
        (tmp_path / "bad.txt").write_text("this,is,short\n")
        data = str(tmp_path / train)
        code = run_cli(command, "--train", data, "--test", data, "--out", str(tmp_path / "x"))
        assert code == EXIT_DATA
        assert not (tmp_path / "x").exists()

    def test_artifacts_match_golden(self, prepared):
        """The record-by-record ingest's split and schema, byte for byte (seed 5)."""
        golden = json.loads(
            (Path(__file__).parent / "golden" / "ingest_digests.json").read_text()
        )["prepare --seed 5"]
        for name, sha256 in golden.items():
            assert hashlib.sha256((prepared / name).read_bytes()).hexdigest() == sha256, name


class TestStagedTraining:
    def test_train_ids_writes_models(self, prepared, corpus_dir):
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5", "--ids", "lr,dt",
        )
        assert code == EXIT_OK
        for algorithm in ("lr", "dt"):
            assert (prepared / "models" / f"{algorithm}.npz").exists()
            manifest = json.loads(
                (prepared / "models" / f"{algorithm}.manifest.json").read_text()
            )
            assert manifest["algorithm"] == algorithm
            assert manifest["schema_fingerprint"]

    def test_train_ids_derives_its_split_from_its_own_train_file(self, corpus_dir, tmp_path):
        """prepare's split files index another file's rows; train-ids reads none of them."""
        out = tmp_path / "other"
        code = run_cli("prepare", "--train", str(corpus_dir / "train.txt"), "--out", str(out))
        assert code == EXIT_OK
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "test.txt"), "--out", str(out), "--ids", "lr"
        )
        assert code == EXIT_OK
        config = evaluate.ExperimentConfig(train_path=str(corpus_dir / "test.txt"))
        fingerprint = evaluate.prepare_grid_inputs(config).fingerprint
        manifest = json.loads((out / "models" / "lr.manifest.json").read_text())
        assert manifest["schema_fingerprint"] == fingerprint

    def test_train_ids_model_is_the_evaluate_detector(self, prepared, corpus_dir, tmp_path):
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5", "--ids", "lr,knn",
        )
        assert code == EXIT_OK
        config = evaluate.ExperimentConfig(
            train_path=str(corpus_dir / "train.txt"), master_seed=5, algorithms=("lr", "knn")
        )
        inputs = evaluate.prepare_grid_inputs(config)
        for algorithm in config.algorithms:
            model = evaluate.fit_detector(inputs, config, algorithm).model
            detectors.save_model(model, tmp_path / f"{algorithm}.npz")
            for name in (f"{algorithm}.npz", f"{algorithm}.manifest.json"):
                staged = (prepared / "models" / name).read_bytes()
                assert staged == (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train-ids", "train-gan"])
    def test_failed_train_ids_leaves_no_directory(self, tmp_path, capsys, command):
        """A detector that cannot be fitted is a data error that names it; nothing is written."""
        rng = np.random.default_rng(0)
        train = tmp_path / "normal_only.txt"
        train.write_text(
            "".join(synthetic.make_record_line(rng, "normal") + "\n" for _ in range(200))
        )
        out = tmp_path / "o1"
        code = run_cli(command, "--train", str(train), "--out", str(out), "--ids", "lr")
        assert code == EXIT_DATA
        assert "detector (algorithm=lr)" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_write_identical_trees(self, corpus_dir, tmp_path):
        """Detectors and networks pickled back from pool workers save the serial run's bytes."""

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        for jobs in ("1", "2"):
            data = ["--train", str(corpus_dir / "train.txt"), "--seed", "5", "--jobs", jobs]
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("train-ids", *data, "--out", str(out), "--ids", "lr,knn,mlp") == EXIT_OK
            code = run_cli(
                "train-gan", *data, "--out", str(out), "--ids", "lr,nb", "--attack", "dos",
                *FAST_GAN,
            )
            assert code == EXIT_OK
        for name in ("models", "gan"):
            serial, pooled = tree(tmp_path / "jobs1" / name), tree(tmp_path / "jobs2" / name)
            assert serial and pooled == serial, name

    def test_train_gan_runs_in_a_fresh_out(self, corpus_dir, tmp_path):
        """train-gan trains its own detector: it needs no train-ids run and writes no models/."""
        out = tmp_path / "fresh"
        code = run_cli(
            "train-gan", "--train", str(corpus_dir / "train.txt"),
            "--out", str(out), "--seed", "5",
            "--ids", "nb", "--attack", "dos", "--setting", "functional_only",
            *FAST_GAN,
        )
        assert code == EXIT_OK
        assert (out / "gan" / "nb_dos_functional_only" / "trace.csv").exists()
        assert not (out / "models").exists()

    def test_train_gan_writes_checkpoints_and_trace(self, prepared, corpus_dir):
        code = run_cli(
            "train-gan", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5",
            "--ids", "lr", "--attack", "dos", "--setting", "functional_only",
            *FAST_GAN,
        )
        assert code == EXIT_OK
        cell = prepared / "gan" / "lr_dos_functional_only"
        assert (cell / "generator.npz").exists()
        assert (cell / "critic.npz").exists()
        trace = (cell / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,loss_g,loss_d,probe_adv_dr,critic_updates"
        assert len(trace) == 1 + 3

    @pytest.mark.parametrize(
        "algorithm,prepare_seed,ids_seed",
        [
            pytest.param("lr", "5", "5", id="lr"),
            pytest.param("knn", "5", "5", id="knn"),
            pytest.param("lr", None, "5", id="lr-no-prepare"),
            pytest.param("knn", None, "5", id="knn-no-prepare"),
            pytest.param("lr", "6", "5", id="lr-prepare-other-seed"),
            pytest.param("knn", "6", "5", id="knn-prepare-other-seed"),
            pytest.param("lr", None, None, id="lr-no-train-ids"),
            pytest.param("knn", None, "6", id="knn-train-ids-other-seed"),
        ],
    )
    def test_staged_cells_reproduce_evaluate(
        self, corpus_dir, tmp_path, algorithm, prepare_seed, ids_seed
    ):
        """Each stage derives its split, schema and detector from --train/--seed.

        Whatever prepare or train-ids wrote into the directory before, train-gan
        trains the detector that evaluate trains.
        """
        staged, graded = tmp_path / "staged", tmp_path / "graded"
        data = ["--train", str(corpus_dir / "train.txt"), *FAST_GAN, "--ids", algorithm]
        if prepare_seed is not None:
            code = run_cli("prepare", *data, "--seed", prepare_seed, "--out", str(staged))
            assert code == EXIT_OK
        if ids_seed is not None:
            code = run_cli("train-ids", *data, "--seed", ids_seed, "--out", str(staged))
            assert code == EXIT_OK
        assert run_cli("train-gan", *data, "--seed", "5", "--out", str(staged)) == EXIT_OK
        code = run_cli(
            "evaluate", *data, "--seed", "5", "--test", str(corpus_dir / "test.txt"),
            "--out", str(graded),
        )
        assert code == EXIT_OK
        if prepare_seed == "5":
            assert (staged / "schema.txt").read_bytes() == (graded / "schema.txt").read_bytes()
        for attack in ("dos", "u2r_r2l"):
            for setting in ("functional_only", "ablation"):
                cell = f"{algorithm}_{attack}_{setting}"
                trace = (staged / "gan" / cell / "trace.csv").read_bytes()
                assert trace == (graded / "traces" / f"{cell}.csv").read_bytes(), cell


STAGED_IDS = "lr,dt,knn,mlp"
STAGED_GAN = ["--ids", "nb", "--attack", "dos,u2r_r2l", "--setting", "functional_only", *FAST_GAN]


def staged_args(corpus_dir, out, jobs):
    train = str(corpus_dir / "train.txt")
    return ["--train", train, "--out", str(out), "--seed", "5", "--jobs", jobs]


class TestStagedFiles:
    """Staged models and networks are plain .npz files that numpy reads without pickle.

    `TestStagedTraining.test_jobs_write_identical_trees` checks that two runs,
    with ``--jobs 1`` and ``--jobs 2``, write them byte for byte the same.
    """

    @pytest.fixture(scope="class")
    def staged(self, corpus_dir, tmp_path_factory):
        # pooled: the saved detectors come back pickled from fit workers
        out = tmp_path_factory.mktemp("staged")
        args = staged_args(corpus_dir, out, "2")
        assert run_cli("train-ids", *args, "--ids", STAGED_IDS) == EXIT_OK
        assert run_cli("train-gan", *args, *STAGED_GAN) == EXIT_OK
        return out

    @staticmethod
    def assert_npz_holds(path, arrays):
        with np.load(path, allow_pickle=False) as saved:
            assert sorted(saved.files) == sorted(arrays), path
            for name, value in arrays.items():
                assert saved[name].dtype == value.dtype, (path, name)
                assert np.array_equal(saved[name], value), (path, name)

    def test_models_hold_the_fitted_arrays(self, staged, corpus_dir):
        config = build_run_config(make_parser().parse_args(
            ["train-ids", *staged_args(corpus_dir, staged, "1"), "--ids", STAGED_IDS]
        ))
        inputs = evaluate.prepare_grid_inputs(config)
        for algorithm in config.algorithms:
            model = evaluate.fit_detector(inputs, config, algorithm).model
            self.assert_npz_holds(staged / "models" / f"{algorithm}.npz", model._arrays())

    def test_networks_hold_the_trained_parameters(self, staged, corpus_dir):
        config = build_run_config(make_parser().parse_args(
            ["train-gan", *staged_args(corpus_dir, staged, "1"), *STAGED_GAN]
        ))
        trained = {}

        def keep(key, cell):
            for role, net in (("generator", cell.generator), ("critic", cell.critic)):
                trained["_".join(key), role] = {k: v.copy() for k, v in net.param_arrays().items()}

        evaluate.run_experiment(config, on_cell=keep)
        assert len(trained) == 2 * 2
        for (cell, role), arrays in trained.items():
            self.assert_npz_holds(staged / "gan" / cell / f"{role}.npz", arrays)

    def test_parent_never_pickles_a_detector(self, corpus_dir, tmp_path, monkeypatch):
        """Cell workers inherit the fitted detectors; only a fit worker pickles one, to return it."""
        log = tmp_path / "pickled_by.txt"
        getstate = detectors.KNearestNeighbors.__getstate__

        def logged_getstate(model):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return getstate(model)

        monkeypatch.setattr(detectors.KNearestNeighbors, "__getstate__", logged_getstate)
        code = run_cli(
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(corpus_dir / "test.txt"), "--out", str(tmp_path / "out"),
            "--seed", "5", "--ids", "knn,lr", "--attack", "dos,u2r_r2l", "--jobs", "2",
            *FAST_GAN,
        )
        assert code == EXIT_OK
        pids = set(log.read_text(encoding="utf-8").split())
        assert pids, "the k-NN fit worker pickles its result back"
        assert str(os.getpid()) not in pids


class TestEvaluate:
    def test_filtered_grid_and_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(corpus_dir / "test.txt"),
            "--out", str(out), "--seed", "5",
            "--ids", "nb", "--attack", "dos", "--setting", "functional_only",
            *FAST_GAN,
        )
        assert code == EXIT_OK
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + single filtered cell
        assert (out / "report.json").exists()
        assert (out / "effective.cfg").exists()
        assert (out / "traces" / "nb_dos_functional_only.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_late_failure_keeps_finished_traces(self, corpus_dir, tmp_path, monkeypatch, jobs):
        """The fifth cell diverges: exit 4, no report, and the four cells before it on disk."""
        data = [
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(corpus_dir / "test.txt"), "--seed", "5",
            "--ids", "dt,lr", "--jobs", jobs, *FAST_GAN,
        ]
        whole, failed = tmp_path / "whole", tmp_path / "failed"
        assert run_cli(*data, "--out", str(whole)) == EXIT_OK
        run_cell = evaluate.run_cell

        def diverge_in_fifth_cell(inputs, config, *key):
            if key == ("lr", "dos", "functional_only"):
                raise gan.TrainingDiverged("loss_g is not finite")
            return run_cell(inputs, config, *key)

        monkeypatch.setattr(evaluate, "run_cell", diverge_in_fifth_cell)
        assert run_cli(*data, "--out", str(failed)) == EXIT_DIVERGED
        assert not (failed / "report.csv").exists()
        assert not list(failed.rglob("*.tmp"))
        kept = sorted(p.name for p in (failed / "traces").iterdir())
        assert kept == sorted(p.name for p in (whole / "traces").glob("dt_*.csv"))
        assert len(kept) == 4
        for name in kept:
            assert (failed / "traces" / name).read_bytes() == (whole / "traces" / name).read_bytes()

    def test_missing_test_path_is_config_error(self, corpus_dir):
        code = run_cli("evaluate", "--train", str(corpus_dir / "train.txt"))
        assert code == EXIT_CONFIG

    def test_train_ids_config_has_no_test_path(self, corpus_dir, tmp_path, capsys):
        """A staged run's effective.cfg has an empty data.test, which reads back as no test file."""
        staged = tmp_path / "staged"
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"), "--out", str(staged), "--ids", "lr"
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert run_cli("evaluate", "--config", str(staged / "effective.cfg")) == EXIT_CONFIG
        assert "no test data path" in capsys.readouterr().err

    def test_byte_identical_reruns_from_effective_config(self, corpus_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = [
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(corpus_dir / "test.txt"), "--seed", "9",
            "--ids", "lr", "--attack", "u2r_r2l", "--setting", "ablation",
            *FAST_GAN,
        ]
        assert run_cli(*base, "--out", str(out1)) == EXIT_OK
        # rerun purely from the written effective config
        assert run_cli("evaluate", "--config", str(out1 / "effective.cfg"), "--out", str(out2)) == EXIT_OK
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestMalformedInput:
    SEED = 5

    @pytest.fixture(scope="class")
    def halves(self, corpus_dir):
        records = nslkdd.load_file(corpus_dir / "train.txt")
        return dict(zip(("detector", "generator"), nslkdd.split_indices(records, self.SEED)))

    @pytest.mark.parametrize("half", ["detector", "generator"])
    @pytest.mark.parametrize("name,token", [("src_bytes", "abc"), ("dst_bytes", "nan")])
    def test_bad_value_is_data_error(self, corpus_dir, tmp_path, capsys, halves, half, name, token):
        lines = (corpus_dir / "train.txt").read_text().splitlines()
        row = int(halves[half][0])
        fields = lines[row].split(",")
        fields[nslkdd.FEATURE_INDEX[name]] = token
        lines[row] = ",".join(fields)
        train = tmp_path / "train.txt"
        train.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run_cli(
            "evaluate", "--train", str(train), "--test", str(corpus_dir / "test.txt"),
            "--out", str(out), "--seed", str(self.SEED),
            "--ids", "nb", "--attack", "dos", "--setting", "functional_only", *FAST_GAN,
        )
        assert code == EXIT_DATA
        assert f"(line {row + 1})" in capsys.readouterr().err
        assert not (out / "report.csv").exists()


class TestCellErrorExitCodes:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_data_cause_is_data_error(self, corpus_dir, tmp_path, capsys, jobs):
        normals_only = tmp_path / "normals.txt"
        lines = (corpus_dir / "test.txt").read_text().splitlines()
        normals_only.write_text(
            "\n".join(l for l in lines if l.split(",")[41] == "normal") + "\n"
        )
        code = run_cli(
            "evaluate", "--train", str(corpus_dir / "train.txt"),
            "--test", str(normals_only), "--out", str(tmp_path / "o"),
            "--ids", "nb,dt", "--attack", "dos", "--jobs", jobs, *FAST_GAN,
        )
        assert code == EXIT_DATA
        assert "algorithm=" in capsys.readouterr().err

    def test_other_cause_is_raised(self, corpus_dir, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise nn.ShapeMismatch("expected (n, 9) input, got (64, 8)")

        monkeypatch.setattr(gan, "train", broken_train)
        with pytest.raises(evaluate.ExperimentCellError) as info:
            run_cli(
                "evaluate", "--train", str(corpus_dir / "train.txt"),
                "--test", str(corpus_dir / "test.txt"), "--out", str(tmp_path / "o"),
                "--ids", "nb", "--attack", "dos", "--setting", "functional_only",
                *FAST_GAN,
            )
        assert isinstance(info.value.cause, nn.ShapeMismatch)


class TestTooFewAttackRecords:
    """An attack group needs 5 generator-half records: a probe row and rows to train on."""

    @pytest.fixture(scope="class")
    def trains(self, corpus_dir, tmp_path_factory):
        """Train files keeping 0 and 6 of the corpus's r2l records and none of its u2r ones."""
        lines = (corpus_dir / "train.txt").read_text().splitlines()
        r2l = nslkdd.AttackCategory.R2L
        out = {}
        for kept in (0, 6):
            rows, n = [], 0
            for line in lines:
                category = nslkdd.map_attack(line.split(",")[41])
                if category in (r2l, nslkdd.AttackCategory.U2R):
                    if category != r2l or n == kept:
                        continue
                    n += 1
                rows.append(line)
            assert n == kept
            out[kept] = tmp_path_factory.mktemp("few") / "train.txt"
            out[kept].write_text("\n".join(rows) + "\n")
        return out

    @pytest.mark.parametrize("command", ["evaluate", "train-gan"])
    @pytest.mark.parametrize("kept", [0, 6])
    def test_exits_with_data_error(self, trains, corpus_dir, tmp_path, capsys, command, kept):
        _, generator_half = nslkdd.split_train(nslkdd.load_file(trains[kept]), 5)
        n_group = int(generator_half.is_in(evaluate.ATTACK_GROUPS["u2r_r2l"]).sum())
        assert n_group == 0 if kept == 0 else 1 <= n_group <= 4
        test = ("--test", str(corpus_dir / "test.txt")) if command == "evaluate" else ()
        code = run_cli(
            command, "--train", str(trains[kept]), *test, "--out", str(tmp_path / "o"),
            "--seed", "5", "--ids", "nb", "--attack", "u2r_r2l",
            "--setting", "functional_only", *FAST_GAN,
        )
        assert code == EXIT_DATA
        assert f"{n_group} attack records to train on; at least 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "train-gan"])
    def test_error_names_the_cell(self, trains, corpus_dir, tmp_path, capsys, command):
        """With two attack groups, the error says which one is short."""
        test = ("--test", str(corpus_dir / "test.txt")) if command == "evaluate" else ()
        code = run_cli(
            command, "--train", str(trains[0]), *test, "--out", str(tmp_path / "o"),
            "--seed", "5", "--ids", "nb", "--attack", "dos,u2r_r2l",
            "--setting", "functional_only", *FAST_GAN,
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: cell (algorithm=nb, attack=u2r_r2l, setting=functional_only): "
            "0 attack records to train on; at least 5 are needed\n"
        )
