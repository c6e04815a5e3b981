"""Command-line workflows: staging, artifacts, exit codes, reproducibility."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from evadegan import detectors, evaluate, gan, nn, nslkdd
from evadegan.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
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
        assert config.seed == 12  # flag wins over file
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

    def test_unknown_algorithm_is_config_error(self, corpus_dir):
        code = run_cli(
            "prepare", "--train", str(corpus_dir / "train.txt"), "--ids", "lstm"
        )
        assert code == EXIT_CONFIG

    def test_effective_config_round_trips(self, tmp_path, corpus_dir):
        args = make_parser().parse_args(
            ["evaluate", "--train", str(corpus_dir / "train.txt"), "--seed", "3",
             "--set", "gan.epochs=2", "--set", "ids.rf.n_trees=5"]
        )
        config = build_run_config(args)
        text = effective_config_text(config)
        cfg = tmp_path / "effective.cfg"
        cfg.write_text(text)
        args2 = make_parser().parse_args(["evaluate", "--config", str(cfg)])
        config2 = build_run_config(args2)
        assert effective_config_text(config2) == text


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

    @pytest.mark.parametrize("train", ["nope.txt", "bad.txt"])
    def test_failed_prepare_leaves_no_directory(self, tmp_path, train):
        (tmp_path / "bad.txt").write_text("this,is,short\n")
        code = run_cli("prepare", "--train", str(tmp_path / train), "--out", str(tmp_path / "x"))
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
    def test_train_ids_requires_prepare(self, corpus_dir, tmp_path, capsys):
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"),
            "--out", str(tmp_path / "fresh"), "--ids", "lr",
        )
        assert code == EXIT_DATA
        assert "schema.txt" in capsys.readouterr().err

    def test_train_ids_writes_models(self, prepared, corpus_dir):
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5", "--ids", "lr,dt",
        )
        assert code == EXIT_OK
        for algorithm in ("lr", "dt"):
            assert (prepared / "models" / f"{algorithm}.blob").exists()
            manifest = json.loads(
                (prepared / "models" / f"{algorithm}.manifest.json").read_text()
            )
            assert manifest["algorithm"] == algorithm
            assert manifest["schema_fingerprint"]

    def test_train_ids_model_is_the_evaluate_detector(self, prepared, corpus_dir):
        code = run_cli(
            "train-ids", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5", "--ids", "lr",
        )
        assert code == EXIT_OK
        staged = detectors.load_model(prepared / "models" / "lr.blob")
        config = evaluate.ExperimentConfig(
            train_path=str(corpus_dir / "train.txt"),
            test_path=str(corpus_dir / "test.txt"),
            master_seed=5,
            algorithms=("lr",),
        )
        inputs = evaluate.prepare_grid_inputs(config)
        fitted = evaluate.fit_detector(inputs, config, "lr")
        assert staged.seed == fitted.model.seed
        for attack in config.attacks:
            np.testing.assert_array_equal(
                staged.predict(inputs.test_attacks[attack]),
                fitted.original_predictions[attack],
            )

    def test_train_gan_requires_ids_model(self, prepared, corpus_dir, capsys):
        code = run_cli(
            "train-gan", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5",
            "--ids", "nb", "--attack", "dos", "--setting", "functional_only",
            *FAST_GAN,
        )
        assert code == EXIT_DATA
        assert "nb.blob" in capsys.readouterr().err

    def test_train_gan_writes_checkpoints_and_trace(self, prepared, corpus_dir):
        code = run_cli(
            "train-gan", "--train", str(corpus_dir / "train.txt"),
            "--out", str(prepared), "--seed", "5",
            "--ids", "lr", "--attack", "dos", "--setting", "functional_only",
            *FAST_GAN,
        )
        assert code == EXIT_OK
        cell = prepared / "gan" / "lr_dos_functional_only"
        assert (cell / "generator.blob").exists()
        assert (cell / "critic.blob").exists()
        trace = (cell / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,loss_g,loss_d,probe_adv_dr"
        assert len(trace) == 1 + 3


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

    def test_missing_test_path_is_config_error(self, corpus_dir):
        code = run_cli("evaluate", "--train", str(corpus_dir / "train.txt"))
        assert code == EXIT_CONFIG

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
