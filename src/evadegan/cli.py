"""Command-line front end: prepare / train-ids / train-gan / evaluate.

Configuration lives in a flat dotted-key text file (``gan.epochs = 50``);
command-line flags override file values. Every command writes the effective
merged configuration next to its outputs so a run can be reproduced from
the artifact directory alone.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence. Any other failure, such as a bug inside a grid cell, propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import detectors, evaluate, gan, nn, nslkdd
from .masks import ABLATION, FUNCTIONAL_ONLY, mask_for
from .nslkdd import EmptyDataset, MalformedRecord, UnknownAttack, build_schema, encode_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# Faults in the input data: they exit with EXIT_DATA, also from inside a grid cell.
DATA_ERRORS = (
    MalformedRecord,
    UnknownAttack,
    EmptyDataset,
    evaluate.EmptyEvaluationSet,
    detectors.SingleClassData,
)

_GAN_FIELDS = {
    f.name for f in dataclasses.fields(gan.TrainConfig) if f.name != "seed"
}


class ConfigError(ValueError):
    pass


class MissingArtifact(FileNotFoundError):
    pass


@dataclasses.dataclass
class RunConfig:
    train_path: str | None = None
    test_path: str | None = None
    out_dir: str = "runs/default"
    seed: int = 42
    algorithms: tuple = detectors.ALGORITHMS
    attacks: tuple = ("dos", "u2r_r2l")
    settings: tuple = (FUNCTIONAL_ONLY, ABLATION)
    jobs: int = 1
    gan: gan.TrainConfig = dataclasses.field(default_factory=gan.TrainConfig)
    ids_hyperparams: dict = dataclasses.field(default_factory=dict)


def _parse_scalar(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(",") if part.strip())
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _apply_key(config: RunConfig, key: str, raw: str) -> None:
    if key == "data.train":
        config.train_path = raw
    elif key == "data.test":
        config.test_path = raw
    elif key == "out":
        config.out_dir = raw
    elif key == "seed":
        config.seed = int(raw)
    elif key == "jobs":
        config.jobs = int(raw)
    elif key == "ids.algorithms":
        config.algorithms = tuple(a.strip() for a in raw.split(",") if a.strip())
    elif key == "attacks":
        config.attacks = tuple(a.strip() for a in raw.split(",") if a.strip())
    elif key == "settings":
        config.settings = tuple(a.strip() for a in raw.split(",") if a.strip())
    elif key.startswith("gan."):
        name = key[4:]
        if name not in _GAN_FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        value = _parse_scalar(raw)
        if name in ("gen_hidden", "critic_hidden") and not isinstance(value, tuple):
            value = (value,)
        setattr(config.gan, name, value)
    elif key.startswith("ids."):
        parts = key.split(".")
        if len(parts) != 3 or parts[1] not in detectors.ALGORITHMS:
            raise ConfigError(f"unknown config key: {key}")
        config.ids_hyperparams.setdefault(parts[1], {})[parts[2]] = _parse_scalar(raw)
    else:
        raise ConfigError(f"unknown config key: {key}")


def build_run_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            _apply_key(config, key, raw)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _apply_key(config, key.strip(), raw.strip())
    if args.train:
        config.train_path = args.train
    if args.test:
        config.test_path = args.test
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    if args.ids:
        config.algorithms = tuple(args.ids.split(","))
    if args.attack:
        config.attacks = tuple(args.attack.split(","))
    if args.setting:
        config.settings = tuple(args.setting.split(","))
    if args.jobs is not None:
        config.jobs = args.jobs

    for algorithm in config.algorithms:
        if algorithm not in detectors.ALGORITHMS:
            raise ConfigError(f"unknown detector algorithm: {algorithm!r}")
    for attack in config.attacks:
        if attack not in evaluate.ATTACK_GROUPS:
            raise ConfigError(f"unknown attack group: {attack!r}")
    for setting in config.settings:
        if setting not in (FUNCTIONAL_ONLY, ABLATION):
            raise ConfigError(f"unknown constraint setting: {setting!r}")
    if config.train_path is None:
        raise ConfigError("no training data path (data.train / --train)")
    return config


def effective_config_text(config: RunConfig) -> str:
    """Flat dotted-key rendering of the merged configuration."""
    pairs = {
        "data.train": config.train_path,
        "data.test": config.test_path or "",
        "out": config.out_dir,
        "seed": config.seed,
        "jobs": config.jobs,
        "ids.algorithms": ",".join(config.algorithms),
        "attacks": ",".join(config.attacks),
        "settings": ",".join(config.settings),
    }
    for f in sorted(_GAN_FIELDS):
        value = getattr(config.gan, f)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        pairs[f"gan.{f}"] = value
    for algorithm in sorted(config.ids_hyperparams):
        for param, value in sorted(config.ids_hyperparams[algorithm].items()):
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            pairs[f"ids.{algorithm}.{param}"] = value
    return "\n".join(f"{k} = {pairs[k]}" for k in sorted(pairs)) + "\n"


def _write_effective_config(config: RunConfig, out: Path) -> None:
    (out / "effective.cfg").write_text(effective_config_text(config), encoding="utf-8")


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing artifact {path} (run `{hint}` first)")
    return path


def _load_split(out: Path, config: RunConfig):
    """The (detector half, generator half) records of a prepared run."""
    records = nslkdd.load_file(config.train_path)
    return tuple(
        records.take(
            [int(i) for i in _require(out / name, "evadegan prepare").read_text().split()]
        )
        for name in ("split_ids.txt", "split_gan.txt")
    )


def cmd_prepare(config: RunConfig) -> int:
    records = nslkdd.load_file(config.train_path)
    ids_idx, gan_idx = nslkdd.split_indices(records, config.seed)
    schema = build_schema(records.take(ids_idx))

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema.save(out / "schema.txt")
    (out / "split_ids.txt").write_text("\n".join(map(str, ids_idx)) + "\n", encoding="utf-8")
    (out / "split_gan.txt").write_text("\n".join(map(str, gan_idx)) + "\n", encoding="utf-8")

    summary = {"n_records": len(records), "halves": {}}
    for name, idx in (("ids_half", ids_idx), ("gan_half", gan_idx)):
        counts = np.bincount(records.category[idx], minlength=len(nslkdd.CATEGORIES))
        categories = {c.value: int(n) for c, n in zip(nslkdd.CATEGORIES, counts) if n}
        summary["halves"][name] = {"size": len(idx), "categories": dict(sorted(categories.items()))}
    (out / "prepare_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_effective_config(config, out)
    print(f"prepared {len(records)} records -> {out}")
    print(f"  ids_half={len(ids_idx)} gan_half={len(gan_idx)} schema={schema.fingerprint()[:12]}")
    return EXIT_OK


def cmd_train_ids(config: RunConfig) -> int:
    out = Path(config.out_dir)
    schema = nslkdd.FeatureSchema.load(_require(out / "schema.txt", "evadegan prepare"))
    ids_half, _ = _load_split(out, config)
    X = encode_batch(ids_half, schema)
    y = evaluate.detector_labels(ids_half)
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    for algorithm in config.algorithms:
        model = detectors.fit(
            algorithm,
            X,
            y,
            seed=evaluate.detector_seed(config.seed, algorithm),
            schema_fingerprint=schema.fingerprint(),
            hyperparams=config.ids_hyperparams.get(algorithm),
        )
        detectors.save_model(model, model_dir / f"{algorithm}.blob")
        train_acc = float((model.predict(X) == y).mean())
        print(f"trained {algorithm}: train accuracy {train_acc:.4f}")
    _write_effective_config(config, out)
    return EXIT_OK


def cmd_train_gan(config: RunConfig) -> int:
    out = Path(config.out_dir)
    schema = nslkdd.FeatureSchema.load(_require(out / "schema.txt", "evadegan prepare"))
    _, gan_half = _load_split(out, config)
    gan_X = encode_batch(gan_half, schema)
    normals = gan_X[gan_half.is_in((nslkdd.AttackCategory.NORMAL,))]

    for algorithm in config.algorithms:
        model_path = _require(out / "models" / f"{algorithm}.blob", "evadegan train-ids")
        ids_model = detectors.load_model(model_path)
        for attack in config.attacks:
            attacks = gan_X[gan_half.is_in(evaluate.ATTACK_GROUPS[attack])]
            for setting in config.settings:
                mask = mask_for(evaluate.ATTACK_GROUPS[attack][0], setting)
                run_seed = nn.derive_seed(config.seed, "stage-gan", algorithm, attack, setting)
                train_config = dataclasses.replace(config.gan, seed=run_seed)
                generator = gan.build_generator(
                    train_config, nn.make_rng(nn.derive_seed(run_seed, "gen-init"))
                )
                critic = gan.build_critic(
                    train_config, nn.make_rng(nn.derive_seed(run_seed, "critic-init"))
                )
                history = gan.train(
                    generator,
                    critic,
                    ids_model,
                    gan.TrainData(normals=normals, attacks=attacks),
                    mask,
                    schema,
                    train_config,
                )
                cell_dir = out / "gan" / f"{algorithm}_{attack}_{setting}"
                cell_dir.mkdir(parents=True, exist_ok=True)
                nn.save_network(generator, cell_dir / "generator.blob", {"role": "generator"})
                nn.save_network(critic, cell_dir / "critic.blob", {"role": "critic"})
                gan.write_trace_csv(cell_dir / "trace.csv", history)
                final = history[-1].probe_adv_dr if history else float("nan")
                print(
                    f"trained gan {algorithm}/{attack}/{setting}: "
                    f"{len(history)} epochs, probe adversarial DR {final:.4f}"
                )
    _write_effective_config(config, out)
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    if config.test_path is None:
        raise ConfigError("no test data path (data.test / --test)")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    experiment = evaluate.ExperimentConfig(
        train_path=config.train_path,
        test_path=config.test_path,
        master_seed=config.seed,
        algorithms=config.algorithms,
        attacks=config.attacks,
        settings=config.settings,
        gan=config.gan,
        ids_hyperparams=config.ids_hyperparams,
        jobs=config.jobs,
    )
    result = evaluate.run_experiment(experiment)
    result.schema.save(out / "schema.txt")
    result.report.write_csv(out / "report.csv")
    result.report.write_json(out / "report.json")
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for (algorithm, attack, setting), history in result.traces.items():
        gan.write_trace_csv(trace_dir / f"{algorithm}_{attack}_{setting}.csv", history)
    _write_effective_config(config, out)

    for row in result.report.sorted_rows():
        eir = "undefined" if row.eir is None else f"{100.0 * row.eir:.2f}%"
        flag = " [low-confidence]" if row.low_confidence else ""
        print(
            f"{row.algorithm:>4} {row.attack:<8} {row.setting:<15} "
            f"original DR {100.0 * row.original_dr:6.2f}%  "
            f"adversarial DR {100.0 * row.adversarial_dr:6.2f}%  EIR {eir}{flag}"
        )
    print(f"report -> {out / 'report.csv'}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evadegan",
        description="Constrained adversarial traffic generation against NSL-KDD detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("prepare", cmd_prepare),
        ("train-ids", cmd_train_ids),
        ("train-gan", cmd_train_gan),
        ("evaluate", cmd_evaluate),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--train", help="KDDTrain+ style data file")
        p.add_argument("--test", help="KDDTest+ style data file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--ids", help="comma list of detector algorithms")
        p.add_argument("--attack", help="comma list of attack groups")
        p.add_argument("--setting", help="comma list of constraint settings")
        p.add_argument("--jobs", type=int, help="parallel workers for grid cells")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return args.func(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except gan.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except evaluate.ExperimentCellError as exc:
        if isinstance(exc.cause, gan.TrainingDiverged):
            print(f"training diverged: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        if isinstance(exc.cause, DATA_ERRORS):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise
    except (*DATA_ERRORS, MissingArtifact, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
