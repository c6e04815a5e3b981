"""Command-line front end: prepare / train-ids / train-gan / evaluate.

Configuration lives in a flat dotted-key text file (``gan.epochs = 50``);
``--set key=value`` overrides it, and each flag, shorthand for one key in
`RUN_KEYS`, overrides both. Every command writes the effective
merged configuration next to its outputs so a run can be reproduced from
the artifact directory alone.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence. Any other failure, such as a bug inside a grid cell, propagates
with its traceback and a note naming the cell.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import detectors, evaluate, gan, nslkdd
from .masks import ABLATION, FUNCTIONAL_ONLY
from .nslkdd import EmptyDataset, MalformedRecord, UnreadableFile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# Faults in the input data: they exit with EXIT_DATA, also from inside a grid cell.
DATA_ERRORS = (
    MalformedRecord,
    UnreadableFile,
    EmptyDataset,
    evaluate.EmptyEvaluationSet,
    detectors.SingleClassData,
    detectors.SchemaMismatch,
    gan.TooFewAttacks,
)

_GAN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(gan.TrainConfig)}


class ConfigError(ValueError):
    pass


# A '#' at a line's start or after whitespace starts a comment.
_COMMENT = re.compile(r"(?:^|\s)#")


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
    """Read ``key = value`` lines; a '#' at a line's start or after whitespace starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_path(key: str, raw: str):
    return raw or None


def _names_from(choices, noun):
    """Parser of a comma list of distinct names, each one of `choices`; none is an empty grid."""

    def parse(key: str, raw: str) -> tuple:
        names = tuple(a.strip() for a in raw.split(",") if a.strip())
        if not names:
            raise ConfigError(f"{key} is empty, so the grid has no cells")
        for i, name in enumerate(names):
            if name not in choices:
                raise ConfigError(f"unknown {noun}: {name!r}")
            if name in names[:i]:
                raise ConfigError(f"{key} names {name!r} twice")
        return names

    return parse


_ALGORITHMS = _names_from(detectors.ALGORITHMS, "detector algorithm")
_ATTACKS = _names_from(evaluate.ATTACK_GROUPS, "attack group")
_SETTINGS = _names_from((FUNCTIONAL_ONLY, ABLATION), "constraint setting")

def _parse_value(key: str, raw: str, default=0):
    """A seed, jobs, gan.* or ids.* value: parsed like its default (an integer
    unless given), then held to the one rule for its kind."""
    value = _parse_scalar(raw)
    if isinstance(default, tuple):
        value = value if isinstance(value, tuple) else (value,)
        ok = bool(value) and all(isinstance(v, int) and v >= 1 for v in value)
        expected = "one or more integers >= 1"
    elif isinstance(default, int):
        # Any non-negative seed; 0 epochs means no training; a 0 cap means no cap.
        least = 0 if key in ("seed", "gan.epochs", "ids.knn.max_reference") else 1
        ok, expected = isinstance(value, int) and value >= least, f"an integer >= {least}"
    elif key == "gan.rmsprop_rho":
        ok, expected = isinstance(value, (int, float)) and 0 <= value < 1, "a number in [0, 1)"
    else:
        ok = isinstance(value, (int, float)) and math.isfinite(value) and value > 0
        expected = "a finite number > 0"
    if not ok:
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return value


# The run-level keys: key -> (ExperimentConfig attribute, parser (key, raw) -> value,
# command-line flag, the flag's help). Each flag is shorthand for its key.
RUN_KEYS = {
    "data.train": ("train_path", _parse_path, "--train", "KDDTrain+ style data file"),
    "data.test": ("test_path", _parse_path, "--test", "KDDTest+ style data file"),
    "out": ("out_dir", lambda key, raw: raw, "--out", "output directory"),
    "seed": ("master_seed", _parse_value, "--seed", "master seed"),
    "ids.algorithms": ("algorithms", _ALGORITHMS, "--ids", "comma list of detector algorithms"),
    "attacks": ("attacks", _ATTACKS, "--attack", "comma list of attack groups"),
    "settings": ("settings", _SETTINGS, "--setting", "comma list of constraint settings"),
    "jobs": ("jobs", _parse_value, "--jobs", "parallel workers for grid cells"),
}


def _apply_key(config: evaluate.ExperimentConfig, key: str, raw: str) -> None:
    section, _, name = key.partition(".")
    algorithm, _, param = name.partition(".")
    if key in RUN_KEYS:
        attr, parse, _, _ = RUN_KEYS[key]
        setattr(config, attr, parse(key, raw))
    elif section == "gan" and name in _GAN_DEFAULTS:
        setattr(config.gan, name, _parse_value(key, raw, _GAN_DEFAULTS[name]))
    elif section == "ids" and param in detectors.DEFAULT_HYPERPARAMS.get(algorithm, ()):
        value = _parse_value(key, raw, detectors.DEFAULT_HYPERPARAMS[algorithm][param])
        config.ids_hyperparams.setdefault(algorithm, {})[param] = value
    else:
        raise ConfigError(f"unknown config key: {key}")


def build_run_config(args) -> evaluate.ExperimentConfig:
    """Apply the config file's pairs, then each --set, then each flag given (later wins)."""
    pairs = list(parse_config_file(args.config).items()) if args.config else []
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        pairs.append((key.strip(), raw.strip()))
    pairs += [(key, getattr(args, key)) for key in RUN_KEYS if getattr(args, key) is not None]

    config = evaluate.ExperimentConfig()
    for key, raw in pairs:
        _apply_key(config, key, raw)
    if config.train_path is None:
        raise ConfigError("no training data path (data.train / --train)")
    unbuildable = evaluate.cells_without_mask(config.attacks, config.settings)
    if unbuildable:
        raise ConfigError(f"the grid has cells with no constraint mask: {'; '.join(unbuildable)}")
    for key, text in _rendered_pairs(config).items():
        # effective.cfg must read every value back unchanged.
        if text != text.strip() or _COMMENT.search(text) or len(text.splitlines()) > 1:
            raise ConfigError(
                f"{key} = {text!r} cannot be written to effective.cfg: a value may not "
                "start or end with whitespace, hold a line break, or hold a '#' that "
                "starts it or follows whitespace"
            )
    return config


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "" if value is None else str(value)


def _rendered_pairs(config: evaluate.ExperimentConfig) -> dict:
    """Every key of the merged configuration, with its value as effective.cfg writes it."""
    pairs = {key: getattr(config, attr) for key, (attr, _, _, _) in RUN_KEYS.items()}
    pairs.update((f"gan.{f}", getattr(config.gan, f)) for f in _GAN_DEFAULTS)
    for algorithm, params in config.ids_hyperparams.items():
        pairs.update((f"ids.{algorithm}.{param}", value) for param, value in params.items())
    return {key: _render(value) for key, value in pairs.items()}


def effective_config_text(config: evaluate.ExperimentConfig) -> str:
    """Flat dotted-key rendering of the merged configuration."""
    return "".join(f"{k} = {v}\n" for k, v in sorted(_rendered_pairs(config).items()))


def _write_effective_config(config: evaluate.ExperimentConfig, out: Path) -> None:
    (out / "effective.cfg").write_text(effective_config_text(config), encoding="utf-8")


def cmd_prepare(config: evaluate.ExperimentConfig) -> int:
    records = nslkdd.load_file(config.train_path)
    ids_idx, gan_idx, schema = nslkdd.split_and_schema(records, config.master_seed)

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


def cmd_train_ids(config: evaluate.ExperimentConfig) -> int:
    """Fit and save each detector as `evaluate` fits it: the grid with no cells."""
    staged = dataclasses.replace(config, test_path=None, attacks=())
    inputs = evaluate.run_experiment(staged).inputs
    out = Path(config.out_dir)
    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    for algorithm in config.algorithms:
        model = inputs.detectors[algorithm].model
        detectors.save_model(model, model_dir / f"{algorithm}.npz")
        train_acc = float((model.predict(inputs.ids_X) == inputs.ids_y).mean())
        print(f"trained {algorithm}: train accuracy {train_acc:.4f}")
    _write_effective_config(config, out)
    return EXIT_OK


def cmd_train_gan(config: evaluate.ExperimentConfig) -> int:
    """Train each cell's GAN as `evaluate` does, and save it as the cell finishes."""
    out = Path(config.out_dir)

    def save_cell(key, cell):
        cell_dir = out / "gan" / "_".join(key)
        cell_dir.mkdir(parents=True, exist_ok=True)
        np.savez(cell_dir / "generator.npz", **cell.generator.param_arrays())
        np.savez(cell_dir / "critic.npz", **cell.critic.param_arrays())
        gan.write_trace_csv(cell_dir / "trace.csv", cell.history)
        final = cell.history[-1].probe_adv_dr if cell.history else float("nan")
        print(
            f"trained gan {'/'.join(key)}: "
            f"{len(cell.history)} epochs, probe adversarial DR {final:.4f}"
        )

    evaluate.run_experiment(dataclasses.replace(config, test_path=None), on_cell=save_cell)
    _write_effective_config(config, out)
    return EXIT_OK


def cmd_evaluate(config: evaluate.ExperimentConfig) -> int:
    if config.test_path is None:
        raise ConfigError("no test data path (data.test / --test)")
    out = Path(config.out_dir)

    def save_trace(key, cell):
        # Made here, not before the run, so a failed ingest or fit leaves no `out`.
        (out / "traces").mkdir(parents=True, exist_ok=True)
        gan.write_trace_csv(out / "traces" / f"{'_'.join(key)}.csv", cell.history)

    result = evaluate.run_experiment(config, on_cell=save_trace)
    result.inputs.schema.save(out / "schema.txt")
    result.report.write_csv(out / "report.csv")
    result.report.write_json(out / "report.json")
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
        for key, (_, _, flag, help_text) in RUN_KEYS.items():
            p.add_argument(flag, dest=key, metavar=flag[2:].upper(), help=help_text)
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _with_notes(exc: BaseException) -> str:
    """The exception's message after its notes, which name the grid cell it came from."""
    return ": ".join([*getattr(exc, "__notes__", ()), str(exc)])


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return args.func(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except gan.TrainingDiverged as exc:
        print(f"training diverged: {_with_notes(exc)}", file=sys.stderr)
        return EXIT_DIVERGED
    except DATA_ERRORS as exc:
        print(f"data error: {_with_notes(exc)}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
