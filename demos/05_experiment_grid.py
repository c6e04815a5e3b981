#!/usr/bin/env python3
"""Run a (detector x attack x setting) grid and emit the report files.

By default this is a three-detector grid on synthetic data, a few minutes
of work. With real NSL-KDD files and --full it reproduces the complete
7x2x2 experiment at full-scale settings (expect hours).
"""

import argparse
import tempfile
from pathlib import Path

from evadegan import detectors, gan, synthetic
from evadegan.evaluate import ExperimentConfig, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", help="KDDTrain+ style file (default: synthetic)")
    parser.add_argument("--test", help="KDDTest+ style file (default: synthetic)")
    parser.add_argument("--full", action="store_true",
                        help="all 7 detectors at 100 epochs (slow)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args()

    if args.train and args.test:
        train_path, test_path = Path(args.train), Path(args.test)
    else:
        d = Path(tempfile.mkdtemp())
        train_path, test_path = d / "train.txt", d / "test.txt"
        synthetic.write_corpus_pair(train_path, test_path, 6000, 2500, seed=args.seed)
        print(f"wrote synthetic corpus pair -> {d}")

    if args.full:
        algorithms = detectors.ALGORITHMS
        train_config = gan.TrainConfig()
    else:
        algorithms = ("lr", "dt", "nb")
        train_config = gan.TrainConfig(epochs=100, probe_size=64)

    config = ExperimentConfig(
        train_path=str(train_path),
        test_path=str(test_path),
        master_seed=args.seed,
        algorithms=algorithms,
        attacks=("dos", "u2r_r2l"),
        settings=("functional_only", "ablation"),
        gan=train_config,
        jobs=args.jobs,
    )
    cells = len(algorithms) * 2 * 2
    print(f"running {cells} cells (algorithms={','.join(algorithms)}, "
          f"gan epochs={train_config.epochs}, jobs={args.jobs})")

    def progress(key, cell):
        # called as each cell finishes; cell.generator and cell.critic are its networks
        print(f"  {'/'.join(key)}: adversarial DR {100 * cell.row.adversarial_dr:.2f}%")

    result = run_experiment(config, on_cell=progress)

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    result.report.write_csv(out / "report.csv")
    result.report.write_json(out / "report.json")
    result.inputs.schema.save(out / "schema.txt")
    for (algorithm, attack, setting), history in result.traces.items():
        gan.write_trace_csv(out / f"trace_{algorithm}_{attack}_{setting}.csv", history)

    print(f"\n{'model':>6} {'attack':<8} {'setting':<16} {'orig DR':>8} {'adv DR':>8} {'EIR':>8}")
    for row in result.report.sorted_rows():
        eir = "   --" if row.eir is None else f"{100 * row.eir:7.2f}%"
        flag = " *low-confidence" if row.low_confidence else ""
        print(f"{row.algorithm:>6} {row.attack:<8} {row.setting:<16} "
              f"{100 * row.original_dr:7.2f}% {100 * row.adversarial_dr:7.2f}% {eir}{flag}")
    print(f"\nreport -> {out / 'report.csv'}")


if __name__ == "__main__":
    main()
