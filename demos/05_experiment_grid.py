#!/usr/bin/env python3
"""Run a (detector x attack x setting) grid through `evadegan evaluate`.

By default this is a three-detector grid on synthetic data, a few minutes
of work. With real NSL-KDD files and --full it reproduces the complete
7x2x2 experiment at full-scale settings (expect hours). The output
directory is the CLI's: report.csv, report.json, schema.txt,
effective.cfg and traces/<cell>.csv, each trace written as its cell
finishes.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from evadegan import cli, synthetic


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

    argv = ["evaluate", "--train", str(train_path), "--test", str(test_path),
            "--seed", str(args.seed), "--jobs", str(args.jobs),
            "--out", args.out or tempfile.mkdtemp()]
    if not args.full:
        argv += ["--ids", "lr,dt,nb", "--set", "gan.probe_size=64"]
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
