#!/usr/bin/env python3
"""Train all seven black-box detectors and report per-category detection.

Each detector trains on the encoded detector half (binary labels: normal
vs any attack), seeded as the experiment grid seeds it, and is then scored
on the held-out test file, broken down by attack category.
"""

import argparse
import tempfile
import time
from pathlib import Path

from evadegan import detectors, evaluate, nslkdd, synthetic
from evadegan.nslkdd import AttackCategory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", help="KDDTrain+ style file (default: synthetic)")
    parser.add_argument("--test", help="KDDTest+ style file (default: synthetic)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    if args.train and args.test:
        train_path, test_path = Path(args.train), Path(args.test)
    else:
        d = Path(tempfile.mkdtemp())
        train_path, test_path = d / "train.txt", d / "test.txt"
        synthetic.write_corpus_pair(train_path, test_path, 6000, 2500, seed=args.seed)
        print(f"wrote synthetic corpus pair -> {d}")

    # The detectors alone: a grid with no attack groups has no cells.
    config = evaluate.ExperimentConfig(str(train_path), master_seed=args.seed, attacks=())
    inputs = evaluate.prepare_grid_inputs(config)
    test = nslkdd.load_file(test_path)
    Xt = nslkdd.encode_batch(test, inputs.schema)
    groups = [
        c for c in (AttackCategory.DOS, AttackCategory.PROBE, AttackCategory.U2R, AttackCategory.R2L)
        if test.is_in((c,)).any()
    ]
    header = "  ".join(f"{g.value:>7}" for g in groups)
    print(f"\ndetection rate on test attacks (and false alarms on normal):")
    print(f"{'model':>6}  train-acc  {header}  false-alarm")

    for algorithm in detectors.ALGORITHMS:
        t0 = time.time()
        model = evaluate.fit_detector(inputs, config, algorithm).model
        train_acc = float((model.predict(inputs.ids_X) == inputs.ids_y).mean())
        pred = model.predict(Xt)
        drs = [evaluate.detection_rate(pred[test.is_in((g,))]) for g in groups]
        normal = test.is_in((AttackCategory.NORMAL,))
        false_alarm = float((pred[normal] == detectors.LABEL_ATTACK).mean())
        dr_text = "  ".join(f"{100 * v:6.2f}%" for v in drs)
        print(
            f"{algorithm:>6}  {train_acc:9.4f}  {dr_text}  {100 * false_alarm:10.2f}%"
            f"   ({time.time() - t0:.1f}s)"
        )


if __name__ == "__main__":
    main()
