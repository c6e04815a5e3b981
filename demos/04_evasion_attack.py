#!/usr/bin/env python3
"""The full evasion story against one detector, start to finish.

Runs one cell of the experiment grid through `evaluate`'s own steps: trains
a detector on one half of the data, trains the constrained generator/critic
pair against it on the other half, then regenerates the test attacks and
compares detection before and after. Writes the per-epoch training trace as
plot-ready CSV, the file `evadegan evaluate` writes for the same cell.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from evadegan import detectors, evaluate, gan, nn, synthetic
from evadegan.masks import ABLATION, FUNCTIONAL_ONLY, mask_for


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", help="KDDTrain+ style file (default: synthetic)")
    parser.add_argument("--test", help="KDDTest+ style file (default: synthetic)")
    parser.add_argument("--ids", default="lr", choices=detectors.ALGORITHMS)
    parser.add_argument("--attack", default="dos", choices=sorted(evaluate.ATTACK_GROUPS))
    parser.add_argument("--setting", default=FUNCTIONAL_ONLY, choices=[FUNCTIONAL_ONLY, ABLATION])
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="directory for the trace CSV")
    args = parser.parse_args()
    unbuildable = evaluate.cells_without_mask([args.attack], [args.setting])
    if unbuildable:
        parser.error(f"the cell has no constraint mask: {unbuildable[0]}")

    if args.train and args.test:
        train_path, test_path = Path(args.train), Path(args.test)
    else:
        d = Path(tempfile.mkdtemp())
        train_path, test_path = d / "train.txt", d / "test.txt"
        synthetic.write_corpus_pair(train_path, test_path, 6000, 2500, seed=args.seed)
        print(f"wrote synthetic corpus pair -> {d}")

    # A grid of one cell: the run's seed derives the split, the detector's
    # seed and the cell's, as in `evadegan evaluate`.
    config = evaluate.ExperimentConfig(
        train_path=str(train_path),
        test_path=str(test_path),
        master_seed=args.seed,
        algorithms=(args.ids,),
        attacks=(args.attack,),
        settings=(args.setting,),
        gan=gan.TrainConfig(epochs=args.epochs),
    )
    inputs = evaluate.prepare_grid_inputs(config)
    test_attacks = inputs.test_attacks[args.attack]
    mask = mask_for(evaluate.ATTACK_GROUPS[args.attack][0], args.setting)
    print(
        f"\n{args.attack} records: {len(inputs.gan_attacks[args.attack])} for generator "
        f"training, {len(test_attacks)} held-out test; "
        f"{mask.modifiable.sum()}/41 features modifiable"
    )

    print(f"training black-box detector: {args.ids}")
    detector = inputs.detectors[args.ids] = evaluate.fit_detector(inputs, config, args.ids)
    original_dr = evaluate.detection_rate(detector.original_predictions[args.attack])
    print(f"original detection rate on test attacks: {100 * original_dr:.2f}%")

    print(f"training generator/critic for {args.epochs} epochs "
          f"(batch {config.gan.batch_size}, lr {config.gan.lr_g}, clip {config.gan.clip_c})")
    cell = evaluate.run_cell(inputs, config, args.ids, args.attack, args.setting)
    for h in cell.history[:: max(1, len(cell.history) // 10)]:
        # loss_d is nan in epochs where every critic batch came back with a
        # single predicted class (typically once evasion is total)
        loss_d = "   --- " if np.isnan(h.loss_d) else f"{h.loss_d:+.4f}"
        print(f"  epoch {h.epoch:3d}  loss_g {h.loss_g:+.4f}  loss_d {loss_d}  "
              f"probe adversarial DR {100 * h.probe_adv_dr:6.2f}%")

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace_{args.ids}_{args.attack}_{args.setting}.csv"
    gan.write_trace_csv(trace_path, cell.history)
    print(f"trace -> {trace_path}")

    row = cell.row
    print(f"\nadversarial detection rate: {100 * row.adversarial_dr:.2f}% "
          f"(was {100 * row.original_dr:.2f}%)")
    if row.eir is not None:
        print(f"evasion increase rate: {100 * row.eir:.2f}%")

    # The row's adversarial batch is not kept; frozen features never take
    # the generator's values, whatever its noise, so a fresh batch shows them.
    _, adversarial = gan.generate(cell.generator, test_attacks, mask, inputs.schema,
                                  nn.make_rng(args.seed))
    changed = (adversarial != test_attacks).any(axis=0)
    frozen_ok = not changed[~mask.modifiable].any()
    print(f"frozen features untouched across all records: {frozen_ok}")


if __name__ == "__main__":
    main()
