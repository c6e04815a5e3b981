#!/usr/bin/env python3
"""The full evasion story against one detector, start to finish.

Trains a detector on one half of the data, trains the constrained
generator/critic pair against it on the other half, then regenerates the
test attacks and compares detection before and after. Writes the per-epoch
training trace as plot-ready CSV.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from evadegan import detectors, gan, nn, nslkdd, synthetic
from evadegan.evaluate import detector_labels, evasion_increase_rate
from evadegan.masks import mask_for
from evadegan.nslkdd import AttackCategory

GROUPS = {
    "dos": (AttackCategory.DOS,),
    "u2r_r2l": (AttackCategory.U2R, AttackCategory.R2L),
    "probe": (AttackCategory.PROBE,),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", help="KDDTrain+ style file (default: synthetic)")
    parser.add_argument("--test", help="KDDTest+ style file (default: synthetic)")
    parser.add_argument("--ids", default="lr", choices=detectors.ALGORITHMS)
    parser.add_argument("--attack", default="dos", choices=sorted(GROUPS))
    parser.add_argument("--setting", default="functional_only",
                        choices=["functional_only", "ablation"])
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="directory for the trace CSV")
    args = parser.parse_args()

    if args.train and args.test:
        train_path, test_path = Path(args.train), Path(args.test)
    else:
        d = Path(tempfile.mkdtemp())
        train_path, test_path = d / "train.txt", d / "test.txt"
        synthetic.write_corpus_pair(train_path, test_path, 6000, 2500, seed=args.seed)
        print(f"wrote synthetic corpus pair -> {d}")

    train = nslkdd.load_file(train_path)
    test = nslkdd.load_file(test_path)
    ids_half, gan_half = nslkdd.split_train(train, seed=args.seed)
    schema = nslkdd.build_schema(ids_half)

    Xi = nslkdd.encode_batch(ids_half, schema)
    yi = detector_labels(ids_half)
    Xg = nslkdd.encode_batch(gan_half, schema)
    Xt = nslkdd.encode_batch(test, schema)

    wanted = GROUPS[args.attack]
    normals = Xg[gan_half.is_in((AttackCategory.NORMAL,))]
    attacks = Xg[gan_half.is_in(wanted)]
    test_attacks = Xt[test.is_in(wanted)]
    mask = mask_for(GROUPS[args.attack][0], args.setting)
    print(
        f"\n{args.attack} records: {len(attacks)} for generator training, "
        f"{len(test_attacks)} held-out test; {mask.modifiable.sum()}/41 features modifiable"
    )

    print(f"training black-box detector: {args.ids}")
    ids_model = detectors.fit(args.ids, Xi, yi, seed=args.seed,
                              schema_fingerprint=schema.fingerprint())
    original_dr = float((ids_model.predict(test_attacks) == detectors.LABEL_ATTACK).mean())
    print(f"original detection rate on test attacks: {100 * original_dr:.2f}%")

    config = gan.TrainConfig(epochs=args.epochs, seed=args.seed)
    generator = gan.build_generator(config, nn.make_rng(nn.derive_seed(args.seed, "gen")))
    critic = gan.build_critic(config, nn.make_rng(nn.derive_seed(args.seed, "critic")))
    print(f"training generator/critic for {args.epochs} epochs "
          f"(batch {config.batch_size}, lr {config.lr_g}, clip {config.clip_c})")
    # the normals never change, so the detector labels them once, up front
    data = gan.TrainData(normals, ids_model.predict(normals), attacks)
    history = gan.train(generator, critic, ids_model, data, mask, schema, config)

    for h in history[:: max(1, len(history) // 10)]:
        # loss_d is nan in epochs where every critic batch came back with a
        # single predicted class (typically once evasion is total)
        loss_d = "   --- " if np.isnan(h.loss_d) else f"{h.loss_d:+.4f}"
        print(f"  epoch {h.epoch:3d}  loss_g {h.loss_g:+.4f}  loss_d {loss_d}  "
              f"probe adversarial DR {100 * h.probe_adv_dr:6.2f}%")

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace_{args.ids}_{args.attack}_{args.setting}.csv"
    gan.write_trace_csv(trace_path, history)
    print(f"trace -> {trace_path}")

    _, adversarial = gan.generate(generator, test_attacks, mask, schema,
                                  nn.make_rng(nn.derive_seed(args.seed, "eval")))
    adv_dr = float((ids_model.predict(adversarial) == detectors.LABEL_ATTACK).mean())
    print(f"\nadversarial detection rate: {100 * adv_dr:.2f}% "
          f"(was {100 * original_dr:.2f}%)")
    if original_dr > 0:
        print(f"evasion increase rate: {100 * evasion_increase_rate(original_dr, adv_dr):.2f}%")

    changed = (adversarial != test_attacks).any(axis=0)
    frozen_ok = not changed[~mask.modifiable].any()
    print(f"frozen features untouched across all records: {frozen_ok}")


if __name__ == "__main__":
    main()
