#!/usr/bin/env python3
"""Walk through parsing, schema construction and [0,1] encoding.

Uses a small bundled synthetic corpus by default; point --train at a real
KDDTrain+.txt to see the same steps on benchmark data.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from evadegan import nslkdd, synthetic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", help="NSL-KDD format file (default: synthetic)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    if args.train:
        train_path = Path(args.train)
    else:
        train_path = Path(tempfile.mkdtemp()) / "train.txt"
        synthetic.write_corpus(train_path, 4000, seed=args.seed)
        print(f"wrote synthetic corpus -> {train_path}")

    records = nslkdd.load_file(train_path)
    print(f"\nparsed {len(records)} records into columns; first record:")
    category = nslkdd.CATEGORIES[records.category[0]]
    print(f"  category={category.value}, difficulty={records.difficulty[0]}")
    for i in (0, 1, 2, 3, 4):
        if i in nslkdd.SYMBOLIC_INDICES:
            value = records.tokens[0, nslkdd.SYMBOLIC_INDICES.index(i)]
        else:
            value = f"{records.values[0, i]:g}"
        print(f"  {nslkdd.FEATURE_NAMES[i]} = {value}")

    counts = np.bincount(records.category, minlength=len(nslkdd.CATEGORIES))
    counts = {c.value: int(n) for c, n in zip(nslkdd.CATEGORIES, counts) if n}
    print("\ncategory counts:", dict(sorted(counts.items())))

    # the detector half owns the normalization ranges
    ids_half, gan_half = nslkdd.split_train(records, seed=args.seed)
    print(f"\nsplit: detector half {len(ids_half)}, generator half {len(gan_half)}")
    schema = nslkdd.build_schema(ids_half)
    print(f"schema fingerprint: {schema.fingerprint()[:16]}...")

    i_proto = nslkdd.FEATURE_INDEX["protocol_type"]
    i_service = nslkdd.FEATURE_INDEX["service"]
    print(f"protocol_type vocabulary: {schema.vocabs[i_proto]} -> encoded 1..{len(schema.vocabs[i_proto])}")
    print(f"service vocabulary ({len(schema.vocabs[i_service])} tokens): {schema.vocabs[i_service][:8]}...")

    print("\ntrain ranges for a few features:")
    for name in ("duration", "src_bytes", "count", "dst_host_count"):
        i = nslkdd.FEATURE_INDEX[name]
        print(f"  {name:>16}: [{schema.fmin[i]:g}, {schema.fmax[i]:g}]")

    enc = nslkdd.encode_batch(records.take([0]), schema)[0]
    print(f"\nencoded first record (head): {[round(float(v), 4) for v in enc[:8]]}")
    print(f"all 41 values inside [0,1]: {bool((enc >= 0).all() and (enc <= 1).all())}")

    # encoding is invertible for non-constant features
    i = nslkdd.FEATURE_INDEX["src_bytes"]
    back = nslkdd.decode_value(schema, i, enc[i])
    print(f"src_bytes round trip: raw {records.values[0, i]:g} -> {enc[i]:.6f} -> {back:g}")

if __name__ == "__main__":
    main()
