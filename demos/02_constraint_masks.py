#!/usr/bin/env python3
"""Show which features each attack category may perturb, per setting.

Functional feature groups stay frozen so a perturbed record keeps its
attack semantics; the ablation setting freezes an extra fixed list.
"""

import argparse
from pathlib import Path

from evadegan.masks import ablation_mask, functional_mask
from evadegan.nslkdd import FEATURE_NAMES, FEATURE_TABLE, AttackCategory


def show(mask):
    by_set = {}
    for i in range(41):
        _, _, fset = FEATURE_TABLE[i]
        by_set.setdefault(fset, []).append("x" if mask.modifiable[i] else ".")
    print(f"\n{mask.category.value} / {mask.setting}: {mask.modifiable.sum()} of 41 modifiable")
    for fset in ("intrinsic", "content", "time_based", "host_based"):
        bits = "".join(by_set[fset])
        print(f"  {fset:>11} [{bits}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--export-dir", help="write audit text files here")
    args = parser.parse_args()

    print("x = modifiable, . = frozen; columns follow file order inside each set")
    for category in (AttackCategory.DOS, AttackCategory.U2R, AttackCategory.R2L, AttackCategory.PROBE):
        show(functional_mask(category))
    for category in (AttackCategory.DOS, AttackCategory.U2R):
        show(ablation_mask(category))

    dos_fun = functional_mask(AttackCategory.DOS)
    dos_abl = ablation_mask(AttackCategory.DOS)
    extra = [
        FEATURE_NAMES[i]
        for i in range(41)
        if dos_fun.modifiable[i] and not dos_abl.modifiable[i]
    ]
    print(f"\nfeatures the dos ablation additionally freezes ({len(extra)}):")
    for name in extra:
        print(f"  {name}")

    if args.export_dir:
        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        for category in (AttackCategory.DOS, AttackCategory.U2R, AttackCategory.R2L, AttackCategory.PROBE):
            mask = functional_mask(category)
            path = out / f"mask_{category.value}_functional_only.txt"
            path.write_text(mask.to_text(), encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
