"""Feature-modifiability masks and output post-processing.

Each attack category owns a set of functional feature groups that carry the
attack's behavior and must survive perturbation untouched. Masks mark the
remaining features as modifiable; the ablation setting freezes an extra
fixed list of features on top of the functional ones. Each mask is built
once, at import, into `MASKS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nslkdd import (
    BINARY_INDICES,
    CONTENT,
    FEATURE_INDEX,
    FEATURE_NAMES,
    FEATURE_TABLE,
    HOST_BASED,
    INTRINSIC,
    TIME_BASED,
    AttackCategory,
)

FUNCTIONAL_ONLY = "functional_only"
ABLATION = "ablation"

# Feature groups that are functional (frozen) per attack category.
_FUNCTIONAL_SETS = {
    AttackCategory.PROBE: (INTRINSIC, TIME_BASED, HOST_BASED),
    AttackCategory.DOS: (INTRINSIC, TIME_BASED),
    AttackCategory.U2R: (INTRINSIC, CONTENT),
    AttackCategory.R2L: (INTRINSIC, CONTENT),
}

# Extra features frozen in the ablation setting, per attack group.
_ABLATION_EXTRA = {
    AttackCategory.DOS: (
        "hot",
        "num_failed_logins",
        "logged_in",
        "num_compromised",
        "num_root",
        "num_file_creations",
        "is_guest_login",
        "dst_host_count",
        "dst_host_rerror_rate",
        "dst_host_serror_rate",
        "dst_host_same_srv_rate",
        "dst_host_same_src_port_rate",
    ),
    AttackCategory.U2R: (
        "count",
        "srv_count",
        "serror_rate",
        "srv_serror_rate",
        "dst_host_srv_diff_host_rate",
        "dst_host_srv_serror_rate",
        "dst_host_srv_count",
        "dst_host_diff_srv_rate",
        "dst_host_srv_rerror_rate",
    ),
}
_ABLATION_EXTRA[AttackCategory.R2L] = _ABLATION_EXTRA[AttackCategory.U2R]


# Each mask is one shared object of `MASKS`, so masks compare by identity.
@dataclass(frozen=True, eq=False)
class FeatureMask:
    modifiable: np.ndarray
    category: AttackCategory
    setting: str

    def to_text(self) -> str:
        """Audit listing: one 'feature<TAB>frozen|modifiable' line per feature."""
        lines = [f"# mask {self.category.value} {self.setting}"]
        for i, name in enumerate(FEATURE_NAMES):
            state = "modifiable" if self.modifiable[i] else "frozen"
            lines.append(f"{name}\t{state}")
        return "\n".join(lines) + "\n"


def _build(category: AttackCategory, setting: str) -> FeatureMask:
    """Freeze the category's functional sets and, under ablation, its extra feature list."""
    frozen_sets = _FUNCTIONAL_SETS[category]
    modifiable = np.array([fset not in frozen_sets for (_, _, fset) in FEATURE_TABLE])
    if setting == ABLATION:
        modifiable[[FEATURE_INDEX[name] for name in _ABLATION_EXTRA[category]]] = False
    modifiable.flags.writeable = False
    return FeatureMask(modifiable=modifiable, category=category, setting=setting)


# Every (category, setting) pair that has a mask, built once; callers share them read-only.
# Normal traffic has none, and probe has no ablation list.
MASKS = {
    (category, setting): _build(category, setting)
    for category in _FUNCTIONAL_SETS
    for setting in (FUNCTIONAL_ONLY, ABLATION)
    if setting == FUNCTIONAL_ONLY or category in _ABLATION_EXTRA
}


def mask_for(category: AttackCategory, setting: str) -> FeatureMask:
    """The pair's shared mask; a pair without one raises ValueError naming it."""
    try:
        return MASKS[category, setting]
    except KeyError:
        raise ValueError(f"no constraint mask for {category.value}/{setting}") from None


def apply_mask_batch(
    originals: np.ndarray, generated: np.ndarray, mask: FeatureMask
) -> np.ndarray:
    """Generated values on modifiable positions, original values elsewhere, row-wise."""
    return np.where(mask.modifiable[None, :], generated, originals)


# Binary columns are fixed by FEATURE_TABLE, so every schema shares them.
_BINARY_COLUMNS = list(BINARY_INDICES)


def postprocess(vector: np.ndarray) -> np.ndarray:
    """Clamp to [0,1], then snap binary features to {0,1} (ties go to 1)."""
    vector = np.asarray(vector, dtype=float)
    out = np.clip(vector, 0.0, 1.0)
    out[..., _BINARY_COLUMNS] = np.where(out[..., _BINARY_COLUMNS] >= 0.5, 1.0, 0.0)
    return out
