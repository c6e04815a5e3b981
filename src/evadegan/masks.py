"""Feature-modifiability masks and output post-processing.

Each attack category owns a set of functional feature groups that carry the
attack's behavior and must survive perturbation untouched. Masks mark the
remaining features as modifiable; the ablation setting freezes an extra
fixed list of features on top of the functional ones.
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


class NoMaskForNormal(ValueError):
    """Raised when a mask is requested for the normal category."""


class NoAblationDefined(ValueError):
    """Raised for categories without an ablation feature list."""


@dataclass(frozen=True)
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


def functional_mask(category: AttackCategory) -> FeatureMask:
    """Mask that frees every feature outside the category's functional sets."""
    if category == AttackCategory.NORMAL:
        raise NoMaskForNormal("normal traffic has no perturbation mask")
    frozen_sets = _FUNCTIONAL_SETS[category]
    modifiable = np.array(
        [fset not in frozen_sets for (_, _, fset) in FEATURE_TABLE], dtype=bool
    )
    return FeatureMask(modifiable=modifiable, category=category, setting=FUNCTIONAL_ONLY)


def ablation_mask(category: AttackCategory) -> FeatureMask:
    """Functional mask with the category's extra unmodified features frozen."""
    if category == AttackCategory.NORMAL:
        raise NoMaskForNormal("normal traffic has no perturbation mask")
    if category not in _ABLATION_EXTRA:
        raise NoAblationDefined(f"no ablation feature list for {category.value}")
    base = functional_mask(category)
    modifiable = base.modifiable.copy()
    for name in _ABLATION_EXTRA[category]:
        modifiable[FEATURE_INDEX[name]] = False
    return FeatureMask(modifiable=modifiable, category=category, setting=ABLATION)


def mask_for(category: AttackCategory, setting: str) -> FeatureMask:
    if setting == FUNCTIONAL_ONLY:
        return functional_mask(category)
    if setting == ABLATION:
        return ablation_mask(category)
    raise ValueError(f"unknown constraint setting: {setting!r}")


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
