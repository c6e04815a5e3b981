"""Modifiability masks and adversarial post-processing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evadegan import masks, nslkdd
from evadegan.masks import (
    ABLATION,
    FUNCTIONAL_ONLY,
    NoAblationDefined,
    NoMaskForNormal,
    ablation_mask,
    apply_mask_batch,
    functional_mask,
    mask_for,
    postprocess,
)
from evadegan.nslkdd import FEATURE_TABLE, AttackCategory


def indices_of_set(fset):
    return [i for i, (_, _, s) in enumerate(FEATURE_TABLE) if s == fset]


class TestFunctionalMask:
    def test_dos_frees_content_and_host(self):
        m = functional_mask(AttackCategory.DOS)
        assert m.modifiable.sum() == 23
        for i in indices_of_set(nslkdd.CONTENT):
            assert m.modifiable[i]
        for i in indices_of_set(nslkdd.HOST_BASED):
            assert m.modifiable[i]

    def test_u2r_and_r2l_free_time_and_host(self):
        for cat in (AttackCategory.U2R, AttackCategory.R2L):
            m = functional_mask(cat)
            assert m.modifiable.sum() == 19
            for i in indices_of_set(nslkdd.TIME_BASED):
                assert m.modifiable[i]
            for i in indices_of_set(nslkdd.HOST_BASED):
                assert m.modifiable[i]

    def test_u2r_r2l_masks_identical(self):
        assert np.array_equal(
            functional_mask(AttackCategory.U2R).modifiable,
            functional_mask(AttackCategory.R2L).modifiable,
        )

    def test_probe_frees_content_only(self):
        m = functional_mask(AttackCategory.PROBE)
        assert m.modifiable.sum() == 13
        free = {i for i in range(41) if m.modifiable[i]}
        assert free == set(indices_of_set(nslkdd.CONTENT))

    @pytest.mark.parametrize(
        "cat", [AttackCategory.DOS, AttackCategory.PROBE, AttackCategory.U2R, AttackCategory.R2L]
    )
    def test_intrinsic_never_modifiable(self, cat):
        m = functional_mask(cat)
        for i in indices_of_set(nslkdd.INTRINSIC):
            assert not m.modifiable[i]

    @pytest.mark.parametrize(
        "cat", [AttackCategory.DOS, AttackCategory.PROBE, AttackCategory.U2R, AttackCategory.R2L]
    )
    def test_multi_valued_features_never_modifiable(self, cat):
        m = functional_mask(cat)
        for i in nslkdd.SYMBOLIC_INDICES:
            assert not m.modifiable[i]

    def test_normal_has_no_mask(self):
        with pytest.raises(NoMaskForNormal):
            functional_mask(AttackCategory.NORMAL)


class TestAblationMask:
    def test_dos_count(self):
        assert ablation_mask(AttackCategory.DOS).modifiable.sum() == 23 - 12

    def test_u2r_count(self):
        assert ablation_mask(AttackCategory.U2R).modifiable.sum() == 19 - 9

    def test_probe_has_no_ablation(self):
        with pytest.raises(NoAblationDefined):
            ablation_mask(AttackCategory.PROBE)

    @pytest.mark.parametrize("cat", [AttackCategory.DOS, AttackCategory.U2R, AttackCategory.R2L])
    def test_proper_subset_of_functional(self, cat):
        fun = functional_mask(cat).modifiable
        abl = ablation_mask(cat).modifiable
        assert (abl & ~fun).sum() == 0  # nothing newly freed
        assert abl.sum() < fun.sum()  # strictly fewer features free

    def test_dos_frozen_names(self):
        m = ablation_mask(AttackCategory.DOS)
        for name in ("hot", "logged_in", "dst_host_count", "dst_host_serror_rate"):
            assert not m.modifiable[nslkdd.FEATURE_INDEX[name]]
        # a content feature not on the extra list stays modifiable
        assert m.modifiable[nslkdd.FEATURE_INDEX["num_shells"]]


class TestApplyMask:
    def _rows(self, n=4, seed=0):
        return np.random.default_rng(seed).random((n, 41))

    def test_all_frozen_is_identity(self):
        original = self._rows()
        mask = masks.FeatureMask(
            modifiable=np.zeros(41, dtype=bool),
            category=AttackCategory.DOS,
            setting=FUNCTIONAL_ONLY,
        )
        out = apply_mask_batch(original, np.ones((4, 41)), mask)
        assert np.array_equal(out, original)

    def test_generated_equals_original_is_identity(self):
        original = self._rows()
        mask = functional_mask(AttackCategory.DOS)
        out = apply_mask_batch(original, original.copy(), mask)
        assert np.array_equal(out, original)

    def test_elementwise_selection(self):
        original = self._rows()
        mask = functional_mask(AttackCategory.DOS)
        generated = self._rows(seed=1)
        out = apply_mask_batch(original, generated, mask)
        for r in range(4):
            for i in range(41):
                expected = generated[r, i] if mask.modifiable[i] else original[r, i]
                assert out[r, i] == expected

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        originals = rng.random((8, 41))
        generated = rng.random((8, 41))
        mask = functional_mask(AttackCategory.U2R)
        batch = apply_mask_batch(originals, generated, mask)
        for r in range(8):
            single = apply_mask_batch(originals[r : r + 1], generated[r : r + 1], mask)
            assert np.array_equal(batch[r], single[0])


class TestPostprocess:
    def test_clamps_out_of_range(self):
        i = nslkdd.FEATURE_INDEX["duration"]
        vec = np.full(41, 0.5)
        vec[i] = 1.3
        out = postprocess(vec)
        assert out[i] == 1.0
        vec[i] = -0.2
        assert postprocess(vec)[i] == 0.0

    def test_binary_threshold(self):
        i = nslkdd.FEATURE_INDEX["logged_in"]
        vec = np.full(41, 0.5)
        vec[i] = 0.5
        assert postprocess(vec)[i] == 1.0  # tie goes to 1
        vec[i] = 0.4999
        assert postprocess(vec)[i] == 0.0

    def test_continuous_untouched(self):
        i = nslkdd.FEATURE_INDEX["serror_rate"]
        vec = np.full(41, 0.0)
        vec[i] = 0.73
        assert postprocess(vec)[i] == 0.73

    def test_all_binary_exactly_zero_or_one(self, schema):
        rng = np.random.default_rng(3)
        batch = rng.uniform(-0.5, 1.5, size=(64, 41))
        out = postprocess(batch)
        assert out.min() >= 0.0 and out.max() <= 1.0
        for i in schema.binary_indices:
            assert np.isin(out[:, i], (0.0, 1.0)).all()


class TestAudit:
    def test_mask_export_lists_every_feature(self):
        text = functional_mask(AttackCategory.DOS).to_text()
        lines = text.strip().splitlines()
        assert len(lines) == 42  # header + 41 features
        assert "serror_rate\tfrozen" in text
        assert "dst_host_serror_rate\tmodifiable" in text


# Every (category, setting) pair that has a mask.
_MASKED_CELLS = [
    (category, setting)
    for category in AttackCategory
    if category != AttackCategory.NORMAL
    for setting in (FUNCTIONAL_ONLY, ABLATION)
    if not (category == AttackCategory.PROBE and setting == ABLATION)
]


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cell=st.sampled_from(_MASKED_CELLS))
    def test_masked_postprocessed_output_keeps_every_constraint(self, schema, data, cell):
        """Arbitrary finite generator output, even outside [0,1], cannot break a constraint."""
        n = data.draw(st.integers(1, 8))
        binary = list(schema.binary_indices)
        originals = data.draw(arrays(np.float64, (n, 41), elements=st.floats(0.0, 1.0)))
        originals[:, binary] = data.draw(arrays(np.bool_, (n, len(binary))))
        generated = data.draw(
            arrays(np.float64, (n, 41), elements=st.floats(allow_nan=False, allow_infinity=False))
        )
        mask = mask_for(*cell)

        out = postprocess(apply_mask_batch(originals, generated, mask))

        frozen = ~mask.modifiable
        assert np.array_equal(out[:, frozen].view(np.uint64), originals[:, frozen].view(np.uint64))
        assert ((out >= 0.0) & (out <= 1.0)).all()
        assert np.isin(out[:, binary], (0.0, 1.0)).all()
