import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlsc import masking as mk
from vlsc import synthdata as sd
from vlsc.errors import ConfigError, InputError


def caption(n_content, k_max=sd.K_MAX):
    ids = np.full(k_max, sd.PAD_ID, dtype=np.int64)
    ids[0] = sd.CLS_ID
    ids[1:1 + n_content] = np.arange(n_content) % 40 + 3
    return ids


class TestCounts:
    def test_round_half_up(self):
        assert mk.round_half_up(12.8) == 13
        assert mk.round_half_up(2.5) == 3
        assert mk.round_half_up(3.0) == 3
        assert mk.round_half_up(2.49) == 2

    def test_image_count_16_at_08(self):
        rng = np.random.default_rng(0)
        assert mk.plan_image_mask(1, 16, 0.8, rng).sum() == 13

    def test_zero_ratio_empty(self):
        rng = np.random.default_rng(0)
        mask = mk.plan_image_mask(2, 16, 0.0, rng)
        assert mask.shape == (2, 16)
        assert not mask.any()

    def test_floor_at_one(self):
        rng = np.random.default_rng(0)
        assert mk.plan_image_mask(1, 16, 0.01, rng).sum() == 1

    def test_ratio_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            mk.plan_image_mask(1, 16, 1.5, rng)
        with pytest.raises(ConfigError):
            mk.plan_image_mask(1, 16, -0.1, rng)

    @given(st.integers(1, 4), st.integers(1, 32),
           st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_count_formula_always_holds(self, m, n, ratio):
        rng = np.random.default_rng(1)
        got = mk.plan_image_mask(m, n, ratio, rng).sum()
        if ratio == 0.0:
            assert got == 0
        else:
            assert got == min(m * n, max(1, int(np.floor(ratio * m * n + 0.5))))


class TestImageMask:
    def test_indices_in_range(self):
        rng = np.random.default_rng(2)
        masked = mk.plan_image_mask(4, 16, 0.8, rng)
        assert masked.shape == (4, 16) and masked.dtype == bool
        assert masked.sum() == mk.round_half_up(0.8 * 64)

    def test_uniformity_monte_carlo(self):
        rng = np.random.default_rng(3)
        hits = np.zeros(16)
        draws = 10_000
        for _ in range(draws):
            hits += mk.plan_image_mask(1, 16, 0.5, rng)[0]
        freq = hits / draws
        assert np.all(np.abs(freq - 0.5) <= 0.02)


def changed_outside(ids, masked, picks):
    """True where masked differs from ids off the picked positions."""
    off = np.ones(len(ids), dtype=bool)
    off[picks] = False
    return np.any(masked[off] != ids[off])


def random_replacements(ids, vocab_size):
    """Count the random ids 2000 MLM draws put in, checking each lies in
    [3, vocab_size)."""
    rng = np.random.default_rng(6)
    seen = 0
    for _ in range(2000):
        masked, picks = mk.plan_mlm_mask(ids, rng, vocab_size=vocab_size)
        got, orig = masked[picks], ids[picks]
        rid = got[(got != sd.MASK_ID) & (got != orig)]
        assert np.all((rid >= 3) & (rid < vocab_size))
        seen += rid.size
    return seen


class TestMlmPlan:
    def test_count_20_content(self):
        ids = caption(20, k_max=24)
        rng = np.random.default_rng(0)
        _, picks = mk.plan_mlm_mask(ids, rng)
        assert len(picks) == 3

    def test_floor_at_one_small_caption(self):
        ids = caption(2)
        rng = np.random.default_rng(0)
        _, picks = mk.plan_mlm_mask(ids, rng)
        assert len(picks) == 1

    def test_reserved_positions_never_selected(self):
        ids = caption(6)
        rng = np.random.default_rng(4)
        for _ in range(500):
            masked, picks = mk.plan_mlm_mask(ids, rng)
            assert np.all(ids[picks] >= 3)
            assert np.all(np.diff(picks) > 0)   # sorted and unique
            assert not changed_outside(ids, masked, picks)

    def test_action_frequencies_30k(self):
        # a random content id equals the original 1 time in 61, and then
        # reads as kept
        ids = caption(20, k_max=24)
        rng = np.random.default_rng(5)
        n_mask = n_kept = n_random = 0
        for _ in range(30_000):
            masked, picks = mk.plan_mlm_mask(ids, rng)
            got, orig = masked[picks], ids[picks]
            n_mask += np.sum(got == sd.MASK_ID)
            n_kept += np.sum(got == orig)
            n_random += np.sum((got != sd.MASK_ID) & (got != orig))
        total = n_mask + n_kept + n_random
        assert total == 90_000
        assert abs(n_mask / total - 0.80) <= 0.01
        assert abs(n_kept / total - (0.10 + 0.10 / 61)) <= 0.01
        assert abs(n_random / total - (0.10 - 0.10 / 61)) <= 0.01

    def test_random_replacements_not_reserved(self):
        assert random_replacements(caption(14), 64) > 100

    def test_random_replacements_below_vocab_size(self):
        ids = caption(14)
        ids[ids >= 10] = 3
        assert random_replacements(ids, 10) > 100

    def test_masked_ids_follow_the_rule(self):
        ids = caption(10)
        masked, picks = mk.plan_mlm_mask(ids, np.random.default_rng(11))
        for pos in picks:
            assert (masked[pos] in (sd.MASK_ID, ids[pos])
                    or 3 <= masked[pos] < 64)
        assert not changed_outside(ids, masked, picks)

    def test_all_pad_raises(self):
        ids = np.zeros(8, dtype=np.int64)
        with pytest.raises(InputError):
            mk.plan_mlm_mask(ids, np.random.default_rng(0))

    def test_labels_recorded(self):
        # the caller reads the labels as ids[picks], so the planner must
        # leave its input as it was
        ids = caption(10)
        before = ids.copy()
        masked, picks = mk.plan_mlm_mask(ids, np.random.default_rng(7))
        np.testing.assert_array_equal(ids, before)
        assert masked is not ids
        assert picks.dtype.kind == "i" and len(picks) == 2

    def test_determinism(self):
        ids = caption(12)
        m1, p1 = mk.plan_mlm_mask(ids, np.random.default_rng(9))
        m2, p2 = mk.plan_mlm_mask(ids, np.random.default_rng(9))
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(p1, p2)


class TestSclPlan:
    def test_ten_content_04(self):
        ids = caption(10)
        masked = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(0))
        changed = masked != ids
        assert changed.sum() == 4
        assert np.all(masked[changed] == sd.MASK_ID)
        assert np.all(ids[changed] >= 3)

    def test_full_ratio_masks_all_content(self):
        ids = caption(7)
        masked = mk.plan_scl_text_mask(ids, 1.0, np.random.default_rng(1))
        assert masked[0] == sd.CLS_ID
        content = ids >= 3
        assert np.all(masked[content] == sd.MASK_ID)

    def test_untouched_positions_stable(self):
        ids = caption(10)
        before = ids.copy()
        masked = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(3))
        np.testing.assert_array_equal(ids, before)
        untouched = masked != sd.MASK_ID
        np.testing.assert_array_equal(masked[untouched], ids[untouched])
        assert untouched.sum() == len(ids) - 4

    def test_determinism(self):
        ids = caption(12)
        m1 = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(9))
        m2 = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(9))
        np.testing.assert_array_equal(m1, m2)

    def test_zero_ratio(self):
        ids = caption(5)
        masked = mk.plan_scl_text_mask(ids, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(masked, ids)
