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
        assert len(mk.plan_image_mask(1, 16, 0.8, rng)) == 13

    def test_zero_ratio_empty(self):
        rng = np.random.default_rng(0)
        assert mk.plan_image_mask(2, 16, 0.0, rng) == frozenset()

    def test_floor_at_one(self):
        rng = np.random.default_rng(0)
        assert len(mk.plan_image_mask(1, 16, 0.01, rng)) == 1

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
        got = len(mk.plan_image_mask(m, n, ratio, rng))
        if ratio == 0.0:
            assert got == 0
        else:
            assert got == min(m * n, max(1, int(np.floor(ratio * m * n + 0.5))))


class TestImageMask:
    def test_indices_in_range(self):
        rng = np.random.default_rng(2)
        masked = mk.plan_image_mask(4, 16, 0.8, rng)
        assert len(masked) == mk.round_half_up(0.8 * 64)
        for f, p in masked:
            assert 0 <= f < 4 and 0 <= p < 16

    def test_uniformity_monte_carlo(self):
        rng = np.random.default_rng(3)
        hits = np.zeros(16)
        draws = 10_000
        for _ in range(draws):
            for f, p in mk.plan_image_mask(1, 16, 0.5, rng):
                hits[p] += 1
        freq = hits / draws
        assert np.all(np.abs(freq - 0.5) <= 0.02)


class TestMlmPlan:
    def test_count_20_content(self):
        ids = caption(20, k_max=24)
        rng = np.random.default_rng(0)
        plan = mk.plan_mlm_mask(ids, rng)
        assert len(plan.text_actions) == 3

    def test_floor_at_one_small_caption(self):
        ids = caption(2)
        rng = np.random.default_rng(0)
        plan = mk.plan_mlm_mask(ids, rng)
        assert len(plan.text_actions) == 1

    def test_reserved_positions_never_selected(self):
        ids = caption(6)
        rng = np.random.default_rng(4)
        for _ in range(500):
            plan = mk.plan_mlm_mask(ids, rng)
            for pos in plan.text_actions:
                assert ids[pos] >= 3

    def test_action_frequencies_30k(self):
        ids = caption(20, k_max=24)
        rng = np.random.default_rng(5)
        counts = {mk.MASK_TOKEN: 0, mk.RANDOM_TOKEN: 0, mk.KEEP: 0}
        total = 0
        for _ in range(30_000):
            plan = mk.plan_mlm_mask(ids, rng)
            for action in plan.text_actions.values():
                counts[action] += 1
                total += 1
        assert abs(counts[mk.MASK_TOKEN] / total - 0.80) <= 0.01
        assert abs(counts[mk.RANDOM_TOKEN] / total - 0.10) <= 0.01
        assert abs(counts[mk.KEEP] / total - 0.10) <= 0.01

    def test_random_replacements_not_reserved(self):
        ids = caption(14)
        rng = np.random.default_rng(6)
        seen = 0
        for _ in range(2000):
            plan = mk.plan_mlm_mask(ids, rng)
            for rid in plan.random_ids.values():
                assert 3 <= rid < 64
                seen += 1
        assert seen > 100

    def test_all_pad_raises(self):
        ids = np.zeros(8, dtype=np.int64)
        with pytest.raises(InputError):
            mk.plan_mlm_mask(ids, np.random.default_rng(0))

    def test_labels_recorded(self):
        ids = caption(10)
        plan = mk.plan_mlm_mask(ids, np.random.default_rng(7))
        for pos, orig in plan.original_ids.items():
            assert orig == ids[pos]
        assert set(plan.original_ids) == set(plan.text_actions)


class TestSclPlan:
    def test_ten_content_04(self):
        ids = caption(10)
        plan = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(0))
        assert len(plan.text_actions) == 4
        assert all(a == mk.SCL_MASK for a in plan.text_actions.values())

    def test_full_ratio_masks_all_content(self):
        ids = caption(7)
        plan = mk.plan_scl_text_mask(ids, 1.0, np.random.default_rng(1))
        masked = mk.apply_text_plan(ids, plan)
        assert masked[0] == sd.CLS_ID
        content = ids >= 3
        assert np.all(masked[content] == sd.MASK_ID)

    def test_determinism(self):
        ids = caption(12)
        p1 = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(9))
        p2 = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(9))
        assert p1.text_actions == p2.text_actions

    def test_zero_ratio(self):
        ids = caption(5)
        plan = mk.plan_scl_text_mask(ids, 0.0, np.random.default_rng(0))
        assert plan.text_actions == {}


class TestApplyRevert:
    def test_apply_respects_actions(self):
        ids = caption(10)
        rng = np.random.default_rng(11)
        plan = mk.plan_mlm_mask(ids, rng)
        masked = mk.apply_text_plan(ids, plan)
        for pos, action in plan.text_actions.items():
            if action == mk.MASK_TOKEN:
                assert masked[pos] == sd.MASK_ID
            elif action == mk.RANDOM_TOKEN:
                assert masked[pos] == plan.random_ids[pos]
            else:
                assert masked[pos] == ids[pos]

    def test_untouched_positions_stable(self):
        ids = caption(10)
        plan = mk.plan_scl_text_mask(ids, 0.4, np.random.default_rng(3))
        masked = mk.apply_text_plan(ids, plan)
        untouched = [i for i in range(len(ids))
                     if i not in plan.text_actions]
        np.testing.assert_array_equal(masked[untouched], ids[untouched])
