import numpy as np
import pytest

from vlsc import synthdata as sd
from vlsc import tensor as T
from vlsc.encoders import VARIANTS, FusionOut
from vlsc.errors import ConfigError, InputError, ShapeError
from vlsc.gradcheck import grad_check
from vlsc.model import PretrainModel, fused_globals
from vlsc.tensor import Tensor
from vlsc.trainer import TrainConfig


def tiny_config(**kw):
    base = dict(embed_dim=8, heads=2, layers_v=1, layers_t=1, layers_f=1,
                patch_size=4, canvas=8, frames_m=2, phase="video",
                k_max=8, vocab_size=64, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def batch(n, m, cfg, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.uniform(size=(n, m, sd.CHANNELS, cfg.canvas, cfg.canvas))
    caps = np.stack([sd.tokenize("red square top left", cfg.k_max)
                     for _ in range(n)])
    # vary one word so captions are not all identical
    for i in range(n):
        caps[i, 1] = 3 + (i % 6)
    return frames, caps


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            TrainConfig(embed_dim=30, heads=4)

    def test_patch_divides_canvas(self):
        with pytest.raises(ConfigError):
            TrainConfig(canvas=18, patch_size=4)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="Exotic")

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.n_patches == 16 and cfg.grid_side == 4


class TestPatchifyEmbed:
    def test_output_shape(self):
        cfg = tiny_config()   # canvas 8, P 4 -> N 4
        model = PretrainModel(cfg)
        frames = np.zeros((1, 2, 3, 8, 8))
        g = model.vision.embed(frames)
        assert g.shape == (1, 2, 5, 8)

    def test_zero_image_all_zero_except_cls(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        reg = model.params
        reg["vision.pos_spatial"].data[:] = 0
        reg["vision.pos_temporal"].data[:] = 0
        g = model.vision.embed(np.zeros((1, 2, 3, 8, 8))).data
        np.testing.assert_allclose(g[:, :, 1:, :], 0.0)
        np.testing.assert_allclose(g[0, 0, 0], reg["vision.cls"].data)
        np.testing.assert_allclose(g[0, 1, 0], reg["vision.cls"].data)

    def test_temporal_embedding_difference(self):
        # same pixels, same spatial slot, different frames: tokens differ
        # exactly by the temporal embedding rows
        cfg = tiny_config(seed=1)
        model = PretrainModel(cfg)
        rng = np.random.default_rng(2)
        one = rng.uniform(size=(3, 8, 8))
        frames = np.stack([one, one])[None]
        g = model.vision.embed(frames).data
        et = model.params["vision.pos_temporal"].data
        for j in range(1, 5):
            np.testing.assert_allclose(g[0, 0, j] - g[0, 1, j],
                                       et[0] - et[1], atol=1e-12)

    def test_indivisible_dims_rejected(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        with pytest.raises(ShapeError):
            model.vision.embed(np.zeros((1, 1, 3, 9, 9)))

    def test_mask_substitution(self):
        cfg = tiny_config(seed=3)
        model = PretrainModel(cfg)
        frames = np.random.default_rng(0).uniform(size=(1, 1, 3, 8, 8))
        mask = np.zeros((1, 1, 4), dtype=bool)
        mask[0, 0, 2] = True
        g = model.vision.embed(frames, visual_mask=mask).data
        g_clean = model.vision.embed(frames).data
        reg = model.params
        expected = (reg["vision.mask_emb"].data
                    + reg["vision.pos_temporal"].data[0]
                    + reg["vision.pos_spatial"].data[3])
        np.testing.assert_allclose(g[0, 0, 3], expected, atol=1e-12)
        # unmasked slots untouched
        np.testing.assert_allclose(np.delete(g[0, 0], 3, axis=0),
                                   np.delete(g_clean[0, 0], 3, axis=0))


class TestVisualBlocks:
    def test_m1_shape_unchanged(self):
        cfg = tiny_config(frames_m=1)
        model = PretrainModel(cfg)
        frames = np.random.default_rng(1).uniform(size=(2, 1, 3, 8, 8))
        out = model.vision(frames)
        assert out.grid.shape == (2, 1, 5, 8)
        assert out.flat.shape == (2, 5, 8)

    def test_frame_permutation_equivariance_tied_temporal(self):
        cfg = tiny_config(layers_v=2, seed=4)
        model = PretrainModel(cfg)
        et = model.params["vision.pos_temporal"]
        et.data[:] = et.data[0]  # tie every temporal row
        frames = np.random.default_rng(5).uniform(size=(1, 2, 3, 8, 8))
        flipped = frames[:, ::-1].copy()
        a = model.vision(frames).grid.data
        b = model.vision(flipped).grid.data
        np.testing.assert_allclose(a, b[:, ::-1], atol=1e-10)

    def test_cross_frame_patch_isolation_single_block(self):
        # within one block, patch tokens of frame 0 ignore frame 1 pixels
        cfg = tiny_config(layers_v=1, seed=6)
        model = PretrainModel(cfg)
        rng = np.random.default_rng(7)
        frames = rng.uniform(size=(1, 2, 3, 8, 8))
        changed = frames.copy()
        changed[0, 1] = rng.uniform(size=(3, 8, 8))
        a = model.vision(frames).grid.data
        b = model.vision(changed).grid.data
        np.testing.assert_allclose(a[0, 0, 1:], b[0, 0, 1:], atol=1e-12)
        # while the frame-[CLS] does see the other frame (temporal path)
        assert np.abs(a[0, 0, 0] - b[0, 0, 0]).max() > 1e-9

    def test_too_many_frames(self):
        cfg = tiny_config(frames_m=2)
        model = PretrainModel(cfg)
        with pytest.raises(ShapeError):
            model.vision(np.zeros((1, 3, 3, 8, 8)))


class TestTextEncoder:
    def test_pad_embedding_never_leaks(self):
        cfg = tiny_config(seed=8)
        model = PretrainModel(cfg)
        ids = np.stack([sd.tokenize("red square", cfg.k_max)])
        base = model.text(ids).tokens.data.copy()
        model.params["text.tok_emb"].data[sd.PAD_ID] += 7.5
        after = model.text(ids).tokens.data
        real = ids[0] != sd.PAD_ID
        np.testing.assert_allclose(base[0][real], after[0][real], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_non_integer_ids_refused(self, dtype):
        cfg = tiny_config(seed=8)
        model = PretrainModel(cfg)
        ids = np.stack([sd.tokenize("red square", cfg.k_max)]).astype(dtype)
        with pytest.raises(ShapeError, match="token ids must be integers"):
            model.text(ids)

    def test_identical_captions_identical_outputs(self):
        cfg = tiny_config(seed=9)
        model = PretrainModel(cfg)
        ids = np.stack([sd.tokenize("blue bar bottom right", cfg.k_max)] * 2)
        out = model.text(ids).tokens.data
        np.testing.assert_array_equal(out[0], out[1])

    def test_word_order_matters(self):
        cfg = tiny_config(seed=10)
        model = PretrainModel(cfg)
        a = np.stack([sd.tokenize("red square", cfg.k_max)])
        b = np.stack([sd.tokenize("square red", cfg.k_max)])
        ga = model.text(a).enc_global.data
        gb = model.text(b).enc_global.data
        assert np.abs(ga - gb).max() > 1e-8

    def test_all_pad_rejected(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        with pytest.raises(InputError):
            model.text(np.zeros((1, cfg.k_max), dtype=np.int64))

    def test_out_of_vocab_rejected(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        ids = np.full((1, cfg.k_max), 99, dtype=np.int64)
        with pytest.raises(InputError):
            model.text(ids)


class TestFusion:
    def test_shapes_preserved_and_rows_sum_one(self):
        cfg = tiny_config(layers_f=2, seed=11)
        model = PretrainModel(cfg)
        frames, caps = batch(2, 2, cfg)
        out = model.forward(frames, caps)
        assert out.fusion.vision_tokens.shape == out.v_flat.shape
        assert out.fusion.text_tokens.shape == out.t_tokens.shape
        assert len(out.fusion.cross_attention) == cfg.layers_f
        for w in out.fusion.cross_attention:
            assert w.shape == (2, cfg.heads, cfg.k_max, out.v_flat.shape[1])
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_zero_value_projections_decouple_text(self):
        # with the vision stream's cross value/output projections zeroed,
        # vision output no longer depends on the caption
        cfg = tiny_config(layers_f=2, seed=12)
        model = PretrainModel(cfg)
        for l in range(cfg.layers_f):
            model.params[f"fusion.l{l}.v.cross.v.w"].data[:] = 0
            model.params[f"fusion.l{l}.v.cross.v.b"].data[:] = 0
            model.params[f"fusion.l{l}.v.cross.o.b"].data[:] = 0
        frames, caps_a = batch(2, 2, cfg, seed=1)
        _, caps_b = batch(2, 2, cfg, seed=2)
        caps_b[0, 2] = 9  # genuinely different text
        va = model.forward(frames, caps_a).fusion.vision_tokens.data
        vb = model.forward(frames, caps_b).fusion.vision_tokens.data
        np.testing.assert_allclose(va, vb, atol=1e-12)

    def test_eval_determinism(self):
        cfg = tiny_config(layers_f=2, seed=13)
        model = PretrainModel(cfg)
        frames, caps = batch(2, 2, cfg)
        a = model.forward(frames, caps)
        b = model.forward(frames, caps)
        np.testing.assert_array_equal(a.v_global.data, b.v_global.data)
        np.testing.assert_array_equal(a.t_global.data, b.t_global.data)


class TestDropoutRng:
    # with dropout on, a pass handed no generator draws nothing and needs
    # none
    def passes(self):
        cfg = tiny_config(dropout=0.1, seed=14)
        model = PretrainModel(cfg)
        frames, caps = batch(2, 2, cfg)
        vis = model.vision(frames)
        txt = model.text(caps)
        pv = model.fusion.prefix(vis.flat, "v")
        pt = model.fusion.prefix(txt.tokens, "t", txt.additive_mask)
        fusion, mask = model.fusion, txt.additive_mask
        return {
            "vision": lambda: model.vision(frames, rng=None),
            "text": lambda: model.text(caps, rng=None),
            "prefix-v": lambda: fusion.prefix(vis.flat, "v", rng=None),
            "prefix-t": lambda: fusion.prefix(txt.tokens, "t", mask,
                                              rng=None),
            "finish": lambda: fusion.finish(pv, pt, mask, rng=None),
        }

    SITES = ["vision", "text", "prefix-v", "prefix-t", "finish"]

    @pytest.mark.parametrize("site", SITES)
    def test_eval_without_rng_runs(self, site):
        self.passes()[site]()


def vision_global(model, tokens):
    """The fused vision global read from a (B, n_vis, D) stream."""
    text = Tensor(np.zeros((tokens.shape[0], 1, tokens.shape[-1])))
    return fused_globals(FusionOut(Tensor(tokens), text),
                         model.global_rows(tokens.shape[1]))[0]


class TestGlobals:
    def test_mean_of_identical_cls_is_that_vector(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        d, np1 = cfg.embed_dim, cfg.n_patches + 1
        vec = np.arange(d, dtype=np.float64)
        tokens = np.zeros((1, 2 * np1, d))
        tokens[0, 0] = vec
        tokens[0, np1] = vec
        out = vision_global(model, tokens)
        np.testing.assert_allclose(out.data[0], vec)

    def test_global_changes_with_any_frame_cls(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        d, np1 = cfg.embed_dim, cfg.n_patches + 1
        tokens = np.random.default_rng(3).normal(size=(1, 2 * np1, d))
        base = vision_global(model, tokens).data.copy()
        for frame in range(2):
            bumped = tokens.copy()
            bumped[0, frame * np1] += 1.0
            out = vision_global(model, bumped).data
            assert np.abs(out - base).max() > 1e-9

    # globals_only finishes the last fusion layer on the rows the globals
    # read alone; the globals must equal the full pass's within rounding,
    # at most 1e-12 of the largest entry, with no generator and with
    # dropout drawn from generators seeded alike
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("layers_f", [0, 1, 2])
    @pytest.mark.parametrize("b", [1, 3])
    def test_globals_only_equals_full_pass(self, variant, m, layers_f, b):
        cfg = tiny_config(variant=variant, frames_m=m, layers_f=layers_f,
                          embed_dim=32, heads=4, dropout=0.1, seed=22)
        model = PretrainModel(cfg)
        frames, caps = batch(b, m, cfg, seed=22)
        vis, txt = model.vision(frames), model.text(caps)
        n_vis = vis.flat.shape[1]
        # the frame [CLS] rows, or the global token, which has no frame
        if variant == "GlobalCLS":
            want = np.flatnonzero(vis.token_frames == -1)
        else:
            want = np.flatnonzero(vis.token_patches == -1)
        v_rows, t_rows = model.global_rows(n_vis)
        assert v_rows.tolist() == want.tolist() and t_rows.tolist() == [0]
        for drops in (False, True):
            full, only = (model.fuse_pair(
                vis.flat, txt.tokens, txt.additive_mask,
                rng=np.random.default_rng(5) if drops else None,
                globals_only=g)[1:]
                for g in (False, True))
            for a, c in zip(full, only):
                assert a.shape == (b, cfg.embed_dim)
                assert np.max(np.abs(c.data - a.data)) \
                    <= 1e-12 * np.max(np.abs(a.data))

    def test_m1_framecls_equals_meanpooling_with_copied_weights(self):
        mp = PretrainModel(tiny_config(variant="MeanPooling", frames_m=1,
                                       seed=14))
        fc = PretrainModel(tiny_config(variant="FrameCLS", frames_m=1,
                                       seed=15))
        state = {name: t.data for name, t in mp.params.items()}
        for name, t in fc.params.items():
            if name in state:
                t.data[:] = state[name]
            else:
                # FrameCLS-only temporal attention takes the spatial weights
                assert ".temporal." in name
                t.data[:] = state[name.replace(".temporal.", ".spatial.")]
        frames, caps = batch(2, 1, mp.config, seed=4)
        np.testing.assert_allclose(
            fc.forward(frames, caps).v_enc_global.data,
            mp.forward(frames, caps).v_enc_global.data, atol=1e-12)


class TestVariants:
    @pytest.mark.parametrize("variant", ["FrameCLS", "MeanPooling",
                                         "GlobalCLS"])
    def test_forward_shapes(self, variant):
        cfg = tiny_config(variant=variant, layers_v=2, seed=16)
        model = PretrainModel(cfg)
        frames, caps = batch(2, 2, cfg)
        out = model.forward(frames, caps)
        n_vis = 2 * (cfg.n_patches + 1) + (1 if variant == "GlobalCLS" else 0)
        assert out.v_flat.shape == (2, n_vis, cfg.embed_dim)
        assert out.v_global.shape == (2, cfg.embed_dim)
        assert out.token_frames.shape == (n_vis,)
        n = cfg.n_patches
        # per frame: one [CLS] (patch -1) then patches 0..N-1
        for frame in range(2):
            start = frame * (n + 1)
            assert out.token_patches[start] == -1
            assert out.token_frames[start] == frame
            np.testing.assert_array_equal(
                out.token_patches[start + 1: start + 1 + n], np.arange(n))
        if variant == "GlobalCLS":
            assert out.token_frames[-1] == -1 and out.token_patches[-1] == -1

    def test_meanpooling_has_no_cross_frame_flow(self):
        cfg = tiny_config(variant="MeanPooling", layers_v=2, seed=17)
        model = PretrainModel(cfg)
        rng = np.random.default_rng(18)
        frames = rng.uniform(size=(1, 2, 3, 8, 8))
        changed = frames.copy()
        changed[0, 1] = rng.uniform(size=(3, 8, 8))
        a = model.vision(frames).grid.data
        b = model.vision(changed).grid.data
        np.testing.assert_allclose(a[0, 0], b[0, 0], atol=1e-12)

    def test_globalcls_global_sees_all_frames(self):
        cfg = tiny_config(variant="GlobalCLS", layers_v=2, seed=19)
        model = PretrainModel(cfg)
        rng = np.random.default_rng(20)
        frames = rng.uniform(size=(1, 2, 3, 8, 8))
        changed = frames.copy()
        changed[0, 1] = rng.uniform(size=(3, 8, 8))
        a = model.vision(frames).enc_global.data
        b = model.vision(changed).enc_global.data
        assert np.abs(a - b).max() > 1e-9


class TestEndToEndGradients:
    def test_patchify_blocks_fuse_scalar(self):
        cfg = tiny_config(seed=21)
        model = PretrainModel(cfg)
        frames, caps = batch(2, 2, cfg, seed=5)
        w = np.random.default_rng(6).normal(size=(2, cfg.embed_dim))

        def loss():
            out = model.forward(frames, caps)
            # mean-scale readout keeps |loss| near 1 so finite-difference
            # cancellation noise stays far below the 1e-4 bar
            return (out.v_global * Tensor(w)).mean() \
                + (out.t_global * Tensor(w)).mean()

        err = grad_check(loss, model.params, eps=2e-4, max_elements=96,
                         seed=0)
        assert err <= 1e-4

    def test_forward_count_increments(self):
        cfg = tiny_config()
        model = PretrainModel(cfg)
        frames, caps = batch(1, 1, cfg)
        assert model.forward_count == 0
        model.forward(frames, caps)
        model.forward(frames, caps)
        assert model.forward_count == 2
