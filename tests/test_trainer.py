import json
import math
import struct

import numpy as np
import pytest

from vlsc import synthdata as sd
from vlsc import trainer as tr
from vlsc.errors import ConfigError, InputError, NumericError, ShapeError
from vlsc.model import PretrainModel
from vlsc.tensor import ParamRegistry


def tiny_train_config(**kw):
    base = dict(total_steps=3, batch=2, base_lr=1e-3, seed=5,
                embed_dim=8, heads=2, layers_v=1, layers_t=1, layers_f=1,
                patch_size=4, canvas=16, k_max=16, vocab_size=64)
    base.update(kw)
    return tr.TrainConfig(**base)


class TestSchedule:
    def test_step_zero_is_zero(self):
        cfg = tr.TrainConfig(total_steps=1000, base_lr=1e-3)
        assert tr.lr_at(0, cfg) == (0.0, 0.0)

    def test_warmup_peak(self):
        cfg = tr.TrainConfig(total_steps=1000, base_lr=1e-3)
        enc, fus = tr.lr_at(100, cfg)
        assert enc == 1e-3
        assert fus == 5e-3

    def test_decay_midpoint(self):
        # halfway through the decay span: (1000-550)/(1000-100) = 0.5
        cfg = tr.TrainConfig(total_steps=1000, base_lr=1e-3)
        enc, _ = tr.lr_at(550, cfg)
        assert abs(enc - 5e-4) <= 1e-19

    def test_end_is_zero(self):
        cfg = tr.TrainConfig(total_steps=1000, base_lr=1e-3)
        assert tr.lr_at(1000, cfg) == (0.0, 0.0)

    def test_fusion_multiple_everywhere(self):
        cfg = tr.TrainConfig(total_steps=200, base_lr=3e-3)
        for step in range(0, 201, 7):
            enc, fus = tr.lr_at(step, cfg)
            assert fus == cfg.fusion_lr_multiplier * enc
            if enc > 0.0:
                assert math.isclose(fus / enc, 5.0, rel_tol=1e-12)

    def test_shape_up_then_down(self):
        cfg = tr.TrainConfig(total_steps=100, base_lr=1e-3)
        lrs = [tr.lr_at(s, cfg)[0] for s in range(101)]
        peak = int(np.argmax(lrs))
        assert peak == 10
        assert all(a < b for a, b in zip(lrs[:10], lrs[1:11]))
        assert all(a > b for a, b in zip(lrs[10:-1], lrs[11:]))

    def test_out_of_range(self):
        cfg = tr.TrainConfig(total_steps=10)
        with pytest.raises(InputError):
            tr.lr_at(-1, cfg)
        with pytest.raises(InputError):
            tr.lr_at(11, cfg)

    def test_group_split(self):
        assert tr.is_fast_group("fusion.l0.v.self.q.w")
        assert tr.is_fast_group("head.mlm.w")
        assert not tr.is_fast_group("vision.patch.w")
        assert not tr.is_fast_group("text.emb")


class TestConfigValidation:
    def test_warmup_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                tr.TrainConfig(warmup_fraction=bad)

    def test_vtm_needs_pairs(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(batch=1, vtm=True)
        tr.TrainConfig(batch=1, vtm=False)  # fine without matching

    def test_image_phase_single_frame(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(phase="image", frames_m=2)
        tr.TrainConfig(phase="video", frames_m=2)

    def test_unknown_phase(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(phase="audio")


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_train_config(base_lr=2.5e-3, scl=False,
                                image_mask_ratio=0.7, variant="GlobalCLS")
        p = tmp_path / "run.cfg"
        tr.save_config(cfg, p)
        assert tr.load_config(p) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps = 42\nbase_lr = 1e-4\n")
        cfg = tr.load_config(p)
        assert cfg.total_steps == 42
        assert cfg.base_lr == 1e-4
        assert cfg.batch == tr.TrainConfig().batch

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\n\nseed = 9  # trailing\n")
        assert tr.load_config(p).seed == 9

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate = 1e-3\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            tr.load_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps = soon\n")
        with pytest.raises(ConfigError):
            tr.load_config(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("scl = maybe\n")
        with pytest.raises(ConfigError):
            tr.load_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps 10\n")
        with pytest.raises(ConfigError):
            tr.load_config(p)


class TestAdamW:
    def test_zero_grad_pure_decay(self):
        # decoupled decay: theta' = theta * (1 - lr*wd) when grad is 0
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0, -3.0]))
        p.grad = np.zeros(2)
        opt = tr.AdamW(reg, weight_decay=0.01)
        opt.step(0.1, 0.5)
        expect = np.array([2.0, -3.0]) * (1.0 - 0.1 * 0.01)
        assert np.max(np.abs(p.data - expect)) <= 1e-15

    def test_none_grad_same_as_zero(self):
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0]))
        p.grad = None
        opt = tr.AdamW(reg, weight_decay=0.01)
        opt.step(0.1, 0.5)
        assert abs(p.data[0] - 2.0 * (1.0 - 0.001)) <= 1e-15

    def test_first_step_closed_form(self):
        # bias-corrected first step: update = g / (|g| + eps)
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0]))
        p.grad = np.array([3.0])
        opt = tr.AdamW(reg, weight_decay=0.0)
        opt.step(0.1, 0.5)
        expect = 2.0 - 0.1 * (3.0 / (3.0 + 1e-8))
        assert abs(p.data[0] - expect) <= 1e-15

    def test_two_steps_closed_form(self):
        # constant gradient g: after bias correction the update stays
        # g / (|g| + eps) for every step, so two steps move 2*lr
        reg = ParamRegistry()
        p = reg.register("w", np.array([1.0]))
        opt = tr.AdamW(reg, weight_decay=0.0)
        for _ in range(2):
            p.grad = np.array([2.0])
            opt.step(0.01, 0.05)
        assert abs(p.data[0] - (1.0 - 2 * 0.01 * (2.0 / (2.0 + 1e-8)))) \
            <= 1e-12

    def test_group_rates(self):
        reg = ParamRegistry()
        a = reg.register("vision.w", np.array([1.0]))
        b = reg.register("fusion.w", np.array([1.0]))
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt = tr.AdamW(reg, weight_decay=0.0)
        opt.step(0.01, 0.05)
        da, db = 1.0 - a.data[0], 1.0 - b.data[0]
        assert math.isclose(db / da, 5.0, rel_tol=1e-9)

    def test_moments_shapes_cover_all_params(self):
        model = PretrainModel(tiny_train_config().to_model_config(), seed=0)
        opt = tr.AdamW(model.params)
        assert set(opt.m) == set(model.params.names())
        for n, p in model.params.items():
            assert opt.m[n].shape == p.data.shape


class TestClip:
    def test_scales_to_unit_norm(self):
        reg = ParamRegistry()
        a = reg.register("a", np.zeros(1))
        b = reg.register("b", np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = tr.clip_global_norm(reg, 1.0)
        assert norm == 5.0
        assert abs(a.grad[0] - 0.6) <= 1e-15
        assert abs(b.grad[0] - 0.8) <= 1e-15

    def test_small_gradients_untouched(self):
        reg = ParamRegistry()
        a = reg.register("a", np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        norm = tr.clip_global_norm(reg, 1.0)
        assert norm == 0.5
        assert np.array_equal(a.grad, [0.3, 0.4])

    def test_none_grads_skipped(self):
        reg = ParamRegistry()
        reg.register("a", np.zeros(2))
        assert tr.clip_global_norm(reg, 1.0) == 0.0


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = tr.init_checkpoint(tiny_train_config())
        p1, p2 = tmp_path / "a.vlsc", tmp_path / "b.vlsc"
        tr.save_checkpoint(ckpt, p1)
        tr.save_checkpoint(tr.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_restores_everything(self, tmp_path):
        cfg = tiny_train_config(scl=False, base_lr=7e-4)
        ckpt = tr.init_checkpoint(cfg)
        ckpt.params[sorted(ckpt.params)[0]][...] = 1.25
        ckpt.m[sorted(ckpt.m)[3]][...] = -0.5
        ckpt.t, ckpt.step = 7, 9
        path = tmp_path / "c.vlsc"
        tr.save_checkpoint(ckpt, path)
        back = tr.load_checkpoint(path)
        assert back.config == cfg
        assert back.t == 7 and back.step == 9
        for name in ckpt.params:
            assert np.array_equal(back.params[name], ckpt.params[name])
            assert np.array_equal(back.m[name], ckpt.m[name])
            assert np.array_equal(back.v[name], ckpt.v[name])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.vlsc"
        p.write_bytes(b"not a checkpoint at all")
        with pytest.raises(InputError):
            tr.load_checkpoint(p)

    def test_truncated(self, tmp_path):
        ckpt = tr.init_checkpoint(tiny_train_config())
        p = tmp_path / "x.vlsc"
        tr.save_checkpoint(ckpt, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(InputError):
            tr.load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        ckpt = tr.init_checkpoint(tiny_train_config())
        p = tmp_path / "x.vlsc"
        tr.save_checkpoint(ckpt, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(InputError):
            tr.load_checkpoint(p)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("arrays"),
        lambda h: h.pop("config"),
        lambda h: h["config"].update(no_such_key=1),
        lambda h: h.pop("step"),
        lambda h: h["arrays"][0].pop("kind"),
        lambda h: h["arrays"][0].pop("name"),
        lambda h: h["arrays"][0].pop("shape"),
        lambda h: h["arrays"][0].update(kind="q"),
        lambda h: h["arrays"][0].update(shape=[-1, -1]),
        lambda h: h.update(arrays=None),
    ])
    def test_malformed_header(self, tmp_path, edit):
        p = tmp_path / "x.vlsc"
        tr.save_checkpoint(tr.init_checkpoint(tiny_train_config()), p)
        data = p.read_bytes()
        off = len(tr.CKPT_MAGIC) + 8
        (hlen,) = struct.unpack_from("<Q", data, off - 8)
        header = json.loads(data[off:off + hlen])
        edit(header)
        raw = json.dumps(header).encode()
        p.write_bytes(tr.CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw
                      + data[off + hlen:])
        with pytest.raises(InputError):
            tr.load_checkpoint(p)

    def test_build_model_bit_exact(self):
        ckpt = tr.init_checkpoint(tiny_train_config())
        model, opt = tr.build_model(ckpt)
        for name, p in model.params.items():
            assert np.array_equal(p.data, ckpt.params[name])
        assert opt.t == 0


def small_corpus(n=4, frames_m=1, seed=0):
    return sd.generate_corpus(n, frames_m=frames_m, seed=seed)


class TestTrainLoop:
    def test_zero_steps_equals_init(self):
        cfg = tiny_train_config(total_steps=0)
        final, metrics = tr.train(cfg, small_corpus())
        init = tr.init_checkpoint(cfg)
        assert metrics == []
        assert final.step == 0 and final.t == 0
        for name in init.params:
            assert np.array_equal(final.params[name], init.params[name])
            assert np.array_equal(final.m[name], init.m[name])

    def test_deterministic_rerun(self, tmp_path):
        cfg = tiny_train_config(total_steps=3)
        corpus = small_corpus()
        a, la = tr.train(cfg, corpus, out_dir=tmp_path / "a")
        b, lb = tr.train(cfg, corpus, out_dir=tmp_path / "b")
        assert la == lb
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        fa = (tmp_path / "a" / "metrics.txt").read_bytes()
        fb = (tmp_path / "b" / "metrics.txt").read_bytes()
        assert fa == fb

    def test_metrics_format(self, tmp_path):
        cfg = tiny_train_config(total_steps=3, scl=False)
        _, metrics = tr.train(cfg, small_corpus(), out_dir=tmp_path)
        assert len(metrics) == 3
        lines = (tmp_path / "metrics.txt").read_text().splitlines()
        assert lines[0] == tr.METRICS_HEADER.rstrip("\n")
        assert lines[1:] == metrics
        for i, line in enumerate(metrics, start=1):
            parts = line.split()
            assert len(parts) == 7
            assert int(parts[0]) == i
            assert parts[4] == "nan"  # scl disabled
            enc, _ = tr.lr_at(i, cfg)
            assert float(parts[6]) == enc

    def test_resume_matches_straight_run(self, tmp_path):
        cfg = tiny_train_config(total_steps=8, checkpoint_interval=4)
        corpus = small_corpus()
        straight, lines = tr.train(cfg, corpus, out_dir=tmp_path / "full")
        mid = tr.load_checkpoint(tmp_path / "full" / "ckpt_step4.vlsc")
        resumed, tail = tr.train(cfg, corpus, resume=mid)
        assert tail == lines[4:]
        for name in straight.params:
            assert np.array_equal(resumed.params[name],
                                  straight.params[name])
            assert np.array_equal(resumed.v[name], straight.v[name])
        assert resumed.t == straight.t

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_with_diagnostic(self, tmp_path):
        cfg = tiny_train_config(total_steps=2)
        ckpt = tr.init_checkpoint(cfg)
        poison = sorted(ckpt.params)[0]
        ckpt.params[poison][...] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            tr.train(cfg, small_corpus(), out_dir=tmp_path, resume=ckpt)
        assert (tmp_path / "ckpt_diagnostic.vlsc").exists()

    def test_loss_moves(self):
        # two steps with a generous rate must change the parameters
        cfg = tiny_train_config(total_steps=2, base_lr=1e-2)
        final, _ = tr.train(cfg, small_corpus())
        init = tr.init_checkpoint(cfg)
        moved = sum(
            0.0 + np.sum((final.params[n] - init.params[n]) ** 2)
            for n in init.params)
        assert moved > 0.0

    def test_empty_corpus(self):
        with pytest.raises(InputError):
            tr.train(tiny_train_config(), [])

    def test_corpus_shape_mismatch(self):
        cfg = tiny_train_config()
        with pytest.raises(ShapeError):
            tr.train(cfg, small_corpus(frames_m=2))

    def test_resume_dim_mismatch(self):
        donor = tr.init_checkpoint(tiny_train_config(embed_dim=16))
        with pytest.raises(ConfigError):
            tr.train(tiny_train_config(), small_corpus(), resume=donor)

    def test_resume_past_end(self):
        cfg = tiny_train_config(total_steps=2)
        ckpt = tr.init_checkpoint(cfg)
        ckpt.step = 5
        with pytest.raises(ConfigError):
            tr.train(cfg, small_corpus(), resume=ckpt)


class TestBatching:
    def test_without_replacement_when_possible(self):
        idx = tr.batch_indices(8, 8, seed=0, step=1)
        assert sorted(idx.tolist()) == list(range(8))

    def test_with_replacement_when_needed(self):
        idx = tr.batch_indices(2, 6, seed=0, step=1)
        assert idx.shape == (6,)
        assert set(idx.tolist()) <= {0, 1}

    def test_step_keyed(self):
        a = tr.batch_indices(32, 8, seed=0, step=1)
        b = tr.batch_indices(32, 8, seed=0, step=2)
        c = tr.batch_indices(32, 8, seed=0, step=1)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestCurriculum:
    def test_same_frames_identical(self):
        img = tr.init_checkpoint(tiny_train_config(seed=3))
        video_cfg = tiny_train_config(phase="video", frames_m=1, seed=11)
        out = tr.curriculum_transfer(img, video_cfg)
        assert out.step == 0 and out.t == 0
        for name in img.params:
            assert np.array_equal(out.params[name], img.params[name])

    def test_temporal_rows(self):
        img = tr.init_checkpoint(tiny_train_config(seed=3))
        video_cfg = tiny_train_config(phase="video", frames_m=3, seed=11)
        out = tr.curriculum_transfer(img, video_cfg)
        pt = out.params["vision.pos_temporal"]
        assert pt.shape[0] == 3
        assert np.array_equal(pt[0], img.params["vision.pos_temporal"][0])
        # the fresh rows come from the video-seed init, not the copy
        assert not np.array_equal(pt[1], pt[0])
        assert not np.array_equal(pt[2], pt[0])
        for name in img.params:
            if name == "vision.pos_temporal":
                continue
            assert np.array_equal(out.params[name], img.params[name])
        for name in out.m:
            assert not out.m[name].any()

    def test_rejects_multiframe_source(self):
        vid = tr.init_checkpoint(
            tiny_train_config(phase="video", frames_m=2))
        with pytest.raises(ConfigError):
            tr.curriculum_transfer(vid, tiny_train_config(phase="video",
                                                          frames_m=4))

    def test_rejects_dim_mismatch(self):
        img = tr.init_checkpoint(tiny_train_config())
        bad = tiny_train_config(phase="video", frames_m=2, embed_dim=16)
        with pytest.raises(ConfigError):
            tr.curriculum_transfer(img, bad)

    def test_tied_rows_give_equal_frame_outputs(self):
        # with every temporal row tied and identical frames, nothing
        # distinguishes the frame axis, so fused frame summaries match
        img = tr.init_checkpoint(tiny_train_config(seed=3))
        video_cfg = tiny_train_config(phase="video", frames_m=3, seed=11)
        out = tr.curriculum_transfer(img, video_cfg)
        pt = out.params["vision.pos_temporal"]
        out.params["vision.pos_temporal"] = np.tile(pt[0], (3, 1))
        model, _ = tr.build_model(out)
        sample = small_corpus(1)[0]
        frames = np.tile(sample.frames, (3, 1, 1, 1))[None]
        fwd = model.forward(frames, sample.caption[None])
        cfg = model.config
        toks = fwd.fusion.vision_tokens.data.reshape(
            1, 3, cfg.n_patches + 1, cfg.embed_dim)
        cls = toks[0, :, 0, :]
        assert np.max(np.abs(cls - cls[0])) <= 1e-10
