import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import resource
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlsc import cli, encoders, host
from vlsc import synthdata as sd
from vlsc import tensor as T
from vlsc import trainer as tr
from vlsc.encoders import VARIANTS
from vlsc.errors import (ConfigError, InputError, NumericError, ShapeError,
                         VlscError, WorkerError)
from vlsc.model import PretrainModel
from vlsc.objectives import total_loss
from vlsc.tensor import ParamRegistry, Tensor


def tiny_train_config(**kw):
    base = dict(total_steps=3, batch=2, base_lr=1e-3, seed=5,
                embed_dim=8, heads=2, layers_v=1, layers_t=1, layers_f=1,
                patch_size=4, canvas=16, k_max=16, vocab_size=64)
    base.update(kw)
    return tr.TrainConfig(**base)


def force_executor(monkeypatch, forked: bool) -> list:
    """Make train() fork side B, even on a 1-core host, or run each step
    as one total_loss call, as on a host without os.fork. Returns the
    list that every os.fork call appends to."""
    forks = []
    if not forked:
        monkeypatch.delattr(os, "fork")
        return forks
    if host.openblas_thread_calls() is None:
        pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
    real = os.fork

    def counted():
        forks.append(None)
        return real()
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(tr, "usable_cores", lambda: 2)
    return forks


def blas_threads():
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    calls = host.openblas_thread_calls()
    return calls and calls[0]()


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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

    @pytest.mark.parametrize("bad", [
        dict(embed_dim=0), dict(heads=0), dict(patch_size=0),
        dict(canvas=0), dict(k_max=0), dict(vocab_size=0),
        dict(layers_v=-1), dict(layers_t=-1), dict(layers_f=-1),
        dict(seed=-1), dict(total_steps=-1), dict(checkpoint_interval=-1),
        dict(image_mask_ratio=1.5), dict(text_mask_ratio=-0.1),
        dict(dropout=1.0), dict(dropout=-0.1),
        dict(cl=False, vtm=False, mlm=False, scl=False),
        dict(mvsc=False, mlsc=False),
        dict(batch=2.0), dict(cl=1), dict(base_lr=True), dict(variant=3),
        dict(base_lr=math.nan), dict(grad_clip=math.inf),
    ])
    def test_rejected_values(self, bad):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)

    def test_accepted_edges(self):
        tr.TrainConfig(scl=False, mvsc=False, mlsc=False)
        tr.TrainConfig(image_mask_ratio=1.0, text_mask_ratio=0.0,
                       layers_v=0, dropout=0.0)
        tr.TrainConfig(base_lr=1)  # an int is a valid float value


class _Unformattable:
    def __format__(self, spec):
        raise RuntimeError("cannot format")


class TestConfigFile:
    def test_failed_save_keeps_old_file(self, tmp_path):
        # variant is late in the field order: the earlier lines are
        # written before its value fails to format
        path = tmp_path / "c.cfg"
        tr.save_config(tr.TrainConfig(), path)
        old = path.read_bytes()
        cfg = tr.TrainConfig(seed=9)
        cfg.variant = _Unformattable()
        with pytest.raises(RuntimeError):
            tr.save_config(cfg, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

    def test_roundtrip(self, tmp_path):
        cfg = tiny_train_config(base_lr=2.5e-3, scl=False,
                                image_mask_ratio=0.7, variant="GlobalCLS")
        p = tmp_path / "run.cfg"
        tr.save_config(cfg, p)
        assert tr.TrainConfig(**tr.parse_config_file(p)) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps = 42\nbase_lr = 1e-4\n")
        cfg = tr.TrainConfig(**tr.parse_config_file(p))
        assert cfg.total_steps == 42
        assert cfg.base_lr == 1e-4
        assert cfg.batch == tr.TrainConfig().batch

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\n\nseed = 9  # trailing\n")
        assert tr.TrainConfig(**tr.parse_config_file(p)).seed == 9

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate = 1e-3\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            tr.parse_config_file(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps = soon\n")
        with pytest.raises(ConfigError):
            tr.parse_config_file(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("scl = maybe\n")
        with pytest.raises(ConfigError):
            tr.parse_config_file(p)

    def test_key_set_twice(self, tmp_path):
        # save_config writes each key once, so a second line is a mistake
        # in a hand-written file, not a newer value
        p = tmp_path / "run.cfg"
        p.write_text("batch = 4\n# batch = 6\n\nbatch = 5\n")
        with pytest.raises(ConfigError,
                           match=r"run\.cfg:4: 'batch' is set again; "
                                 r"line 1 set it first"):
            tr.parse_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_steps 10\n")
        with pytest.raises(ConfigError):
            tr.parse_config_file(p)


def per_param_adamw_step(params, m, v, t, weight_decay, encoder_lr,
                         fusion_lr):
    """One AdamW step written per parameter, one new array per stage, on
    the moment tables m and v; the optimizer must give its bits."""
    b1, b2 = tr.ADAM_BETAS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else 0.0
        mm = m[name] = b1 * m[name] + (1.0 - b1) * g
        vv = v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        lr = fusion_lr if tr.is_fast_group(name) else encoder_lr
        update = (mm / bc1) / (np.sqrt(vv / bc2) + tr.ADAM_EPS)
        p.data = p.data - lr * update - lr * weight_decay * p.data


def random_grads(rng, *registries):
    """Give every registry the same gradients: a normal draw per
    parameter, None for every fifth."""
    names = registries[0].names()
    for i, name in enumerate(names):
        g = None if i % 5 == 0 else \
            rng.normal(size=registries[0][name].shape) * 1e-2
        for reg in registries:
            reg[name].grad = None if g is None else g.copy()


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAdamW:
    # the tiny model's parameters in one chunk, and in chunks of 100
    # with a short last one
    @pytest.mark.parametrize("chunk", [tr.ADAM_CHUNK, 100])
    def test_same_bits_as_per_parameter_loop(self, monkeypatch, chunk):
        monkeypatch.setattr(tr, "ADAM_CHUNK", chunk)
        cfg = tiny_train_config()
        live, ref = PretrainModel(cfg).params, PretrainModel(cfg).params
        opt = tr.AdamW(live, weight_decay=0.01)
        m = {n: np.zeros_like(p.data) for n, p in ref.items()}
        v = {n: np.zeros_like(p.data) for n, p in ref.items()}
        rng = np.random.default_rng(7)
        for t, (enc, fus) in enumerate([(1e-3, 5e-3), (2e-3, 1e-2),
                                        (5e-4, 2.5e-3)], start=1):
            random_grads(rng, live, ref)
            grad = live.flat_grad()
            kept = grad.copy()
            opt.step(grad, enc, fus)
            assert same_bits(grad, kept)
            per_param_adamw_step(ref, m, v, t, 0.01, enc, fus)
            for name, p in ref.items():
                assert same_bits(live[name].data, p.data)
                assert same_bits(opt.m[name], m[name])
                assert same_bits(opt.v[name], v[name])

    def test_snapshot_taken_before_step_is_unchanged(self):
        cfg = tiny_train_config()
        model = PretrainModel(cfg)
        opt = tr.AdamW(model.params)
        rng = np.random.default_rng(8)
        random_grads(rng, model.params)
        opt.step(model.params.flat_grad(), 1e-3, 5e-3)
        snap = tr.snapshot(model, opt, 1, cfg)
        tables = (snap.params, snap.m, snap.v)
        frozen = [{n: a.copy() for n, a in tb.items()} for tb in tables]
        random_grads(rng, model.params)
        opt.step(model.params.flat_grad(), 1e-3, 5e-3)
        assert snap.t == 1
        for table, kept in zip(tables, frozen):
            assert all(same_bits(table[n], kept[n]) for n in kept)
        assert any(not same_bits(opt.m[n], snap.m[n]) for n in snap.m)

    def test_build_model_moments_hold_checkpoint_and_advance(self):
        cfg = tiny_train_config()
        model = PretrainModel(cfg)
        opt = tr.AdamW(model.params, weight_decay=0.01)
        rng = np.random.default_rng(9)
        for _ in range(2):
            random_grads(rng, model.params)
            opt.step(model.params.flat_grad(), 1e-3, 5e-3)
        ckpt = tr.snapshot(model, opt, 2, cfg)
        live, opt = tr.build_model(ckpt)
        ref, _ = tr.build_model(ckpt)
        m = {n: a.copy() for n, a in ckpt.m.items()}
        v = {n: a.copy() for n, a in ckpt.v.items()}
        for name in m:
            assert same_bits(opt.m[name], m[name])
            assert same_bits(opt.v[name], v[name])
        random_grads(rng, live.params, ref.params)
        opt.step(live.params.flat_grad(), 2e-3, 1e-2)
        per_param_adamw_step(ref.params, m, v, 3, 0.01, 2e-3, 1e-2)
        assert opt.t == 3
        for name, p in ref.params.items():
            assert same_bits(live.params[name].data, p.data)
            assert same_bits(opt.m[name], m[name])
            assert same_bits(opt.v[name], v[name])
        assert any(not same_bits(opt.m[n], ckpt.m[n]) for n in ckpt.m)

    def test_zero_grad_pure_decay(self):
        # decoupled decay: theta' = theta * (1 - lr*wd) when grad is 0
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0, -3.0]))
        p.grad = np.zeros(2)
        opt = tr.AdamW(reg, weight_decay=0.01)
        opt.step(reg.flat_grad(), 0.1, 0.5)
        expect = np.array([2.0, -3.0]) * (1.0 - 0.1 * 0.01)
        assert np.max(np.abs(p.data - expect)) <= 1e-15

    def test_none_grad_same_as_zero(self):
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0]))
        p.grad = None
        opt = tr.AdamW(reg, weight_decay=0.01)
        opt.step(reg.flat_grad(), 0.1, 0.5)
        assert abs(p.data[0] - 2.0 * (1.0 - 0.001)) <= 1e-15

    def test_first_step_closed_form(self):
        # bias-corrected first step: update = g / (|g| + eps)
        reg = ParamRegistry()
        p = reg.register("w", np.array([2.0]))
        p.grad = np.array([3.0])
        opt = tr.AdamW(reg, weight_decay=0.0)
        opt.step(reg.flat_grad(), 0.1, 0.5)
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
            opt.step(reg.flat_grad(), 0.01, 0.05)
        assert abs(p.data[0] - (1.0 - 2 * 0.01 * (2.0 / (2.0 + 1e-8)))) \
            <= 1e-12

    def test_group_rates(self):
        reg = ParamRegistry()
        a = reg.register("vision.w", np.array([1.0]))
        b = reg.register("fusion.w", np.array([1.0]))
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt = tr.AdamW(reg, weight_decay=0.0)
        opt.step(reg.flat_grad(), 0.01, 0.05)
        da, db = 1.0 - a.data[0], 1.0 - b.data[0]
        assert math.isclose(db / da, 5.0, rel_tol=1e-9)

    def test_moments_shapes_cover_all_params(self):
        model = PretrainModel(tiny_train_config())
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
        grad = reg.flat_grad()
        norm = tr.clip_global_norm(reg, grad, 1.0)
        assert norm == 5.0
        assert abs(grad[0] - 0.6) <= 1e-15
        assert abs(grad[1] - 0.8) <= 1e-15

    def test_small_gradients_untouched(self):
        reg = ParamRegistry()
        a = reg.register("a", np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        grad = reg.flat_grad()
        norm = tr.clip_global_norm(reg, grad, 1.0)
        assert norm == 0.5
        assert np.array_equal(grad, [0.3, 0.4])

    def test_none_grads_skipped(self):
        reg = ParamRegistry()
        reg.register("a", np.zeros(2))
        assert tr.clip_global_norm(reg, reg.flat_grad(), 1.0) == 0.0

    def test_norm_sums_per_parameter_in_registry_order(self):
        # the squares are summed per parameter and the sums added in
        # registry order, the rounding TestTrainPinned records
        model = PretrainModel(tiny_train_config())
        random_grads(np.random.default_rng(4), model.params)
        sq = 0.0
        for p in model.params.values():
            if p.grad is not None:
                sq += float(np.sum(p.grad * p.grad))
        norm = tr.clip_global_norm(model.params, model.params.flat_grad(),
                                   1e9)
        assert norm == float(np.sqrt(sq))


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = tr.init_checkpoint(tiny_train_config())
        p1, p2 = tmp_path / "a.vlsc", tmp_path / "b.vlsc"
        tr.save_checkpoint(ckpt, p1)
        tr.save_checkpoint(tr.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path):
        # a file-size limit of half the checkpoint makes the write fail
        # part-way, as a full disk would
        path = tmp_path / "c.vlsc"
        ckpt = tr.init_checkpoint(tiny_train_config())
        tr.save_checkpoint(ckpt, path)
        old = path.read_bytes()
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(old) // 2, hard))
        try:
            with pytest.raises(OSError):
                tr.save_checkpoint(dataclasses.replace(ckpt, step=1), path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.vlsc"]

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
        lambda h: h["arrays"][0].update(shape=[0, 10 ** 20]),
        lambda h: h.update(t=math.inf),
        lambda h: h.update(arrays=None),
        lambda h: _first_moment(h).update(name="no.such.param"),
        lambda h: _first_moment(h).update(
            shape=[1] + _first_moment(h)["shape"]),
        # values no save writes
        lambda h: h.update(format=7),
        lambda h: h.pop("format"),
        lambda h: h.update(format=True),
        lambda h: h.update(format=1.0),
        lambda h: h.update(step=-3),
        lambda h: h.update(t=-2),
        lambda h: h.update(step=1.9),
        lambda h: h.update(t=True),
        lambda h: h.update(step="3"),
    ])
    def test_malformed_header(self, tmp_path, edit):
        p = tmp_path / "x.vlsc"
        tr.save_checkpoint(tr.init_checkpoint(tiny_train_config()), p)
        header, body = split_ckpt(p.read_bytes())
        edit(header)
        p.write_bytes(join_ckpt(header, body))
        with pytest.raises(InputError, match=re.escape(str(p))):
            tr.load_checkpoint(p)

    def test_build_model_bit_exact(self):
        ckpt = tr.init_checkpoint(tiny_train_config())
        model, opt = tr.build_model(ckpt)
        for name, p in model.params.items():
            assert np.array_equal(p.data, ckpt.params[name])
        assert opt.t == 0


def split_ckpt(data: bytes):
    """(header dict, array bytes) of a checkpoint file's contents."""
    off = len(tr.CKPT_MAGIC) + 8
    (hlen,) = struct.unpack_from("<Q", data, off - 8)
    return json.loads(data[off:off + hlen]), data[off + hlen:]


def join_ckpt(header, body: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return tr.CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw + body


def _first_moment(header):
    """The first 1-d entry of the m table in a checkpoint header."""
    return next(e for e in header["arrays"]
                if e["kind"] == "m" and len(e["shape"]) == 1)


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

    def test_resume_takes_passed_weight_decay(self, monkeypatch):
        # a resume runs under the passed config, weight decay included:
        # from a step-0 checkpoint recorded with another decay, it
        # replays a fresh run of the passed config
        force_executor(monkeypatch, False)
        cfg = tiny_train_config(total_steps=2, weight_decay=0.5)
        start = tr.init_checkpoint(dataclasses.replace(cfg,
                                                       weight_decay=0.01))
        fresh, fresh_lines = tr.train(cfg, small_corpus())
        resumed, lines = tr.train(cfg, small_corpus(), resume=start)
        assert lines == fresh_lines
        for name, want in fresh.params.items():
            assert np.array_equal(resumed.params[name], want), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_with_diagnostic(self, tmp_path):
        cfg = tiny_train_config(total_steps=2)
        ckpt = tr.init_checkpoint(cfg)
        poison = sorted(ckpt.params)[0]
        ckpt.params[poison][...] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            tr.train(cfg, small_corpus(), out_dir=tmp_path, resume=ckpt)
        assert (tmp_path / "ckpt_diagnostic.vlsc").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_aborts_before_update(self, tmp_path,
                                                     monkeypatch):
        # from step 2 on, one parameter's gradient is inf while the loss
        # stays finite. Only the calls that compute VTM count the steps:
        # side A of a forked step, or a step's one call
        real = tr.total_loss
        cfg = tiny_train_config(total_steps=3, checkpoint_interval=1)
        for forked in (True, False):
            out = tmp_path / ("forked" if forked else "one-graph")
            steps = []

            def poisoned(model, frames, captions, cfg, rngs):
                report, total = real(model, frames, captions, cfg, rngs)
                if cfg.vtm:
                    steps.append(None)
                if cfg.vtm and len(steps) >= 2:
                    p = model.params["head.vtm.b"]
                    total = total + Tensor._from_op(
                        np.zeros(()), (p,),
                        lambda g: (np.full(p.shape, np.inf),))
                return report, total

            with monkeypatch.context() as mp:
                force_executor(mp, forked)
                # the two executors round the step's gradient otherwise
                _, clean = tr.train(cfg, small_corpus())
                mp.setattr(tr, "total_loss", poisoned)
                with pytest.raises(NumericError,
                                   match="gradient norm inf at step 2"):
                    tr.train(cfg, small_corpus(), out_dir=out)
            diag = tr.load_checkpoint(out / "ckpt_diagnostic.vlsc")
            prev = tr.load_checkpoint(out / "ckpt_step1.vlsc")
            assert diag.t == prev.t == 1
            assert diag.step == 1
            for table in ("params", "m", "v"):
                for name, arr in getattr(diag, table).items():
                    assert np.all(np.isfinite(arr))
                    assert np.array_equal(arr, getattr(prev, table)[name])
            # without the poison, a resume from the diagnostic replays
            # the failing step as a clean run takes it
            with monkeypatch.context() as mp:
                force_executor(mp, forked)
                _, resumed = tr.train(cfg, small_corpus(), resume=diag)
            assert resumed[0].split()[0] == "2"
            assert resumed[0] == clean[1]

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


class TestTrainPinned:
    # metrics lines and checkpoint sha256 of a 2-step train-mode run
    # (dropout 0.1) per (variant, M), recorded before TrainConfig became
    # the one config: any change to the draws, the arithmetic or the file
    # bytes shows here. The FrameCLS step-2 lines and digests were
    # re-recorded when the fused kernels' closed-form backward changed the
    # gradients' rounding; MeanPooling and GlobalCLS were recorded before
    # the encoders' residual sublayers went through one dropout path.
    # Every step-2 line and digest was re-recorded when a step's gradient
    # became g_A + g_B, the sum of its two sides' gradients, which rounds
    # otherwise than one backward sweep; the step-1 lines did not move.
    # They are the forked split step's, so the run forks on any host.
    # The digests alone were re-recorded when the attention key biases
    # were deleted, since no table of the file holds them any more; every
    # metrics line stayed as it was. Every step-2 line and digest was
    # re-recorded when the backward sweep came to run nodes in reverse
    # creation order in place of a depth-first topological order, which
    # sums a multi-consumer node's gradients in another order; the
    # step-1 lines, and GlobalCLS's step-2 line, did not move
    PINNED = {
        ("FrameCLS", 1): (
            ["1 1.6726954712589537 0.69334770659316081 4.1461306298858069 "
             "1.3785228225971766 7.890696630335098 0.00055555555555555556",
             "2 1.4323359296860088 0.69334901916193359 4.100965814781631 "
             "1.4537864489864107 7.6804372126159839 0"],
            "f1216257dd9713fdb073fe7ad8306624"
            "c6b4876a6144b43dd141479e6d3686ac"),
        ("FrameCLS", 2): (
            ["1 1.865637932166027 0.6938209412124432 4.1755095240632158 "
             "1.4036134700089491 8.1385818674506361 0.00055555555555555556",
             "2 1.4331812760948077 0.69321312924374867 4.1623298546015883 "
             "1.3914279303178101 7.6801521902579548 0"],
            "dc3c4c9a469998cc90d95e8e95595165"
            "f49080ce4ee8f50cf7461acc34b8cdee"),
        ("MeanPooling", 2): (
            ["1 1.5031232642237637 0.69512544779425367 4.1393889434265265 "
             "1.3886225888659212 7.7262602443104651 0.00055555555555555556",
             "2 1.5371464676912296 0.69366381352655315 4.141701377287049 "
             "1.4170206020194869 7.7895322605243189 0"],
            "3f4b1f3d434677589127374408ce855b"
            "5420535f8d10223238b9fc69efa49656"),
        ("GlobalCLS", 2): (
            ["1 1.3869367070311018 0.69548332696682835 4.1529213938384881 "
             "1.3922670151671084 7.6276084430035276 0.00055555555555555556",
             "2 1.3944933330292508 0.69341117898336146 4.1345831073750361 "
             "1.3770580568368893 7.5995456762245368 0"],
            "89294bbbad071eab10b75969a232f7a5"
            "e2c5c6f5e8dd4d0776a90dfb5a6ab38d"),
    }

    @pytest.mark.parametrize("variant, m", list(PINNED), ids=[
        "1", "2", "MeanPooling-2", "GlobalCLS-2"])
    def test_train_run_pinned(self, tmp_path, monkeypatch, variant, m):
        force_executor(monkeypatch, True)
        cfg = tiny_train_config(total_steps=2, dropout=0.1, frames_m=m,
                                variant=variant,
                                phase="video" if m > 1 else "image")
        tr.train(cfg, small_corpus(frames_m=m), out_dir=tmp_path)
        lines = (tmp_path / "metrics.txt").read_text().splitlines()[1:]
        digest = hashlib.sha256(
            (tmp_path / "ckpt_final.vlsc").read_bytes()).hexdigest()
        assert (lines, digest) == self.PINNED[variant, m]


def scl_calls(monkeypatch, act):
    """Patch total_loss so that its n-th call with SCL on, side B's or a
    step's one call, counted in the process that makes it, returns
    act(n, report, total) instead of (report, total)."""
    real = tr.total_loss
    calls = []

    def patched(model, frames, captions, cfg, rngs):
        report, total = real(model, frames, captions, cfg, rngs)
        if not cfg.scl:
            return report, total
        calls.append(None)
        return act(len(calls), report, total)
    monkeypatch.setattr(tr, "total_loss", patched)


class TestStepExecutors:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("m", [1, 4])
    def test_forked_and_one_graph_runs_agree(self, monkeypatch, variant, m):
        # after 3 steps, every loss agrees within 1e-12 of itself, and
        # every parameter and moment array within 1e-12 of its largest
        # entry
        cfg = tiny_train_config(total_steps=3, dropout=0.1, variant=variant,
                                frames_m=m,
                                phase="video" if m > 1 else "image")
        corpus = small_corpus(frames_m=m)
        threads = blas_threads()
        runs = {}
        for forked in (True, False):
            with monkeypatch.context() as mp:
                forks = force_executor(mp, forked)
                runs[forked] = tr.train(cfg, corpus)
            assert len(forks) == forked
            # the forked run's SCL worker outlives the call as the only
            # child, and none is left once it is ended
            assert (tr._worker is not None and tr._worker.alive()) == forked
            tr.end_worker()
            assert no_child_left()
            assert blas_threads() == threads
        (split, split_lines), (one, one_lines) = runs[True], runs[False]
        for a, b in zip(split_lines, one_lines, strict=True):
            for x, y in zip(map(float, a.split()), map(float, b.split()),
                            strict=True):
                assert abs(x - y) <= 1e-12 * abs(y), (a, b)
        for table in ("params", "m", "v"):
            for name, want in getattr(one, table).items():
                got = getattr(split, table)[name]
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want)), (table, name)

    def test_unforked_step_is_one_total_loss_call(self, monkeypatch):
        force_executor(monkeypatch, False)
        real, calls = tr.total_loss, []

        def counted(model, frames, captions, cfg, rngs):
            calls.append((cfg.cl, cfg.vtm, cfg.mlm, cfg.scl))
            return real(model, frames, captions, cfg, rngs)
        monkeypatch.setattr(tr, "total_loss", counted)
        tr.train(tiny_train_config(total_steps=2), small_corpus())
        assert calls == [(True, True, True, True)] * 2

    @pytest.mark.parametrize("forked", [True, False])
    @pytest.mark.parametrize("variant, m", [("FrameCLS", 1),
                                            ("MeanPooling", 2),
                                            ("GlobalCLS", 2)])
    def test_split_gradient_matches_one_graph(self, monkeypatch, forked,
                                              variant, m):
        # g_A + g_B sums each gradient in another order than one sweep
        # does, so the two differ by rounding: at most 1e-12 of the
        # array's largest entry
        cfg = tiny_train_config(variant=variant, frames_m=m, dropout=0.1,
                                phase="image" if m == 1 else "video",
                                batch=4)
        corpus = small_corpus(4, frames_m=m)
        step = 1
        forks = force_executor(monkeypatch, forked)
        model = PretrainModel(cfg)
        with tr.step_runner(model, corpus, cfg) as run_step:
            report, grad = run_step(step)
        assert len(forks) == forked
        split = model.params.views(grad)

        # the single-graph step the split replaces
        reference = PretrainModel(cfg)
        frames, captions = tr.stack_batch(corpus, tr.batch_indices(
            len(corpus), cfg.batch, cfg.seed, step))
        ref_report, total = total_loss(reference, frames, captions, cfg,
                                       tr.step_rngs(cfg.seed, step))
        total.backward()
        assert report == ref_report
        ref = reference.params.flat_grad()
        for name, g in reference.params.views(ref).items():
            assert np.max(np.abs(split[name] - g)) \
                <= 1e-12 * np.max(np.abs(g)), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("forked", [True, False])
    def test_nan_scl_loss_aborts(self, tmp_path, monkeypatch, forked):
        force_executor(monkeypatch, forked)
        threads = blas_threads()

        def nan_at_step_2(n, report, total):
            if n == 2:
                report.scl = report.total = math.nan
                total = total * math.nan
            return report, total
        scl_calls(monkeypatch, nan_at_step_2)
        cfg = tiny_train_config(total_steps=3, checkpoint_interval=1)
        with pytest.raises(NumericError,
                           match=r"non-finite loss at step 2: .*scl=nan"):
            tr.train(cfg, small_corpus(), out_dir=tmp_path)
        assert tr.load_checkpoint(tmp_path / "ckpt_diagnostic.vlsc").step == 1
        assert no_child_left()
        assert blas_threads() == threads

    @pytest.mark.parametrize("error", [RuntimeError("side B broke"),
                                       InputError("side B broke")])
    def test_child_error_reaches_caller(self, tmp_path, monkeypatch, error):
        # any error in the child reaches the caller as a WorkerError
        # naming its type and message
        force_executor(monkeypatch, True)
        threads = blas_threads()

        def fail(n, report, total):
            raise error
        scl_calls(monkeypatch, fail)
        with pytest.raises(WorkerError,
                           match=f"{type(error).__name__}: side B broke"):
            tr.train(tiny_train_config(), small_corpus(),
                     out_dir=tmp_path)
        assert no_child_left()
        assert blas_threads() == threads

    def test_child_that_dies_is_reported(self, monkeypatch):
        force_executor(monkeypatch, True)
        scl_calls(monkeypatch, lambda n, report, total: os._exit(3))
        with pytest.raises(WorkerError, match="ended at step 1"):
            tr.train(tiny_train_config(), small_corpus())
        assert no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="the host lists no threads in /proc")
    def test_fork_leaves_one_thread(self, monkeypatch):
        # numpy's OpenBLAS ends its worker threads before any fork, so
        # right after the fork, where Python 3.12+ counts threads to
        # warn that a fork may deadlock, the caller runs one thread.
        # The warning is recorded, not made an error: CPython drops it
        # unseen when a filter turns it into one
        force_executor(monkeypatch, True)
        fork, threads, warned = os.fork, [], []

        def counted():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pid = fork()
            if pid:
                threads.append(len(os.listdir("/proc/self/task")))
                warned.extend(str(w.message) for w in caught)
            return pid
        monkeypatch.setattr(os, "fork", counted)
        tr.train(tiny_train_config(), small_corpus())
        assert threads == [1]
        assert warned == []

    def test_cli_reports_child_error_without_traceback(self, tmp_path,
                                                       monkeypatch, capsys):
        force_executor(monkeypatch, True)
        corpus = tmp_path / "c.tsv"
        sd.save_corpus(corpus, small_corpus())

        def fail(n, report, total):
            raise RuntimeError("side B broke")
        scl_calls(monkeypatch, fail)
        assert cli.main(["pretrain", "--corpus", str(corpus), "--out",
                         str(tmp_path / "run"), "--steps", "2",
                         "--batch", "2"]) == 2
        err = capsys.readouterr().err
        assert "side B broke" in err and "Traceback" not in err
        assert no_child_left()


def run_bytes(cfg, corpus, out) -> tuple:
    """(metrics.txt bytes, ckpt_final.vlsc bytes) of a run into out."""
    tr.train(cfg, corpus, out_dir=out)
    return ((out / "metrics.txt").read_bytes(),
            (out / "ckpt_final.vlsc").read_bytes())


# run in a fresh interpreter; its exit handler is registered before
# trainer's, so it runs after trainer's handler has ended the worker
EXIT_SCRIPT = """
import atexit, os

def check():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child", flush=True)
    else:
        print("child left", flush=True)

atexit.register(check)
from vlsc import synthdata as sd
from vlsc import trainer as tr
tr.usable_cores = lambda: 2
cfg = tr.TrainConfig(total_steps=2, batch=2, embed_dim=8, heads=2,
                     layers_v=1, layers_t=1, layers_f=1)
tr.train(cfg, sd.generate_corpus(4, seed=0))
print("worker", tr._worker is not None and tr._worker.alive())
"""


class TestSclWorker:
    # the process's one SCL worker: forked at the first split step and
    # kept across train() calls with the same side-B config

    def test_same_config_forks_once(self, tmp_path, monkeypatch):
        forks = force_executor(monkeypatch, True)
        cfg = tiny_train_config(total_steps=2, dropout=0.1)
        first = run_bytes(cfg, small_corpus(), tmp_path / "first")
        again = run_bytes(cfg, small_corpus(), tmp_path / "again")
        assert len(forks) == 1
        assert again == first

    def test_other_corpus_gives_fresh_worker_bytes(self, tmp_path,
                                                   monkeypatch):
        # the worker runs each step on the batch the caller sends, never
        # on one it kept from an earlier call
        forks = force_executor(monkeypatch, True)
        cfg = tiny_train_config(total_steps=2)
        run_bytes(cfg, small_corpus(seed=0), tmp_path / "first")
        reused = run_bytes(cfg, small_corpus(seed=1), tmp_path / "reused")
        tr.end_worker()
        fresh = run_bytes(cfg, small_corpus(seed=1), tmp_path / "fresh")
        assert len(forks) == 2
        assert reused == fresh

    def test_new_config_reaps_old_worker(self, monkeypatch):
        forks = force_executor(monkeypatch, True)
        tr.train(tiny_train_config(total_steps=1), small_corpus())
        old = tr._worker.pid
        tr.train(tiny_train_config(total_steps=1, seed=6), small_corpus())
        assert len(forks) == 2
        assert tr._worker.pid != old and tr._worker.alive()
        with pytest.raises(ChildProcessError):
            os.waitpid(old, os.WNOHANG)

    def test_side_a_config_change_keeps_worker(self, monkeypatch):
        # turning VTM off leaves side B's config as it was
        forks = force_executor(monkeypatch, True)
        tr.train(tiny_train_config(total_steps=1), small_corpus())
        _, lines = tr.train(tiny_train_config(total_steps=1, vtm=False),
                            small_corpus())
        assert len(forks) == 1
        tr.end_worker()
        assert tr.train(tiny_train_config(total_steps=1, vtm=False),
                        small_corpus())[1] == lines

    @pytest.mark.skipif(not hasattr(os, "waitid"),
                        reason="the host has no waitid")
    def test_killed_worker_is_replaced(self, monkeypatch):
        forks = force_executor(monkeypatch, True)
        cfg = tiny_train_config(total_steps=2)
        _, want = tr.train(cfg, small_corpus())
        old = tr._worker.pid
        os.kill(old, signal.SIGKILL)
        # dead, and left for train() to reap
        os.waitid(os.P_PID, old, os.WEXITED | os.WNOWAIT)
        _, got = tr.train(cfg, small_corpus())
        assert len(forks) == 2 and got == want
        with pytest.raises(ChildProcessError):
            os.waitpid(old, os.WNOHANG)

    def test_side_a_error_ends_worker(self, monkeypatch):
        # side A fails at step 2 while the worker runs side B of it, so
        # a reply may be in flight: the worker is ended, and the next
        # call forks a fresh one
        forks = force_executor(monkeypatch, True)
        threads = blas_threads()
        cfg = tiny_train_config(total_steps=3)
        _, want = tr.train(cfg, small_corpus())
        real, steps = tr.total_loss, []

        def fail_at_step_2(model, frames, captions, cfg, rngs):
            if cfg.vtm:
                steps.append(None)
                if len(steps) == 2:
                    raise RuntimeError("side A broke")
            return real(model, frames, captions, cfg, rngs)
        with monkeypatch.context() as mp:
            mp.setattr(tr, "total_loss", fail_at_step_2)
            with pytest.raises(RuntimeError, match="side A broke"):
                tr.train(cfg, small_corpus())
        assert tr._worker is None and no_child_left()
        assert blas_threads() == threads
        assert tr.train(cfg, small_corpus())[1] == want
        assert len(forks) == 2

    def test_exit_ends_worker(self):
        if host.openblas_thread_calls() is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        src = os.path.dirname(os.path.dirname(tr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", EXIT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["worker True", "no child"]
        assert proc.stderr == ""


def keeping_backward(root: Tensor) -> None:
    """Tensor.backward with every node kept: the same order, latest-made
    node first, and the same arithmetic, over the whole reachable graph
    sorted by creation index."""
    reached, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node._index not in reached:
            reached[node._index] = node
            stack.extend(p for p in node._parents if p.requires_grad)
    pending = {root._index: np.ones_like(root.data)}
    for i in sorted(reached, reverse=True):
        node = reached[i]
        g = pending.pop(i, None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._backward_fn is None:
            continue
        for p, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not p.requires_grad:
                continue
            j = p._index
            pending[j] = pending[j] + pg if j in pending else pg


def recorded_models(monkeypatch) -> list:
    """The list of every PretrainModel trainer builds from here on."""
    made = []

    class Recorded(PretrainModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(tr, "PretrainModel", Recorded)
    return made


def data_in_flat(params: ParamRegistry) -> bool:
    """Whether each parameter's .data is its own slot of params.flat."""
    slots = params.views(params.flat)
    return all(p.data.__array_interface__ == slots[n].__array_interface__
               for n, p in params.items())


class TestFlatLayout:
    @pytest.mark.parametrize("forked", [True, False])
    def test_train_keeps_data_in_flat(self, monkeypatch, forked):
        force_executor(monkeypatch, forked)
        made = recorded_models(monkeypatch)
        tr.train(tiny_train_config(), small_corpus())
        assert len(made) == 1 and data_in_flat(made[0].params)

    def test_build_model_copies_into_flat(self):
        ckpt = tr.init_checkpoint(tiny_train_config(seed=2))
        model, _ = tr.build_model(ckpt)
        assert data_in_flat(model.params)
        for name, p in model.params.items():
            assert same_bits(p.data, ckpt.params[name])

    def test_curriculum_resume_keeps_data_in_flat(self, monkeypatch):
        video_cfg = tiny_train_config(phase="video", frames_m=2, seed=11)
        start = tr.curriculum_transfer(
            tr.init_checkpoint(tiny_train_config(seed=3)), video_cfg)
        made = recorded_models(monkeypatch)
        tr.train(video_cfg, small_corpus(frames_m=2), resume=start)
        assert len(made) == 1 and data_in_flat(made[0].params)

    @pytest.mark.parametrize("forked", [True, False])
    def test_step_gradient_freed_before_next_step(self, monkeypatch,
                                                  forked):
        # a step's flat gradient is dropped once AdamW has used it, so it
        # does not add to the next step's peak
        force_executor(monkeypatch, forked)
        real, grads = tr.side_grads, []

        def checked(*args, **kwargs):
            assert all(g() is None for g in grads)
            report, grad = real(*args, **kwargs)
            grads.append(weakref.ref(grad))
            return report, grad
        monkeypatch.setattr(tr, "side_grads", checked)
        tr.train(tiny_train_config(total_steps=3), small_corpus())
        assert len(grads) == 3


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.vlsc"


def golden_checkpoint() -> tr.Checkpoint:
    """What tests/data/golden.vlsc holds, made without the loader: a tiny
    model's parameter names and shapes, every array of the three tables
    drawn in file order from one generator. The file was written by the
    saver that wrote each array as its own chunk, so it pins the format
    on any BLAS kernel."""
    cfg = tr.TrainConfig(embed_dim=4, heads=1, layers_v=0, layers_t=0,
                         layers_f=0, patch_size=2, canvas=2, k_max=4,
                         vocab_size=8, total_steps=7, seed=19)
    shapes = {n: p.data.shape for n, p in PretrainModel(cfg).params.items()}
    rng = np.random.default_rng(2211)
    params, m, v = ({n: rng.standard_normal(shapes[n]) for n in sorted(shapes)}
                    for _ in range(3))
    return tr.Checkpoint(params=params, m=m, v=v, t=3, step=5, config=cfg)


class TestCheckpointFormat:
    def test_golden_file_reads_back(self):
        want, got = golden_checkpoint(), tr.load_checkpoint(GOLDEN)
        assert got.config == want.config
        assert (got.t, got.step) == (3, 5)
        for kind in ("params", "m", "v"):
            a, b = getattr(got, kind), getattr(want, kind)
            assert set(a) == set(b)
            assert all(same_bits(a[n], b[n]) for n in b)

    def test_golden_file_resaves_byte_identical(self, tmp_path):
        tr.save_checkpoint(tr.load_checkpoint(GOLDEN), tmp_path / "x.vlsc")
        assert (tmp_path / "x.vlsc").read_bytes() == GOLDEN.read_bytes()

    def test_saver_writes_golden_bytes(self, tmp_path):
        tr.save_checkpoint(golden_checkpoint(), tmp_path / "x.vlsc")
        assert (tmp_path / "x.vlsc").read_bytes() == GOLDEN.read_bytes()

    def test_digest_names_bytes_read(self):
        want = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
        assert tr.load_checkpoint(GOLDEN, digest=True).sha256 == want
        assert tr.load_checkpoint(GOLDEN).sha256 is None


def no_init_draws(monkeypatch) -> None:
    """Make every initialization draw raise, through the tensor module
    and any binding the encoders module may hold of its trunc_normal."""
    def refused(*args, **kwargs):
        raise AssertionError("an initialization was drawn")
    for module in (T, encoders):
        monkeypatch.setattr(module, "trunc_normal", refused, raising=False)


@pytest.fixture()
def distinct_ckpt(tmp_path):
    """(path, Checkpoint) of a saved tiny-model checkpoint at step 2 whose
    parameters and moments are all distinct random values, so no
    placeholder, init draw or other slot's value can stand in for one."""
    ckpt = tr.init_checkpoint(tiny_train_config())
    arrays = [table[n] for table in (ckpt.params, ckpt.m, ckpt.v)
              for n in table]
    values = np.random.default_rng(8).uniform(0.01, 0.02,
                                              sum(a.size for a in arrays))
    assert np.unique(values).size == values.size
    lo = 0
    for a in arrays:
        a[...] = values[lo:lo + a.size].reshape(a.shape)
        lo += a.size
    ckpt.t, ckpt.step = 4, 2
    path = tmp_path / "distinct.vlsc"
    tr.save_checkpoint(ckpt, path)
    return path, ckpt


class TestLoadPath:
    def test_build_holds_file_values(self, monkeypatch, distinct_ckpt):
        path, want = distinct_ckpt
        no_init_draws(monkeypatch)
        model, opt = tr.build_model(tr.load_checkpoint(path))
        assert data_in_flat(model.params)
        assert opt.t == 4
        for name, p in model.params.items():
            assert same_bits(p.data, want.params[name])
            assert same_bits(opt.m[name], want.m[name])
            assert same_bits(opt.v[name], want.v[name])

    def test_eval_build_makes_no_optimizer(self, monkeypatch, distinct_ckpt):
        path, want = distinct_ckpt
        no_init_draws(monkeypatch)
        model, opt = tr.build_model(tr.load_checkpoint(path),
                                    optimizer=False)
        assert opt is None and data_in_flat(model.params)
        for name, p in model.params.items():
            assert same_bits(p.data, want.params[name])

    def test_resume_draws_no_init(self, monkeypatch, distinct_ckpt):
        path, _ = distinct_ckpt
        no_init_draws(monkeypatch)
        made = recorded_models(monkeypatch)
        final, metrics = tr.train(tiny_train_config(), small_corpus(),
                                  resume=tr.load_checkpoint(path))
        assert len(made) == 1 and len(metrics) == 1

    def test_curriculum_target_draws_no_init(self, monkeypatch):
        video_cfg = tiny_train_config(phase="video", frames_m=2,
                                      total_steps=1)
        start = tr.curriculum_transfer(
            tr.init_checkpoint(tiny_train_config(seed=3)), video_cfg)
        no_init_draws(monkeypatch)
        tr.train(video_cfg, small_corpus(frames_m=2), resume=start)

    def test_transfer_draws_only_the_temporal_rows(self):
        # the rows a fresh video model draws, without drawing the rest
        video_cfg = tiny_train_config(phase="video", frames_m=3, seed=11)
        out = tr.curriculum_transfer(
            tr.init_checkpoint(tiny_train_config(seed=3)), video_cfg)
        fresh = PretrainModel(video_cfg).params["vision.pos_temporal"].data
        assert same_bits(out.params["vision.pos_temporal"][1:], fresh[1:])

    @pytest.mark.parametrize("command", ["eval-retrieval",
                                         "export-attention"])
    def test_eval_commands_build_no_optimizer(self, monkeypatch, tmp_path,
                                              distinct_ckpt, command):
        path, _ = distinct_ckpt
        corpus = tmp_path / "corpus.tsv"
        sd.save_corpus(corpus, small_corpus())
        no_init_draws(monkeypatch)

        def refused(*args, **kwargs):
            raise AssertionError("an optimizer was built")
        monkeypatch.setattr(tr, "AdamW", refused)
        out = ["--k", "2"] if command == "eval-retrieval" else [
            "--out-dir", str(tmp_path / "maps")]
        assert cli.main([command, "--ckpt", str(path), "--corpus",
                         str(corpus), *out]) == 0


class _CountedFile:
    """A file whose reads count the bytes they return."""

    def __init__(self, f, counts):
        self._f, self._counts = f, counts

    def read(self, *args):
        data = self._f.read(*args)
        self._counts.append(len(data))
        return data

    def readinto(self, buf):
        got = self._f.readinto(buf)
        self._counts.append(got)
        return got

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def parameter_bytes_end(data: bytes) -> int:
    """The file offset where a saved checkpoint's parameter table ends."""
    header, body = split_ckpt(data)
    return len(data) - len(body) + 8 * sum(
        math.prod(e["shape"]) for e in header["arrays"]
        if e["kind"] == "param")


class TestParamsOnlyLoad:
    # evaluation reads the header and the parameter table, and no byte of
    # the moments; every check of the header and the file size still runs

    @pytest.mark.parametrize("command", ["eval-retrieval",
                                         "export-attention"])
    def test_eval_reads_no_moment_byte(self, monkeypatch, tmp_path,
                                       distinct_ckpt, command):
        path, _ = distinct_ckpt
        corpus = tmp_path / "corpus.tsv"
        sd.save_corpus(corpus, small_corpus())
        counts = []
        monkeypatch.setattr(tr, "open", lambda *a: _CountedFile(
            open(*a), counts), raising=False)
        out = ["--k", "2"] if command == "eval-retrieval" else [
            "--out-dir", str(tmp_path / "maps")]
        assert cli.main([command, "--ckpt", str(path), "--corpus",
                         str(corpus), *out]) == 0
        assert sum(counts) == parameter_bytes_end(path.read_bytes())

    def test_moment_bytes_move_no_evaluation(self, tmp_path, distinct_ckpt):
        path, want = distinct_ckpt
        data = path.read_bytes()
        end = parameter_bytes_end(data)
        nan = tmp_path / "nan.vlsc"
        nan.write_bytes(data[:end] + np.full((len(data) - end) // 8,
                                             np.nan).tobytes())
        got = tr.load_checkpoint(nan, moments=False)
        assert got.m == {} and got.v == {} and (got.t, got.step) == (4, 2)
        assert set(got.params) == set(want.params)
        assert all(same_bits(got.params[n], a)
                   for n, a in want.params.items())
        corpus = tmp_path / "corpus.tsv"
        sd.save_corpus(corpus, small_corpus(n=8))
        outputs = []
        for ckpt in (path, nan):
            csv, maps = tmp_path / f"{ckpt.stem}.csv", tmp_path / ckpt.stem
            for k in ("0", "8"):
                assert cli.main(["eval-retrieval", "--ckpt", str(ckpt),
                                 "--corpus", str(corpus), "--k", k,
                                 "--out", str(csv)]) == 0
            assert cli.main(["export-attention", "--ckpt", str(ckpt),
                             "--corpus", str(corpus), "--out-dir",
                             str(maps)]) == 0
            outputs.append([csv.read_bytes()] + [
                (f.name, f.read_bytes()) for f in sorted(maps.iterdir())])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("edit", [
        lambda h, b: (h, b[:-16]),
        lambda h, b: (h, b + b"\x00" * 8),
        lambda h, b: (h, b + b"\x00" * 3),
        lambda h, b: (_first_moment(h).update(name="no.such.param"), b),
        lambda h, b: (_first_moment(h).update(
            shape=[1] + _first_moment(h)["shape"]), b),
        lambda h, b: (h["arrays"][-1].update(kind="q"), b),
        lambda h, b: (h["arrays"].pop(), b),
        lambda h, b: (h["arrays"][0].update(shape=[0, 10 ** 20]), b),
    ])
    def test_refuses_what_a_full_load_refuses(self, tmp_path, edit):
        p = tmp_path / "x.vlsc"
        tr.save_checkpoint(tr.init_checkpoint(tiny_train_config()), p)
        header, body = split_ckpt(p.read_bytes())
        edited = edit(header, body)[1]
        p.write_bytes(join_ckpt(header, edited))
        messages = []
        for moments in (True, False):
            with pytest.raises(InputError) as e:
                tr.load_checkpoint(p, moments=moments)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    def test_digest_reads_every_byte(self):
        got = tr.load_checkpoint(GOLDEN, digest=True, moments=False)
        assert got.sha256 == hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
        want = golden_checkpoint()
        assert all(same_bits(got.m[n], a) for n, a in want.m.items())


class TestBackwardFreesGraph:
    def test_peak_memory_flat_across_steps(self):
        # a step's graph is freed by its own backward, not by the next
        # step's forward, so a 3-step run peaks where a 1-step run does
        corpus = small_corpus(8)
        peaks = []
        for steps in (1, 3):
            cfg = tiny_train_config(total_steps=steps, batch=4,
                                    embed_dim=16)
            tracemalloc.start()
            try:
                tr.train(cfg, corpus)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("variant", ["FrameCLS", "MeanPooling",
                                         "GlobalCLS"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_gradients_match_graph_keeping_sweep(self, variant, m):
        cfg = tiny_train_config(variant=variant, frames_m=m,
                                phase="image" if m == 1 else "video",
                                embed_dim=16, layers_v=2, layers_t=2,
                                layers_f=2, batch=4, dropout=0.1)
        frames, captions = tr.stack_batch(small_corpus(4, frames_m=m),
                                          np.arange(4))
        grads = []
        for sweep in (keeping_backward, Tensor.backward):
            model = PretrainModel(cfg)
            _, total = total_loss(model, frames, captions, cfg,
                                  tr.step_rngs(cfg.seed, 1))
            sweep(total)
            grads.append({n: p.grad for n, p in model.params.items()})
        kept, consumed = grads
        assert all(g is not None for g in consumed.values())
        for name, g in kept.items():
            assert np.array_equal(consumed[name], g), name


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


# any bytes given to a loader must give a valid object or a VlscError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data: bytes, edits, cut) -> bytes:
    """data with bytes overwritten at (position, value) edits, then cut
    to at most cut bytes."""
    out = bytearray(data)
    for pos, val in edits:
        out[pos % len(out)] = val
    return bytes(out[:cut])


BYTE_EDITS = st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)),
                      max_size=4)


class TestFuzzConfigFile:
    VALID = "".join(f"{k} = {v}\n" for k, v in (
        ("total_steps", 3), ("batch", 2), ("base_lr", 0.001), ("scl", "true"),
        ("variant", "GlobalCLS"), ("image_mask_ratio", 0.7)))

    def check(self, path):
        try:
            values = tr.parse_config_file(path)
            assert isinstance(tr.TrainConfig(**values), tr.TrainConfig)
        except VlscError:
            pass

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_any_bytes(self, tmp_path, data):
        p = tmp_path / "f.cfg"
        p.write_bytes(data)
        self.check(p)

    @FUZZ
    @given(edits=BYTE_EDITS, cut=st.integers(0, 400))
    def test_mutated_file(self, tmp_path, edits, cut):
        p = tmp_path / "f.cfg"
        p.write_bytes(mutate(self.VALID.encode(), edits, cut))
        self.check(p)

    @FUZZ
    @given(key=st.sampled_from([f.name for f in
                                dataclasses.fields(tr.TrainConfig)]),
           raw=st.text(max_size=12).filter(lambda t: "\n" not in t
                                           and "\r" not in t))
    def test_any_value(self, tmp_path, key, raw):
        p = tmp_path / "f.cfg"
        p.write_text(f"{key} = {raw}\n", encoding="utf-8")
        self.check(p)


@pytest.fixture(scope="module")
def valid_ckpt_bytes(tmp_path_factory):
    p = tmp_path_factory.mktemp("ckpt") / "x.vlsc"
    cfg = tiny_train_config(embed_dim=4, heads=1, layers_v=0, layers_t=0,
                            layers_f=0)
    tr.save_checkpoint(tr.init_checkpoint(cfg), p)
    return p.read_bytes()


class TestFuzzCheckpoint:
    def check(self, path):
        try:
            ckpt = tr.load_checkpoint(path)
        except VlscError:
            return
        assert set(ckpt.params) == set(ckpt.m) == set(ckpt.v)
        assert all(type(n) is int and n >= 0 for n in (ckpt.t, ckpt.step))
        for fld in dataclasses.fields(ckpt.config):
            kind = type(getattr(ckpt.config, fld.name)).__name__
            assert kind == fld.type or (kind, fld.type) == ("int", "float")

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_any_bytes(self, tmp_path, data):
        p = tmp_path / "x.vlsc"
        p.write_bytes(data)
        self.check(p)

    def test_deeply_nested_header(self, tmp_path):
        raw = b"[" * 10 ** 5 + b"]" * 10 ** 5
        p = tmp_path / "x.vlsc"
        p.write_bytes(tr.CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(InputError):
            tr.load_checkpoint(p)

    @FUZZ
    @given(edits=BYTE_EDITS, cut=st.integers(0, 2 ** 20))
    def test_mutated_file(self, tmp_path, valid_ckpt_bytes, edits, cut):
        # the edits land in the header, which is where the structure is
        header_end = len(valid_ckpt_bytes) - len(
            split_ckpt(valid_ckpt_bytes)[1])
        edits = [(pos % header_end, val) for pos, val in edits]
        p = tmp_path / "x.vlsc"
        p.write_bytes(mutate(valid_ckpt_bytes, edits, cut))
        self.check(p)

    @FUZZ
    @given(where=st.sampled_from(["config", "top", "array"]),
           key=st.text(max_size=20), value=JSON_VALUES,
           pick=st.integers(0, 10 ** 6))
    def test_any_header_value(self, tmp_path, valid_ckpt_bytes, where, key,
                              value, pick):
        header, body = split_ckpt(valid_ckpt_bytes)
        target = {"config": header["config"], "top": header,
                  "array": header["arrays"][pick % len(header["arrays"])]
                  }[where]
        keys = sorted(target)
        target[keys[pick % len(keys)] if pick % 3 else key] = value
        p = tmp_path / "x.vlsc"
        p.write_bytes(join_ckpt(header, body))
        self.check(p)
