import dataclasses

import numpy as np
import pytest

from vlsc import masking as mk
from vlsc import objectives as obj
from vlsc import synthdata as sd
from vlsc import tensor as T
from vlsc.encoders import TextEncoder, VisionEncoder
from vlsc.errors import ConfigError
from vlsc.gradcheck import grad_check
from vlsc.model import PretrainModel
from vlsc.tensor import Tensor
from vlsc.trainer import TrainConfig


def tiny_config(**kw):
    base = dict(embed_dim=8, heads=2, layers_v=1, layers_t=1, layers_f=1,
                patch_size=4, canvas=8, frames_m=2, phase="video",
                k_max=8, vocab_size=64, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def make_batch(n, m=1, cfg=None, seed=0):
    cfg = cfg or tiny_config()
    rng = np.random.default_rng(seed)
    frames = rng.uniform(size=(n, m, sd.CHANNELS, cfg.canvas, cfg.canvas))
    words = ["red", "green", "blue", "square", "cross", "bar", "top", "left"]
    caps = np.stack([
        sd.tokenize(f"{words[i % 8]} {words[(i + 3) % 8]}", cfg.k_max)
        for i in range(n)])
    return frames, caps


def rngs(seed=0, step=0):
    return {name: np.random.default_rng([seed, step, i])
            for i, name in enumerate(["clean", "vtm", "mlm", "scl"])}


def scl(model, frames, caps, *args, **kw):
    """scl_loss on freshly encoded complete frames and captions."""
    return obj.scl_loss(model, frames, caps, model.vision(frames),
                        model.text(caps), *args, **kw)


class TestInfoNce:
    def test_b1_exactly_zero(self):
        a = Tensor(np.random.default_rng(0).normal(size=(1, 6)))
        b = Tensor(np.random.default_rng(1).normal(size=(1, 6)))
        assert obj.info_nce(a, b, 0.03).item() == 0.0

    def test_uniform_similarities_ln_b(self):
        # identical rows on both sides make every similarity equal
        for n in (2, 5, 8):
            a = Tensor(np.tile(np.array([1.0, 2.0, -1.0]), (n, 1)))
            b = Tensor(np.tile(np.array([0.5, -1.0, 2.0]), (n, 1)))
            loss = obj.info_nce(a, b, 0.07).item()
            assert abs(loss - np.log(n)) <= 1e-10

    def test_identity_similarity_hand_computed(self):
        a = Tensor(np.eye(2))
        loss = obj.info_nce(a, a, 0.03).item()
        expected = np.log1p(np.exp(-1.0 / 0.03))
        assert abs(loss - expected) <= 1e-15
        assert 0.0 < loss < 1e-14

    def test_symmetric_matrix_directions_equal(self):
        a = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        fwd = obj.info_nce(a, a, 0.5).item()
        rev = obj.info_nce(a, a, 0.5).item()
        assert fwd == rev

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Tensor(rng.normal(size=(3, 5)))
            b = Tensor(rng.normal(size=(3, 5)))
            assert obj.info_nce(a, b, 0.2).item() >= 0.0


class TestContrastive:
    def test_b1_zero(self):
        model = PretrainModel(tiny_config())
        frames, caps = make_batch(1)
        out = model.forward(frames, caps)
        loss = obj.contrastive_loss(model, out.v_enc_global,
                                    out.t_enc_global)
        assert loss.item() == 0.0

    def test_matches_brute_force(self):
        model = PretrainModel(tiny_config(seed=1))
        frames, caps = make_batch(4, seed=5)
        out = model.forward(frames, caps)
        loss = obj.contrastive_loss(model, out.v_enc_global,
                                    out.t_enc_global).item()

        reg = model.params
        v = out.v_enc_global.data @ reg["head.phi_v.w"].data \
            + reg["head.phi_v.b"].data
        t = out.t_enc_global.data @ reg["head.phi_t.w"].data \
            + reg["head.phi_t.b"].data
        tau = float(np.clip(reg["head.cl_tau"].data[0], 1e-3, 1.0))
        sims = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                sims[i, j] = v[i] @ t[j] / (np.linalg.norm(v[i])
                                            * np.linalg.norm(t[j]))
        expected = 0.0
        for mat in (sims, sims.T):
            for i in range(4):
                row = mat[i] / tau
                expected -= (row[i] - np.log(np.exp(row - row.max()).sum())
                             - row.max()) / 4
        assert abs(loss - expected) <= 1e-10

    def test_temperature_clamped(self):
        model = PretrainModel(tiny_config(seed=2))
        model.params["head.cl_tau"].data[:] = 5.0
        assert model.cl_temperature().item() == 1.0
        model.params["head.cl_tau"].data[:] = 1e-9
        assert model.cl_temperature().item() == 1e-3


class TestVtm:
    def test_uniform_logits_ln2(self):
        model = PretrainModel(tiny_config(seed=3))
        model.params["head.vtm.w"].data[:] = 0
        model.params["head.vtm.b"].data[:] = 0
        frames, caps = make_batch(4, seed=6)
        loss = obj.vtm_loss(model, model.vision(frames), model.text(caps),
                            np.random.default_rng(0))
        assert abs(loss.item() - np.log(2.0)) <= 1e-10

    def test_negative_never_self(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 8):
            for _ in range(300):
                neg = obj.vtm_negative_indices(n, rng)
                assert np.all(neg != np.arange(n))
                assert np.all((0 <= neg) & (neg < n))

    def test_b1_config_error(self):
        model = PretrainModel(tiny_config())
        frames, caps = make_batch(1)
        with pytest.raises(ConfigError):
            obj.vtm_loss(model, model.vision(frames), model.text(caps),
                         np.random.default_rng(0))


class TestMlm:
    def test_uniform_logits_ln_vocab(self):
        model = PretrainModel(tiny_config(seed=5))
        model.params["head.mlm.w"].data[:] = 0
        model.params["head.mlm.b"].data[:] = 0
        frames, caps = make_batch(3, seed=7)
        loss, n_pred = obj.mlm_loss(model, model.vision(frames), caps,
                                    np.random.default_rng(1))
        assert n_pred >= 3
        assert abs(loss.item() - np.log(64.0)) <= 1e-10

    def test_one_hot_correct_logits_near_zero(self):
        cfg = tiny_config(seed=6)
        model = PretrainModel(cfg)
        caps = np.stack([sd.tokenize("red", cfg.k_max)])
        frames, _ = make_batch(1, cfg=cfg)
        label = sd.VOCAB.id("red")
        model.params["head.mlm.w"].data[:] = 0
        model.params["head.mlm.b"].data[:] = 0
        model.params["head.mlm.b"].data[label] = 60.0
        loss, n_pred = obj.mlm_loss(model, model.vision(frames), caps,
                                    np.random.default_rng(2))
        assert n_pred == 1
        assert loss.item() <= 1e-12

    def test_gradient_only_at_masked_rows(self):
        # replicate the pipeline so the fused text tokens stay inspectable
        cfg = tiny_config(seed=7)
        model = PretrainModel(cfg)
        frames, caps = make_batch(2, seed=8)
        rng = np.random.default_rng(3)
        masked, picks = zip(*(mk.plan_mlm_mask(c, rng) for c in caps))
        rows = np.repeat(np.arange(2), [p.size for p in picks])
        cols = np.concatenate(picks)
        out = model.forward(frames, np.stack(masked))
        picked = out.fusion.text_tokens[rows, cols]
        loss = T.cross_entropy(model.mlm_logits(picked), caps[rows, cols])
        model.params.zero_grad()
        loss.backward()
        g = out.fusion.text_tokens.grad
        assert g is not None
        hit = np.zeros(g.shape[:2], dtype=bool)
        hit[rows, cols] = True
        assert np.all(g[~hit] == 0.0)
        assert np.any(g[hit] != 0.0)


class TestScl:
    def test_b1_zero(self):
        model = PretrainModel(tiny_config(seed=8))
        frames, caps = make_batch(1)
        loss, _ = scl(model, frames, caps, 0.8, 0.4, np.random.default_rng(0))
        assert loss.item() == 0.0

    def test_exactly_two_forwards(self):
        model = PretrainModel(tiny_config(seed=9))
        frames, caps = make_batch(3, seed=9)
        before = model.forward_count
        scl(model, frames, caps, 0.8, 0.4, np.random.default_rng(1))
        assert model.forward_count - before == 2

    def test_zero_ratios_identical_passes(self):
        model = PretrainModel(tiny_config(seed=10))
        frames, caps = make_batch(3, seed=10)
        _, pair = scl(model, frames, caps, 0.0, 0.0, np.random.default_rng(2))
        np.testing.assert_array_equal(pair.i_re.data, pair.i_co.data)
        np.testing.assert_array_equal(pair.t_re.data, pair.t_co.data)
        sims = T.cosine_similarity_matrix(pair.i_re, pair.i_co).data
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-6)

    @staticmethod
    def live_and_frozen_grads(seed, rng_seed, mvsc, mlsc):
        """The parameter gradient of scl_loss with its own detached
        targets, then with frozen_targets set to the values they held."""
        model = PretrainModel(tiny_config(seed=seed))
        frames, caps = make_batch(3, seed=seed)
        grads, frozen = [], None
        for _ in range(2):
            loss, pair = scl(model, frames, caps, 0.8, 0.4,
                             np.random.default_rng(rng_seed), mvsc=mvsc,
                             mlsc=mlsc, frozen_targets=frozen)
            model.params.zero_grad()
            loss.backward()
            grads.append(model.params.flat_grad())
            frozen = (pair.i_co.data, pair.t_co.data)
        return grads

    def test_detach_isolates_complete_image_pass(self):
        # visual-side completion only: the complete-image pass (pass 2)
        # gives a constant target, so no gradient flows through it
        live, frozen = self.live_and_frozen_grads(11, 3, mvsc=True,
                                                  mlsc=False)
        np.testing.assert_array_equal(live, frozen)
        assert np.any(live != 0.0)

    def test_detach_isolates_complete_text_pass(self):
        live, frozen = self.live_and_frozen_grads(12, 4, mvsc=False,
                                                  mlsc=True)
        np.testing.assert_array_equal(live, frozen)
        assert np.any(live != 0.0)

    def test_toggles_sum_to_full(self):
        model = PretrainModel(tiny_config(seed=13))
        frames, caps = make_batch(3, seed=13)
        both, _ = scl(model, frames, caps, 0.8, 0.4, np.random.default_rng(5))
        v_only, _ = scl(model, frames, caps, 0.8, 0.4,
                        np.random.default_rng(5), mlsc=False)
        l_only, _ = scl(model, frames, caps, 0.8, 0.4,
                        np.random.default_rng(5), mvsc=False)
        assert abs(both.item() - (v_only.item() + l_only.item())) <= 1e-12

    def test_both_sides_off_rejected(self):
        model = PretrainModel(tiny_config())
        frames, caps = make_batch(2)
        with pytest.raises(ConfigError):
            scl(model, frames, caps, 0.8, 0.4,
                np.random.default_rng(0), mvsc=False, mlsc=False)


class TestTotal:
    def test_only_mlm(self):
        cfg = tiny_config(seed=14, cl=False, vtm=False, mlm=True, scl=False)
        model = PretrainModel(cfg)
        frames, caps = make_batch(3, seed=14)
        report, total = obj.total_loss(model, frames, caps, cfg, rngs())
        assert report.total == report.mlm == total.item()
        assert report.cl is None and report.vtm is None
        assert report.scl is None

    def test_all_enabled_additivity(self):
        model = PretrainModel(tiny_config(seed=15))
        frames, caps = make_batch(4, seed=15)
        report, total = obj.total_loss(model, frames, caps, model.config,
                                       rngs())
        parts = report.cl + report.vtm + report.mlm + report.scl
        assert abs(report.total - parts) <= 1e-12
        assert total.item() == report.total

    def test_component_independence(self):
        # dropping CL must not move any other component's value
        frames, caps = make_batch(4, seed=16)
        values = {}
        for with_cl in (True, False):
            cfg = tiny_config(seed=16, cl=with_cl)
            model = PretrainModel(cfg)
            report, _ = obj.total_loss(model, frames, caps, cfg, rngs(7))
            values[with_cl] = (report.vtm, report.mlm, report.scl)
        assert values[True] == values[False]

    def test_train_mode_toggles_keep_other_draws(self):
        # with dropout on, dropping any one objective must not move any
        # other component's value
        cfg = tiny_config(dropout=0.1, seed=19)
        frames, caps = make_batch(4, seed=19)

        def run(model_cfg=cfg, **off):
            model = PretrainModel(model_cfg)
            report, _ = obj.total_loss(model, frames, caps,
                                       dataclasses.replace(cfg, **off),
                                       rngs(8))
            return report

        full = run()
        assert run(dataclasses.replace(cfg, dropout=0.0)).cl != full.cl
        names = ("cl", "vtm", "mlm", "scl")
        for off in names:
            part = run(**{off: False})
            assert getattr(part, off) is None
            for other in names:
                if other != off:
                    assert getattr(part, other) == getattr(full, other), \
                        (off, other)
        # the complete inputs are encoded on "clean": vision, then text
        model = PretrainModel(cfg)
        clean = rngs(8)["clean"]
        vis = model.vision(frames, rng=clean)
        txt = model.text(caps, rng=clean)
        cl = obj.contrastive_loss(model, vis.enc_global, txt.enc_global)
        assert cl.item() == full.cl

    @pytest.mark.parametrize("off, vision, text, fused", [
        ({}, 2, 3, 5),
        (dict(cl=False, vtm=False, scl=False), 1, 1, 1),
        (dict(vtm=False, mlm=False, scl=False), 1, 1, 0),
    ])
    def test_encode_and_fuse_counts(self, monkeypatch, off, vision, text,
                                    fused):
        calls = {VisionEncoder: 0, TextEncoder: 0}
        for cls in calls:
            def counted(self, *args, _cls=cls, _call=cls.__call__, **kw):
                calls[_cls] += 1
                return _call(self, *args, **kw)
            monkeypatch.setattr(cls, "__call__", counted)
        model = PretrainModel(tiny_config(seed=18, **off))
        frames, caps = make_batch(3, seed=18)
        obj.total_loss(model, frames, caps, model.config, rngs())
        assert calls == {VisionEncoder: vision, TextEncoder: text}
        assert model.forward_count == fused

    # exact (cl, vtm, mlm, scl) of a fixed eval-mode batch, per (variant,
    # M): any change to the arithmetic of the four losses shows here
    PINNED = {
        ("FrameCLS", 1): (2.789259351477725, 0.6939344177165006,
                          4.180417806267129, 2.755858390505778),
        ("FrameCLS", 2): (2.794171931523625, 0.6941948287271851,
                          4.180414171466472, 2.738337537050106),
        ("MeanPooling", 2): (3.1343899243351174, 0.6936228851590314,
                             4.138104592022714, 2.7408399667771),
        ("GlobalCLS", 2): (2.846627688034359, 0.6933189368187367,
                           4.131555895132802, 2.7547143331969255),
    }

    @pytest.mark.parametrize("variant, m", list(PINNED), ids=[
        "1", "2", "MeanPooling-2", "GlobalCLS-2"])
    def test_eval_values_pinned(self, variant, m):
        cfg = tiny_config(dropout=0.0, seed=21, variant=variant)
        model = PretrainModel(cfg)
        frames, caps = make_batch(4, m=m, cfg=cfg, seed=21)
        report, _ = obj.total_loss(model, frames, caps, cfg, rngs(5, 2))
        assert (report.cl, report.vtm, report.mlm,
                report.scl) == self.PINNED[variant, m]

    def test_all_disabled_rejected(self):
        # the config itself refuses, before any model or loss runs
        with pytest.raises(ConfigError, match="no objective"):
            tiny_config(cl=False, vtm=False, mlm=False, scl=False)


def scl_frozen_targets(model, frames, caps, cfg):
    """Snapshot the detached complete globals at the current parameters.

    The completion loss is a stop-gradient construction: its backward
    deliberately treats the complete-pass globals as constants. A finite
    difference probe that lets those targets drift with the parameters
    measures a different function than the one the optimizer descends,
    so the check must pin them."""
    _, pair = scl(model, frames, caps, cfg.image_mask_ratio,
                  cfg.text_mask_ratio, rngs(3)["scl"])
    return pair.i_co.data.copy(), pair.t_co.data.copy()


class TestObjectiveGradients:
    def test_each_objective_and_total(self):
        full = tiny_config(seed=17)
        model = PretrainModel(full)
        frames, caps = make_batch(3, seed=17)
        frozen = scl_frozen_targets(model, frames, caps, full)

        def scl_term():
            return scl(model, frames, caps, full.image_mask_ratio,
                       full.text_mask_ratio, rngs(3)["scl"],
                       frozen_targets=frozen)[0]

        cases = {
            "cl": dataclasses.replace(full, vtm=False, mlm=False, scl=False),
            "vtm": dataclasses.replace(full, cl=False, mlm=False, scl=False),
            "mlm": dataclasses.replace(full, cl=False, vtm=False, scl=False),
        }
        for name, cfg in cases.items():
            def loss():
                _, t = obj.total_loss(model, frames, caps, cfg, rngs(3))
                return t
            err = grad_check(loss, model.params, eps=2e-4,
                             max_elements=64, seed=1)
            assert err <= 1e-4, f"{name}: {err}"

        err = grad_check(scl_term, model.params, eps=2e-4,
                         max_elements=64, seed=1)
        assert err <= 1e-4, f"scl: {err}"

        # freezing at the center point must not change the value itself
        no_scl = dataclasses.replace(full, scl=False)
        _, live_total = obj.total_loss(model, frames, caps, full, rngs(3))
        composed = obj.total_loss(model, frames, caps, no_scl,
                                  rngs(3))[1].item() + scl_term().item()
        assert abs(live_total.item() - composed) <= 1e-12

        def total():
            _, t3 = obj.total_loss(model, frames, caps, no_scl, rngs(3))
            return t3 + scl_term()
        err = grad_check(total, model.params, eps=2e-4,
                         max_elements=64, seed=1)
        assert err <= 1e-4, f"total: {err}"

    def test_scl_live_targets_break_finite_differences(self):
        # the counterexample that motivates frozen targets: with live
        # targets the probe and the backward disagree by O(1)
        full = tiny_config(seed=17)
        model = PretrainModel(full)
        frames, caps = make_batch(3, seed=17)

        def live():
            return scl(model, frames, caps, full.image_mask_ratio,
                       full.text_mask_ratio, rngs(3)["scl"])[0]
        err = grad_check(live, model.params, eps=2e-4,
                         max_elements=64, seed=1)
        assert err > 1e-2
