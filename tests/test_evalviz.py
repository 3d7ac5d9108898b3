import numpy as np
import pytest

from vlsc import evalviz as ev
from vlsc import synthdata as sd
from vlsc.errors import InputError
from vlsc.model import PretrainModel
from vlsc.tensor import Tensor
from vlsc.trainer import TrainConfig


def small_model(seed=0, **kw):
    base = dict(embed_dim=8, heads=2, layers_v=1, layers_t=1, layers_f=1,
                patch_size=4, canvas=16, frames_m=2, phase="video",
                k_max=16, vocab_size=64, dropout=0.0, seed=seed)
    base.update(kw)
    return PretrainModel(TrainConfig(**base))


def corpus(n, frames_m=1, seed=0):
    return sd.generate_corpus(n, frames_m=frames_m, seed=seed)


class TestRetrieve:
    def test_single_pair_trivial(self):
        model = small_model()
        r = ev.retrieve(model, corpus(1), k=0)
        assert (r.ir_r1, r.ir_r5, r.ir_r10) == (1.0, 1.0, 1.0)
        assert (r.tr_r1, r.tr_r5, r.tr_r10) == (1.0, 1.0, 1.0)

    def test_monotone_recalls(self):
        model = small_model(seed=1)
        for k in (0, 4):
            r = ev.retrieve(model, corpus(12), k=k)
            assert 0.0 <= r.ir_r1 <= r.ir_r5 <= r.ir_r10 <= 1.0
            assert 0.0 <= r.tr_r1 <= r.tr_r5 <= r.tr_r10 <= 1.0

    def test_untrained_near_chance(self):
        # fresh init: ranking is arbitrary, so recall@1 sits near 1/n
        model = small_model(seed=2)
        r = ev.retrieve(model, corpus(64), k=0)
        assert r.ir_r1 <= 10 / 64
        assert r.tr_r1 <= 10 / 64

    def test_k_bounds(self):
        model = small_model()
        c = corpus(4)
        with pytest.raises(InputError):
            ev.retrieve(model, c, k=5)
        with pytest.raises(InputError):
            ev.retrieve(model, c, k=-1)
        with pytest.raises(InputError):
            ev.retrieve(model, [], k=0)

    def test_rerank_depth_changes_ranking_path(self):
        # k=n re-scores every candidate with the match head; the result
        # must still be a valid recall set even if it disagrees with
        # the cosine stage
        model = small_model(seed=3)
        c = corpus(6)
        r = ev.retrieve(model, c, k=6)
        assert 0.0 <= r.ir_r1 <= r.ir_r10 <= 1.0
        assert r.k == 6

    def test_batching_invariance(self):
        # chunk size is an implementation detail and must not move
        # any recall
        model = small_model(seed=4)
        c = corpus(9)
        a = ev.retrieve(model, c, k=3, batch_size=2)
        b = ev.retrieve(model, c, k=3, batch_size=9)
        assert a == b

    def test_encode_corpus_runs_no_fusion(self):
        model = small_model(seed=5)
        ev.encode_corpus(model, corpus(5), batch_size=2)
        assert model.forward_count == 0

    def test_match_scores_same_with_graph(self):
        # match_scores runs under no_grad; the same fusion with a graph
        # built gives the same logits to the bit
        model = small_model(seed=6)
        enc = ev.encode_corpus(model, corpus(4, frames_m=2), batch_size=3)
        t_idx, v_idx = np.array([0, 1, 2, 3]), np.array([2, 0, 3, 3])
        _, v_g, t_g = model.fuse_pair(Tensor(enc.v_flat[v_idx]),
                                      Tensor(enc.t_tokens[t_idx]),
                                      enc.text_mask[t_idx], enc.frames_m)
        live = model.vtm_logits(v_g, t_g)
        assert live.requires_grad
        assert np.array_equal(ev.match_scores(model, enc, t_idx, v_idx),
                              live.data[:, 1])

    def test_csv_row_shape(self):
        model = small_model()
        r = ev.retrieve(model, corpus(3), k=2)
        row = r.csv_row()
        assert len(row.split(",")) == len(r.CSV_HEADER.split(","))
        assert row.startswith("3,2,")


class TestRerankHelper:
    def test_reorders_head_only(self):
        order = np.array([2, 0, 1, 3])
        scores = np.array([0.1, 5.0])  # candidate 0 beats candidate 2
        out = ev.rerank(order, 2, scores)
        assert out.tolist() == [0, 2, 1, 3]

    def test_stable_on_ties(self):
        order = np.array([4, 1, 0, 3, 2])
        out = ev.rerank(order, 3, np.array([1.0, 1.0, 1.0]))
        assert out.tolist() == [4, 1, 0, 3, 2]

    def test_k_zero_identity(self):
        order = np.array([1, 0])
        out = ev.rerank(order, 0, np.empty(0))
        assert out.tolist() == [1, 0]


class TestAttentionRows:
    def test_rows_sum_to_one(self):
        model = small_model(seed=5)
        s = corpus(1, frames_m=2)[0]
        fwd = model.forward(s.frames[None], s.caption[None], train=False)
        for layer in fwd.fusion.cross_attention:
            sums = layer.sum(axis=-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_all_pad_caption_rejected(self):
        model = small_model()
        s = corpus(1)[0]
        bad = np.zeros_like(s.caption)
        with pytest.raises(InputError):
            ev.cls_attention_row(model, s.frames, bad)


class TestNormalize:
    def test_unit_interval(self):
        rng = np.random.default_rng(0)
        norm, vmin, vmax = ev.normalize_map(rng.uniform(size=16))
        assert norm.min() == 0.0 and norm.max() == 1.0
        assert vmin < vmax

    def test_flat_map_is_zeros(self):
        norm, vmin, vmax = ev.normalize_map(np.full(16, 0.25))
        assert vmin == vmax == 0.25
        assert not norm.any()


class TestHeatmapExport:
    def test_pgm_header_and_payload(self, tmp_path):
        model = small_model(seed=6)
        s = corpus(1)[0]
        _, paths = ev.export_attention(model, s, tmp_path)
        pgm = [p for p in paths if p.endswith(".pgm")]
        assert len(pgm) == 1
        raw = open(pgm[0], "rb").read()
        assert raw.startswith(b"P2\n4 4\n255\n")
        body = raw.decode().splitlines()[3:]
        assert len(body) == 4
        vals = [int(v) for line in body for v in line.split()]
        assert len(vals) == 16
        assert all(0 <= v <= 255 for v in vals)
        assert max(vals) == 255 and min(vals) == 0  # min-max stretch

    def test_byte_identical_reruns(self, tmp_path):
        model = small_model(seed=7)
        s = corpus(1, frames_m=2)[0]
        _, pa = ev.export_attention(model, s, tmp_path / "a")
        _, pb = ev.export_attention(model, s, tmp_path / "b")
        assert len(pa) == len(pb) == 4  # 2 frames x (pgm + csv)
        for x, y in zip(pa, pb):
            assert open(x, "rb").read() == open(y, "rb").read()

    def test_csv_heads_plus_pooled(self, tmp_path):
        model = small_model(seed=8)
        s = corpus(1)[0]
        maps, paths = ev.export_attention(model, s, tmp_path)
        csv = [p for p in paths if p.endswith(".csv")][0]
        lines = open(csv).read().splitlines()
        assert len(lines) == model.config.heads + 1
        heads = np.array([[float(v) for v in ln.split(",")[1:]]
                          for ln in lines[:-1]])
        pooled = np.array([float(v) for v in lines[-1].split(",")[1:]])
        assert lines[-1].startswith("pooled,")
        assert heads.shape == (model.config.heads, 16)
        assert np.array_equal(pooled, heads.max(axis=0))
        assert np.array_equal(pooled, maps[0].pooled_raw)

    def test_per_frame_files(self, tmp_path):
        model = small_model(seed=9)
        s = corpus(1, frames_m=2)[0]
        maps, paths = ev.export_attention(model, s, tmp_path, prefix="x")
        assert [m.frame for m in maps] == [0, 1]
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["x_frame0.csv", "x_frame0.pgm",
                         "x_frame1.csv", "x_frame1.pgm"]

    def test_grid_values_in_unit_interval(self):
        model = small_model(seed=10)
        s = corpus(1)[0]
        maps = ev.sample_heatmaps(model, s)
        assert maps[0].grid.shape == (4, 4)
        assert maps[0].grid.min() >= 0.0
        assert maps[0].grid.max() <= 1.0

    def test_global_token_variant_drops_extra_column(self):
        model = small_model(seed=11, variant="GlobalCLS")
        s = corpus(1)[0]
        maps = ev.sample_heatmaps(model, s)
        assert maps[0].per_head.shape == (2, 16)
