import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from vlsc import cli
from vlsc import evalviz as ev
from vlsc import synthdata as sd
from vlsc import trainer as tr
from vlsc.encoders import FusionEncoder
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

    def test_encode_corpus_runs_no_fusion(self):
        model = small_model(seed=5)
        ev.encode_corpus(model, corpus(5))
        assert model.forward_count == 0

    def test_match_scores_same_with_graph(self):
        # match_scores runs under no_grad; the same fusion with a graph
        # built gives the same logits to the bit
        model = small_model(seed=6)
        enc = ev.with_prefixes(model, ev.encode_corpus(
            model, corpus(4, frames_m=2)))
        t_idx, v_idx = np.array([0, 1, 2, 3]), np.array([2, 0, 3, 3])
        _, v_g, t_g = model.fuse_pair(Tensor(enc.v_flat[v_idx]),
                                      Tensor(enc.t_tokens[t_idx]),
                                      enc.text_mask[t_idx])
        live = model.vtm_logits(v_g, t_g)
        assert live.requires_grad
        assert np.array_equal(ev.match_scores(model, enc, t_idx, v_idx),
                              live.data[:, 1])

    def test_k0_builds_no_prefix(self, monkeypatch):
        calls = []
        real = FusionEncoder.prefix

        def counted(self, *args, **kw):
            calls.append(None)
            return real(self, *args, **kw)
        monkeypatch.setattr(FusionEncoder, "prefix", counted)
        model = small_model(seed=12)
        c = corpus(5)
        ev.retrieve(model, c, k=0)
        assert calls == [] and model.forward_count == 0
        # k > 0: one vision and one text prefix for the whole corpus,
        # one fused pass per match_scores call; the at most 2 * 5 * 2
        # distinct candidate pairs fit in one call of 24
        ev.retrieve(model, c, k=2)
        assert len(calls) == 2 and model.forward_count == 1

    def test_forward_count_exact_across_threads(self):
        # more threads than cores, switching as often as the interpreter
        # allows: no fused pass may go uncounted
        model = small_model(seed=16)
        enc = ev.with_prefixes(model, ev.encode_corpus(model, corpus(4)))
        t_idx, v_idx = np.array([0, 1]), np.array([2, 3])

        def score():
            for _ in range(25):
                ev.match_scores(model, enc, t_idx, v_idx)
        threads = [threading.Thread(target=score) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert model.forward_count == 4 * 25

    def test_csv_row_shape(self):
        model = small_model()
        r = ev.retrieve(model, corpus(3), k=2)
        row = r.csv_row()
        assert len(row.split(",")) == len(r.CSV_HEADER.split(","))
        assert row.startswith("3,2,")


def reference_scores(model, enc, text_idx, vis_idx):
    """Every fusion row finished, then the match head."""
    _, v_g, t_g = model.fuse_pair(Tensor(enc.v_flat[vis_idx]),
                                  Tensor(enc.t_tokens[text_idx]),
                                  enc.text_mask[text_idx])
    return model.vtm_logits(v_g, t_g).data[:, 1]


class TestMatchScoresExact:
    # the prefix tables and the last layer's row picking may move a score
    # by rounding alone: at most 1e-12 of the largest score. At D=32 a
    # one-row product (k=1, M=1) goes through gemv, which rounds
    # otherwise than the full pass's gemm
    @pytest.mark.parametrize("variant", ["FrameCLS", "MeanPooling",
                                         "GlobalCLS"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("layers_f", [0, 1, 2])
    def test_equals_full_fusion(self, variant, m, layers_f):
        n = 5
        model = small_model(seed=13, variant=variant, layers_f=layers_f,
                            embed_dim=32, heads=4)
        enc = ev.with_prefixes(model, ev.encode_corpus(
            model, corpus(n, frames_m=m)))
        for k in (1, n):
            query = np.full(k, 3)
            cands = np.arange(n)[::-1][:k]
            for t_idx, v_idx in ((query, cands), (cands, query)):
                want = reference_scores(model, enc, t_idx, v_idx)
                got = ev.match_scores(model, enc, t_idx, v_idx)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want))


class TestItemsDoNotMix:
    # the corpus is encoded and prefixed in one pass; each item's rows
    # must be those of a pass over any part of the corpus holding it:
    # at most 1e-12 of the largest entry apart, as BLAS may round
    # products of another shape otherwise
    @pytest.mark.parametrize("variant", ["FrameCLS", "MeanPooling",
                                         "GlobalCLS"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_whole_equals_halves(self, variant, m):
        model = small_model(seed=4, variant=variant, embed_dim=32, heads=4)
        c = corpus(9, frames_m=m, seed=m)
        whole = ev.with_prefixes(model, ev.encode_corpus(model, c))
        halves = [ev.with_prefixes(model, ev.encode_corpus(model, part))
                  for part in (c[:4], c[4:])]

        def tables(enc):
            return [enc.v_proj, enc.t_proj, enc.v_flat, enc.t_tokens,
                    enc.text_mask] + [
                t.data for p in (enc.v_prefix, enc.t_prefix)
                for t in (p.g, p.q, p.k, p.v)]
        for got, *parts in zip(*map(tables, [whole] + halves)):
            ref = np.concatenate(parts)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) \
                <= 1e-12 * np.max(np.abs(ref))


def serial_retrieve(model, c, k):
    """retrieve as one match_scores call per query and direction."""
    enc = ev.with_prefixes(model, ev.encode_corpus(model, c))
    sims = ev.cosine_matrix(enc.t_proj, enc.v_proj)
    recalls = []
    for text_queries, rows in ((True, sims), (False, sims.T)):
        ranks = []
        for q, row in enumerate(rows):
            order = np.argsort(-row, kind="stable")
            query = np.full(k, q)
            t_idx, v_idx = ((query, order[:k]) if text_queries
                            else (order[:k], query))
            order = ev.rerank(order, k,
                              ev.match_scores(model, enc, t_idx, v_idx))
            ranks.append(np.nonzero(order == q)[0][0])
        recalls += [float(np.mean(np.array(ranks) < kk))
                    for kk in (1, 5, 10)]
    return ev.RetrievalResult(len(c), k, *recalls)


def recorded_reranks(monkeypatch):
    """Every (order, scores) pair ev.rerank is called with, in order."""
    seen = []
    real = ev.rerank

    def recording(order, k, scores):
        seen.append((order.copy(), scores.copy()))
        return real(order, k, scores)
    monkeypatch.setattr(ev, "rerank", recording)
    return seen


def one_pair_tail_size(model, m):
    """Corpus size n >= 9 whose n * n pairs at k=n leave one pair for
    the last re-ranking call."""
    n_vis = ev.encode_corpus(model, corpus(1, frames_m=m)).v_flat.shape[1]
    size = ev.chunk_pairs(n_vis)
    return next(n for n in range(9, 40) if n * n % size == 1)


class TestRetrieveMatchesSerial:
    # collecting the distinct pairs, scoring them in row-budgeted calls
    # spread over threads and reading the scores back must give the
    # result of one match_scores call per query and direction, with
    # every score within rounding: at most 1e-12 of the largest score
    @pytest.mark.parametrize("variant", ["FrameCLS", "MeanPooling",
                                         "GlobalCLS"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_same_result(self, variant, m, monkeypatch):
        model = small_model(seed=14, variant=variant, embed_dim=32, heads=4)
        n = one_pair_tail_size(model, m)
        c = corpus(n, frames_m=m, seed=3)
        seen = recorded_reranks(monkeypatch)
        for k in (1, 3, 8, n):
            want = serial_retrieve(model, c, k)
            serial = seen[:]
            seen.clear()
            assert ev.retrieve(model, c, k=k) == want
            assert len(seen) == len(serial) == 2 * n
            for (o1, _), (o2, _) in zip(seen, serial):
                assert np.array_equal(o1, o2)
            got, ref = (np.concatenate([s for _, s in run])
                        for run in (seen, serial))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            seen.clear()

    @pytest.mark.parametrize("m", [1, 2])
    def test_ragged_call_scores_match_one_pair_calls(self, m):
        # every score, also in a last call with one pair of its own, is
        # within rounding of the one a call for its pair alone gives: at
        # most 1e-12 of the largest score
        model = small_model(seed=17, embed_dim=32, heads=4)
        n = 7
        enc = ev.with_prefixes(model, ev.encode_corpus(
            model, corpus(n, frames_m=m)))
        count = 2 * ev.chunk_pairs(enc.v_flat.shape[1]) + 1
        rng = np.random.default_rng(m)
        t_idx, v_idx = rng.integers(0, n, count), rng.integers(0, n, count)
        want = np.concatenate([
            ev.match_scores(model, enc, t_idx[j:j + 1], v_idx[j:j + 1])
            for j in range(count)])
        got = ev.score_pairs(model, enc, t_idx, v_idx)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cores", [1, 3])
    def test_core_count_moves_nothing(self, cores, monkeypatch):
        model = small_model(seed=15, frames_m=1)
        # at k=n, 121 pairs make 6 calls of up to 24 pairs, the last with
        # one pair of its own
        n = 11
        c = corpus(n)
        want = serial_retrieve(model, c, n)
        started = []
        real_start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            real_start(thread)
        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(ev.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        threads = threading.active_count()
        assert ev.retrieve(model, c, k=n) == want
        assert model.forward_count == 2 * n + 6
        assert len(started) == cores - 1
        assert threading.active_count() == threads

    def test_helper_error_reaches_caller(self, monkeypatch):
        # an error in a helper thread's share is raised by retrieve, and
        # no helper outlives the call
        model = small_model(seed=15, frames_m=1)
        real = ev.match_scores

        def failing_in_helpers(*args):
            if threading.current_thread() is not threading.main_thread():
                raise InputError("helper failed")
            return real(*args)
        monkeypatch.setattr(ev, "match_scores", failing_in_helpers)
        monkeypatch.setattr(ev.os, "sched_getaffinity",
                            lambda pid: set(range(3)))
        threads = threading.active_count()
        with pytest.raises(InputError, match="helper failed"):
            ev.retrieve(model, corpus(11), k=11)
        assert threading.active_count() == threads

    def test_host_without_affinity(self, monkeypatch, tmp_path):
        # macOS and Windows have no os.sched_getaffinity; re-ranking
        # then spreads over os.cpu_count() cores
        model = small_model(seed=15, frames_m=1)
        c = corpus(11)
        want = serial_retrieve(model, c, 8)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ev.retrieve(model, c, k=8) == want
        ckpt, corpus_path = tmp_path / "m.vlsc", tmp_path / "c.tsv"
        tr.save_checkpoint(tr.init_checkpoint(model.config), ckpt)
        sd.save_corpus(corpus_path, c)
        assert cli.main(["eval-retrieval", "--ckpt", str(ckpt), "--corpus",
                         str(corpus_path), "--k", "8"]) == 0


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
        fwd = model.forward(s.frames[None], s.caption[None])
        for layer in fwd.fusion.cross_attention:
            sums = layer.sum(axis=-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_all_pad_caption_rejected(self):
        model = small_model()
        s = corpus(1)[0]
        bad = np.zeros_like(s.caption)
        with pytest.raises(InputError):
            ev.cls_attention_row(model, s.frames, bad)

    def test_no_fusion_layer_rejected(self):
        model = small_model(layers_f=0)
        s = corpus(1)[0]
        with pytest.raises(InputError, match="no fusion layer"):
            ev.cls_attention_row(model, s.frames, s.caption)


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
        raw = Path(pgm[0]).read_bytes()
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
            assert Path(x).read_bytes() == Path(y).read_bytes()

    def test_failed_write_keeps_old_file(self, tmp_path, file_size_limit):
        # the .pgm fits under the limit, the .csv fails part-way
        model = small_model(seed=7)
        s = corpus(1)[0]
        _, paths = ev.export_attention(model, s, tmp_path)
        old = {p: Path(p).read_bytes() for p in paths}
        pgm, csv = paths
        assert len(old[pgm]) < 200 < len(old[csv])
        with file_size_limit(200):
            with pytest.raises(OSError):
                ev.export_attention(model, s, tmp_path)
        assert {p: Path(p).read_bytes() for p in paths} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            Path(p).name for p in paths)

    def test_csv_heads_plus_pooled(self, tmp_path):
        model = small_model(seed=8)
        s = corpus(1)[0]
        maps, paths = ev.export_attention(model, s, tmp_path)
        csv = [p for p in paths if p.endswith(".csv")][0]
        lines = Path(csv).read_text().splitlines()
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

    @pytest.mark.parametrize("prefix", ["", "a/b", "/abs"])
    def test_prefix_must_be_a_file_name(self, tmp_path, prefix):
        model = small_model(seed=9)
        with pytest.raises(InputError, match="--prefix"):
            ev.export_attention(model, corpus(1)[0], tmp_path / "new",
                                prefix=prefix)
        assert not (tmp_path / "new").exists()

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
