"""Retrieval evaluation and cross-attention heatmap export.

Retrieval runs in two stages: a cosine shortlist over the projected
uni-modal globals, then an optional re-ranking of the top k candidates
by the match head's positive-class logit. The whole corpus is encoded
in one pass per encoder. k=0 skips re-ranking and runs no fusion work.
For k > 0 the layer-0 fusion prefix of every vision stream and every
caption (FusionEncoder.prefix) is built once, in one pass per stream.
Then the (text, vision) candidate pairs of every query in both
directions are collected, and each distinct pair is scored once:
match_scores calls of up to RERANK_ROW_BUDGET vision-token rows each
gather their pairs' prefixes and finish only the rows the match head
reads, dealt round-robin to one thread per usable core. Each query is
then re-ranked from the table of scores. The calls do not depend on
the core count, so neither do the scores. A pair's score can differ in
its last bits from the one a call of another size gives, since BLAS
may round products of another shape otherwise.

Heatmaps come from the text-[CLS] query row of the text-to-vision
cross-attention in the last fusion layer: per-head weights are kept
raw for the CSV, max-pooled across heads, min-max normalized per
frame, and written as an ASCII portable graymap per frame. Key columns
without a pixel location (frame summaries, the global token) are
dropped before pooling since they have no place on the patch grid.
A flat map (max equals min) normalizes to all zeros by convention.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .encoders import FusionPrefix
from .errors import InputError
from .host import usable_cores
from .model import PretrainModel
from .synthdata import PAD_ID, write_atomic
from .tensor import Tensor, no_grad

# Re-ranking fuses its candidate pairs in match_scores calls of a
# multiple of 8 pairs within RERANK_ROW_BUDGET vision-token rows, and of
# 8 pairs at least. The multiple of 8 is a speed choice: on a 2-core
# Xeon, 16 video pairs (68 rows each) re-ranked at k=8 in 120 ms in
# 8-pair calls and in 125 ms in 7-pair calls.
RERANK_ROW_BUDGET = 512


@dataclass
class RetrievalResult:
    n: int
    k: int
    ir_r1: float
    ir_r5: float
    ir_r10: float
    tr_r1: float
    tr_r5: float
    tr_r10: float

    CSV_HEADER = "n,k,ir_r1,ir_r5,ir_r10,tr_r1,tr_r5,tr_r10"

    def csv_row(self) -> str:
        return (f"{self.n},{self.k},{self.ir_r1:.17g},{self.ir_r5:.17g},"
                f"{self.ir_r10:.17g},{self.tr_r1:.17g},{self.tr_r5:.17g},"
                f"{self.tr_r10:.17g}")


@dataclass
class EncodedCorpus:
    v_proj: np.ndarray    # (n, D) projected vision globals
    t_proj: np.ndarray    # (n, D) projected text globals
    v_flat: np.ndarray    # (n, n_vis, D) fusion-ready vision streams
    t_tokens: np.ndarray  # (n, K, D)
    text_mask: np.ndarray
    # layer-0 fusion prefixes of every item, once with_prefixes built them
    v_prefix: FusionPrefix | None = None
    t_prefix: FusionPrefix | None = None


def encode_corpus(model: PretrainModel, corpus) -> EncodedCorpus:
    """Uni-modal encodings for every pair, in corpus order."""
    if not corpus:
        raise InputError("empty corpus")
    with no_grad():
        vis = model.vision(np.stack([s.frames for s in corpus]))
        txt = model.text(np.stack([s.caption for s in corpus]))
        pv, pt = model.project_globals(vis.enc_global, txt.enc_global)
    return EncodedCorpus(v_proj=pv.data, t_proj=pt.data,
                         v_flat=vis.flat.data, t_tokens=txt.tokens.data,
                         text_mask=txt.additive_mask)


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return an @ bn.T


def with_prefixes(model: PretrainModel, enc: EncodedCorpus) -> EncodedCorpus:
    """enc with the tables match_scores reads: the layer-0 fusion prefix
    of every vision stream and every caption, in one pass per stream."""
    with no_grad():
        v_prefix = model.fusion.prefix(Tensor(enc.v_flat), "v")
        t_prefix = model.fusion.prefix(Tensor(enc.t_tokens), "t",
                                       enc.text_mask)
    return dataclasses.replace(enc, v_prefix=v_prefix, t_prefix=t_prefix)


def match_scores(model: PretrainModel, enc: EncodedCorpus,
                 text_idx: np.ndarray, vis_idx: np.ndarray) -> np.ndarray:
    """Positive-class match logit for each (text_idx[j], vis_idx[j])
    pair, fused in one batch from the pairs' layer-0 prefixes, gathered
    from the tables with_prefixes put in enc."""
    with no_grad():
        v_g, t_g = model.fuse_prefixes(enc.v_prefix.take(vis_idx),
                                       enc.t_prefix.take(text_idx),
                                       enc.text_mask[text_idx])
        return model.vtm_logits(v_g, t_g).data[:, 1]


def rerank(order: np.ndarray, k: int, scores: np.ndarray) -> np.ndarray:
    """Reorder the first k entries of a ranking by descending score;
    the tail keeps its stage-1 order."""
    top = order[:k]
    else_part = order[k:]
    reord = top[np.argsort(-scores, kind="stable")]
    return np.concatenate([reord, else_part])


def _recalls(orders: np.ndarray) -> tuple:
    """Recall at 1, 5 and 10, where row q of orders ranks query q's
    candidates and q is its own pair."""
    ranks = np.nonzero(orders == np.arange(len(orders))[:, None])[1]
    return tuple(float(np.mean(ranks < kk)) for kk in (1, 5, 10))


def chunk_pairs(n_vis: int) -> int:
    """Pairs per re-ranking match_scores call, for n_vis vision tokens
    per sample: the most within RERANK_ROW_BUDGET vision-token rows,
    rounded down to a multiple of 8, and 8 at least."""
    return 8 * max(1, RERANK_ROW_BUDGET // (8 * n_vis))


def score_pairs(model: PretrainModel, enc: EncodedCorpus,
                text_idx: np.ndarray, vis_idx: np.ndarray) -> np.ndarray:
    """match_scores of every (text_idx[j], vis_idx[j]) pair, in calls of
    chunk_pairs pairs, dealt round-robin to one thread per usable core.
    The calling thread scores its own share, so a 1-core host starts no
    helper, and every helper has ended when this returns or raises the
    first error a share met. Scores come back by call, so the scheduling
    cannot move a bit of them."""
    size = chunk_pairs(enc.v_flat.shape[1])
    starts = range(0, len(text_idx), size)
    scores = [None] * len(starts)
    workers = min(usable_cores(), len(starts))

    errors = []

    def share(w: int) -> None:
        try:
            for c in range(w, len(starts), workers):
                lo = starts[c]
                scores[c] = match_scores(model, enc,
                                         text_idx[lo:lo + size],
                                         vis_idx[lo:lo + size])
        except BaseException as e:  # raised again by the calling thread
            errors.append(e)

    # one thread per helper share: a pool could hand two shares to one
    # thread that finished its first before the second was submitted
    helpers = [threading.Thread(target=share, args=(w,))
               for w in range(1, workers)]
    for h in helpers:
        h.start()
    share(0)
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]
    return np.concatenate(scores)


def _candidate_scores(model: PretrainModel, enc: EncodedCorpus,
                      t_top: np.ndarray, v_top: np.ndarray) -> np.ndarray:
    """(n, n) match scores, rows text and columns vision, set at every
    pair a query's shortlist holds: row q of t_top lists text query q's
    vision candidates, row q of v_top vision query q's text candidates.
    Each distinct pair is scored once; the other entries are NaN."""
    n, k = t_top.shape
    queries = np.repeat(np.arange(n), k)
    pairs = np.unique(np.concatenate([queries * n + t_top.ravel(),
                                      v_top.ravel() * n + queries]))
    text_idx, vis_idx = np.divmod(pairs, n)
    table = np.full((n, n), np.nan)
    table[text_idx, vis_idx] = score_pairs(model, enc, text_idx, vis_idx)
    return table


def _reranked(orders: np.ndarray, k: int, scores: np.ndarray) -> np.ndarray:
    """Row q of orders, query q's stage-1 ordering, with its first k
    re-ranked by row q of scores."""
    return np.stack([rerank(order, k, row[order[:k]])
                     for order, row in zip(orders, scores)])


def retrieve(model: PretrainModel, corpus, k: int = 0) -> RetrievalResult:
    n = len(corpus)
    if n < 1:
        raise InputError("retrieval needs at least one pair")
    if k < 0 or k > n:
        raise InputError(f"re-rank depth {k} outside [0, {n}]")
    enc = encode_corpus(model, corpus)
    sims = cosine_matrix(enc.t_proj, enc.v_proj)  # rows: text queries
    t_orders = np.argsort(-sims, axis=1, kind="stable")
    v_orders = np.argsort(-sims.T, axis=1, kind="stable")
    if k > 0:
        enc = with_prefixes(model, enc)
        scores = _candidate_scores(model, enc, t_orders[:, :k],
                                   v_orders[:, :k])
        t_orders = _reranked(t_orders, k, scores)
        v_orders = _reranked(v_orders, k, scores.T)
    ir = _recalls(t_orders)
    tr = _recalls(v_orders)
    return RetrievalResult(n=n, k=k, ir_r1=ir[0], ir_r5=ir[1],
                           ir_r10=ir[2], tr_r1=tr[0], tr_r5=tr[1],
                           tr_r10=tr[2])


# heatmaps


@dataclass
class Heatmap:
    frame: int
    grid: np.ndarray       # (gh, gw) in [0, 1]
    per_head: np.ndarray   # (heads, N) raw weights
    pooled_raw: np.ndarray  # (N,) max over heads, pre-normalization


def normalize_map(pooled: np.ndarray) -> tuple:
    """Min-max to [0, 1]; a flat map becomes all zeros."""
    vmin = float(pooled.min())
    vmax = float(pooled.max())
    if vmax == vmin:
        return np.zeros_like(pooled), vmin, vmax
    return (pooled - vmin) / (vmax - vmin), vmin, vmax


def cls_attention_row(model: PretrainModel, frames: np.ndarray,
                      caption: np.ndarray):
    """(heads, n_vis) text-[CLS] row of the last fusion layer's
    text-to-vision attention, plus the token layout arrays."""
    if np.all(caption == PAD_ID):
        raise InputError("caption is all padding")
    if model.config.layers_f == 0:
        raise InputError("the model has no fusion layer, so no "
                         "cross-attention to export")
    with no_grad():
        fwd = model.forward(frames[None], caption[None])
    last = fwd.fusion.cross_attention[-1][0]  # (h, K, n_vis)
    return last[:, 0, :], fwd.token_frames, fwd.token_patches


def sample_heatmaps(model: PretrainModel, sample) -> list:
    """One Heatmap per frame for a paired sample."""
    row, token_frames, token_patches = cls_attention_row(
        model, sample.frames, sample.caption)
    side = model.config.grid_side
    maps = []
    for f in range(sample.frames.shape[0]):
        cols = (token_frames == f) & (token_patches >= 0)
        per_head = row[:, cols]                   # (h, N) patch order
        pooled = per_head.max(axis=0)
        norm = normalize_map(pooled)[0]
        maps.append(Heatmap(frame=f, grid=norm.reshape(side, side),
                            per_head=per_head, pooled_raw=pooled))
    return maps


def pgm_bytes(grid: np.ndarray) -> bytes:
    gh, gw = grid.shape
    lines = [f"P2\n{gw} {gh}\n255"]
    for r in range(gh):
        lines.append(" ".join(
            str(int(math.floor(v * 255.0 + 0.5))) for v in grid[r]))
    return ("\n".join(lines) + "\n").encode()


def csv_bytes(hm: Heatmap) -> bytes:
    lines = []
    for h in range(hm.per_head.shape[0]):
        vals = ",".join(f"{v:.17g}" for v in hm.per_head[h])
        lines.append(f"head{h},{vals}")
    pooled = ",".join(f"{v:.17g}" for v in hm.pooled_raw)
    lines.append(f"pooled,{pooled}")
    return ("\n".join(lines) + "\n").encode()


def export_attention(model: PretrainModel, sample, out_dir,
                     prefix: str = "attn"):
    """Write one .pgm and one .csv per frame, each atomically; returns
    (heatmaps, paths). Output is a pure function of checkpoint and
    sample. Raises InputError, before any directory is made, on an
    empty prefix or one that names a directory."""
    if not prefix or any(sep and sep in prefix
                         for sep in (os.sep, os.altsep)):
        raise InputError(f"--prefix {prefix!r} must be a non-empty file "
                         f"name prefix, without a path separator")
    maps = sample_heatmaps(model, sample)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for hm in maps:
        stem = os.path.join(out_dir, f"{prefix}_frame{hm.frame}")
        write_atomic(stem + ".pgm", [pgm_bytes(hm.grid)])
        write_atomic(stem + ".csv", [csv_bytes(hm)])
        paths.extend([stem + ".pgm", stem + ".csv"])
    return maps, paths
