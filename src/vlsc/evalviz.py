"""Retrieval evaluation and cross-attention heatmap export.

Retrieval runs in two stages: a cosine shortlist over the projected
uni-modal globals, then an optional re-ranking of the top k candidates
by the match head's positive-class logit. k=0 skips re-ranking.

Heatmaps come from the text-[CLS] query row of the text-to-vision
cross-attention in the last fusion layer: per-head weights are kept
raw for the CSV, max-pooled across heads, min-max normalized per
frame, and written as an ASCII portable graymap per frame. Key columns
without a pixel location (frame summaries, the global token) are
dropped before pooling since they have no place on the patch grid.
A flat map (max equals min) normalizes to all zeros by convention.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import PretrainModel
from .synthdata import PAD_ID
from .tensor import Tensor, no_grad


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
    frames_m: int


def encode_corpus(model: PretrainModel, corpus,
                  batch_size: int = 16) -> EncodedCorpus:
    """Uni-modal encodings for every pair, in corpus order."""
    if not corpus:
        raise InputError("empty corpus")
    vp, tp, vf, tt, tm = [], [], [], [], []
    for lo in range(0, len(corpus), batch_size):
        chunk = corpus[lo:lo + batch_size]
        frames = np.stack([s.frames for s in chunk])
        caps = np.stack([s.caption for s in chunk])
        with no_grad():
            vis = model.vision(frames)
            txt = model.text(caps)
            pv, pt = model.project_globals(vis.enc_global, txt.enc_global)
        vp.append(pv.data)
        tp.append(pt.data)
        vf.append(vis.flat.data)
        tt.append(txt.tokens.data)
        tm.append(txt.additive_mask)
    return EncodedCorpus(v_proj=np.concatenate(vp),
                         t_proj=np.concatenate(tp),
                         v_flat=np.concatenate(vf),
                         t_tokens=np.concatenate(tt),
                         text_mask=np.concatenate(tm),
                         frames_m=corpus[0].frames.shape[0])


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return an @ bn.T


def match_scores(model: PretrainModel, enc: EncodedCorpus,
                 text_idx: np.ndarray, vis_idx: np.ndarray) -> np.ndarray:
    """Positive-class match logit for each (text_idx[j], vis_idx[j])
    pair, fused in one batch."""
    with no_grad():
        _, v_g, t_g = model.fuse_pair(Tensor(enc.v_flat[vis_idx]),
                                      Tensor(enc.t_tokens[text_idx]),
                                      enc.text_mask[text_idx],
                                      enc.frames_m, train=False)
        return model.vtm_logits(v_g, t_g).data[:, 1]


def rerank(order: np.ndarray, k: int, scores: np.ndarray) -> np.ndarray:
    """Reorder the first k entries of a ranking by descending score;
    the tail keeps its stage-1 order."""
    top = order[:k]
    else_part = order[k:]
    reord = top[np.argsort(-scores, kind="stable")]
    return np.concatenate([reord, else_part])


def _recalls(ranks: np.ndarray) -> tuple:
    return tuple(float(np.mean(ranks < kk)) for kk in (1, 5, 10))


def _query_ranks(model: PretrainModel, enc: EncodedCorpus,
                 sims: np.ndarray, k: int, text_queries: bool) -> np.ndarray:
    """Rank of each query's own pair in its candidate ordering; row q
    of sims scores query q against every candidate."""
    n = sims.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for q in range(n):
        order = np.argsort(-sims[q], kind="stable")
        if k > 0:
            query = np.full(k, q, dtype=np.int64)
            text_idx, vis_idx = ((query, order[:k]) if text_queries
                                 else (order[:k], query))
            order = rerank(order, k,
                           match_scores(model, enc, text_idx, vis_idx))
        ranks[q] = int(np.nonzero(order == q)[0][0])
    return ranks


def retrieve(model: PretrainModel, corpus, k: int = 0,
             batch_size: int = 16) -> RetrievalResult:
    n = len(corpus)
    if n < 1:
        raise InputError("retrieval needs at least one pair")
    if k < 0 or k > n:
        raise InputError(f"re-rank depth {k} outside [0, {n}]")
    enc = encode_corpus(model, corpus, batch_size=batch_size)
    sims = cosine_matrix(enc.t_proj, enc.v_proj)  # rows: text queries
    ir = _recalls(_query_ranks(model, enc, sims, k, text_queries=True))
    tr = _recalls(_query_ranks(model, enc, sims.T, k, text_queries=False))
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
    vmin: float
    vmax: float


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
    with no_grad():
        fwd = model.forward(frames[None], caption[None], train=False)
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
        norm, vmin, vmax = normalize_map(pooled)
        maps.append(Heatmap(frame=f, grid=norm.reshape(side, side),
                            per_head=per_head, pooled_raw=pooled,
                            vmin=vmin, vmax=vmax))
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
    """Write one .pgm and one .csv per frame; returns (heatmaps,
    paths). Output is a pure function of checkpoint and sample."""
    maps = sample_heatmaps(model, sample)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for hm in maps:
        stem = os.path.join(out_dir, f"{prefix}_frame{hm.frame}")
        with open(stem + ".pgm", "wb") as f:
            f.write(pgm_bytes(hm.grid))
        with open(stem + ".csv", "wb") as f:
            f.write(csv_bytes(hm))
        paths.extend([stem + ".pgm", stem + ".csv"])
    return maps, paths
