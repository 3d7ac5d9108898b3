"""Transformer encoders: vision (frame-token grid), text, and two-stream
fusion.

All blocks are pre-norm residual: every sublayer ends in the add that
residual() builds once per public call, dropout on the sublayer's output
(train mode only) then the sum. Masks come off the pass's generator in
sublayer order, fusion stream v before t. The vision encoder keeps a fixed
(M, N+1, D) token grid per sample, frame [CLS] at index 0 of each frame;
masked patches are substituted with a learned mask embedding before the
positional sums so geometry never changes. The fusion encoder runs
modality self-attention then symmetric cross-attention per layer and
retains the text-to-vision attention weights of every layer for
visualization. Its pass splits into a per-stream layer-0 prefix, which
re-ranking builds once per corpus item, and a finish that can skip the
last layer's rows a caller never reads.

The encoders read their shape from trainer.TrainConfig, which is checked
on construction: frames_m sizes the temporal position table, and every
frame has synthdata.CHANNELS channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError, ShapeError
from .synthdata import CHANNELS, PAD_ID
from .tensor import ParamRegistry, Tensor, trunc_normal

if TYPE_CHECKING:
    from .trainer import TrainConfig

VARIANTS = ("FrameCLS", "MeanPooling", "GlobalCLS")

NEG_INF = -1e30  # additive mask value; true -inf breaks finite-difference probes


# parameter helpers; every site registers under a unique dotted name


def linear_params(reg: ParamRegistry, rng, name: str, d_in: int, d_out: int):
    reg.register(f"{name}.w", trunc_normal((d_in, d_out), rng))
    reg.register(f"{name}.b", np.zeros(d_out))


def linear(reg, name: str, x: Tensor) -> Tensor:
    return T.linear(x, reg[f"{name}.w"], reg[f"{name}.b"])


def ln_params(reg: ParamRegistry, name: str, d: int):
    reg.register(f"{name}.g", np.ones(d))
    reg.register(f"{name}.b", np.zeros(d))


def ln(reg, name: str, x: Tensor) -> Tensor:
    return T.layer_norm(x, reg[f"{name}.g"], reg[f"{name}.b"])


def attention_params(reg, rng, name: str, d: int):
    for proj in ("q", "k", "v", "o"):
        linear_params(reg, rng, f"{name}.{proj}", d, d)


def ffn_params(reg, rng, name: str, d: int):
    linear_params(reg, rng, f"{name}.1", d, 4 * d)
    linear_params(reg, rng, f"{name}.2", 4 * d, d)


def ffn_sublayer(reg, p: str, norm: str, g: Tensor, res, shape=None,
                 rows=None) -> Tensor:
    """res(g, FFN(LN(g))) of block p, whose FFN reads the norm p.norm."""
    f = linear(reg, f"{p}.ffn.1", ln(reg, f"{p}.{norm}", g))
    return res(g, linear(reg, f"{p}.ffn.2", T.gelu(f)), shape, rows)


def attention(reg, name: str, q_in: Tensor, kv_in: Tensor, heads: int,
              mask=None) -> Tensor:
    """Multi-head attention; q_in (..., Q, D), kv_in (..., K, D)."""
    out, _ = T.mha(linear(reg, f"{name}.q", q_in),
                   linear(reg, f"{name}.k", kv_in),
                   linear(reg, f"{name}.v", kv_in), heads, mask=mask)
    return linear(reg, f"{name}.o", out)


def residual(p: float, train: bool, rng):
    """The residual add of one pass, res(g, out, shape, rows) =
    g + dropout(out), with shape and rows as in T.dropout. Dropout runs
    in train mode only, so an eval pass needs no generator."""
    if not (train and p > 0.0):
        return lambda g, out, shape=None, rows=None: g + out
    if rng is None:
        raise ConfigError("training forward needs an rng for dropout")
    return lambda g, out, shape=None, rows=None: \
        g + T.dropout(out, p, rng, shape=shape, rows=rows)


def _take(x: Tensor, rows) -> Tensor:
    return x if rows is None else T.take_rows(x, rows)


def text_additive_mask(ids: np.ndarray) -> np.ndarray:
    """(B, 1, 1, K) additive attention mask blocking [PAD] key slots."""
    ids = np.asarray(ids)
    return np.where(ids != PAD_ID, 0.0, NEG_INF)[:, None, None, :]


@dataclass
class VisionOut:
    grid: Tensor            # (B, M, N+1, D) after the final norm
    flat: Tensor            # (B, n_vis, D) fusion input (global appended last)
    enc_global: Tensor      # (B, D)
    token_frames: np.ndarray   # (n_vis,) frame index, -1 for the global token
    token_patches: np.ndarray  # (n_vis,) patch index, -1 for [CLS]/global


class VisionEncoder:
    """VisualBlock stack over the per-frame token grid."""

    def __init__(self, reg: ParamRegistry, cfg: TrainConfig):
        self.reg = reg
        self.cfg = cfg

    def build(self, rng) -> None:
        reg, cfg = self.reg, self.cfg
        d = cfg.embed_dim
        patch_dim = CHANNELS * cfg.patch_size ** 2
        linear_params(reg, rng, "vision.patch_proj", patch_dim, d)
        reg.register("vision.cls", trunc_normal((d,), rng))
        reg.register("vision.mask_emb", trunc_normal((d,), rng))
        reg.register("vision.pos_spatial",
                     trunc_normal((cfg.n_patches + 1, d), rng))
        reg.register("vision.pos_temporal",
                     trunc_normal((cfg.frames_m, d), rng))
        if cfg.variant == "GlobalCLS":
            reg.register("vision.global_cls", trunc_normal((d,), rng))
        for l in range(cfg.layers_v):
            p = f"vision.l{l}"
            ln_params(reg, f"{p}.ln1", d)
            if cfg.variant == "FrameCLS":
                attention_params(reg, rng, f"{p}.temporal", d)
            if cfg.variant == "GlobalCLS":
                attention_params(reg, rng, f"{p}.global", d)
            attention_params(reg, rng, f"{p}.spatial", d)
            ln_params(reg, f"{p}.ln2", d)
            ffn_params(reg, rng, f"{p}.ffn", d)
        ln_params(reg, "vision.ln_f", d)

    def _patchify(self, frames: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        b, m, c, h, w = frames.shape
        if c != CHANNELS or h != cfg.canvas or w != cfg.canvas:
            raise ShapeError(
                f"frames (C,H,W)=({c},{h},{w}) do not match the config "
                f"({CHANNELS},{cfg.canvas},{cfg.canvas})")
        p = cfg.patch_size
        gs = cfg.grid_side
        x = frames.reshape(b, m, c, gs, p, gs, p)
        x = x.transpose(0, 1, 3, 5, 2, 4, 6)
        return x.reshape(b, m, gs * gs, c * p * p)

    def embed(self, frames: np.ndarray, visual_mask=None) -> Tensor:
        """Token grid before any block: patch projection, mask-embedding
        substitution, per-frame [CLS], then the temporal+spatial
        positional sums."""
        reg, cfg = self.reg, self.cfg
        b, m = frames.shape[0], frames.shape[1]
        if m > cfg.frames_m:
            raise ShapeError(f"M={m} exceeds frames_m={cfg.frames_m}")
        d = cfg.embed_dim
        n = cfg.n_patches

        v = linear(reg, "vision.patch_proj", Tensor(self._patchify(frames)))
        if visual_mask is not None and np.any(visual_mask):
            mf = np.asarray(visual_mask, dtype=np.float64)[..., None]
            if mf.shape[:3] != (b, m, n):
                raise ShapeError("visual_mask must be (B, M, N)")
            v = v * Tensor(1.0 - mf) + reg["vision.mask_emb"] * Tensor(mf)

        cls = reg["vision.cls"].reshape(1, 1, 1, d) \
            + Tensor(np.zeros((b, m, 1, d)))
        g = T.concat([cls, v], axis=2)
        return g + reg["vision.pos_temporal"][:m].reshape(1, m, 1, d) \
                 + reg["vision.pos_spatial"].reshape(1, 1, n + 1, d)

    def __call__(self, frames: np.ndarray, visual_mask=None,
                 train: bool = False, rng=None) -> VisionOut:
        reg, cfg = self.reg, self.cfg
        b, m = frames.shape[0], frames.shape[1]
        d = cfg.embed_dim
        n = cfg.n_patches
        g = self.embed(frames, visual_mask=visual_mask)
        res = residual(cfg.dropout, train, rng)

        glob = None
        if cfg.variant == "GlobalCLS":
            glob = reg["vision.global_cls"].reshape(1, d) \
                + Tensor(np.zeros((b, d)))

        for l in range(cfg.layers_v):
            g, glob = self._block(g, glob, l, res)

        grid = ln(reg, "vision.ln_f", g)
        flat = grid.reshape(b, m * (n + 1), d)
        token_frames = np.repeat(np.arange(m), n + 1)
        token_patches = np.tile(np.concatenate(([-1], np.arange(n))), m)
        if cfg.variant == "GlobalCLS":
            glob_out = ln(reg, "vision.ln_f", glob)
            flat = T.concat([flat, glob_out.reshape(b, 1, d)], axis=1)
            token_frames = np.concatenate([token_frames, [-1]])
            token_patches = np.concatenate([token_patches, [-1]])
            enc_global = glob_out
        else:
            enc_global = grid[:, :, 0, :].mean(axis=1)
        return VisionOut(grid=grid, flat=flat, enc_global=enc_global,
                         token_frames=token_frames,
                         token_patches=token_patches)

    def _block(self, g: Tensor, glob, l: int, res):
        reg, cfg = self.reg, self.cfg
        b, m, np1, d = g.shape
        h = cfg.heads
        p = f"vision.l{l}"
        x = ln(reg, f"{p}.ln1", g)

        if cfg.variant == "FrameCLS":
            # temporal: the M frame-[CLS] query over every token of every
            # frame; spatial: patch queries within their own frame. Both
            # read the same block input.
            q_cls = x[:, :, 0, :]
            all_tok = x.reshape(b, m * np1, d)
            t_out = attention(reg, f"{p}.temporal", q_cls, all_tok, h)
            s_out = attention(reg, f"{p}.spatial", x[:, :, 1:, :], x, h)
            cls_new = res(g[:, :, 0, :], t_out)
            patch_new = res(g[:, :, 1:, :], s_out)
            g = T.concat([cls_new.reshape(b, m, 1, d), patch_new], axis=2)
        else:
            # MeanPooling / GlobalCLS: frames never exchange information
            # through the grid; each frame is self-attended in isolation
            s_out = attention(reg, f"{p}.spatial", x, x, h)
            g = res(g, s_out)

        if cfg.variant == "GlobalCLS":
            xg = ln(reg, f"{p}.ln1", glob).reshape(b, 1, d)
            keys = T.concat([xg, x.reshape(b, m * np1, d)], axis=1)
            g_out = attention(reg, f"{p}.global", xg, keys, h)
            glob = res(glob, g_out.reshape(b, d))
            glob = ffn_sublayer(reg, p, "ln2", glob, res)
        return ffn_sublayer(reg, p, "ln2", g, res), glob


@dataclass
class TextOut:
    tokens: Tensor          # (B, K, D)
    enc_global: Tensor      # (B, D), the [CLS] slot
    additive_mask: np.ndarray  # (B, 1, 1, K)


class TextEncoder:
    def __init__(self, reg: ParamRegistry, cfg: TrainConfig):
        self.reg = reg
        self.cfg = cfg

    def build(self, rng) -> None:
        reg, cfg = self.reg, self.cfg
        d = cfg.embed_dim
        reg.register("text.tok_emb", trunc_normal((cfg.vocab_size, d), rng))
        reg.register("text.pos_emb", trunc_normal((cfg.k_max, d), rng))
        for l in range(cfg.layers_t):
            p = f"text.l{l}"
            ln_params(reg, f"{p}.ln1", d)
            attention_params(reg, rng, f"{p}.attn", d)
            ln_params(reg, f"{p}.ln2", d)
            ffn_params(reg, rng, f"{p}.ffn", d)
        ln_params(reg, "text.ln_f", d)

    def __call__(self, ids: np.ndarray, train: bool = False,
                 rng=None) -> TextOut:
        reg, cfg = self.reg, self.cfg
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError("caption batch must be (B, K)")
        b, k = ids.shape
        if k > cfg.k_max:
            raise ShapeError(f"caption length {k} exceeds k_max={cfg.k_max}")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise InputError("token id outside the vocabulary")
        if np.any((ids != PAD_ID).sum(axis=1) == 0):
            raise InputError("all-pad caption in batch")
        d = cfg.embed_dim
        h = cfg.heads

        g = T.embedding(reg["text.tok_emb"], ids) \
            + reg["text.pos_emb"][:k].reshape(1, k, d)
        mask = text_additive_mask(ids)
        res = residual(cfg.dropout, train, rng)
        for l in range(cfg.layers_t):
            p = f"text.l{l}"
            x = ln(reg, f"{p}.ln1", g)
            g = res(g, attention(reg, f"{p}.attn", x, x, h, mask=mask))
            g = ffn_sublayer(reg, p, "ln2", g, res)
        out = ln(reg, "text.ln_f", g)
        return TextOut(tokens=out, enc_global=out[:, 0, :],
                       additive_mask=mask)


@dataclass
class FusionOut:
    # (B, n_vis, D) and (B, K, D) after the final norms; a stream the
    # last layer finished on picked rows alone holds those rows, folded
    # to (B * rows, D)
    vision_tokens: Tensor
    text_tokens: Tensor
    # text-query -> vision-key attention weights, one (B, h, K, n_vis)
    # array per layer, rows summing to 1
    cross_attention: list = field(default_factory=list)


@dataclass
class FusionPrefix:
    """The part of one fusion layer that reads a single stream: the
    stream after its self-attention residual (g), its cross-attention
    query (q), and the cross-attention keys and values the other stream
    reads from it (k, v), all (B, L, D). With no fusion layer only g,
    the stream itself, is set."""
    g: Tensor
    q: Tensor | None = None
    k: Tensor | None = None
    v: Tensor | None = None

    def _fields(self):
        return (self.g, self.q, self.k, self.v)

    def take(self, idx) -> FusionPrefix:
        """The prefix of the samples idx picks, outside any graph."""
        return FusionPrefix(*(None if t is None else Tensor(t.data[idx])
                              for t in self._fields()))

    @staticmethod
    def concat(parts: list) -> FusionPrefix:
        """Batches of prefixes joined along the sample axis, outside
        any graph."""
        return FusionPrefix(*(
            None if ts[0] is None
            else Tensor(np.concatenate([t.data for t in ts]))
            for ts in zip(*(p._fields() for p in parts))))


class FusionEncoder:
    """Two streams per layer: modality self-attention, then symmetric
    cross-attention (vision queries text and text queries vision, both
    reading the post-self-attention state of the other stream), then FFN.

    A pass runs in two steps. prefix() does the work of layer 0 that
    reads one stream only; finish() runs both cross-attentions and
    everything after them. Re-ranking builds each corpus item's prefix
    once and calls finish() per candidate pair; every other caller goes
    through __call__, which is finish(prefix(v), prefix(t)).

    finish() can finish only some rows, (vision rows, text rows) along
    the token axis, for a caller that reads no other row: the last
    layer's cross-attention still runs every query row, since its
    weights are kept, but its output projection, residuals, FFN and the
    final norms run on the picked rows alone. BLAS may round those
    smaller products otherwise than the full pass's, so the rows agree
    with the full pass's to a few ulps, not to the bit. Dropout masks
    are drawn at the full shape either way, so the generator's stream
    does not depend on the pick.
    """

    def __init__(self, reg: ParamRegistry, cfg: TrainConfig):
        self.reg = reg
        self.cfg = cfg

    def build(self, rng) -> None:
        reg, cfg = self.reg, self.cfg
        d = cfg.embed_dim
        for l in range(cfg.layers_f):
            for s in ("v", "t"):
                p = f"fusion.l{l}.{s}"
                ln_params(reg, f"{p}.ln1", d)
                attention_params(reg, rng, f"{p}.self", d)
                ln_params(reg, f"{p}.ln2", d)
                ln_params(reg, f"{p}.lnkv", d)
                attention_params(reg, rng, f"{p}.cross", d)
                ln_params(reg, f"{p}.ln3", d)
                ffn_params(reg, rng, f"{p}.ffn", d)
        ln_params(reg, "fusion.v_ln_f", d)
        ln_params(reg, "fusion.t_ln_f", d)

    def __call__(self, gv: Tensor, gt: Tensor, text_mask: np.ndarray,
                 train: bool = False, rng=None, rows=None) -> FusionOut:
        pv = self.prefix(gv, "v", train=train, rng=rng)
        pt = self.prefix(gt, "t", text_mask, train=train, rng=rng)
        return self.finish(pv, pt, text_mask, rows=rows, train=train,
                           rng=rng)

    def prefix(self, g: Tensor, side: str, text_mask=None,
               train: bool = False, rng=None) -> FusionPrefix:
        """Layer-0 prefix of the vision ("v") or text ("t") stream; the
        text stream's self-attention reads text_mask."""
        res = residual(self.cfg.dropout, train, rng)
        if self.cfg.layers_f == 0:
            return FusionPrefix(g)
        return self._prefix(g, side, 0, text_mask, res)

    def _prefix(self, g: Tensor, side: str, l: int, text_mask,
                res) -> FusionPrefix:
        reg, cfg = self.reg, self.cfg
        own = f"fusion.l{l}.{side}"
        other = f"fusion.l{l}.{'t' if side == 'v' else 'v'}"
        x = ln(reg, f"{own}.ln1", g)
        g1 = res(g, attention(reg, f"{own}.self", x, x, cfg.heads,
                              mask=text_mask if side == "t" else None))
        q = linear(reg, f"{own}.cross.q", ln(reg, f"{own}.ln2", g1))
        kv = ln(reg, f"{other}.lnkv", g1)
        return FusionPrefix(g1, q, linear(reg, f"{other}.cross.k", kv),
                            linear(reg, f"{other}.cross.v", kv))

    def finish(self, pv: FusionPrefix, pt: FusionPrefix,
               text_mask: np.ndarray, rows=None, train: bool = False,
               rng=None) -> FusionOut:
        """The rest of the pass after both layer-0 prefixes. rows, if
        given, is (vision row indices, text row indices): the rows to
        finish, returned folded to (B * rows, D); with no fusion layer
        both streams come back whole."""
        reg, cfg = self.reg, self.cfg
        res = residual(cfg.dropout, train, rng)
        # the last layer's picks; None finishes every row
        last = (None, None) if rows is None else rows
        weights = []
        gv, gt = pv.g, pt.g
        for l in range(cfg.layers_f):
            if l > 0:
                pv = self._prefix(gv, "v", l, None, res)
                pt = self._prefix(gt, "t", l, text_mask, res)
            cv, _ = T.mha(pv.q, pt.k, pt.v, cfg.heads, mask=text_mask)
            ct, w = T.mha(pt.q, pv.k, pv.v, cfg.heads)
            weights.append(w)
            rv, rt = last if l == cfg.layers_f - 1 else (None, None)
            lv, lt = f"fusion.l{l}.v", f"fusion.l{l}.t"
            gv = res(_take(pv.g, rv), linear(
                reg, f"{lv}.cross.o", _take(cv, rv)), cv.shape, rv)
            gt = res(_take(pt.g, rt), linear(
                reg, f"{lt}.cross.o", _take(ct, rt)), ct.shape, rt)
            gv = ffn_sublayer(reg, lv, "ln3", gv, res, cv.shape, rv)
            gt = ffn_sublayer(reg, lt, "ln3", gt, res, ct.shape, rt)
        return FusionOut(vision_tokens=ln(reg, "fusion.v_ln_f", gv),
                         text_tokens=ln(reg, "fusion.t_ln_f", gt),
                         cross_attention=weights)
