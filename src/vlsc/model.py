"""The pre-training model: both uni-modal encoders, the fusion encoder,
and the objective heads, sharing one parameter registry. It is built
from a trainer.TrainConfig, which fixes its shape and seeds its
initialization."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .encoders import (FusionEncoder, FusionOut, FusionPrefix, TextEncoder,
                       VisionEncoder, linear, linear_params)
from .tensor import ParamRegistry, Tensor

if TYPE_CHECKING:
    from .trainer import TrainConfig

CL_TAU_INIT = 0.05
CL_TAU_MIN = 1e-3
CL_TAU_MAX = 1.0


@dataclass
class ForwardOut:
    v_enc_global: Tensor        # (B, D) pre-fusion, for contrastive pairs
    t_enc_global: Tensor        # (B, D)
    v_flat: Tensor              # (B, n_vis, D) fusion input
    t_tokens: Tensor            # (B, K, D) fusion input
    text_mask: np.ndarray       # (B, 1, 1, K) additive
    fusion: FusionOut
    v_global: Tensor            # (B, D) post-fusion
    t_global: Tensor            # (B, D) post-fusion [CLS]
    token_frames: np.ndarray    # (n_vis,)
    token_patches: np.ndarray   # (n_vis,)


class PretrainModel:
    """forward() encodes vision, then text, then fuses them through
    fuse_pair(); it masks no patch. Callers that reuse an encoding or
    mask patches (the objectives) call self.vision and self.text
    directly and fuse through fuse_pair();
    re-ranking, which reuses each item's layer-0 fusion prefix too,
    fuses through fuse_prefixes(). Both run the one FusionEncoder and
    read the fused globals through fused_globals(), at the rows
    global_rows() works out from the vision stream's width.
    forward_count counts fused passes: every fuse_pair() or
    fuse_prefixes() call, inside forward() or not. Re-ranking makes one
    fuse_prefixes() call per chunk of candidate pairs, from several
    threads at once, so the count is kept under a lock."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.params = ParamRegistry()
        self.vision = VisionEncoder(self.params, config)
        self.text = TextEncoder(self.params, config)
        self.fusion = FusionEncoder(self.params, config)
        rng = np.random.default_rng([config.seed, 0xC0DE])
        self.vision.build(rng)
        self.text.build(rng)
        self.fusion.build(rng)
        self._build_heads(rng)
        self.forward_count = 0
        self._count_lock = threading.Lock()

    def _build_heads(self, rng) -> None:
        d = self.config.embed_dim
        linear_params(self.params, rng, "head.phi_v", d, d)
        linear_params(self.params, rng, "head.phi_t", d, d)
        self.params.register("head.cl_tau", np.array([CL_TAU_INIT]))
        linear_params(self.params, rng, "head.vtm", 2 * d, 2)
        linear_params(self.params, rng, "head.mlm", d, self.config.vocab_size)

    # full pass

    def forward(self, frames: np.ndarray, captions: np.ndarray,
                train: bool = False, rng=None) -> ForwardOut:
        vis = self.vision(frames, train=train, rng=rng)
        txt = self.text(captions, train=train, rng=rng)
        fused, v_global, t_global = self.fuse_pair(
            vis.flat, txt.tokens, txt.additive_mask, train=train, rng=rng)
        return ForwardOut(v_enc_global=vis.enc_global,
                          t_enc_global=txt.enc_global,
                          v_flat=vis.flat, t_tokens=txt.tokens,
                          text_mask=txt.additive_mask, fusion=fused,
                          v_global=v_global, t_global=t_global,
                          token_frames=vis.token_frames,
                          token_patches=vis.token_patches)

    def fuse_pair(self, v_flat: Tensor, t_tokens: Tensor,
                  text_mask: np.ndarray, train: bool = False, rng=None,
                  globals_only: bool = False):
        """Fusion + both fused globals for already-encoded streams.
        Returns (FusionOut, v_global, t_global). With globals_only the
        last fusion layer finishes only the rows the globals read (see
        global_rows), and the FusionOut holds those rows alone, or both
        streams whole where there is no fusion layer."""
        self._count_pass()
        rows = self.global_rows(v_flat.shape[1])
        fused = self.fusion(v_flat, t_tokens, text_mask, train=train,
                            rng=rng, rows=rows if globals_only else None)
        return (fused,) + fused_globals(fused, rows)

    def fuse_prefixes(self, pv: FusionPrefix, pt: FusionPrefix,
                      text_mask: np.ndarray):
        """(v_global, t_global) of streams whose layer-0 fusion prefixes
        are already built, finishing only the rows the globals read;
        one fused pass, like a fuse_pair call."""
        self._count_pass()
        rows = self.global_rows(pv.g.shape[1])
        return fused_globals(self.fusion.finish(pv, pt, text_mask,
                                                rows=rows), rows)

    def _count_pass(self) -> None:
        with self._count_lock:
            self.forward_count += 1

    def global_rows(self, n_vis: int):
        """(vision rows, text rows) that the fused globals read from a
        fusion output with n_vis vision tokens: every frame [CLS], or
        the global token, which comes last, and the text [CLS]."""
        if self.config.variant == "GlobalCLS":
            return np.array([n_vis - 1]), np.array([0])
        return np.arange(0, n_vis, self.config.n_patches + 1), np.array([0])

    # objective heads

    def project_globals(self, v_global: Tensor, t_global: Tensor):
        return (linear(self.params, "head.phi_v", v_global),
                linear(self.params, "head.phi_t", t_global))

    def cl_temperature(self) -> Tensor:
        return T.clip(self.params["head.cl_tau"], CL_TAU_MIN, CL_TAU_MAX)

    def vtm_logits(self, v_global: Tensor, t_global: Tensor) -> Tensor:
        both = T.concat([v_global, t_global], axis=-1)
        return linear(self.params, "head.vtm", both)

    def mlm_logits(self, text_rows: Tensor) -> Tensor:
        return linear(self.params, "head.mlm", text_rows)

    # bookkeeping

    def zero_grad(self) -> None:
        self.params.zero_grad()


def fused_globals(fused: FusionOut, rows) -> tuple:
    """(v_global, t_global), each (B, D): the mean of the vision rows and
    the text row that rows, as PretrainModel.global_rows gives them,
    pick from fused. Streams still (B, L, D), every row finished, are
    picked here; streams whose last fusion layer finished those rows
    alone come folded to (B * rows, D)."""
    v, t = (T.take_rows(x, idx) if x.ndim == 3 else x
            for x, idx in zip((fused.vision_tokens, fused.text_tokens),
                              rows))
    return v.reshape(-1, len(rows[0]), v.shape[-1]).mean(axis=1), t
