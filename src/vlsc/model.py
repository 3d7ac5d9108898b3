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
    fuse_pair(). Callers that reuse an encoding (the objectives) call
    self.vision and self.text directly and fuse through fuse_pair();
    re-ranking, which reuses each item's layer-0 fusion prefix too,
    fuses through fuse_prefixes(). Both run the one FusionEncoder.
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
                visual_mask=None, train: bool = False, rng=None) -> ForwardOut:
        vis = self.vision(frames, visual_mask=visual_mask, train=train,
                          rng=rng)
        txt = self.text(captions, train=train, rng=rng)
        fused, v_global, t_global = self.fuse_pair(
            vis.flat, txt.tokens, txt.additive_mask, frames.shape[1],
            train=train, rng=rng)
        return ForwardOut(v_enc_global=vis.enc_global,
                          t_enc_global=txt.enc_global,
                          v_flat=vis.flat, t_tokens=txt.tokens,
                          text_mask=txt.additive_mask, fusion=fused,
                          v_global=v_global, t_global=t_global,
                          token_frames=vis.token_frames,
                          token_patches=vis.token_patches)

    def fuse_pair(self, v_flat: Tensor, t_tokens: Tensor,
                  text_mask: np.ndarray, frames_m: int,
                  train: bool = False, rng=None, globals_only: bool = False):
        """Fusion + both fused globals for already-encoded streams.
        Returns (FusionOut, v_global, t_global). With globals_only the
        last fusion layer finishes only the rows the globals read, and
        the FusionOut holds those rows alone (see global_rows)."""
        self._count_pass()
        rows = self.global_rows(frames_m) if globals_only else None
        fused = self.fusion(v_flat, t_tokens, text_mask, train=train,
                            rng=rng, rows=rows)
        return (fused,) + self._globals(fused, frames_m)

    def fuse_prefixes(self, pv: FusionPrefix, pt: FusionPrefix,
                      text_mask: np.ndarray, frames_m: int):
        """(v_global, t_global) of streams whose layer-0 fusion prefixes
        are already built, finishing only the rows the globals read;
        one fused pass, like a fuse_pair call."""
        self._count_pass()
        fused = self.fusion.finish(pv, pt, text_mask,
                                   rows=self.global_rows(frames_m))
        return self._globals(fused, frames_m)

    def _count_pass(self) -> None:
        with self._count_lock:
            self.forward_count += 1

    def global_rows(self, m: int):
        """(vision rows, text rows) of the fusion output that the fused
        globals read: every frame [CLS], or the global token, and the
        text [CLS]."""
        np1 = self.config.n_patches + 1
        if self.config.variant == "GlobalCLS":
            return np.array([m * np1]), np.array([0])
        return np.arange(m) * np1, np.array([0])

    def _globals(self, fused: FusionOut, m: int):
        t = fused.text_tokens
        return (self.fused_vision_global(fused.vision_tokens, m),
                t if t.ndim == 2 else t[:, 0, :])

    def fused_vision_global(self, vision_tokens: Tensor, m: int) -> Tensor:
        """From every row, (B, n_vis, D), or from the global_rows alone,
        folded to (B * rows, D)."""
        cfg = self.config
        np1 = cfg.n_patches + 1
        if vision_tokens.ndim == 2:
            if cfg.variant == "GlobalCLS":
                return vision_tokens
            return vision_tokens.reshape(-1, m, cfg.embed_dim).mean(axis=1)
        if cfg.variant == "GlobalCLS":
            return vision_tokens[:, m * np1, :]
        b = vision_tokens.shape[0]
        grid = vision_tokens.reshape(b, m, np1, cfg.embed_dim)
        return grid[:, :, 0, :].mean(axis=1)

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
