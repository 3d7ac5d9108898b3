"""The pre-training model: both uni-modal encoders, the fusion encoder,
and the objective heads, sharing one parameter registry. It is built
from a trainer.TrainConfig, which fixes its shape and seeds its
initialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .encoders import (FusionEncoder, FusionOut, TextEncoder, VisionEncoder,
                       linear, linear_params)
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
    fuse_pair(), the one fusion path. Callers that reuse an encoding
    (the objectives, retrieval) call self.vision and self.text directly
    and fuse through fuse_pair(). forward_count counts fused passes:
    every fuse_pair() call, inside forward() or not."""

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
                  train: bool = False, rng=None):
        """Fusion + both fused globals for already-encoded streams.
        Returns (FusionOut, v_global, t_global)."""
        self.forward_count += 1
        fused = self.fusion(v_flat, t_tokens, text_mask, train=train, rng=rng)
        v_global = self.fused_vision_global(fused.vision_tokens, frames_m)
        t_global = fused.text_tokens[:, 0, :]
        return fused, v_global, t_global

    def fused_vision_global(self, vision_tokens: Tensor, m: int) -> Tensor:
        cfg = self.config
        np1 = cfg.n_patches + 1
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
