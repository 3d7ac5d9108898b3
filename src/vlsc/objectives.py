"""Pre-training objectives.

Four losses over one shared model: contrastive alignment of the
uni-modal encoder globals, binary match classification and masked-token
prediction on the fused streams, and semantic completion, which fuses
a masked image with the complete text and the complete image with a
masked text, and pulls each recovered global toward its detached
complete counterpart with the other samples in the batch as negatives.
The total is the plain unweighted sum of whatever is enabled.

total_loss encodes the complete frames and captions once per step and
hands the encodings to every objective; each objective encodes only
its own masked inputs. A step with all four losses runs 2 vision and
3 text encodes and 5 fused passes.

total_loss reads the objective toggles, the two SCL mask ratios and the
mvsc/mlsc sides from trainer.TrainConfig, whose construction already
rejected a config with no objective on or SCL with neither side on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import masking as mk
from . import tensor as T
from .encoders import TextOut, VisionOut
from .errors import ConfigError
from .model import PretrainModel
from .tensor import Tensor

if TYPE_CHECKING:
    from .trainer import TrainConfig

SCL_TAU = 0.03

@dataclass
class GlobalPair:
    """SCL globals; the complete-pass features carry no gradient."""
    i_re: Tensor
    i_co: Tensor    # detached
    t_re: Tensor
    t_co: Tensor    # detached


@dataclass
class LossReport:
    # None marks a disabled component, which a log must not conflate
    # with a loss that happens to be zero
    cl: float | None = None
    vtm: float | None = None
    mlm: float | None = None
    scl: float | None = None
    total: float | None = None


def info_nce(a: Tensor, b: Tensor, tau) -> Tensor:
    """-(1/B) sum_i log softmax_i of s(a_i, b_.)/tau at the diagonal."""
    n = a.shape[0]
    sims = T.cosine_similarity_matrix(a, b) / tau
    return T.cross_entropy(sims, np.arange(n))


def contrastive_loss(model: PretrainModel, v_enc_global: Tensor,
                     t_enc_global: Tensor) -> Tensor:
    """Both InfoNCE directions on projected encoder globals, learnable
    temperature clamped to its trust region."""
    v_proj, t_proj = model.project_globals(v_enc_global, t_enc_global)
    tau = model.cl_temperature()
    return info_nce(v_proj, t_proj, tau) + info_nce(t_proj, v_proj, tau)


def vtm_negative_indices(n: int, rng) -> np.ndarray:
    """One uniformly random other-index per sample, never the sample
    itself."""
    if n < 2:
        raise ConfigError("match loss needs batch size >= 2 for negatives")
    return (np.arange(n) + rng.integers(1, n, size=n)) % n


def vtm_loss(model: PretrainModel, vis: VisionOut, txt: TextOut,
             rng) -> Tensor:
    """Binary matched/mismatched classification on fused globals.

    Positives fuse each caption with its own vision stream; negatives
    pair each caption with a randomly replaced one. Both reuse the
    given encodings.
    """
    n = vis.flat.shape[0]
    neg = vtm_negative_indices(n, rng)
    logits = []
    for v_flat in (vis.flat, vis.flat[neg]):
        _, v_global, t_global = model.fuse_pair(
            v_flat, txt.tokens, txt.additive_mask, rng=rng,
            globals_only=True)
        logits.append(model.vtm_logits(v_global, t_global))
    labels = np.concatenate([np.ones(n, dtype=np.int64),
                             np.zeros(n, dtype=np.int64)])
    return T.cross_entropy(T.concat(logits, axis=0), labels)


def mlm_loss(model: PretrainModel, vis: VisionOut, captions: np.ndarray, rng):
    """Vocabulary cross-entropy at the MLM-masked positions.

    Each caption is masked by masking.plan_mlm_mask, the masked captions
    are fused with the given vision encoding, and the fused text tokens
    at the masked positions predict the original ids there. Returns
    (loss, n_predicted)."""
    masked, picks = zip(*(mk.plan_mlm_mask(
        c, rng, vocab_size=model.config.vocab_size) for c in captions))
    rows = np.repeat(np.arange(len(picks)), [p.size for p in picks])
    cols = np.concatenate(picks)
    txt = model.text(np.stack(masked), rng=rng)
    fused, _, _ = model.fuse_pair(vis.flat, txt.tokens, txt.additive_mask,
                                  rng=rng)
    logits = model.mlm_logits(fused.text_tokens[rows, cols])
    return T.cross_entropy(logits, captions[rows, cols]), rows.size


def scl_loss(model: PretrainModel, frames: np.ndarray, captions: np.ndarray,
             vis: VisionOut, txt: TextOut, image_ratio: float,
             text_ratio: float, rng, mvsc: bool = True, mlsc: bool = True,
             frozen_targets=None):
    """Semantic completion: exactly two fused passes.

    vis and txt are the encodings of the complete frames and captions.
    Per sample, masking.plan_image_mask gives the (M, N) patch mask at
    image_ratio and masking.plan_scl_text_mask the masked caption at
    text_ratio. Pass 1 fuses the masked image with the complete text;
    pass 2 fuses the complete image with the masked text. Each recovered
    global is matched against the *detached* complete global from the
    other pass, with the rest of the batch as negatives. Returns (loss,
    GlobalPair).

    frozen_targets, if given as (i_co_array, t_co_array), replaces the
    detached complete globals with fixed constants. Finite-difference
    verification needs this: a stop-gradient loss is only differentiable
    against probes that hold the targets still, which is also exactly
    the function a training step descends.
    """
    if not (mvsc or mlsc):
        raise ConfigError("semantic completion needs at least one side on")
    n, m = frames.shape[0], frames.shape[1]
    visual_mask = np.stack([
        mk.plan_image_mask(m, model.config.n_patches, image_ratio, rng)
        for _ in range(n)])
    masked_caps = np.stack([mk.plan_scl_text_mask(c, text_ratio, rng)
                            for c in captions])

    vis_masked = model.vision(frames, visual_mask=visual_mask, rng=rng)
    txt_masked = model.text(masked_caps, rng=rng)
    _, i_re, t_co = model.fuse_pair(vis_masked.flat, txt.tokens,
                                    txt.additive_mask, rng=rng,
                                    globals_only=True)
    _, i_co, t_re = model.fuse_pair(vis.flat, txt_masked.tokens,
                                    txt_masked.additive_mask, rng=rng,
                                    globals_only=True)

    if frozen_targets is None:
        pair = GlobalPair(i_re, i_co.detach(), t_re, t_co.detach())
    else:
        pair = GlobalPair(i_re, Tensor(frozen_targets[0]), t_re,
                          Tensor(frozen_targets[1]))
    loss = None
    if mvsc:
        loss = info_nce(pair.i_re, pair.i_co, SCL_TAU)
    if mlsc:
        nce_l = info_nce(pair.t_re, pair.t_co, SCL_TAU)
        loss = nce_l if loss is None else loss + nce_l
    return loss, pair


def total_loss(model: PretrainModel, frames: np.ndarray,
               captions: np.ndarray, cfg: TrainConfig, rngs: dict):
    """Unweighted sum of the enabled objectives.

    rngs holds one independent generator per component ("clean", "vtm",
    "mlm", "scl") so that toggling any objective never shifts another's
    draws, masks and dropout alike. The complete frames, then the
    complete captions, are encoded once on "clean"; the captions only
    when an objective other than MLM needs them. Returns (LossReport,
    total Tensor)."""
    vis = model.vision(frames, rng=rngs["clean"])
    txt = None
    if cfg.cl or cfg.vtm or cfg.scl:
        txt = model.text(captions, rng=rngs["clean"])

    losses = {}
    if cfg.cl:
        losses["cl"] = contrastive_loss(model, vis.enc_global,
                                        txt.enc_global)
    if cfg.vtm:
        losses["vtm"] = vtm_loss(model, vis, txt, rngs["vtm"])
    if cfg.mlm:
        losses["mlm"], _ = mlm_loss(model, vis, captions, rngs["mlm"])
    if cfg.scl:
        losses["scl"], _ = scl_loss(model, frames, captions, vis, txt,
                                    cfg.image_mask_ratio,
                                    cfg.text_mask_ratio, rngs["scl"],
                                    mvsc=cfg.mvsc, mlsc=cfg.mlsc)
    parts = list(losses.values())
    total = sum(parts[1:], parts[0])
    report = LossReport(total=total.item(),
                        **{k: v.item() for k, v in losses.items()})
    return report, total
