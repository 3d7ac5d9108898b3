"""Masks for the token-prediction and completion objectives.

Each planner masks one sample from an explicit seeded generator and
returns what the encoders read: a bool array of masked (frame, patch)
slots, or a masked copy of the caption ids. Visual masking never drops
tokens: the model substitutes a learned mask embedding at the masked
slots so sequence geometry and positional sums are unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InputError
from .synthdata import MASK_ID, V_VOCAB

MLM_RATIO = 0.15

FIRST_CONTENT_ID = 3  # ids below this are [PAD], [CLS], [MASK]


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def mask_count(n: int, ratio: float) -> int:
    """round-half-up(ratio*n), floored at 1 whenever ratio > 0."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return 0
    return min(n, max(1, round_half_up(ratio * n)))


def plan_image_mask(m: int, n: int, ratio: float, rng) -> np.ndarray:
    """(m, n) bool array, True at a uniform without-replacement choice
    of mask_count(m*n) patch slots.

    Only patches are indexed, so frame-level [CLS] slots (appended later
    by the encoder) are never selectable.
    """
    count = mask_count(m * n, ratio)
    mask = np.zeros(m * n, dtype=bool)
    mask[rng.choice(m * n, size=count, replace=False)] = True
    return mask.reshape(m, n)


def _choose_content(ids: np.ndarray, ratio: float, rng) -> np.ndarray:
    """mask_count(n_content) content positions, in draw order."""
    content = np.flatnonzero(ids >= FIRST_CONTENT_ID)
    if content.size == 0:
        raise InputError("caption has no content tokens to mask")
    return rng.choice(content, size=mask_count(content.size, ratio),
                      replace=False)


def plan_mlm_mask(ids, rng, vocab_size: int = V_VOCAB):
    """BERT rule on 15% of the content positions: 80% become [MASK],
    10% a random content id, 10% stay. Returns (masked ids, sorted
    positions to predict); the labels are the original ids there."""
    masked = np.array(ids)
    picks = np.sort(_choose_content(masked, MLM_RATIO, rng))
    for pos in picks:
        u = rng.random()
        if u < 0.8:
            masked[pos] = MASK_ID
        elif u < 0.9:
            masked[pos] = rng.integers(FIRST_CONTENT_ID, vocab_size)
    return masked, picks


def plan_scl_text_mask(ids, ratio: float, rng) -> np.ndarray:
    """Completion mask: mask_count(n_content, ratio) content positions
    set to [MASK]. Returns the masked ids."""
    masked = np.array(ids)
    masked[_choose_content(masked, ratio, rng)] = MASK_ID
    return masked
