"""Mask planning for the token-prediction and completion objectives.

A MaskPlan is built once per sample per step from an explicit seeded
generator and applied to a copy of the inputs; it records the original
id at every planned text position.
Visual masking never drops tokens: the model substitutes a learned mask
embedding at the planned (frame, patch) slots so sequence geometry and
positional sums are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .synthdata import CLS_ID, MASK_ID, PAD_ID, V_VOCAB

KEEP = "keep"
MASK_TOKEN = "mask_token"
RANDOM_TOKEN = "random_token"
SCL_MASK = "scl_mask"

MLM_RATIO = 0.15

_FIRST_CONTENT_ID = 3  # ids below this are [PAD], [CLS], [MASK]


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def mask_count(n: int, ratio: float) -> int:
    """round-half-up(ratio*n), floored at 1 whenever ratio > 0."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return 0
    return min(n, max(1, round_half_up(ratio * n)))


@dataclass
class MaskPlan:
    text_actions: dict = field(default_factory=dict)   # pos -> action
    original_ids: dict = field(default_factory=dict)   # pos -> original id
    random_ids: dict = field(default_factory=dict)     # pos -> replacement


def plan_image_mask(m: int, n: int, ratio: float, rng) -> frozenset:
    """Uniform without-replacement choice of mask_count(m*n) patch slots.

    Indices are (frame, patch) with patch < n, so frame-level [CLS]
    slots (appended later by the encoder) are never selectable.
    """
    count = mask_count(m * n, ratio)
    flat = rng.choice(m * n, size=count, replace=False)
    return frozenset((int(f) // n, int(f) % n) for f in flat)


def _content_positions(ids) -> np.ndarray:
    ids = np.asarray(ids)
    pos = np.flatnonzero(ids >= _FIRST_CONTENT_ID)
    if pos.size == 0:
        raise InputError("caption has no content tokens to mask")
    return pos


def plan_mlm_mask(ids, rng, vocab_size: int = V_VOCAB) -> MaskPlan:
    """BERT-rule plan: 15% of content positions, 80/10/10 actions."""
    ids = np.asarray(ids)
    content = _content_positions(ids)
    count = mask_count(content.size, MLM_RATIO)
    chosen = rng.choice(content, size=count, replace=False)
    actions, originals, randoms = {}, {}, {}
    for pos in sorted(int(p) for p in chosen):
        originals[pos] = int(ids[pos])
        u = rng.random()
        if u < 0.8:
            actions[pos] = MASK_TOKEN
        elif u < 0.9:
            actions[pos] = RANDOM_TOKEN
            randoms[pos] = int(rng.integers(_FIRST_CONTENT_ID, vocab_size))
        else:
            actions[pos] = KEEP
    return MaskPlan(text_actions=actions, original_ids=originals,
                    random_ids=randoms)


def plan_scl_text_mask(ids, ratio: float, rng) -> MaskPlan:
    """Completion plan: round(ratio*n_content) positions, all [MASK]."""
    ids = np.asarray(ids)
    content = _content_positions(ids)
    count = mask_count(content.size, ratio)
    chosen = rng.choice(content, size=count, replace=False)
    actions = {int(p): SCL_MASK for p in sorted(int(p) for p in chosen)}
    originals = {p: int(ids[p]) for p in actions}
    return MaskPlan(text_actions=actions, original_ids=originals)


def apply_text_plan(ids, plan: MaskPlan) -> np.ndarray:
    out = np.asarray(ids).copy()
    for pos, action in plan.text_actions.items():
        if action in (MASK_TOKEN, SCL_MASK):
            out[pos] = MASK_ID
        elif action == RANDOM_TOKEN:
            out[pos] = plan.random_ids[pos]
        # KEEP leaves the token in place; it still gets a prediction label
    return out

