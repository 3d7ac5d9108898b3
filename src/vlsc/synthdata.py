"""Synthetic paired vision/text data.

Scenes are 16x16 RGB canvases holding 1-3 colored shapes, one per
quadrant. The caption is a template sentence naming each shape's color,
kind, and quadrant, in quadrant reading order; video scenes add a single
trailing motion word and translate every shape 1 px/frame in that
direction. Everything is a pure function of integer seeds, so corpora
are reproducible and captions double as retrieval ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, VocabError

PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
RESERVED = ("[PAD]", "[CLS]", "[MASK]")

V_VOCAB = 64
# 3 shapes x 4 caption words + 2 joins + 1 motion word + [CLS]
K_MAX = 16

CANVAS = 16
CHANNELS = 3
QUAD = CANVAS // 2         # quadrant side
SHAPE_BOX = 5              # shape bitmap side, leaves QUAD-SHAPE_BOX px slack

COLORS = ("red", "green", "blue")
SHAPES = ("square", "cross", "bar")
# quadrant index -> (vertical word, horizontal word), reading order
QUADRANT_WORDS = (("top", "left"), ("top", "right"),
                  ("bottom", "left"), ("bottom", "right"))
DIRECTIONS = ("leftward", "rightward", "upward", "downward")
# direction word -> (d_row, d_col) per frame
_VELOCITY = {"leftward": (0, -1), "rightward": (0, 1),
             "upward": (-1, 0), "downward": (1, 0)}


def _bitmaps():
    square = np.ones((SHAPE_BOX, SHAPE_BOX), dtype=bool)
    cross = np.zeros((SHAPE_BOX, SHAPE_BOX), dtype=bool)
    cross[SHAPE_BOX // 2, :] = True
    cross[:, SHAPE_BOX // 2] = True
    bar = np.zeros((SHAPE_BOX, SHAPE_BOX), dtype=bool)
    bar[1:4, :] = True
    return {"square": square, "cross": cross, "bar": bar}


_BITMAPS = _bitmaps()


class Vocab:
    """Bijective word <-> ID map with fixed reserved IDs 0..2."""

    def __init__(self, words):
        self._i2w = list(RESERVED) + list(words)
        if len(set(self._i2w)) != len(self._i2w):
            raise ValueError("duplicate words in vocab")
        self._w2i = {w: i for i, w in enumerate(self._i2w)}

    def __len__(self):
        return len(self._i2w)

    def id(self, word: str) -> int:
        try:
            return self._w2i[word]
        except KeyError:
            raise VocabError(f"unknown word: {word!r}") from None

    def word(self, idx: int) -> str:
        if not 0 <= idx < len(self._i2w):
            raise VocabError(f"token id out of range: {idx}")
        return self._i2w[idx]


def default_vocab(size: int = V_VOCAB) -> Vocab:
    words = list(COLORS) + list(SHAPES)
    for vert, horiz in QUADRANT_WORDS:
        for w in (vert, horiz):
            if w not in words:
                words.append(w)
    words.append("and")
    words.extend(DIRECTIONS)
    n_fill = size - len(RESERVED) - len(words)
    if n_fill < 0:
        raise ValueError(f"vocab size {size} too small, need at least "
                         f"{len(RESERVED) + len(words)}")
    words.extend(f"w{i:02d}" for i in range(n_fill))
    return Vocab(words)


def tokenize(text: str, vocab: Vocab, k_max: int = K_MAX) -> np.ndarray:
    """[CLS] + word IDs, padded/truncated to exactly k_max entries."""
    ids = [CLS_ID] + [vocab.id(w) for w in text.split()]
    ids = ids[:k_max]
    ids.extend([PAD_ID] * (k_max - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def detokenize(ids, vocab: Vocab) -> str:
    words = []
    for i in np.asarray(ids).tolist():
        if i in (PAD_ID, CLS_ID):
            continue
        words.append(vocab.word(i))
    return " ".join(words)


@dataclass
class ShapeMeta:
    shape: str
    color: str
    quadrant: int


@dataclass
class PairedSample:
    frames: np.ndarray        # (M, C, CANVAS, CANVAS) float64 in [0, 1]
    caption: np.ndarray       # (k_max,) int64, leading [CLS], pad tail
    scene_id: int


def scene_meta(scene_id: int, frames_m: int):
    """Shape/direction plan for a scene, a pure function of scene_id."""
    rng = np.random.default_rng(scene_id)
    n_shapes = int(rng.integers(1, 4))
    quads = sorted(int(q) for q in rng.choice(4, size=n_shapes, replace=False))
    metas = [ShapeMeta(shape=SHAPES[int(rng.integers(len(SHAPES)))],
                       color=COLORS[int(rng.integers(len(COLORS)))],
                       quadrant=q)
             for q in quads]
    direction = DIRECTIONS[int(rng.integers(len(DIRECTIONS)))] \
        if frames_m > 1 else None
    # per-shape start offset inside the quadrant, biased so the full
    # travel stays inside when possible (clamped at the walls otherwise)
    slack = QUAD - SHAPE_BOX
    offsets = []
    d_row, d_col = _VELOCITY[direction] if direction else (0, 0)
    travel = frames_m - 1
    for _ in metas:
        offsets.append((_start_offset(rng, d_row, travel, slack),
                        _start_offset(rng, d_col, travel, slack)))
    return metas, direction, offsets


def _start_offset(rng, vel: int, travel: int, slack: int) -> int:
    if vel == 0:
        return int(rng.integers(0, slack + 1))
    lo = max(0, -vel * travel)
    hi = min(slack, slack - vel * travel)
    if lo > hi:
        return 0 if vel > 0 else slack
    return int(rng.integers(lo, hi + 1))


def render_shape(frames: np.ndarray, meta: ShapeMeta, offset, direction):
    """Draw one shape's full trajectory onto frames, in place."""
    bitmap = _BITMAPS[meta.shape]
    channel = COLORS.index(meta.color)
    q_row = (meta.quadrant // 2) * QUAD
    q_col = (meta.quadrant % 2) * QUAD
    d_row, d_col = _VELOCITY[direction] if direction else (0, 0)
    slack = QUAD - SHAPE_BOX
    for t in range(frames.shape[0]):
        r = int(np.clip(offset[0] + d_row * t, 0, slack))
        c = int(np.clip(offset[1] + d_col * t, 0, slack))
        view = frames[t, channel,
                      q_row + r: q_row + r + SHAPE_BOX,
                      q_col + c: q_col + c + SHAPE_BOX]
        view[bitmap] = 1.0


def scene_caption(metas, direction) -> str:
    parts = []
    for m in metas:
        vert, horiz = QUADRANT_WORDS[m.quadrant]
        parts.append(f"{m.color} {m.shape} {vert} {horiz}")
    text = " and ".join(parts)
    if direction is not None:
        text = f"{text} {direction}"
    return text


def generate_sample(scene_id: int, frames_m: int, vocab: Vocab,
                    k_max: int = K_MAX) -> PairedSample:
    if frames_m < 1:
        raise InputError("frames_m must be >= 1")
    metas, direction, offsets = scene_meta(scene_id, frames_m)
    frames = np.zeros((frames_m, CHANNELS, CANVAS, CANVAS))
    for meta, offset in zip(metas, offsets):
        render_shape(frames, meta, offset, direction)
    caption = tokenize(scene_caption(metas, direction), vocab, k_max)
    return PairedSample(frames=frames, caption=caption, scene_id=scene_id)


def generate_corpus(n: int, frames_m: int = 1, seed: int = 0,
                    vocab: Vocab | None = None,
                    k_max: int = K_MAX) -> list[PairedSample]:
    """n unique-caption samples; pure function of (n, frames_m, seed)."""
    if n <= 0:
        raise InputError("corpus size must be positive")
    if vocab is None:
        vocab = default_vocab()
    master = np.random.default_rng(seed)
    out: list[PairedSample] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise InputError(
                f"could not draw {n} distinct captions; the template "
                f"grammar is too small for this corpus size")
        scene_id = int(master.integers(0, 2 ** 62))
        sample = generate_sample(scene_id, frames_m, vocab, k_max)
        key = sample.caption.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(sample)
    return out


def save_corpus(path, corpus, vocab: Vocab | None = None) -> None:
    """One sample per line: scene_id TAB M TAB caption TAB pixels."""
    if vocab is None:
        vocab = default_vocab()
    with open(path, "w") as f:
        for s in corpus:
            text = detokenize(s.caption, vocab)
            pixels = " ".join("%.17g" % v for v in s.frames.ravel())
            f.write(f"{s.scene_id}\t{s.frames.shape[0]}\t{text}\t{pixels}\n")


def load_corpus(path, vocab: Vocab | None = None,
                k_max: int = K_MAX) -> list[PairedSample]:
    """Every line is checked, so all samples share one frame count,
    hold finite pixels in [0, 1] and caption only vocabulary words; a bad
    line raises InputError, or VocabError for an unknown word, naming
    path:line."""
    if vocab is None:
        vocab = default_vocab()
    out = []
    with open(path, "rb") as f:
        for ln, raw in enumerate(f, start=1):
            where = f"{path}:{ln}"
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise InputError(f"{where}: not UTF-8 text") from None
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise InputError(f"{where}: expected 4 tab-separated "
                                 f"fields, got {len(fields)}")
            scene_str, m_str, text, pixel_str = fields
            try:
                scene_id, m = int(scene_str), int(m_str)
                flat = np.array(pixel_str.split(), dtype=np.float64)
            except ValueError as e:
                raise InputError(f"{where}: not a number: {e}") from None
            if m < 1:
                raise InputError(f"{where}: frame count {m} is below 1")
            if out and m != out[0].frames.shape[0]:
                raise InputError(f"{where}: {m} frames, but the first "
                                 f"sample has {out[0].frames.shape[0]}")
            expect = m * CHANNELS * CANVAS * CANVAS
            if flat.size != expect:
                raise InputError(f"{where}: expected {expect} pixel "
                                 f"values, got {flat.size}")
            if not np.all((flat >= 0.0) & (flat <= 1.0)):
                raise InputError(f"{where}: pixel values not finite or "
                                 f"outside [0, 1]")
            frames = flat.reshape(m, CHANNELS, CANVAS, CANVAS)
            try:
                caption = tokenize(text, vocab, k_max)
            except VocabError as e:
                raise VocabError(f"{where}: {e}") from None
            out.append(PairedSample(frames=frames, caption=caption,
                                    scene_id=scene_id))
    return out
