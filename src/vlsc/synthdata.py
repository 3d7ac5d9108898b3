"""Synthetic paired vision/text data.

Scenes are 16x16 RGB canvases holding 1-3 colored shapes, one per
quadrant. The caption is a template sentence naming each shape's color,
kind, and quadrant, in quadrant reading order; video scenes add a single
trailing motion word and translate every shape 1 px/frame in that
direction. Everything is a pure function of integer seeds, so corpora
are reproducible and captions double as retrieval ground truth.

Every caption is written in the one fixed vocabulary VOCAB: the
reserved words [PAD], [CLS] and [MASK] (IDs 0..2), the grammar's words
and filler words up to V_VOCAB entries. A caption holds at most
K_MAX - 1 words, none of them reserved, after its leading [CLS].
"""

from __future__ import annotations

import contextlib
import os
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

    def id(self, word: str) -> int:
        try:
            return self._w2i[word]
        except KeyError:
            raise VocabError(f"unknown word: {word!r}") from None

    def word(self, idx: int) -> str:
        if not 0 <= idx < len(self._i2w):
            raise VocabError(f"token id out of range: {idx}")
        return self._i2w[idx]


def _vocab_words() -> list[str]:
    words = list(COLORS) + list(SHAPES)
    for vert, horiz in QUADRANT_WORDS:
        for w in (vert, horiz):
            if w not in words:
                words.append(w)
    words.append("and")
    words.extend(DIRECTIONS)
    n_fill = V_VOCAB - len(RESERVED) - len(words)
    return words + [f"w{i:02d}" for i in range(n_fill)]


VOCAB = Vocab(_vocab_words())


def tokenize(text: str, k_max: int = K_MAX) -> np.ndarray:
    """[CLS] + word IDs, padded to exactly k_max entries. A reserved or
    unknown word raises VocabError, more than k_max - 1 words
    InputError."""
    words = text.split()
    if len(words) > k_max - 1:
        raise InputError(f"caption has {len(words)} words, more than the "
                         f"{k_max - 1} that fit after [CLS]")
    for w in words:
        if w in RESERVED:
            raise VocabError(f"reserved word in caption: {w!r}")
    ids = [CLS_ID] + [VOCAB.id(w) for w in words]
    ids.extend([PAD_ID] * (k_max - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def detokenize(ids) -> str:
    """The caption text that tokenize turns into ids. An id sequence
    tokenize cannot produce raises VocabError: no leading [CLS], a
    reserved or out-of-range id after it, or a content id after a
    [PAD]."""
    ids = np.asarray(ids).tolist()
    if not ids or ids[0] != CLS_ID:
        raise VocabError("caption ids do not start with [CLS]")
    body = ids[1:]
    n = body.index(PAD_ID) if PAD_ID in body else len(body)
    if any(i != PAD_ID for i in body[n:]):
        raise VocabError("caption ids hold a word after [PAD]")
    words = [VOCAB.word(i) for i in body[:n]]
    for w in words:
        if w in RESERVED:
            raise VocabError(f"reserved id in caption: {w!r}")
    return " ".join(words)


@dataclass
class ShapeMeta:
    shape: str
    color: str
    quadrant: int


@dataclass
class PairedSample:
    frames: np.ndarray        # (M, C, CANVAS, CANVAS) float64 in [0, 1]
    caption: np.ndarray       # (K_MAX,) int64, leading [CLS], pad tail
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


def generate_sample(scene_id: int, frames_m: int) -> PairedSample:
    if frames_m < 1:
        raise InputError("frames_m must be >= 1")
    metas, direction, offsets = scene_meta(scene_id, frames_m)
    frames = np.zeros((frames_m, CHANNELS, CANVAS, CANVAS))
    for meta, offset in zip(metas, offsets):
        render_shape(frames, meta, offset, direction)
    caption = tokenize(scene_caption(metas, direction))
    return PairedSample(frames=frames, caption=caption, scene_id=scene_id)


def generate_corpus(n: int, frames_m: int = 1,
                    seed: int = 0) -> list[PairedSample]:
    """n unique-caption samples; pure function of (n, frames_m, seed)."""
    if n <= 0:
        raise InputError("corpus size must be positive")
    if seed < 0:
        raise InputError(f"seed {seed} is negative")
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
        sample = generate_sample(scene_id, frames_m)
        key = sample.caption.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(sample)
    return out


def write_atomic(path, chunks) -> None:
    """Write the byte strings chunks yields to a temporary file in
    path's directory, then rename it over path. On any failure the
    temporary file is removed and a file already at path is left as it
    was; an OSError about the temporary file names path instead."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise type(e)(e.errno, e.strerror, path) from e
        raise


def save_corpus(path, corpus) -> None:
    """One sample per line: scene_id TAB M TAB caption TAB pixels,
    written atomically."""

    def lines():
        for s in corpus:
            text = detokenize(s.caption)
            pixels = " ".join("%.17g" % v for v in s.frames.ravel())
            yield (f"{s.scene_id}\t{s.frames.shape[0]}\t{text}\t"
                   f"{pixels}\n").encode()
    write_atomic(path, lines())


def load_corpus(path) -> list[PairedSample]:
    """Every line is checked, so all samples share one frame count,
    hold finite pixels in [0, 1] and caption 1 to K_MAX - 1 words, all
    of them in VOCAB and none reserved; a bad line raises InputError,
    or VocabError for an unknown or reserved word, naming path:line."""
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
            if not text.split():
                raise InputError(f"{where}: empty caption")
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
                caption = tokenize(text)
            except (InputError, VocabError) as e:
                raise type(e)(f"{where}: {e}") from None
            out.append(PairedSample(frames=frames, caption=caption,
                                    scene_id=scene_id))
    return out
