"""Optimization loop: schedule, AdamW, checkpointing, curriculum transfer.

TrainConfig is the one config of the package: the encoders, the model,
the objectives and the CLI all read it. Its __post_init__ is the one
place where it is checked, so a config file, CLI flags or a checkpoint
header is rejected before any model is built or any file is written.

File formats owned by this module:

* Config file: plain text, one ``key = value`` per line, ``#`` comments
  and blank lines ignored. Keys are TrainConfig field names; unknown
  keys are rejected. Booleans accept true/false, 1/0, yes/no, on/off.
  The config.txt of a run started from a transferred checkpoint begins
  with ``# init-from <path> sha256 <hex>``, naming that checkpoint file.

* Checkpoint container: magic ``VLSC-CKPT-1\\n``, an 8-byte little
  endian header length, a JSON header (sorted keys, no whitespace)
  holding the config snapshot, step, Adam step counter and an array
  directory, then the raw little endian float64 bytes of every array
  in directory order. Saving a loaded checkpoint reproduces the file
  byte for byte. Neither direction moves the arrays one by one: the
  saver writes the header and then each table gathered in one call, and
  the loader reads the array region into one buffer and hands out views
  of it.

* Metrics log: text, one line per optimizer step:
  ``step cl vtm mlm scl total lr`` with %.17g floats, ``nan`` for
  disabled objectives, after a ``#``-prefixed header line. The last
  step's lr is 0 (lr_at), so it moves no parameter, only the moments.

A run directory holds one run: train() writes its config.txt, then its
metrics.txt and checkpoints, and refuses a directory that already holds
any of them.

Checkpoints and config files are written atomically (write_atomic): a
failed or interrupted save never leaves a partial file at the target.

A step is one total_loss call in the calling process, unless both sides
have an objective on and train() may fork (can_fork): the host has
os.fork, two usable cores or more, this process runs no other thread,
and numpy's bundled OpenBLAS thread count can be set. Then the step is
split. Side A is CL + VTM + MLM and runs in the calling process; side B
is SCL and runs in the process's one SCL worker (ForkedSide), a child
forked at the first split step and kept across train() calls while their
side-B config is the same. A call with another side-B config, or one
that finds the worker dead, reaps it and forks a new one. An exception
that leaves a call's steps ends the worker, and so does the
interpreter's exit. The caller stacks each step's batch once and sends
it to the worker with the parameters, so each side encodes the same
batch again on its own step_rngs(seed, step) and sees the draws one
total_loss call would. The step's gradient is g_A + g_B, two buffers in
the layout of the model's ParamRegistry.flat added in one call. Then
come the finite-loss check, clipping, which scales that buffer, AdamW,
which updates flat in place, the log and checkpoints, all in the calling
process. The worker runs OpenBLAS on one thread, and so does the caller
while a call's steps run: at its default of one thread per core the two
processes fight over the cores, and the split was slower than one
process. OpenBLAS ends its own worker threads before a fork, so the fork
copies one thread. The fork leaves the caller's pages copy-on-write, so
the caller's first write to each of them afterwards takes a page fault;
a process pays those faults after its one fork, not after every train()
call. g_A + g_B rounds otherwise than one backward sweep, so a split
step's gradient agrees with one total_loss call's to about 1e-12 of each
array's largest entry, not to the bit. Training amplifies that: in a
default image run on 128 pairs, split and unsplit runs' losses part by
over 1e-12 at steps 38-53 and by 17-25% at step 300, so a host that
cannot fork does not reproduce a long run's metrics.txt.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import mmap
import os
import re
import signal
import struct
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .encoders import VARIANTS, VisionEncoder
from .errors import (ConfigError, InputError, NumericError, ShapeError,
                     WorkerError)
from .host import one_blas_thread, openblas_thread_calls, usable_cores
from .masking import FIRST_CONTENT_ID
from .model import PretrainModel, init_rng
from .objectives import total_loss
from .synthdata import CHANNELS, write_atomic
from .tensor import ParamRegistry

CKPT_MAGIC = b"VLSC-CKPT-1\n"
RNG_COMPONENTS = ("clean", "vtm", "mlm", "scl")
RNG_BATCH_ID = len(RNG_COMPONENTS)  # 4, reserved for batch sampling

METRICS_HEADER = "# step cl vtm mlm scl total lr\n"

ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8
# AdamW updates its flat buffers this many elements at a time, so that a
# chunk's temporaries stay in the core's cache: on a 2-core Xeon a step
# over the 137k parameters of the default model took 4.9 ms in
# whole-buffer passes and 2.8 ms in chunks of 8192
ADAM_CHUNK = 8192

# the fields that fix the parameter set; a curriculum transfer keeps all
# of them, a resume also keeps frames_m and dropout
MODEL_FIELDS = ("embed_dim", "heads", "layers_v", "layers_t", "layers_f",
                "patch_size", "canvas", "k_max", "vocab_size", "variant")

# annotation -> accepted value types; bool is rejected where it is not
# the annotation, although it is an int
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float),
                "str": str}


@dataclass
class TrainConfig:
    """Every setting of a run; checked whole on construction."""

    # optimization
    total_steps: int = 300
    batch: int = 8
    base_lr: float = 2e-3
    fusion_lr_multiplier: float = 5.0
    weight_decay: float = 0.01
    warmup_fraction: float = 0.10
    grad_clip: float = 1.0
    seed: int = 0
    # objectives
    cl: bool = True
    vtm: bool = True
    mlm: bool = True
    scl: bool = True
    image_mask_ratio: float = 0.8
    text_mask_ratio: float = 0.4
    mvsc: bool = True
    mlsc: bool = True
    # model dims
    embed_dim: int = 32
    heads: int = 4
    layers_v: int = 2
    layers_t: int = 2
    layers_f: int = 2
    patch_size: int = 4
    canvas: int = 16
    k_max: int = 16
    vocab_size: int = 64
    variant: str = "FrameCLS"
    dropout: float = 0.1
    # curriculum
    frames_m: int = 1
    phase: str = "image"
    # artifacts
    checkpoint_interval: int = 0  # 0: final checkpoint only

    def __post_init__(self):
        for fld in dataclasses.fields(self):
            val = getattr(self, fld.name)
            if isinstance(val, bool) != (fld.type == "bool") \
                    or not isinstance(val, _FIELD_TYPES[fld.type]):
                raise ConfigError(f"{fld.name} must be {fld.type}, "
                                  f"got {val!r}")
            if fld.type == "float" and not math.isfinite(val):
                raise ConfigError(f"{fld.name} must be finite")
        for name in ("batch", "embed_dim", "heads", "patch_size", "canvas",
                     "k_max", "vocab_size", "frames_m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("total_steps", "seed", "layers_v", "layers_t",
                     "layers_f", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.embed_dim % self.heads != 0:
            raise ConfigError("embed_dim must be divisible by heads")
        if self.canvas % self.patch_size != 0:
            raise ConfigError("patch_size must divide the canvas side")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown vision variant: {self.variant!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not (self.cl or self.vtm or self.mlm or self.scl):
            raise ConfigError("no objective enabled")
        if self.scl and not (self.mvsc or self.mlsc):
            raise ConfigError("semantic completion needs mvsc or mlsc on")
        for name in ("image_mask_ratio", "text_mask_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not (0.0 < self.warmup_fraction < 1.0):
            raise ConfigError("warmup_fraction must lie in (0, 1)")
        if self.vtm and self.batch < 2:
            raise ConfigError("matching loss needs batch >= 2 "
                              "for in-batch negatives")
        if self.base_lr <= 0.0:
            raise ConfigError("base_lr must be positive")
        if self.grad_clip <= 0.0:
            raise ConfigError("grad_clip must be positive")
        if self.phase not in ("image", "video"):
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.phase == "image" and self.frames_m != 1:
            raise ConfigError("image phase is single-frame")

    @property
    def grid_side(self) -> int:
        return self.canvas // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side ** 2


# config file


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# each raises ValueError on a bad value, which the parser reports with
# the file, line and key
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def parse_config_file(path) -> dict:
    """Typed key->value dict from a config file. Partial files are fine;
    missing keys fall back to TrainConfig defaults at construction."""
    types = {fld.name: fld.type for fld in dataclasses.fields(TrainConfig)}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    out: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{ln}: {key!r} is set again; line "
                              f"{set_on[key]} set it first")
        set_on[key] = ln
        try:
            out[key] = _PARSERS[types[key]](raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{ln}: bad value for "
                              f"{key!r}: {raw!r}") from e
    return out


def save_config(config: TrainConfig, path, init_from=None) -> None:
    """Write config as a file that parse_config_file reads back into its
    fields. init_from is the checkpoint the run was transferred from, if
    any, as (path, sha256 hex digest of the bytes loaded from it); the
    file then begins with a comment naming both."""
    def lines():
        if init_from:
            source, digest = init_from
            yield (f"# init-from {os.fspath(source)} sha256 {digest}\n"
                   .encode())
        for fld in dataclasses.fields(config):
            val = getattr(config, fld.name)
            if isinstance(val, bool):
                val = "true" if val else "false"
            yield f"{fld.name} = {val}\n".encode()
    write_atomic(path, lines())


_INIT_FROM_LINE = re.compile(r"# init-from (.*) sha256 [0-9a-f]{64}")


def recorded_init_from(path) -> str | None:
    """The checkpoint path a config file's first line records as the
    run's transfer source, or None when it records none."""
    with open(path, encoding="utf-8") as f:
        m = _INIT_FROM_LINE.fullmatch(f.readline().rstrip("\n"))
    return m and m.group(1)


# schedule


def lr_at(step, config: TrainConfig):
    """(encoder_lr, fusion_lr) at an integer step in [0, total_steps].

    Linear warmup from 0 to base_lr over the first warmup fraction of
    the run, then linear decay to 0 at total_steps. The fusion stack
    runs at a constant multiple of the encoder rate. train() runs step
    total_steps too: its rate 0 scales the update and the weight decay
    alike, so it advances the AdamW moments and moves no parameter."""
    if step < 0 or step > config.total_steps:
        raise InputError(f"step {step} outside [0, {config.total_steps}]")
    if config.total_steps == 0:
        return 0.0, 0.0
    warm = config.warmup_fraction * config.total_steps
    if step <= warm:
        enc = config.base_lr * (step / warm)
    else:
        enc = config.base_lr * (config.total_steps - step) \
            / (config.total_steps - warm)
    return enc, config.fusion_lr_multiplier * enc


def is_fast_group(name: str) -> bool:
    """The fusion stack and the task heads take the multiplied rate;
    both uni-modal encoders take the base rate."""
    return name.startswith("fusion.") or name.startswith("head.")


# optimizer


def clip_global_norm(params: ParamRegistry, grad: np.ndarray,
                     max_norm: float) -> float:
    """Scale grad, a gradient in params.flat's layout, so its euclidean
    norm is at most max_norm. Returns the pre-clip norm. The squares are
    summed per parameter and the sums added in registry order: the
    pinned training values record that rounding."""
    sq = 0.0
    for g in params.views(grad).values():
        sq += float(np.sum(g * g))
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


class AdamW:
    """Adam with decoupled weight decay: the decay term never enters
    the moments, so a zero-gradient parameter contracts exactly as
    theta * (1 - lr * wd) per step. The moment decays are ADAM_BETAS
    and the denominator's epsilon ADAM_EPS.

    The moments live in two flat buffers in params.flat's layout; m and
    v map each parameter name to its view of them. They start at 0, or
    at moments, (m, v) as a Checkpoint holds them (ParamRegistry.gather).
    A step takes the gradient as one buffer in that layout and updates
    params.flat and both moment buffers in place: an array taken from
    p.data before a step sees the step's values (snapshot copies). It
    runs the per-parameter update's operations, in the same order, on
    ADAM_CHUNK elements at a time, with each element's learning rate
    taken from its group, so every value rounds as it would per
    parameter."""

    def __init__(self, params: ParamRegistry, weight_decay: float = 0.01,
                 moments: tuple | None = None):
        self.params = params
        self.weight_decay = weight_decay
        n = params.flat.size
        if moments is None:
            self._m, self._v = np.zeros(n), np.zeros(n)
        else:
            self._m, self._v = (params.gather(table) for table in moments)
        self.m, self.v = params.views(self._m), params.views(self._v)
        self._fast = np.repeat([is_fast_group(name)
                                for name in params.names()],
                               [p.data.size for p in params.values()])
        self._scratch = np.empty((3, min(n, ADAM_CHUNK)))
        self.t = 0

    def step(self, grad: np.ndarray, encoder_lr: float,
             fusion_lr: float) -> None:
        """One update from grad, in params.flat's layout; grad itself is
        left as it was."""
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        theta = self.params.flat
        for lo in range(0, theta.size, ADAM_CHUNK):
            m, v, g, th = (a[lo:lo + ADAM_CHUNK]
                           for a in (self._m, self._v, grad, theta))
            t, update, lr = (a[:th.size] for a in self._scratch)
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g²
            m *= b1
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            np.multiply(g, g, out=update)
            update *= 1.0 - b2
            v *= b2
            v += update
            # update = (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += ADAM_EPS
            np.divide(m, bc1, out=update)
            update /= t
            # theta - lr update - lr wd theta, lr by the element's group
            np.copyto(lr, encoder_lr)
            np.copyto(lr, fusion_lr, where=self._fast[lo:lo + ADAM_CHUNK])
            update *= lr
            lr *= self.weight_decay
            lr *= th
            th -= update
            th -= lr


# checkpoints


@dataclass
class Checkpoint:
    """Parameters and AdamW moments, name -> array, with the counters and
    config. sha256 is the hex digest of the file bytes load_checkpoint
    read, when it was asked for one."""
    params: dict
    m: dict
    v: dict
    t: int
    step: int
    config: TrainConfig
    sha256: str | None = None


def snapshot(model: PretrainModel, opt: AdamW, step: int,
             config: TrainConfig) -> Checkpoint:
    return Checkpoint(
        params={n: p.data.copy() for n, p in model.params.items()},
        m={n: a.copy() for n, a in opt.m.items()},
        v={n: a.copy() for n, a in opt.v.items()},
        t=opt.t, step=step, config=config)


def init_checkpoint(config: TrainConfig) -> Checkpoint:
    model = PretrainModel(config)
    opt = AdamW(model.params, weight_decay=config.weight_decay)
    return snapshot(model, opt, 0, config)


def build_model(ckpt: Checkpoint, optimizer: bool = True):
    """(model, optimizer) restored from a checkpoint. The model takes
    its parameters from ckpt and draws no initialization; the optimizer
    is None unless asked for, which a model that only evaluates is not.
    Raises ShapeError where ckpt does not fit its config's model."""
    model = PretrainModel(ckpt.config, values=ckpt.params)
    if not optimizer:
        return model, None
    opt = AdamW(model.params, weight_decay=ckpt.config.weight_decay,
                moments=(ckpt.m, ckpt.v))
    opt.t = ckpt.t
    return model, opt


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ckpt to path atomically: the header, then each table's
    arrays gathered into one buffer in one call."""
    if not (set(ckpt.params) == set(ckpt.m) == set(ckpt.v)):
        raise ShapeError("parameter / moment name sets differ")
    tables = [(kind, [(name, table[name]) for name in sorted(table)])
              for kind, table in (("param", ckpt.params), ("m", ckpt.m),
                                  ("v", ckpt.v))]
    header = {"format": 1, "step": ckpt.step, "t": ckpt.t,
              "config": dataclasses.asdict(ckpt.config),
              "arrays": [{"kind": kind, "name": name,
                          "shape": list(np.shape(arr))}
                         for kind, arrays in tables for name, arr in arrays]}
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode()

    def chunks():
        yield CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw
        # one buffer per table, not one of the whole file, whose 3 MiB
        # raised the peak RSS of a process that trains and saves
        for _, arrays in tables:
            if arrays:
                yield np.concatenate([arr for _, arr in arrays], axis=None,
                                     dtype="<f8")
    write_atomic(path, chunks())


def load_checkpoint(path, digest: bool = False,
                    moments: bool = True) -> Checkpoint:
    """The checkpoint in the file at path. The file's array region is
    read straight into one buffer, after every bound is checked against
    the header and the file's size, and each array is a view of it.
    Without moments, for a model that only evaluates, m and v are empty
    and the region is read only up to the end of the last parameter
    entry: in a file save_checkpoint wrote, the parameter bytes alone.
    The header's moment entries are checked all the same. With digest
    the Checkpoint's sha256 names the bytes read, which are then all of
    them. Raises InputError on a malformed file, and on a header no
    save writes: a format other than 1, or a step or t that is not a
    non-negative int."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(CKPT_MAGIC) + 8)
        if not head.startswith(CKPT_MAGIC):
            raise InputError(f"{path}: not a checkpoint file")
        if len(head) < len(CKPT_MAGIC) + 8:
            raise InputError(f"{path}: truncated header length")
        (hlen,) = struct.unpack_from("<Q", head, len(CKPT_MAGIC))
        # checked before the read, so a huge length allocates nothing
        raw = f.read(hlen) if hlen <= size - len(head) else b""
        if len(raw) < hlen:
            raise InputError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode())
            entries = [(e["kind"], e["name"], tuple(map(int, e["shape"])))
                       for e in header["arrays"]]
            fmt, t, step = header["format"], header["t"], header["step"]
            config = TrainConfig(**header["config"])
        except (ValueError, KeyError, TypeError, OverflowError,
                RecursionError, ConfigError) as e:
            raise InputError(f"{path}: malformed header: {e!r}") from e
        # a bool is an int, and 1.0 == 1: only the values a save writes
        if type(fmt) is not int or fmt != 1:
            raise InputError(f"{path}: checkpoint format {fmt!r} is not 1")
        if type(t) is not int or type(step) is not int or min(t, step) < 0:
            raise InputError(f"{path}: step {step!r} and t {t!r} must be "
                             f"non-negative integers")
        room = (size - len(head) - hlen) // 8
        counts = []
        for kind, name, shape in entries:
            if kind not in ("param", "m", "v") or not isinstance(name, str) \
                    or min(shape, default=0) < 0:
                raise InputError(f"{path}: malformed array entry "
                                 f"{(kind, name, shape)!r}")
            counts.append(math.prod(shape))
            room -= counts[-1]
            if room < 0:
                raise InputError(f"{path}: truncated array {name!r}")
        trailing = size - len(head) - hlen - 8 * sum(counts)
        if trailing:
            raise InputError(f"{path}: {trailing} trailing bytes")
        kinds = ("param", "m", "v") if moments or digest else ("param",)
        ends = list(itertools.accumulate(counts))
        upto = max((end for end, (kind, _, _) in zip(ends, entries)
                    if kind in kinds), default=0)
        # sized for the whole region even when less is read: the unread
        # part is never touched, so never resident, and freeing a buffer
        # this size raises glibc's mmap threshold as a whole read does. A
        # buffer of the parameters alone left an evaluation-only process
        # re-faulting its heap: 22k minor faults per image k=8 call
        region = np.empty(sum(counts), dtype="<f8")[:upto]
        if f.readinto(region) != region.nbytes:
            raise InputError(f"{path}: truncated array region")
    tables: dict = {"param": {}, "m": {}, "v": {}}
    shapes: dict = {"param": {}, "m": {}, "v": {}}
    for (kind, name, shape), count, end in zip(entries, counts, ends):
        shapes[kind][name] = shape
        if kind not in kinds:
            continue
        try:
            tables[kind][name] = region[end - count:end].reshape(shape)
        except ValueError as e:  # an empty shape too large for numpy
            raise InputError(f"{path}: array {name!r}: {e}") from None
    for kind in ("m", "v"):
        if shapes[kind] != shapes["param"]:
            raise InputError(f"{path}: {kind} table does not match the "
                             f"parameter names and shapes")
    sha256 = None
    if digest:
        read = hashlib.sha256(head + raw)
        read.update(region)
        sha256 = read.hexdigest()
    return Checkpoint(params=tables["param"], m=tables["m"], v=tables["v"],
                      t=t, step=step, config=config, sha256=sha256)


# the loop


def step_rngs(seed: int, step: int) -> dict:
    """One independent generator per objective component, keyed by the
    absolute step, so toggling an objective or resuming mid-run never
    shifts any other component's draws."""
    return {name: np.random.default_rng([int(seed), int(step), i])
            for i, name in enumerate(RNG_COMPONENTS)}


def batch_indices(n: int, batch: int, seed: int, step: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), int(step), RNG_BATCH_ID])
    return rng.choice(n, size=batch, replace=batch > n)


def stack_batch(corpus, idx):
    frames = np.stack([corpus[i].frames for i in idx])
    captions = np.stack([corpus[i].caption for i in idx])
    return frames, captions


def _fmt(x) -> str:
    return "nan" if x is None else f"{x:.17g}"


def metrics_line(step: int, report, enc_lr: float) -> str:
    return (f"{step} {_fmt(report.cl)} {_fmt(report.vtm)} "
            f"{_fmt(report.mlm)} {_fmt(report.scl)} "
            f"{_fmt(report.total)} {_fmt(enc_lr)}")


def _validate_corpus(config: TrainConfig, corpus) -> None:
    if not corpus:
        raise InputError("empty corpus")
    # load_corpus gives every sample one shape, so the first stands for all
    want = (config.frames_m, CHANNELS, config.canvas, config.canvas)
    got = corpus[0].frames.shape
    if got != want:
        raise ShapeError(f"corpus frames {got}, config wants {want}")
    if corpus[0].caption.shape != (config.k_max,):
        raise ShapeError(f"corpus caption length "
                         f"{corpus[0].caption.shape[0]} != k_max "
                         f"{config.k_max}")
    top = max(int(s.caption.max()) for s in corpus)
    if top >= config.vocab_size:
        raise InputError(f"corpus token id {top} is outside vocab_size "
                         f"{config.vocab_size}")
    if config.mlm or config.scl:
        # both mask content tokens of every caption
        for i, s in enumerate(corpus):
            if not np.any(s.caption >= FIRST_CONTENT_ID):
                raise InputError(f"corpus sample {i} (scene {s.scene_id}) "
                                 f"has no content token to mask")


def _abort(model: PretrainModel, opt: AdamW, step: int,
           config: TrainConfig, out_dir, message: str):
    """Save the state the failing step started from, that after step - 1,
    as ckpt_diagnostic.vlsc in out_dir, if given, then raise
    NumericError. A resume from it replays the failing step."""
    if out_dir is not None:
        save_checkpoint(snapshot(model, opt, step - 1, config),
                        os.path.join(out_dir, "ckpt_diagnostic.vlsc"))
    raise NumericError(message)


def _check_unused(out_dir) -> None:
    """Raise InputError if out_dir already holds a run's files."""
    if not os.path.isdir(out_dir):
        return
    for name in sorted(os.listdir(out_dir)):
        if name in ("config.txt", "metrics.txt") or (
                name.startswith("ckpt_") and name.endswith(".vlsc")):
            raise InputError(f"run directory {out_dir} already holds "
                             f"{name} from an earlier run")


# the two sides of a step


def side_grads(model: PretrainModel, frames: np.ndarray,
               captions: np.ndarray, config: TrainConfig, step: int,
               out: np.ndarray | None = None):
    """Run the objectives config has on at step, on the model's current
    parameters, from the step's batch and its own generators. Returns
    their LossReport and their gradient in model.params.flat's layout,
    written into out when it is given."""
    model.params.zero_grad()
    report, total = total_loss(model, frames, captions, config,
                               step_rngs(config.seed, step))
    total.backward()
    return report, model.params.flat_grad(out=out)


class ForkedSide:
    """The process's SCL worker: side B run by a child process while the
    caller runs side A. side_worker() forks it at the first split step
    of a process and keeps it across train() calls while their side-B
    config equals side.

    The child holds a copy of the model of the call that forked it, and
    no optimizer state and no corpus. An anonymous shared mmap holds the
    parameters and the side's gradient, each in params.flat's layout,
    then the side's loss, then the step's frames and captions. For each
    step, start() copies the caller's parameters and the batch into the
    mmap and writes the step number down a pipe. The child copies the
    parameters into its own params.flat, runs the side on the batch in
    the mmap, writes its gradient and its loss into the mmap, and
    replies with one status byte. An error in the child is sent back as
    its type name and message instead, and ends the child; the caller
    raises it as a WorkerError. EOF on the pipe ends the child too, so
    it ends when close() closes the pipe or the parent dies. The child
    leaves only through os._exit, prints nothing, and touches none of
    the files it inherits.

    Between calls the caller holds only the pid, the two pipe ends and
    the mmap, so no model, registry or batch of a finished call stays
    alive in it."""

    def __init__(self, model: PretrainModel, side: TrainConfig):
        self.side = side
        self.n = model.params.flat.size
        self.frames_shape = (side.batch, side.frames_m, CHANNELS,
                             side.canvas, side.canvas)
        # parameters | gradient | loss | frames | captions
        self._mm = mmap.mmap(-1, 8 * (2 * self.n + 1
                                      + math.prod(self.frames_shape)
                                      + side.batch * side.k_max))
        self.buf = np.frombuffer(self._mm, dtype=np.float64)
        cmd_r, self._cmd = os.pipe()
        self._reply, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (cmd_r, self._cmd, self._reply, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(self._cmd)
                os.close(self._reply)
                self._serve(model, cmd_r, reply_w)
            except BaseException as e:
                with contextlib.suppress(BaseException):
                    os.write(reply_w, b"\1" + f"{type(e).__name__}\0{e}"
                             .encode()[:4000])
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)

    def _regions(self) -> tuple:
        """Views of the mmap: (parameters, gradient, loss, frames,
        captions)."""
        n, buf = self.n, self.buf
        frames_end = 2 * n + 1 + math.prod(self.frames_shape)
        return (buf[:n], buf[n:2 * n], buf[2 * n:2 * n + 1],
                buf[2 * n + 1:frames_end].reshape(self.frames_shape),
                buf[frames_end:].view(np.int64).reshape(
                    self.side.batch, self.side.k_max))

    def _serve(self, model, cmd_r, reply_w) -> None:
        """The child's loop, one side-B run per step number read."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
        warnings.simplefilter("ignore")               # and never print
        while len(msg := os.read(cmd_r, 8)) == 8:
            (step,) = struct.unpack("<q", msg)
            params, grad, loss, frames, captions = self._regions()
            model.params.flat[...] = params
            loss[0] = side_grads(model, frames, captions, self.side, step,
                                 out=grad)[0].total
            os.write(reply_w, b"\0")

    def alive(self) -> bool:
        """Whether the child still runs; one that has ended is reaped."""
        try:
            return os.waitpid(self.pid, os.WNOHANG) == (0, 0)
        except ChildProcessError:  # reaped by another wait
            return False

    def start(self, flat: np.ndarray, frames: np.ndarray,
              captions: np.ndarray, step: int) -> None:
        """Send the child the step's parameters, flat in params.flat's
        layout, and its batch, and let it run the step."""
        params, _, _, frames_in, captions_in = self._regions()
        params[...] = flat
        frames_in[...] = frames
        captions_in[...] = captions
        self.step = step
        try:
            os.write(self._cmd, struct.pack("<q", step))
        except BrokenPipeError:
            raise WorkerError(f"the SCL process ended before step "
                              f"{step}") from None

    def finish(self) -> tuple:
        """(side B's loss, side B's gradient) of the started step; the
        gradient, in params.flat's layout, is a view of the shared mmap,
        valid until the next start()."""
        status = os.read(self._reply, 1)
        if status != b"\0":
            raise self._failure(status)
        _, grad, loss, _, _ = self._regions()
        return float(loss[0]), grad

    def _failure(self, status: bytes) -> WorkerError:
        if not status:
            return WorkerError(f"the SCL process ended at step {self.step} "
                               f"without a reply")
        raw = b"".join(iter(lambda: os.read(self._reply, 4096), b""))
        kind, _, message = raw.decode(errors="replace").partition("\0")
        return WorkerError(f"the SCL side failed at step {self.step}: "
                           f"{kind}: {message}")

    def close(self) -> None:
        """End the child and wait for it. The mmap is unmapped once no
        view of it is left: an exception's traceback may still hold
        finish()'s gradient."""
        os.close(self._cmd)
        os.close(self._reply)
        with contextlib.suppress(ChildProcessError):  # reaped already
            os.waitpid(self.pid, 0)
        self.buf = self._mm = None


_worker: ForkedSide | None = None


def side_worker(model: PretrainModel, side: TrainConfig) -> ForkedSide:
    """The process's SCL worker for side-B config side. The running one
    is kept if its config equals side and its child lives; otherwise it
    is ended and reaped, and a new one forked from model."""
    global _worker
    if _worker is not None and not (_worker.side == side
                                    and _worker.alive()):
        end_worker()
    if _worker is None:
        _worker = ForkedSide(model, side)
    return _worker


def end_worker() -> None:
    """End the process's SCL worker, if one runs, and wait for it."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.close()


# a worker outlives train(); the interpreter's exit ends it
atexit.register(end_worker)


def can_fork() -> bool:
    """Whether train() may split a step and run side B in a forked
    child: the host has fork, two usable cores or more, this process
    runs no other thread, and numpy's OpenBLAS thread count can be set
    (it must be 1 while both sides run)."""
    return (hasattr(os, "fork") and usable_cores() >= 2
            and threading.active_count() == 1
            and openblas_thread_calls() is not None)


def split_step(model: PretrainModel, frames: np.ndarray,
               captions: np.ndarray, a: TrainConfig, other: ForkedSide,
               step: int):
    """Run side A here and side B in other's child, both on the batch
    (frames, captions). Returns the step's LossReport and its gradient
    g_A + g_B, added as two buffers in model.params.flat's layout."""
    other.start(model.params.flat, frames, captions, step)
    report, grad = side_grads(model, frames, captions, a, step)
    loss_b, grad_b = other.finish()
    grad += grad_b
    return dataclasses.replace(report, scl=loss_b,
                               total=report.total + loss_b), grad


@contextlib.contextmanager
def step_runner(model: PretrainModel, corpus, config: TrainConfig):
    """A function of the step number that stacks the step's batch from
    corpus, runs the step's objectives on the model's current parameters
    and returns the step's LossReport and its gradient, one new buffer
    in model.params.flat's layout. With both sides on, where can_fork()
    allows, it splits the step and runs side B in the process's SCL
    worker (side_worker), which outlives the block. An exception that
    leaves the block ends the worker, since a reply of its may still be
    in flight. Otherwise a step is one total_loss call."""
    def batch(step):
        return stack_batch(corpus, batch_indices(
            len(corpus), config.batch, config.seed, step))

    if not (config.scl and (config.cl or config.vtm or config.mlm)
            and can_fork()):
        yield lambda step: side_grads(model, *batch(step), config, step)
        return
    # side A: CL, VTM and MLM; side B: SCL
    a = dataclasses.replace(config, scl=False)
    b = dataclasses.replace(config, cl=False, vtm=False, mlm=False)
    with one_blas_thread():
        other = side_worker(model, b)
        try:
            yield lambda step: split_step(model, *batch(step), a, other,
                                          step)
        except BaseException:
            end_worker()
            raise


def train(config: TrainConfig, corpus, out_dir=None, resume=None,
          init_from=None):
    """Run the loop; returns (final Checkpoint, metrics lines).

    out_dir, when given, must hold no earlier run. It receives
    config.txt (the config, as save_config writes it, after a first line
    naming init_from and its sha256 when given), metrics.txt,
    ckpt_final.vlsc, interval checkpoints, and on a non-finite loss or
    gradient norm a diagnostic checkpoint of the state before the failing
    step next to the NumericError, which is raised before the optimizer
    moves. resume continues from a checkpoint's parameters, moments and
    step counter under the *passed* config, so an interval checkpoint
    replays the rest of its own run bit-exactly; its model draws no
    initialization. init_from is the checkpoint resume was transferred
    from, if any, as (path, sha256 of the bytes loaded), which config.txt
    records."""
    _validate_corpus(config, corpus)
    if out_dir is not None:
        _check_unused(out_dir)
    if resume is None:
        model = PretrainModel(config)
        opt = AdamW(model.params, weight_decay=config.weight_decay)
        start = 0
    else:
        if any(getattr(resume.config, fld) != getattr(config, fld)
               for fld in MODEL_FIELDS + ("frames_m", "dropout")):
            raise ConfigError("resume checkpoint has different model "
                              "dimensions than the passed config")
        # built under the passed config, weight decay included
        model, opt = build_model(dataclasses.replace(resume, config=config))
        start = resume.step
        if start > config.total_steps:
            raise ConfigError(f"resume step {start} past total_steps "
                              f"{config.total_steps}")
    metrics: list = []

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_config(config, os.path.join(out_dir, "config.txt"), init_from)
    # the log is opened after any fork, so a child never holds it
    with step_runner(model, corpus, config) as run_step, (
            open(os.path.join(out_dir, "metrics.txt"), "w")
            if out_dir is not None else contextlib.nullcontext()) as log:
        if log is not None:
            log.write(METRICS_HEADER)
            log.flush()
        for step in range(start + 1, config.total_steps + 1):
            report, grad = run_step(step)
            vals = [report.cl, report.vtm, report.mlm, report.scl,
                    report.total]
            if not all(np.isfinite(v) for v in vals if v is not None):
                _abort(model, opt, step, config, out_dir,
                       f"non-finite loss at step {step}: "
                       f"cl={report.cl} vtm={report.vtm} mlm={report.mlm} "
                       f"scl={report.scl}")
            norm = clip_global_norm(model.params, grad, config.grad_clip)
            if not math.isfinite(norm):
                # clipping scaled an inf gradient by 0, which gives NaN;
                # the parameters and moments are still those of step - 1
                _abort(model, opt, step, config, out_dir,
                       f"non-finite gradient norm {norm} at step {step}")
            enc_lr, fus_lr = lr_at(step, config)
            opt.step(grad, enc_lr, fus_lr)
            # freed before the next step builds its graph
            del grad
            line = metrics_line(step, report, enc_lr)
            metrics.append(line)
            if log is not None:
                log.write(line + "\n")
                log.flush()
            if (config.checkpoint_interval
                    and step % config.checkpoint_interval == 0
                    and out_dir is not None):
                save_checkpoint(snapshot(model, opt, step, config),
                                os.path.join(out_dir,
                                             f"ckpt_step{step}.vlsc"))
    final = snapshot(model, opt, config.total_steps, config)
    if out_dir is not None:
        save_checkpoint(final, os.path.join(out_dir, "ckpt_final.vlsc"))
    return final, metrics


# curriculum


def curriculum_transfer(image_ckpt: Checkpoint,
                        video_config: TrainConfig) -> Checkpoint:
    """Video-phase initialization from a single-frame checkpoint.

    Every shared parameter is taken over. The temporal position table
    gets the trained single-frame row in slot 0 and, elsewhere, the rows
    a fresh video_config model would draw, which are all that is drawn.
    Optimizer moments and step counters reset. The result shares the
    image checkpoint's other arrays; nothing here or in train() writes
    to them."""
    old = image_ckpt.config
    if old.frames_m != 1:
        raise ConfigError("source checkpoint must be single-frame")
    for fld in MODEL_FIELDS:
        a, b = getattr(old, fld), getattr(video_config, fld)
        if a != b:
            raise ConfigError(f"{fld} mismatch: image {a} vs video {b}")
    fresh = ParamRegistry()
    VisionEncoder(fresh, video_config).build_embeddings(
        init_rng(video_config))
    temporal = fresh["vision.pos_temporal"].data
    trained = image_ckpt.params.get("vision.pos_temporal")
    if np.shape(trained) != (1, temporal.shape[1]):
        raise ShapeError(f"vision.pos_temporal: {np.shape(trained)} vs "
                         f"{(1, temporal.shape[1])}")
    temporal[0] = trained[0]
    params = dict(image_ckpt.params)
    params["vision.pos_temporal"] = temporal
    m, v = ({name: np.zeros(np.shape(arr)) for name, arr in params.items()}
            for _ in range(2))
    return Checkpoint(params=params, m=m, v=v, t=0, step=0,
                      config=video_config)
