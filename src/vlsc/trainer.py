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
  byte for byte.

* Metrics log: text, one line per optimizer step:
  ``step cl vtm mlm scl total lr`` with %.17g floats, ``nan`` for
  disabled objectives, after a ``#``-prefixed header line.

A run directory holds one run: train() writes its config.txt, then its
metrics.txt and checkpoints, and refuses a directory that already holds
any of them.

Checkpoints and config files are written atomically (write_atomic): a
failed or interrupted save never leaves a partial file at the target.

A step is one total_loss call in the calling process, unless both
sides have an objective on and train() may fork (can_fork): the host
has os.fork, two usable cores or more, this process runs no other
thread, and numpy's bundled OpenBLAS thread count can be set. Then the
step is split. Side A is CL + VTM + MLM and runs in the calling
process; side B is SCL and runs in a child forked once per train() call
(ForkedSide). Each side encodes the complete inputs again on its own
step_rngs(seed, step), so both see the draws one total_loss call
would. The step's gradient is g_A + g_B, added per parameter in
registry order; then come the finite-loss check, clipping, AdamW, the
log and checkpoints, all in the calling process. The child and the
caller each run OpenBLAS on one thread: at its default of one thread
per core the two processes fight over the cores, and the split was
slower than one process. OpenBLAS ends its own worker threads before a
fork, so the fork copies one thread. The fork leaves the caller's pages
copy-on-write, so after train() returns, the caller's first write to
each of them still takes a page fault. g_A + g_B rounds otherwise than
one backward sweep, so a split step's gradient agrees with one
total_loss call's to about 1e-12 of each array's largest entry, not to
the bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
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

from .encoders import VARIANTS
from .errors import (ConfigError, InputError, NumericError, ShapeError,
                     WorkerError)
from .host import one_blas_thread, openblas_thread_calls, usable_cores
from .masking import FIRST_CONTENT_ID
from .model import PretrainModel
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
        try:
            out[key] = _PARSERS[types[key]](raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{ln}: bad value for "
                              f"{key!r}: {raw!r}") from e
    return out


def load_config(path) -> TrainConfig:
    return TrainConfig(**parse_config_file(path))


def save_config(config: TrainConfig, path, init_from=None) -> None:
    """Write config as load_config reads it. init_from is the path of the
    checkpoint the run was transferred from, if any; the file then
    begins with a comment naming it and its sha256."""
    if init_from:
        with open(init_from, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()

    def lines():
        if init_from:
            yield (f"# init-from {os.fspath(init_from)} sha256 {digest}\n"
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
    runs at a constant multiple of the encoder rate."""
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


def clip_global_norm(params: ParamRegistry, max_norm: float) -> float:
    """Scale all gradients so their joint euclidean norm is at most
    max_norm. Returns the pre-clip norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def param_slots(params: ParamRegistry) -> tuple[list, int]:
    """The layout of all parameters in one flat float64 buffer:
    (name, start, end, shape) of each, in registry order, and the
    buffer's length."""
    slots, n = [], 0
    for name, p in params.items():
        slots.append((name, n, n + p.data.size, p.data.shape))
        n += p.data.size
    return slots, n


class AdamW:
    """Adam with decoupled weight decay: the decay term never enters
    the moments, so a zero-gradient parameter contracts exactly as
    theta * (1 - lr * wd) per step. The moment decays are ADAM_BETAS
    and the denominator's epsilon ADAM_EPS.

    The moments live in two flat buffers laid out by param_slots; m and
    v map each parameter name to its slot as a view of its shape, which
    every step updates in place. A step gathers the parameters and
    gradients into flat arrays (a missing gradient counts as zero) and
    runs the per-parameter update's operations, in the same order, on
    ADAM_CHUNK elements at a time, with each element's learning rate
    taken from its group, so every value rounds as it would per
    parameter. The parameters then get views of one new flat array: an
    array taken from p.data before a step keeps its values."""

    def __init__(self, params: ParamRegistry, weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.slots, n = param_slots(params)
        self._m, self._v = np.zeros(n), np.zeros(n)
        self.m = {name: self._m[lo:hi].reshape(shape)
                  for name, lo, hi, shape in self.slots}
        self.v = {name: self._v[lo:hi].reshape(shape)
                  for name, lo, hi, shape in self.slots}
        self._fast = np.zeros(n, dtype=bool)
        for name, lo, hi, _ in self.slots:
            self._fast[lo:hi] = is_fast_group(name)
        self._scratch = np.empty((3, min(n, ADAM_CHUNK)))
        self.t = 0

    def step(self, encoder_lr: float, fusion_lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        # registry order is slot order
        params = list(self.params.values())
        theta = np.concatenate([p.data for p in params], axis=None)
        grad = np.concatenate([np.zeros(p.data.shape) if p.grad is None
                               else p.grad for p in params], axis=None)
        for lo in range(0, theta.size, ADAM_CHUNK):
            m, v, g, th = (a[lo:lo + ADAM_CHUNK]
                           for a in (self._m, self._v, grad, theta))
            t, update, lr = (a[:th.size] for a in self._scratch)
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g²
            m *= b1
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            g *= g
            g *= 1.0 - b2
            v *= b2
            v += g
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
        for name, lo, hi, shape in self.slots:
            self.params[name].data = theta[lo:hi].reshape(shape)


# checkpoints


@dataclass
class Checkpoint:
    params: dict
    m: dict
    v: dict
    t: int
    step: int
    config: TrainConfig


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


def build_model(ckpt: Checkpoint):
    """Live (model, optimizer) pair restored from a checkpoint."""
    model = PretrainModel(ckpt.config)
    live = set(model.params.names())
    saved = set(ckpt.params)
    if live != saved:
        raise ShapeError("checkpoint/model parameter sets differ: "
                         f"{sorted(live ^ saved)[:4]} ...")
    for name, p in model.params.items():
        if p.data.shape != ckpt.params[name].shape:
            raise ShapeError(f"{name}: checkpoint shape "
                             f"{ckpt.params[name].shape} != model "
                             f"{p.data.shape}")
        p.data = ckpt.params[name].copy()
    opt = AdamW(model.params, weight_decay=ckpt.config.weight_decay)
    for name in opt.m:
        opt.m[name][...] = ckpt.m[name]
        opt.v[name][...] = ckpt.v[name]
    opt.t = ckpt.t
    return model, opt


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    if not (set(ckpt.params) == set(ckpt.m) == set(ckpt.v)):
        raise ShapeError("parameter / moment name sets differ")
    arrays = [(kind, name, table[name])
              for kind, table in (("param", ckpt.params), ("m", ckpt.m),
                                  ("v", ckpt.v))
              for name in sorted(table)]
    header = {"format": 1, "step": ckpt.step, "t": ckpt.t,
              "config": dataclasses.asdict(ckpt.config),
              "arrays": [{"kind": kind, "name": name,
                          "shape": list(np.shape(arr))}
                         for kind, name, arr in arrays]}
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode()

    def chunks():
        yield CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw
        for _, _, arr in arrays:
            yield np.ascontiguousarray(arr, dtype=np.float64).tobytes()
    write_atomic(path, chunks())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(CKPT_MAGIC):
        raise InputError(f"{path}: not a checkpoint file")
    off = len(CKPT_MAGIC)
    if len(data) < off + 8:
        raise InputError(f"{path}: truncated header length")
    (hlen,) = struct.unpack_from("<Q", data, off)
    off += 8
    if len(data) < off + hlen:
        raise InputError(f"{path}: truncated header")
    tables: dict = {"param": {}, "m": {}, "v": {}}
    try:
        header = json.loads(data[off:off + hlen].decode())
        entries = [(e["kind"], e["name"], tuple(int(d) for d in e["shape"]))
                   for e in header["arrays"]]
        t, step = int(header["t"]), int(header["step"])
        config = TrainConfig(**header["config"])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError,
            ConfigError) as e:
        raise InputError(f"{path}: malformed header: {e!r}") from e
    off += hlen
    for kind, name, shape in entries:
        if kind not in ("param", "m", "v") or not isinstance(name, str) \
                or any(d < 0 for d in shape):
            raise InputError(f"{path}: malformed array entry "
                             f"{(kind, name, shape)!r}")
        count = math.prod(shape)
        nbytes = count * 8
        if len(data) < off + nbytes:
            raise InputError(f"{path}: truncated array {name!r}")
        try:
            tables[kind][name] = np.frombuffer(
                data, dtype="<f8", count=count,
                offset=off).reshape(shape).copy()
        except ValueError as e:  # an empty shape too large for numpy
            raise InputError(f"{path}: array {name!r}: {e}") from None
        off += nbytes
    if off != len(data):
        raise InputError(f"{path}: {len(data) - off} trailing bytes")
    params = tables["param"]
    for kind in ("m", "v"):
        if set(tables[kind]) != set(params) or any(
                a.shape != params[n].shape for n, a in tables[kind].items()):
            raise InputError(f"{path}: {kind} table does not match the "
                             f"parameter names and shapes")
    return Checkpoint(params=params, m=tables["m"],
                      v=tables["v"], t=t, step=step, config=config)


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


def side_grads(model: PretrainModel, corpus, config: TrainConfig,
               step: int):
    """Run the objectives config has on at step, on the model's current
    parameters, from the step's own batch and generators. Leaves their
    gradient in the parameters' .grad (None where a parameter gets
    none) and returns their LossReport."""
    idx = batch_indices(len(corpus), config.batch, config.seed, step)
    frames, captions = stack_batch(corpus, idx)
    model.zero_grad()
    report, total = total_loss(model, frames, captions, config,
                               step_rngs(config.seed, step), train=True)
    total.backward()
    return report


class ForkedSide:
    """Side B run by a child process, forked once, while the caller runs
    side A.

    The child holds a copy of the model and no optimizer state. For each
    step, start() writes the parameters into an anonymous shared mmap
    and the step number down a pipe. The child copies the parameters
    in, runs the side, writes back its gradients, a flag per parameter
    that has one, and its loss, and replies with one status byte. An
    error in the child is sent back as its type name and message
    instead, and ends the child; the caller raises it as a WorkerError.
    EOF on the pipe ends the child too, so it ends when close() closes
    the pipe or the parent dies. The child leaves only through
    os._exit, prints nothing, and touches none of the files it
    inherits."""

    def __init__(self, model: PretrainModel, corpus, side: TrainConfig):
        self.params = model.params
        self.slots, n = param_slots(self.params)
        # parameters | gradients | present flags | loss
        self._mm = mmap.mmap(-1, 8 * (2 * n + len(self.slots) + 1))
        self.buf = np.frombuffer(self._mm, dtype=np.float64)
        self.grad_off, self.flag_off = n, 2 * n
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
                self._serve(model, corpus, side, cmd_r, reply_w)
            except BaseException as e:
                with contextlib.suppress(BaseException):
                    os.write(reply_w, b"\1" + f"{type(e).__name__}\0{e}"
                             .encode()[:4000])
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)

    def _serve(self, model, corpus, side, cmd_r, reply_w) -> None:
        """The child's loop, one side-B run per step number read."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
        warnings.simplefilter("ignore")               # and never print
        buf, n = self.buf, self.grad_off
        while len(msg := os.read(cmd_r, 8)) == 8:
            (step,) = struct.unpack("<q", msg)
            for name, lo, hi, shape in self.slots:
                self.params[name].data = buf[lo:hi].reshape(shape).copy()
            report = side_grads(model, corpus, side, step)
            for i, (name, lo, hi, _) in enumerate(self.slots):
                g = self.params[name].grad
                buf[self.flag_off + i] = g is not None
                if g is not None:
                    buf[n + lo:n + hi] = g.ravel()
            buf[-1] = report.total
            os.write(reply_w, b"\0")

    def start(self, step: int) -> None:
        np.concatenate([p.data for p in self.params.values()], axis=None,
                       out=self.buf[:self.grad_off])
        self.step = step
        try:
            os.write(self._cmd, struct.pack("<q", step))
        except BrokenPipeError:
            raise WorkerError(f"the SCL process ended before step "
                              f"{step}") from None

    def finish(self) -> tuple:
        """(side B's loss, {name: gradient or None}) of the started step;
        the gradients are views of the shared mmap, valid until the next
        start()."""
        status = os.read(self._reply, 1)
        if status != b"\0":
            raise self._failure(status)
        buf, n = self.buf, self.grad_off
        grads = {name: (buf[n + lo:n + hi].reshape(shape)
                        if buf[self.flag_off + i] else None)
                 for i, (name, lo, hi, shape) in enumerate(self.slots)}
        return float(buf[-1]), grads

    def _failure(self, status: bytes) -> WorkerError:
        if not status:
            return WorkerError(f"the SCL process ended at step {self.step} "
                               f"without a reply")
        raw = b"".join(iter(lambda: os.read(self._reply, 4096), b""))
        kind, _, message = raw.decode(errors="replace").partition("\0")
        return WorkerError(f"the SCL side failed at step {self.step}: "
                           f"{kind}: {message}")

    def close(self) -> None:
        """End the child and wait for it, then free the mmap."""
        os.close(self._cmd)
        os.close(self._reply)
        os.waitpid(self.pid, 0)
        self.buf = None
        self._mm.close()


def can_fork() -> bool:
    """Whether train() may fork side B: the host has fork, two usable
    cores or more, this process runs no other thread, and numpy's
    OpenBLAS thread count can be set (it must be 1 while both sides
    run)."""
    return (hasattr(os, "fork") and usable_cores() >= 2
            and threading.active_count() == 1
            and openblas_thread_calls() is not None)


def split_step(model: PretrainModel, corpus, a: TrainConfig,
               other: ForkedSide, step: int):
    """Run side A here and side B in other's child, then leave g_A + g_B
    in the parameters' .grad, in registry order, and return the step's
    LossReport."""
    other.start(step)
    report = side_grads(model, corpus, a, step)
    loss_b, grads_b = other.finish()
    for name, p in model.params.items():
        g = grads_b[name]
        if g is not None:
            p.grad = g.copy() if p.grad is None else p.grad + g
    return dataclasses.replace(report, scl=loss_b,
                               total=report.total + loss_b)


@contextlib.contextmanager
def step_runner(model: PretrainModel, corpus, config: TrainConfig):
    """A function of the step number that runs the step's objectives on
    the model's current parameters, leaves their summed gradient in the
    parameters' .grad and returns the step's LossReport. With both
    sides on, where can_fork() allows, it splits the step and runs side
    B in a forked child, which has ended when the block ends. Otherwise
    a step is one total_loss call."""
    if not (config.scl and (config.cl or config.vtm or config.mlm)
            and can_fork()):
        yield lambda step: side_grads(model, corpus, config, step)
        return
    # side A: CL, VTM and MLM; side B: SCL
    a = dataclasses.replace(config, scl=False)
    b = dataclasses.replace(config, cl=False, vtm=False, mlm=False)
    with one_blas_thread():
        other = ForkedSide(model, corpus, b)
        try:
            yield lambda step: split_step(model, corpus, a, other, step)
        finally:
            other.close()


def train(config: TrainConfig, corpus, out_dir=None, resume=None,
          init_from=None):
    """Run the loop; returns (final Checkpoint, metrics lines).

    out_dir, when given, must hold no earlier run. It receives
    config.txt (the config, as load_config reads it, after a first line
    naming init_from and its sha256 when given), metrics.txt,
    ckpt_final.vlsc, interval checkpoints, and on a non-finite loss or
    gradient norm a diagnostic checkpoint of the state before the failing
    step next to the NumericError, which is raised before the optimizer
    moves. resume continues from a checkpoint's parameters, moments and
    step counter under the *passed* config, so an interval checkpoint
    replays the rest of its own run bit-exactly. init_from is the path
    of the checkpoint resume was transferred from, if any."""
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
        model, opt = build_model(resume)
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
            report = run_step(step)
            vals = [report.cl, report.vtm, report.mlm, report.scl,
                    report.total]
            if not all(np.isfinite(v) for v in vals if v is not None):
                _abort(model, opt, step, config, out_dir,
                       f"non-finite loss at step {step}: "
                       f"cl={report.cl} vtm={report.vtm} mlm={report.mlm} "
                       f"scl={report.scl}")
            norm = clip_global_norm(model.params, config.grad_clip)
            if not math.isfinite(norm):
                # clipping scaled an inf gradient by 0, which gives NaN;
                # the parameters and moments are still those of step - 1
                _abort(model, opt, step, config, out_dir,
                       f"non-finite gradient norm {norm} at step {step}")
            enc_lr, fus_lr = lr_at(step, config)
            opt.step(enc_lr, fus_lr)
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

    Every shared parameter is copied. The temporal position table gets
    the trained single-frame row in slot 0 and fresh truncated-normal
    rows elsewhere. Optimizer moments and step counters reset."""
    old = image_ckpt.config
    if old.frames_m != 1:
        raise ConfigError("source checkpoint must be single-frame")
    for fld in MODEL_FIELDS:
        a, b = getattr(old, fld), getattr(video_config, fld)
        if a != b:
            raise ConfigError(f"{fld} mismatch: image {a} vs video {b}")
    fresh = init_checkpoint(video_config)
    for name, arr in fresh.params.items():
        src = image_ckpt.params[name]
        if name == "vision.pos_temporal":
            arr[0] = src[0]
            continue
        if src.shape != arr.shape:
            raise ShapeError(f"{name}: {src.shape} vs {arr.shape}")
        fresh.params[name] = src.copy()
    return fresh
