"""Optimization loop: schedule, AdamW, checkpointing, curriculum transfer.

TrainConfig is the one config of the package: the encoders, the model,
the objectives and the CLI all read it. Its __post_init__ is the one
place where it is checked, so a config file, CLI flags or a checkpoint
header is rejected before any model is built or any file is written.

File formats owned by this module:

* Config file: plain text, one ``key = value`` per line, ``#`` comments
  and blank lines ignored. Keys are TrainConfig field names; unknown
  keys are rejected. Booleans accept true/false, 1/0, yes/no, on/off.

* Checkpoint container: magic ``VLSC-CKPT-1\\n``, an 8-byte little
  endian header length, a JSON header (sorted keys, no whitespace)
  holding the config snapshot, step, Adam step counter and an array
  directory, then the raw little endian float64 bytes of every array
  in directory order. Saving a loaded checkpoint reproduces the file
  byte for byte.

* Metrics log: append-only text, one line per optimizer step:
  ``step cl vtm mlm scl total lr`` with %.17g floats, ``nan`` for
  disabled objectives. A ``#``-prefixed header line is written when
  the file is created.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .encoders import VARIANTS
from .errors import ConfigError, InputError, NumericError, ShapeError
from .model import PretrainModel
from .objectives import total_loss
from .synthdata import CHANNELS
from .tensor import ParamRegistry

CKPT_MAGIC = b"VLSC-CKPT-1\n"
RNG_COMPONENTS = ("clean", "vtm", "mlm", "scl")
RNG_BATCH_ID = len(RNG_COMPONENTS)  # 4, reserved for batch sampling

METRICS_HEADER = "# step cl vtm mlm scl total lr\n"

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


def save_config(config: TrainConfig, path) -> None:
    with open(path, "w") as f:
        for fld in dataclasses.fields(config):
            val = getattr(config, fld.name)
            if isinstance(val, bool):
                val = "true" if val else "false"
            f.write(f"{fld.name} = {val}\n")


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


class AdamW:
    """Adam with decoupled weight decay: the decay term never enters
    the moments, so a zero-gradient parameter contracts exactly as
    theta * (1 - lr * wd) per step."""

    def __init__(self, params: ParamRegistry, betas=(0.9, 0.98),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0

    def step(self, encoder_lr: float, fusion_lr: float) -> None:
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            lr = fusion_lr if is_fast_group(name) else encoder_lr
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - lr * update - lr * self.weight_decay * p.data


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
    opt.m = {n: a.copy() for n, a in ckpt.m.items()}
    opt.v = {n: a.copy() for n, a in ckpt.v.items()}
    opt.t = ckpt.t
    return model, opt


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    if not (set(ckpt.params) == set(ckpt.m) == set(ckpt.v)):
        raise ShapeError("parameter / moment name sets differ")
    directory = []
    blobs = []
    for kind, table in (("param", ckpt.params), ("m", ckpt.m),
                        ("v", ckpt.v)):
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name], dtype=np.float64)
            directory.append({"kind": kind, "name": name,
                              "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
    header = {"format": 1, "step": ckpt.step, "t": ckpt.t,
              "config": dataclasses.asdict(ckpt.config),
              "arrays": directory}
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<Q", len(raw)))
        f.write(raw)
        for b in blobs:
            f.write(b)


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


def _abort(model: PretrainModel, opt: AdamW, step: int,
           config: TrainConfig, out_dir, message: str):
    """Save the state the failing step started from as
    ckpt_diagnostic.vlsc in out_dir, if given, then raise NumericError."""
    if out_dir is not None:
        save_checkpoint(snapshot(model, opt, step, config),
                        os.path.join(out_dir, "ckpt_diagnostic.vlsc"))
    raise NumericError(message)


def train(config: TrainConfig, corpus, out_dir=None, resume=None):
    """Run the loop; returns (final Checkpoint, metrics lines).

    out_dir, when given, receives metrics.txt (append-only),
    ckpt_final.vlsc, interval checkpoints, and on a non-finite loss or
    gradient norm a diagnostic checkpoint of the state before the failing
    step next to the NumericError, which is raised before the optimizer
    moves. resume continues from a checkpoint's parameters, moments and
    step counter under the *passed* config, so an interval checkpoint
    replays the rest of its own run bit-exactly."""
    _validate_corpus(config, corpus)
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

    log = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "metrics.txt")
        fresh = not os.path.exists(log_path)
        log = open(log_path, "a")
        if fresh:
            log.write(METRICS_HEADER)
            log.flush()
    try:
        for step in range(start + 1, config.total_steps + 1):
            idx = batch_indices(len(corpus), config.batch,
                                config.seed, step)
            frames, captions = stack_batch(corpus, idx)
            model.zero_grad()
            report, total = total_loss(model, frames, captions, config,
                                       step_rngs(config.seed, step),
                                       train=True)
            vals = [report.cl, report.vtm, report.mlm, report.scl,
                    report.total]
            if not all(np.isfinite(v) for v in vals if v is not None):
                _abort(model, opt, step, config, out_dir,
                       f"non-finite loss at step {step}: "
                       f"cl={report.cl} vtm={report.vtm} mlm={report.mlm} "
                       f"scl={report.scl}")
            total.backward()
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
    finally:
        if log is not None:
            log.close()
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
