"""Single executable for the full workflow.

Exit codes: 0 success, 1 numeric failure (non-finite loss, gradient
check over tolerance), 2 usage or input errors. SCL_SEED in the
environment supplies --seed to a command that takes one and was given
none; pretrain reads it only where --config sets no seed either.
--config reads key = value TrainConfig files; flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import evalviz as ev
from . import objectives as obj
from . import synthdata as sd
from . import trainer as tr
from .encoders import VARIANTS
from .errors import ConfigError, InputError, NumericError, VlscError
from .gradcheck import grad_check
from .model import PretrainModel

GRAD_TOL = 1e-4

# the ratio grid of the masking sweep: (image, text) pairs
MASK_RATIO_GRID = ((0.7, 0.4), (0.8, 0.3), (0.8, 0.4), (0.8, 0.5),
                   (0.9, 0.4))
OBJECTIVE_ROWS = (
    ("cl+vtm+mlm+scl", dict()),
    ("cl+vtm+mlm", dict(scl=False)),
    ("cl+vtm+scl", dict(mlm=False)),
    ("cl+mlm+scl", dict(vtm=False)),
)
# ablate's grids: (name, config overrides) per grid point
GRIDS = {
    "objectives": OBJECTIVE_ROWS,
    "mask-ratio": tuple((f"im{im}_tx{tx}",
                         dict(image_mask_ratio=im, text_mask_ratio=tx))
                        for im, tx in MASK_RATIO_GRID),
    "variants": tuple((v, dict(variant=v)) for v in VARIANTS),
}


def _seed(raw: str, source: str) -> int:
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{source}: seed {raw!r} is not a non-negative "
                          f"integer")
    return seed


def seed_arg(args) -> int:
    """--seed, or SCL_SEED's value where it was not given, or 0."""
    if args.seed is not None:
        return args.seed
    return _seed(os.environ.get("SCL_SEED", "0"), "SCL_SEED")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vlsc",
        description="Desk-scale vision-language pre-training with "
                    "semantic completion.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic paired corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=32)
    g.add_argument("--frames", type=int, default=1)
    g.add_argument("--seed", type=int)

    t = sub.add_parser("pretrain", help="run the training loop")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", help="key = value TrainConfig file")
    t.add_argument("--init-from",
                   help="single-frame checkpoint to transfer from")
    t.add_argument("--steps", type=int, dest="total_steps")
    t.add_argument("--batch", type=int)
    t.add_argument("--lr", type=float, dest="base_lr")
    t.add_argument("--seed", type=int)
    t.add_argument("--variant", choices=VARIANTS)
    t.add_argument("--frames", type=int, dest="frames_m")
    t.add_argument("--phase", choices=("image", "video"))
    t.add_argument("--image-mask-ratio", type=float)
    t.add_argument("--text-mask-ratio", type=float)
    t.add_argument("--checkpoint-interval", type=int)
    for name in ("cl", "vtm", "mlm", "scl"):
        t.add_argument(f"--no-{name}", action="store_false", dest=name,
                       default=None, help=f"disable the {name} objective")

    e = sub.add_parser("eval-retrieval", help="two-stage retrieval")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--k", type=int, default=0,
                   help="re-rank depth; 0 = encoder similarity only")
    e.add_argument("--out", help="append one CSV row here")

    x = sub.add_parser("export-attention",
                       help="write per-frame heatmap files")
    x.add_argument("--ckpt", required=True)
    x.add_argument("--corpus", required=True)
    x.add_argument("--index", type=int, default=0)
    x.add_argument("--out-dir", required=True)
    x.add_argument("--prefix", default="attn")

    c = sub.add_parser("gradcheck", help="finite-difference audit of "
                                         "every objective and the total")
    c.add_argument("--seed", type=int)
    c.add_argument("--eps", type=float, default=2e-4)
    c.add_argument("--max-elements", type=int, default=64,
                   help="elements probed per check; 64 at least")

    a = sub.add_parser("ablate", help="train/eval a config grid")
    a.add_argument("--grid", required=True, choices=GRIDS)
    a.add_argument("--out", required=True)
    a.add_argument("--steps", type=int, default=200)
    a.add_argument("--pairs", type=int, default=32,
                   help="training pairs; an equal held-out split is "
                        "generated alongside")
    a.add_argument("--seeds", default=None,
                   help="comma-separated seeds, default the single "
                        "--seed value")
    a.add_argument("--seed", type=int)
    a.add_argument("--batch", type=int, default=8)
    a.add_argument("--k", type=int, default=8)
    return p


# subcommand bodies


def cmd_gen_data(args) -> int:
    corpus = sd.generate_corpus(args.n, frames_m=args.frames,
                                seed=seed_arg(args))
    sd.save_corpus(args.out, corpus)
    print(f"wrote {len(corpus)} pairs to {args.out}")
    return 0


def _pretrain_config(args) -> tr.TrainConfig:
    """The config file's values, overridden by every flag given; each
    pretrain flag stores under its TrainConfig field name. SCL_SEED
    supplies a seed that neither sets."""
    values = tr.parse_config_file(args.config) if args.config else {}
    for fld in dataclasses.fields(tr.TrainConfig):
        val = getattr(args, fld.name, None)
        if val is not None:
            values[fld.name] = val
    if "seed" not in values and "SCL_SEED" in os.environ:
        values["seed"] = seed_arg(args)
    return tr.TrainConfig(**values)


def cmd_pretrain(args) -> int:
    config = _pretrain_config(args)
    if args.config and not args.init_from:
        # a run directory's config.txt names the checkpoint its run was
        # transferred from; without it the replay would start fresh
        source = tr.recorded_init_from(args.config)
        if source is not None:
            raise ConfigError(f"{args.config} records a run started from "
                              f"{source}; replay it with --init-from "
                              f"{source}")
    corpus = sd.load_corpus(args.corpus)
    resume = init_from = None
    if args.init_from:
        image_ckpt = tr.load_checkpoint(args.init_from, digest=True)
        resume = tr.curriculum_transfer(image_ckpt, config)
        init_from = (args.init_from, image_ckpt.sha256)
    final, metrics = tr.train(config, corpus, out_dir=args.out,
                              resume=resume, init_from=init_from)
    last = metrics[-1] if metrics else "(no steps)"
    print(f"finished at step {final.step}; last: {last}")
    print(f"checkpoint: {os.path.join(args.out, 'ckpt_final.vlsc')}")
    return 0


def _model_from(path) -> PretrainModel:
    model, _ = tr.build_model(tr.load_checkpoint(path, moments=False),
                              optimizer=False)
    return model


def cmd_eval_retrieval(args) -> int:
    model = _model_from(args.ckpt)
    corpus = sd.load_corpus(args.corpus)
    r = ev.retrieve(model, corpus, k=args.k)
    print(f"candidates {r.n}, re-rank depth {r.k}")
    print(f"IR  r@1 {r.ir_r1:.4f}  r@5 {r.ir_r5:.4f}  "
          f"r@10 {r.ir_r10:.4f}")
    print(f"TR  r@1 {r.tr_r1:.4f}  r@5 {r.tr_r5:.4f}  "
          f"r@10 {r.tr_r10:.4f}")
    if args.out:
        header = (r.CSV_HEADER + "\n").encode()
        try:
            with open(args.out, "rb") as f:
                old = f.read() or header
        except FileNotFoundError:
            old = header
        if not (old.startswith(header) and old.endswith(b"\n")):
            raise InputError(f"{args.out}: not a retrieval table; its first "
                             f"line must be {r.CSV_HEADER!r}, its last end "
                             f"in a newline")
        sd.write_atomic(args.out, [old, (r.csv_row() + "\n").encode()])
    return 0


def cmd_export_attention(args) -> int:
    model = _model_from(args.ckpt)
    corpus = sd.load_corpus(args.corpus)
    if not (0 <= args.index < len(corpus)):
        raise InputError(f"--index {args.index} outside corpus of "
                         f"{len(corpus)}")
    _, paths = ev.export_attention(model, corpus[args.index],
                                   args.out_dir, prefix=args.prefix)
    for p in paths:
        print(p)
    return 0


def gradient_suite(seed: int, eps: float, max_elements: int):
    """Relative error of every objective and the frozen-target total
    on a small deterministic batch. Yields (name, err) pairs."""
    full = tr.TrainConfig(embed_dim=8, heads=2, layers_v=1, layers_t=1,
                          layers_f=1, patch_size=4, canvas=8, frames_m=2,
                          phase="video", k_max=8, vocab_size=64,
                          dropout=0.0, seed=seed)
    model = PretrainModel(full)
    rng = np.random.default_rng(seed)
    frames = rng.uniform(size=(3, 1, 3, 8, 8))
    words = ["red", "green", "blue", "square", "cross", "bar"]
    caps = np.stack([
        sd.tokenize(f"{words[i % 6]} {words[(i + 2) % 6]}", 8)
        for i in range(3)])

    def rngs():
        return tr.step_rngs(seed, 1)

    def scl(frozen_targets=None):
        return obj.scl_loss(model, frames, caps, model.vision(frames),
                            model.text(caps), full.image_mask_ratio,
                            full.text_mask_ratio, rngs()["scl"],
                            frozen_targets=frozen_targets)

    _, pair = scl()
    frozen = (pair.i_co.data.copy(), pair.t_co.data.copy())

    def scl_term():
        return scl(frozen)[0]

    for name in ("cl", "vtm", "mlm"):
        alone = dataclasses.replace(
            full, **{o: o == name for o in ("cl", "vtm", "mlm", "scl")})

        def loss(alone=alone):
            return obj.total_loss(model, frames, caps, alone, rngs())[1]
        yield name, grad_check(loss, model.params, eps=eps,
                               max_elements=max_elements, seed=seed + 1)
    yield "scl", grad_check(scl_term, model.params, eps=eps,
                            max_elements=max_elements, seed=seed + 1)
    no_scl = dataclasses.replace(full, scl=False)

    def total():
        return obj.total_loss(model, frames, caps, no_scl,
                              rngs())[1] + scl_term()
    yield "total", grad_check(total, model.params, eps=eps,
                              max_elements=max_elements, seed=seed + 1)


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for name, err in gradient_suite(seed_arg(args), args.eps,
                                    args.max_elements):
        status = "ok" if err <= GRAD_TOL else "FAIL"
        print(f"{name:6s} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
    if worst > GRAD_TOL:
        print(f"gradient suite FAILED: {worst:.3e} > {GRAD_TOL}")
        return 1
    print("gradient suite passed")
    return 0


ABLATE_HEADER = ("grid,name,seed,steps,pairs,cl,vtm,mlm,scl,total,"
                 "k0_ir1,k0_ir5,k0_ir10,k0_tr1,k0_tr5,k0_tr10,"
                 "kN_ir1,kN_ir5,kN_ir10,kN_tr1,kN_tr5,kN_tr10")


def _last_losses(metrics) -> list:
    if not metrics:
        return [math.nan] * 5
    return [float(v) for v in metrics[-1].split()[1:6]]


def ablate_point(name: str, config: tr.TrainConfig, train_split,
                 eval_split, k: int):
    """Train one grid point from scratch and evaluate both retrieval
    stages on the held-out split. Returns the CSV cell values."""
    final, metrics = tr.train(config, train_split)
    model, _ = tr.build_model(final, optimizer=False)
    depth = min(k, len(eval_split))
    r0 = ev.retrieve(model, eval_split, k=0)
    rk = ev.retrieve(model, eval_split, k=depth)
    losses = _last_losses(metrics)
    return ([name, config.seed, config.total_steps, len(train_split)]
            + losses
            + [r0.ir_r1, r0.ir_r5, r0.ir_r10, r0.tr_r1, r0.tr_r5,
               r0.tr_r10, rk.ir_r1, rk.ir_r5, rk.ir_r10, rk.tr_r1,
               rk.tr_r5, rk.tr_r10])


def split_corpus(pairs: int, frames_m: int, seed: int):
    """Disjoint train/held-out splits from one deduplicated corpus."""
    both = sd.generate_corpus(2 * pairs, frames_m=frames_m, seed=seed)
    return both[:pairs], both[pairs:]


def cmd_ablate(args) -> int:
    seeds = ([_seed(s, "--seeds") for s in args.seeds.split(",")]
             if args.seeds else [seed_arg(args)])
    # the depth and every grid point's config are checked before any
    # training or write: a rejected grid leaves --out as it was
    if args.k < 0:
        raise ConfigError(f"--k {args.k} is negative")
    points = [(seed, [(name, tr.TrainConfig(total_steps=args.steps,
                                            batch=args.batch, seed=seed,
                                            **overrides))
                      for name, overrides in GRIDS[args.grid]])
              for seed in seeds]
    lines = [ABLATE_HEADER + "\n"]
    for seed, configs in points:
        train_split, eval_split = split_corpus(args.pairs, 1, seed)
        for name, config in configs:
            cells = ablate_point(name, config, train_split, eval_split,
                                 args.k)
            lines.append(",".join(
                [args.grid] + [str(c) if not isinstance(c, float)
                               else f"{c:.17g}" for c in cells]) + "\n")
            # the whole file so far, replaced at once
            sd.write_atomic(args.out, [ln.encode() for ln in lines])
            print(f"done: {name} seed {seed}")
    print(f"wrote {args.out}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "eval-retrieval": cmd_eval_retrieval,
    "export-attention": cmd_export_attention,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except VlscError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
