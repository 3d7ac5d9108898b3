"""Span tracing of the vlsc layers from outside the package.

The tracer patches the public functions and methods of each module
with thin wrappers, so nothing under ``src/`` changes. Spans are kept
in memory as (name, start, end, parent, root, rows) and written out by
the caller when the run ends. Counters (graph nodes, model instances)
are kept per root span, where a root is one benchmark-level call such
as one ``vlsc pretrain`` invocation.

Outside a root every wrapper calls straight through, so the benchmark's
own correctness checks never show up in the trace.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None   # index into the span list
    root: int | None = None     # index of the enclosing root span
    rows: int = 0               # batch rows, for the fusion encoder


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its
    direct children cover (children clipped to the parent, overlaps
    counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                   for c in children[i]]
        covered = _union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append((s.end - s.start) - covered)
    return out


def _rows_of_first_arg(args, kwargs) -> int:
    # FusionEncoder.__call__(self, gv, ...): gv is (B, n_vis, D)
    return int(args[1].shape[0])


class Tracer:
    """Patch the package with ``install()`` (or for one block with
    ``installed()``), wrap each benchmark-level call in ``root(name)``,
    and restore the package with ``uninstall()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root_counts: dict = defaultdict(lambda: defaultdict(float))
        self.root_models: dict = defaultdict(list)
        self._stack: list[int] = []
        self._root: int | None = None
        self._patches: list = []

    # -- span recording --------------------------------------------------

    def _open(self, name: str, rows: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._root, rows))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """One benchmark-level call. Yields the root's span index."""
        if self._root is not None:
            raise RuntimeError("roots do not nest")
        idx = self._open(name)
        self._root = idx
        self.spans[idx].root = idx
        try:
            yield idx
        finally:
            self._close(idx)
            self._root = None
            self.root_counts[idx]["forwards"] = sum(
                m.forward_count for m in self.root_models.pop(idx, ()))

    def note(self, root: int, key: str, value: float) -> None:
        """Attach a figure measured outside the call to a root span."""
        self.root_counts[root][key] = value

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _spanned(self, fn, name: str, rows=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._root is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name, rows(args, kwargs) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def wrap(self, owner, attr: str, name: str, rows=None) -> None:
        self._set(owner, attr, self._spanned(getattr(owner, attr), name,
                                             rows))

    def install(self) -> None:
        from vlsc import encoders, evalviz, masking, model, objectives
        from vlsc import synthdata, tensor, trainer

        tracer = self
        from_op = tensor.Tensor._from_op

        def counted_from_op(data, parents, backward_fn):
            if tracer._root is not None:
                tracer.root_counts[tracer._root]["nodes"] += 1
            return from_op(data, parents, backward_fn)
        self._set(tensor.Tensor, "_from_op", staticmethod(counted_from_op))

        model_init = model.PretrainModel.__init__

        @functools.wraps(model_init)
        def recorded_init(obj, *args, **kwargs):
            model_init(obj, *args, **kwargs)
            if tracer._root is not None:
                tracer.root_models[tracer._root].append(obj)
        self._set(model.PretrainModel, "__init__", recorded_init)

        self.wrap(tensor.Tensor, "backward", "tensor.backward")
        self.wrap(model.PretrainModel, "forward", "model.forward")
        self.wrap(model.PretrainModel, "fuse_pair", "model.fuse_pair")
        self.wrap(encoders.VisionEncoder, "__call__", "encoders.vision")
        self.wrap(encoders.TextEncoder, "__call__", "encoders.text")
        self.wrap(encoders.FusionEncoder, "__call__", "encoders.fusion",
                  rows=_rows_of_first_arg)
        for attr in ("plan_image_mask", "plan_mlm_mask",
                     "plan_scl_text_mask"):
            self.wrap(masking, attr, f"masking.{attr}")
        for attr, name in (("contrastive_loss", "cl"), ("vtm_loss", "vtm"),
                           ("mlm_loss", "mlm"), ("scl_loss", "scl")):
            self.wrap(objectives, attr, f"objectives.{name}")
        # trainer imports total_loss by name, so both bindings get the
        # same wrapper
        total = self._spanned(objectives.total_loss,
                              "objectives.total_loss")
        self._set(objectives, "total_loss", total)
        self._set(trainer, "total_loss", total)
        self.wrap(trainer.AdamW, "step", "trainer.adamw")
        for attr in ("clip_global_norm", "save_checkpoint",
                     "load_checkpoint", "build_model", "curriculum_transfer",
                     "init_checkpoint"):
            self.wrap(trainer, attr, f"trainer.{attr}")
        for attr in ("retrieve", "encode_corpus", "match_scores"):
            self.wrap(evalviz, attr, f"evalviz.{attr}")
        for attr in ("generate_corpus", "save_corpus", "load_corpus"):
            self.wrap(synthdata, attr, f"synthdata.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """The package patched for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def records(self):
        """Spans as plain dicts, for writing out as JSON lines."""
        for i, s in enumerate(self.spans):
            yield {"i": i, **dataclasses.asdict(s)}


# -- per-layer metrics -------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, pretrain_roots, eval_roots, k_roots,
                  setup_roots) -> dict:
    """Per-layer figures, keyed by metric name. ``pretrain_roots``,
    ``eval_roots`` (k=0 and k>0 calls, alternating), ``k_roots`` (the
    k>0 calls alone) and ``setup_roots`` are lists of root span
    indices."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_root = defaultdict(lambda: defaultdict(list))
    for i, s in enumerate(spans):
        if s.root is not None and s.root != i:
            by_root[s.root][s.name].append(i)

    def gather(roots, name):
        return [i for r in roots for i in by_root[r][name]]

    def dur_ms(idxs, self_time=False):
        if self_time:
            return _ms(sum(selfs[i] for i in idxs))
        return _ms(sum(spans[i].end - spans[i].start for i in idxs))

    def counted(roots, key):
        return sum(tracer.root_counts[r][key] for r in roots)

    steps = len(gather(pretrain_roots, "trainer.adamw"))
    n_eval = len(eval_roots)
    n_k = len(k_roots)
    out = {}

    out["tensor.nodes_per_step"] = _per(counted(pretrain_roots, "nodes"),
                                        steps)
    out["tensor.backward_ms_per_step"] = _per(
        dur_ms(gather(pretrain_roots, "tensor.backward")), steps)
    out["tensor.nodes_per_retrieval"] = _per(counted(eval_roots, "nodes"),
                                             n_eval)

    out["model.forwards_per_step"] = _per(
        counted(pretrain_roots, "forwards"), steps)
    out["model.fuse_pair_calls_per_step"] = _per(
        len(gather(pretrain_roots, "model.fuse_pair")), steps)

    for enc in ("vision", "text", "fusion"):
        name = f"encoders.{enc}"
        in_steps = gather(pretrain_roots, name)
        in_evals = gather(eval_roots, name)
        out[f"{name}.calls_per_step"] = _per(len(in_steps), steps)
        out[f"{name}.ms_per_step"] = _per(dur_ms(in_steps), steps)
        out[f"{name}.ms_per_retrieval"] = _per(dur_ms(in_evals), n_eval)
    fusion_steps = gather(pretrain_roots, "encoders.fusion")
    fusion_evals = gather(eval_roots, "encoders.fusion")
    out["encoders.fusion.rows_per_step"] = _per(
        sum(spans[i].rows for i in fusion_steps), steps)
    out["encoders.fusion.calls_per_retrieval"] = _per(len(fusion_evals),
                                                      n_eval)
    out["encoders.fusion.rows_per_retrieval"] = _per(
        sum(spans[i].rows for i in fusion_evals), n_eval)

    for obj in ("total_loss", "cl", "vtm", "mlm", "scl"):
        idxs = gather(pretrain_roots, f"objectives.{obj}")
        out[f"objectives.{obj}.ms_per_step"] = _per(dur_ms(idxs), steps)
        if obj != "total_loss":
            out[f"objectives.{obj}.self_ms_per_step"] = _per(
                dur_ms(idxs, self_time=True), steps)

    plans = [i for name in ("masking.plan_image_mask",
                            "masking.plan_mlm_mask",
                            "masking.plan_scl_text_mask")
             for i in gather(pretrain_roots, name)]
    out["masking.plans_per_step"] = _per(len(plans), steps)
    out["masking.plan_ms_per_step"] = _per(dur_ms(plans), steps)

    # a step runs from the start of total_loss to the end of AdamW.step
    step_ms, covered_ms = [], []
    for r in pretrain_roots:
        losses = by_root[r]["objectives.total_loss"]
        updates = by_root[r]["trainer.adamw"]
        backs = by_root[r]["tensor.backward"]
        clips = by_root[r]["trainer.clip_global_norm"]
        for parts in zip(losses, backs, clips, updates):
            step_ms.append(_ms(spans[parts[-1]].end - spans[parts[0]].start))
            covered_ms.append(dur_ms(parts))
    if len(step_ms) >= 2:
        deciles = statistics.quantiles(step_ms, n=10)
        out["trainer.step_ms.p50"] = statistics.median(step_ms)
        out["trainer.step_ms.p90"] = deciles[8]
    else:
        out["trainer.step_ms.p50"] = out["trainer.step_ms.p90"] = (
            step_ms[0] if step_ms else 0.0)
    out["trainer.steps_traced"] = len(step_ms)
    out["trainer.step_coverage_frac"] = _per(sum(covered_ms), sum(step_ms))
    out["trainer.adamw_ms_per_step"] = _per(
        dur_ms(gather(pretrain_roots, "trainer.adamw")), steps)
    out["trainer.clip_ms_per_step"] = _per(
        dur_ms(gather(pretrain_roots, "trainer.clip_global_norm")), steps)

    # from the start of a pretrain call to its first total_loss: corpus
    # load, model build and, with --init-from, checkpoint load and
    # curriculum_transfer
    startups = [spans[by_root[r]["objectives.total_loss"][0]].start
                - spans[r].start
                for r in pretrain_roots if by_root[r]["objectives.total_loss"]]
    out["trainer.pretrain_startup_ms"] = _per(_ms(sum(startups)),
                                              len(startups))

    all_calls = list(pretrain_roots) + list(eval_roots)
    for attr, metric in (("save_checkpoint", "ckpt_save_ms"),
                         ("load_checkpoint", "ckpt_load_ms"),
                         ("build_model", "build_model_ms")):
        idxs = gather(all_calls, f"trainer.{attr}")
        out[f"trainer.{metric}"] = _per(dur_ms(idxs), len(idxs))
    out["trainer.ckpt_bytes"] = _per(counted(pretrain_roots, "ckpt_bytes"),
                                     len(pretrain_roots))

    out["evalviz.encode_corpus_ms"] = _per(
        dur_ms(gather(eval_roots, "evalviz.encode_corpus")), n_eval)
    matches = gather(k_roots, "evalviz.match_scores")
    out["evalviz.match_scores.calls"] = _per(len(matches), n_k)
    out["evalviz.match_scores_ms"] = _per(dur_ms(matches), n_k)
    out["evalviz.retrieve.self_ms"] = _per(
        dur_ms(gather(k_roots, "evalviz.retrieve"), self_time=True), n_k)

    for attr, metric in (("generate_corpus", "generate_ms"),
                         ("save_corpus", "save_ms")):
        out[f"synthdata.{metric}"] = _per(
            dur_ms(gather(setup_roots, f"synthdata.{attr}")),
            len(setup_roots))
    loads = gather(all_calls, "synthdata.load_corpus")
    out["synthdata.load_ms"] = _per(dur_ms(loads), len(loads))
    return out
