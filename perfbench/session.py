"""Set-up, the closed loop of CLI calls, and the output checks.

Every call goes through ``vlsc.cli.main(argv)`` in this process, one at
a time: the next call starts only when the last has returned. A call
whose exit code or output fails a check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

from vlsc import cli
from vlsc import synthdata as sd
from vlsc import trainer as tr
from vlsc.errors import VlscError

from workloads import RERANK_K, Workload

@dataclass
class Inputs:
    """Files one set-up writes for a workload."""
    train_corpus: str
    eval_corpus: str
    eval_ckpt: str
    image_ckpt: str | None   # --init-from source, video workloads only


def set_up(w: Workload, seed: int, directory: str) -> Inputs:
    """Generate and write the corpora and checkpoints a workload reads.
    The held-out pairs come from the same deduplicated draw as the
    training pairs, so no caption is in both."""
    os.makedirs(directory)
    both = sd.generate_corpus(w.train_pairs + w.eval_pairs,
                              frames_m=w.frames, seed=seed)
    inputs = Inputs(train_corpus=os.path.join(directory, "train.txt"),
                    eval_corpus=os.path.join(directory, "heldout.txt"),
                    eval_ckpt=os.path.join(directory, "eval.vlsc"),
                    image_ckpt=None)
    sd.save_corpus(inputs.train_corpus, both[:w.train_pairs])
    sd.save_corpus(inputs.eval_corpus, both[w.train_pairs:])
    phase = "video" if w.video else "image"
    tr.save_checkpoint(tr.init_checkpoint(tr.TrainConfig(
        seed=seed, phase=phase, frames_m=w.frames)), inputs.eval_ckpt)
    if w.video:
        inputs.image_ckpt = os.path.join(directory, "image.vlsc")
        tr.save_checkpoint(tr.init_checkpoint(tr.TrainConfig(seed=seed)),
                           inputs.image_ckpt)
    return inputs


def run_cli(argv: list) -> tuple:
    """(exit code, wall seconds, captured stderr) of one in-process
    call. An escaped exception is a failed call, not a crash of the
    benchmark."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, err.getvalue()


# output checks; each returns a list of problems, empty when all hold


def check_pretrain(w: Workload, out_dir: str, scratch: str) -> list:
    problems = []
    with open(os.path.join(out_dir, "metrics.txt")) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] + "\n" != tr.METRICS_HEADER:
        problems.append("metrics.txt header missing")
    rows = lines[1:]
    if len(rows) != w.steps:
        problems.append(f"metrics.txt has {len(rows)} step lines, "
                        f"want {w.steps}")
    for want, row in enumerate(rows, start=1):
        cells = row.split()
        if len(cells) != 7 or cells[0] != str(want):
            problems.append(f"bad metrics line {row!r}")
            continue
        if not all(math.isfinite(float(c)) for c in cells[1:6]):
            problems.append(f"non-finite loss in {row!r}")
    final = os.path.join(out_dir, "ckpt_final.vlsc")
    again = os.path.join(scratch, "resaved.vlsc")
    tr.save_checkpoint(tr.load_checkpoint(final), again)
    with open(final, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            problems.append("ckpt_final.vlsc does not round-trip")
    os.remove(again)
    return problems


def read_recalls(csv_path: str) -> dict:
    with open(csv_path) as f:
        header, row = f.read().splitlines()[-2:]
    return dict(zip(header.split(","), (float(c) for c in row.split(","))))


def check_recalls(r: dict, n: int, k: int) -> list:
    problems = []
    if (r["n"], r["k"]) != (n, k):
        problems.append(f"n,k = {r['n']},{r['k']}, want {n},{k}")
    for side in ("ir", "tr"):
        r1, r5, r10 = (r[f"{side}_r{kk}"] for kk in (1, 5, 10))
        if not r1 <= r5 <= r10:
            problems.append(f"{side} recalls not ordered: {r1} {r5} {r10}")
    return problems


# the closed loop


@dataclass
class Session:
    """One workload's loop state: timings, operation counts and, when
    traced, the root span index of every call."""
    w: Workload
    seed: int
    inputs: Inputs
    scratch: str
    tracer: object = None
    train_samples_per_s: list = field(default_factory=list)
    k0_ms: list = field(default_factory=list)
    k_ms: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_recalls: dict = field(default_factory=dict)
    pretrain_roots: list = field(default_factory=list)
    eval_roots: list = field(default_factory=list)
    k_roots: list = field(default_factory=list)

    def _call(self, kind: str, argv: list) -> tuple:
        if self.tracer is None:
            rc, wall, err = run_cli(argv)
            return rc, wall, err, None
        with self.tracer.root(kind) as idx:
            rc, wall, err = run_cli(argv)
        return rc, wall, err, idx

    def _record(self, what: str, problems: list, err: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {self.w.name} {what}: "
                  f"{'; '.join(problems)}", file=sys.stderr)
            if err:
                print(err, file=sys.stderr)

    def pretrain(self) -> None:
        w, inp = self.w, self.inputs
        out_dir = os.path.join(self.scratch, "run")
        argv = ["pretrain", "--corpus", inp.train_corpus, "--out", out_dir,
                "--steps", str(w.steps), "--batch", str(w.batch),
                "--seed", str(self.seed),
                "--checkpoint-interval", str(w.checkpoint_interval)]
        if w.video:
            argv += ["--phase", "video", "--frames", str(w.frames),
                     "--variant", "FrameCLS", "--init-from", inp.image_ckpt]
        rc, wall, err, root = self._call("pretrain", argv)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = check_pretrain(w, out_dir, self.scratch)
            except (OSError, ValueError, VlscError) as e:
                problems = [f"unreadable output: {e!r}"]
        if not problems:
            self.train_samples_per_s.append(w.batch * w.steps / wall)
            if root is not None:
                self.pretrain_roots.append(root)
                self.tracer.note(root, "ckpt_bytes", os.path.getsize(
                    os.path.join(out_dir, "ckpt_final.vlsc")))
        shutil.rmtree(out_dir, ignore_errors=True)
        self._record("pretrain", problems, err)

    def retrieve(self, k: int):
        csv_path = os.path.join(self.scratch, "recalls.csv")
        argv = ["eval-retrieval", "--ckpt", self.inputs.eval_ckpt,
                "--corpus", self.inputs.eval_corpus, "--k", str(k),
                "--out", csv_path]
        rc, wall, err, root = self._call(f"eval-k{k}", argv)
        recalls = None
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                recalls = read_recalls(csv_path)
            except (OSError, ValueError) as e:
                problems = [f"unreadable recalls: {e!r}"]
            else:
                problems = check_recalls(recalls, self.w.eval_pairs, k)
                first = self.first_recalls.setdefault(k, recalls)
                if recalls != first:
                    problems.append(f"k={k} recalls changed between calls")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        return wall, root, recalls, problems, err

    def retrieval_pair(self) -> None:
        k = RERANK_K
        wall0, root0, r0, problems0, err0 = self.retrieve(0)
        self._record("eval-retrieval k=0", problems0, err0)
        wall, root, rk, problems, err = self.retrieve(k)
        if r0 is not None and rk is not None:
            for side in ("ir", "tr"):
                if rk[f"{side}_r10"] != r0[f"{side}_r10"]:
                    problems.append(f"{side} R@10 differs between k=0 "
                                    f"and k={k}")
        self._record(f"eval-retrieval k={k}", problems, err)
        if not problems0:
            self.k0_ms.append(wall0 * 1000.0)
        if not problems:
            self.k_ms.append(wall * 1000.0)
        if root0 is not None and root is not None:
            self.eval_roots += [root0, root]
            self.k_roots.append(root)

    def cycle(self) -> None:
        start = time.perf_counter()
        self.pretrain()
        for _ in range(self.w.evals_per_cycle):
            self.retrieval_pair()
        self.cycle_s.append(time.perf_counter() - start)

    def run_until(self, deadline: float) -> None:
        """Closed loop: whole cycles until the deadline, at least one."""
        self.cycle()
        while time.perf_counter() < deadline:
            self.cycle()
