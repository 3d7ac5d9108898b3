"""The benchmark's workloads, as plain data.

Each workload is one closed loop of ``vlsc`` CLI calls: a ``pretrain``
call, then ``evals_per_cycle`` pairs of ``eval-retrieval`` calls at
k=0 and at k=8. Every workload reports every end-to-end metric, so
each runs all three kinds of call; they differ in the vision input
(image or video) and in where the time goes. Why each was chosen is
in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

RERANK_K = 8


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int                 # M, frames per sample
    train_pairs: int            # pretrain corpus size
    eval_pairs: int             # held-out retrieval corpus size
    steps: int                  # optimizer steps per pretrain call
    batch: int
    checkpoint_interval: int
    evals_per_cycle: int        # (k=0, k=RERANK_K) eval-retrieval pairs

    @property
    def video(self) -> bool:
        return self.frames > 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "image-pretrain",
        frames=1, train_pairs=32, eval_pairs=64, steps=4, batch=8,
        checkpoint_interval=2, evals_per_cycle=1),
    Workload(
        "video-pretrain",
        frames=4, train_pairs=32, eval_pairs=16, steps=4, batch=8,
        checkpoint_interval=2, evals_per_cycle=2),
)}
