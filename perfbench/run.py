"""Benchmark of the vlsc command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports ``vlsc`` from
the checkout's ``src/``, writes its inputs from ``--seed``, then calls
``vlsc.cli.main(argv)`` in a closed loop for ``--seconds`` and checks
every call's output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from the run's traced cycles, which
alternate with untraced ones that give the tracing overhead. A line of
machine facts precedes the result; both, and the spans of a traced run,
are also written under ``.perfbench_out/``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7

# prints the seconds a fresh interpreter takes to import the CLI
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import vlsc.cli; "
                "print(time.perf_counter() - t)")

from workloads import WORKLOADS, Workload  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_vlsc() -> None:
    """Import the package from this checkout's src/, never from an
    installed copy."""
    init = os.path.join(SRC, "vlsc", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no vlsc sources at {SRC}; run from the root "
                         f"of a checkout")
    sys.path.insert(0, SRC)
    import vlsc
    if os.path.realpath(vlsc.__file__) != os.path.realpath(init):
        raise SystemExit(f"imported vlsc from {vlsc.__file__}, "
                         f"not from {SRC}")


def unit_of(name: str) -> str:
    last = name.split(".")[-1]
    if last.endswith("_bytes"):
        return "bytes"
    if last.endswith("_frac"):
        return "fraction"
    if name.startswith("trainer.step_ms.") or "ms" in last.split("_"):
        return "ms"
    return "count"


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def summary(values: list) -> dict:
    """Sample count, median and quartiles of one metric's calls."""
    out = {"n": len(values), "median": _median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def import_times() -> list:
    """Import time of the CLI in SETUP_REPEATS fresh interpreters, each
    waited for. One process imports only once, so set-up repeats the
    import this way."""
    return [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)]


def _setups(w: Workload, seed: int, work: str, tag: str, tracer=None):
    """SETUP_REPEATS set-ups into fresh directories. Returns the last
    one's inputs, every wall time and, when traced, the root spans."""
    from session import set_up

    times, roots, inputs = [], [], None
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"{tag}{i}")
        start = time.perf_counter()
        if tracer is None:
            inputs = set_up(w, seed, directory)
        else:
            with tracer.root("setup") as idx:
                inputs = set_up(w, seed, directory)
            roots.append(idx)
        times.append(time.perf_counter() - start)
    return inputs, times, roots


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: str, spans_path: str | None = None) -> tuple:
    """One run; returns the result object and the samples behind its
    medians. ``work`` must not exist yet and is removed at the end."""
    from session import Session
    from tracing import Tracer, layer_metrics

    os.makedirs(work)
    try:
        start_inputs, setup_times, _ = _setups(w, seed, work, "setup")
        plain = Session(w, seed, start_inputs, os.path.join(work, "calls"))
        os.makedirs(plain.scratch)
        start = time.perf_counter()
        if not trace:
            plain.run_until(start + seconds)
            imports = import_times()
            metrics = {
                "train_samples_per_s": _median(plain.train_samples_per_s),
                "retrieval_k0_ms": _median(plain.k0_ms),
                "retrieval_k8_ms": _median(plain.k_ms),
                "setup_s": _median(imports) + _median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"train_samples_per_s": "1/s", "setup_s": "s",
                     "peak_rss_mb": "MiB"}
            sessions = [plain]
            samples = {"import_s": imports, "setup_work_s": setup_times}
        else:
            tracer = Tracer()
            with tracer.installed():
                inputs, _, setup_roots = _setups(w, seed, work, "traced",
                                                 tracer)
            traced = Session(w, seed, inputs, plain.scratch, tracer)
            # untraced and traced cycles alternate, so both see the same
            # host states and the overhead compares like with like
            plain.cycle()
            # same seed, same inputs: tracing must not move a recall
            traced.first_recalls = plain.first_recalls
            while True:
                with tracer.installed():
                    traced.cycle()
                if time.perf_counter() >= start + seconds:
                    break
                plain.cycle()
            metrics = layer_metrics(tracer, traced.pretrain_roots,
                                    traced.eval_roots, traced.k_roots,
                                    setup_roots)
            metrics["trace.overhead_frac"] = 1.0 - (
                _median(plain.cycle_s) / _median(traced.cycle_s))
            units = {}
            sessions = [plain, traced]
            samples = {"untraced_cycle_s": plain.cycle_s,
                       "traced_cycle_s": traced.cycle_s}
            if spans_path is not None:
                with open(spans_path, "w") as f:
                    for rec in tracer.records():
                        f.write(json.dumps(rec) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    samples.update(train_samples_per_s=plain.train_samples_per_s,
                   retrieval_k0_ms=plain.k0_ms, retrieval_k8_ms=plain.k_ms)
    samples["summary"] = {
        name: summary(samples[name])
        for name in ("train_samples_per_s", "retrieval_k0_ms",
                     "retrieval_k8_ms")}
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value,
                                 "unit": units.get(name) or unit_of(name)}
                          for name, value in metrics.items()}}
    return result, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_vlsc()

    from machine import machine_facts

    w = WORKLOADS[args.workload]
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    result, samples = run_workload(
        w, args.seed, args.seconds, bool(args.trace),
        work=os.path.join(OUT, f"work-{stem}-{os.getpid()}"),
        spans_path=os.path.join(OUT, f"spans-{stem}.jsonl"))
    facts = machine_facts(ROOT, w.name, args.seed)
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump({"facts": facts, "result": result, "samples": samples},
                  f, indent=1)
    print("facts " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
