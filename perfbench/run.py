"""Benchmark of the lama toolkit: training and inference throughput, set-up
time, loss, accuracy and memory on two workloads, plus a traced run that
splits the time across the program's layers.

Run one workload:

    python3 perfbench/run.py --workload keyword-bigru-train --seed 1 \\
        --seconds 30 --trace 0

or, without --workload, every workload in turn, each in a fresh
interpreter. The last line of a single-workload run is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it print every metric by name with its unit, ``error_rate`` and the
environment. ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones. The program is imported from ``src/`` of the checkout that
holds this directory; the run exits nonzero when it is missing or when a
correctness check fails. Results and the spans of traced runs are written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ["keyword-bigru-train", "zipf50k-le-train"]
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload (default: all, each in its own interpreter)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def pin_threads():
    # must run before numpy is first imported
    os.environ["LAMA_THREADS"] = BLAS_THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_program():
    """Import lama from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lama
    except ImportError as exc:
        raise SystemExit(f"error: cannot import lama from {src}: {exc}")
    if src.resolve() not in Path(lama.__file__).resolve().parents:
        raise SystemExit(f"error: lama was imported from {lama.__file__}, not {src}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ.get("LAMA_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench(workload, seed: int, seconds: float, trace: bool, base: Path) -> dict:
    """Set the workload up, run its rounds for ``seconds``, check the
    outputs and return the result record; work files go under ``base``."""
    import tracer as tracing
    import workloads as wl

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work = str(base / "work" / f"{tag}-{os.getpid()}")
    tracer = tracing.Tracer() if trace else None
    call_cost = tracing.wrapper_cost() if tracer else 0.0
    phase = tracer.in_phase if tracer else lambda name: nullcontext()
    tally = wl.Tally()
    setup_seconds = []
    rounds = 0
    if tracer:
        tracer.install()
    try:
        for _ in range(workload.sizes.setups):
            shutil.rmtree(work, ignore_errors=True)
            started = time.perf_counter()
            with phase("setup"):
                inputs = wl.setup(workload, seed, work)
            setup_seconds.append(time.perf_counter() - started)
        durations = []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with phase("measure"):
                wl.run_round(workload, inputs, work, tally)
            rounds += 1
            durations.append(time.perf_counter() - t0)
            # stop before a round that would overrun the budget
            if time.perf_counter() - started + statistics.median(durations) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    wl.check(workload, inputs, tally)
    shutil.rmtree(work, ignore_errors=True)

    if tracer:
        values = tracer.per_layer({"setup": len(setup_seconds), "measure": rounds},
                                  tally.train_docs, call_cost)
        units = dict(tracing.PER_LAYER)
    else:
        table = wl.end_to_end(tally, setup_seconds, peak_rss_mb())
        values = {k: v for k, (v, _) in table.items()}
        units = {k: u for k, (_, u) in table.items()}
    record = {
        "environment": environment(),
        **wl.describe(workload, inputs),
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "checks": tally.checks,
        "errors": tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "correct": all(tally.checks.values()) and tally.failed == 0,
        "absent": tracer.absent if tracer else [],
        "samples": {"setup_s": setup_seconds, "train": tally.train_samples,
                    "infer": tally.infer_samples},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        spans = [[s.name, s.phase, s.start, s.end, s.parent] for s in tracer.spans]
        (results / f"{tag}.spans.json").write_text(json.dumps(spans))
    return record


def run_one(args) -> int:
    pin_threads()
    import_program()
    import workloads as wl

    record = bench(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), ROOT / ".perfbench")
    for key in ("environment", "dims", "padded_share", "checks"):
        print(f"{key}: {json.dumps(record[key])}")
    for error in record["errors"]:
        print(f"error: {error}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for kind in ("train", "infer"):
        rates = [docs / seconds for docs, _, seconds in record["samples"][kind]]
        if rates:
            print(f"{kind} samples {len(rates)}: median {statistics.median(rates):.6g} "
                  f"docs/s, slowest {min(rates):.6g}, fastest {max(rates):.6g}")
    print(f"error_rate {record['error_rate']:.6g} failed/attempted")
    if record["absent"]:
        print(f"absent: {' '.join(record['absent'])}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
