"""contractlab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cc-reduction|solve|query-sim \
        --seed N --seconds S --trace 0|1

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and the run exits 1 without a result if it is missing.  The
run sets up the workload's inputs a fixed number of times (median is
``setup_s``), runs one untimed warm-up pass, then timed passes of the fixed
item set until the time is used.  Every end-to-end time is process CPU time,
which leaves out the stretches in which the shared host gives this
machine's CPU to other guests (steal), scaled to a reference host speed by
the kernel of speed.py; the kernel is timed between set-ups and about every
quarter second of CPU time within a pass.  The raw CPU and wall times are
reported with the per-layer metrics.  Every answer is checked against exact references; the
last stdout line is {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the time is
split between untraced passes and one traced set-up plus pass, and the
metrics are per-layer: span times per operation, cost-model counts, tracing
overhead and the pinned-size probes.  Spans go to
.bench_run/spans-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import contractlab from this checkout's src/, or fail without a result."""
    src = ROOT / "src"
    if not (src / "contractlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no contractlab sources under {src}")
    sys.path.insert(0, str(src))
    import contractlab

    if not Path(contractlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: contractlab imported from {contractlab.__file__}")


def settle():
    """Collect, then move every live object out of the collector's view, so
    the objects the benchmark holds (set-ups, references, verdicts) do not
    make the program's garbage collections slower than in a fresh process."""
    gc.collect()
    gc.freeze()


def run_pass(workload, state, clock=None, tracer=None):
    """One timed pass, then its checks; returns (scaled seconds, CPU seconds,
    wall seconds, scaled item times in ms, failures, items).  Without a clock
    the times are not scaled.  A new pass starts with the clock's last
    reading, which was taken after the previous pass's last item."""
    from workloads import Pass

    p = Pass(tracer, clock)
    start_wall = perf_counter()
    workload.run_pass(state, p)
    p.close_segment()
    wall = perf_counter() - start_wall
    failed = sum(not workload.verdict(r, state) for r in p.records)
    times = [r.ms for r in p.records]
    scaled, cpu = p.scaled, p.cpu
    del p
    settle()
    return scaled, cpu, wall, times, failed, len(times)


def measure(name, seed, seconds, trace, workdir):
    from speed import Clock
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    # earlier set-ups stay referenced, so no object id is reused while the
    # program may still key a cache on it
    states, setup_times = [], []
    clock = Clock()
    for _ in range(workload.SETUP_REPS):
        start = process_time()
        states.append(workload.setup())
        setup_times.append((process_time() - start) * clock.scale())
    state = states[-1]
    settle()

    attempted = failed = 0
    passes, cpus, walls, item_ms = [], [], [], []

    def account(result, timed):
        nonlocal attempted, failed
        scaled, cpu, wall, times, bad, items = result
        attempted += items
        failed += bad
        if timed:
            passes.append(scaled)
            cpus.append(cpu)
            walls.append(wall)
            item_ms.extend(times)
        return items

    items = account(run_pass(workload, state), timed=False)  # warm-up
    budget = seconds / 2 if trace else seconds
    # no pass is started that would end past the budget, judged by the
    # median pass so far
    start = perf_counter()
    clock = Clock()
    while not walls or perf_counter() - start + statistics.median(walls) <= budget:
        account(run_pass(workload, state, clock), timed=True)
    pass_s = statistics.median(passes)
    print(f"{name}: {items} items per pass, {len(walls)} timed passes, "
          f"{len(item_ms)} item times, {len(setup_times)} set-ups")

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_norm_s": (pass_s, "s"),
            "item_norm_ms_p50": (statistics.median(item_ms), "ms"),
            "item_norm_ms_p90": (statistics.quantiles(item_ms, n=10)[8], "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        from probes import run_probes
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tracer.item = "setup"
            traced_state = workload.setup()
            states.append(traced_state)
            traced = run_pass(workload, traced_state, Clock(), tracer)
        finally:
            tracer.uninstall()
        account(traced, timed=False)
        metrics = tracer.metrics()
        metrics.update(workload.trace_metrics(traced_state))
        metrics["trace.norm_s"] = (traced[0], "s")
        metrics["trace.untraced_norm_s"] = (pass_s, "s")
        metrics["trace.overhead_s"] = (traced[0] - pass_s, "s")
        metrics["trace.untraced_cpu_s"] = (statistics.median(cpus), "s")
        metrics["trace.untraced_wall_s"] = (statistics.median(walls), "s")
        metrics["host.not_running_share"] = (1 - sum(cpus) / sum(walls), "ratio")
        metrics["host.kernel_ms"] = (statistics.median(clock.readings) * 1e3, "ms")
        metrics["items_per_pass"] = (items, "count")
        metrics.update(run_probes(workdir))
        metrics["failed_ops_ratio"] = (failed / attempted, "ratio")
        tracer.write(ROOT / ".bench_run" / f"spans-{name}-seed{seed}.json")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cc-reduction", "solve", "query-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    workdir = ROOT / ".bench_run" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
