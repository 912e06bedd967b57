"""One tuning session of one workload, in a fresh interpreter.

Run by :mod:`perfbench.run`, once per session of a run's panel::

    python3 perfbench/session.py --workload op-c2d --seed 7 \\
        --spawned-at <time.time() before the spawn> --workdir DIR \\
        [--trace FILE | --setup-only]

Prints one JSON object as its last line of output: the session's timings,
its tuned latency, trial and failure counts, the correctness check and,
with ``--trace``, the per-layer metrics (spans are written to FILE).
With ``--setup-only`` it stops after set-up and reports only its time.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def layer_metrics(tracer) -> dict:
    """Per-layer self times (wall-clock seconds) and counts of one traced
    session."""
    from perfbench.trace import LAYER_TIMES, self_times

    own = self_times(tracer.spans)
    metrics = {metric: own.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    counts = dict(tracer.counts)
    for name in (
        "scheduler.rounds",
        "search.rounds",
        "cost_model.train_calls",
        "cost_model.train_records",
        "cost_model.states_predicted",
        "cost_model.states_featurized",
        "codegen.lower_calls",
        "hardware.trials",
        "hardware.retries",
        "hardware.failed",
        "store.hits",
        "store.misses",
        "store.writes",
        "store.warm_start_states",
        "variants.pruned",
    ):
        metrics[name] = counts.get(name, 0)
    calls = counts.get("codegen.lower_calls", 0)
    metrics["codegen.lower_distinct_share"] = (
        counts.get("codegen.lower_distinct", 0) / calls if calls else 0.0
    )
    root = tracer.spans[0]
    metrics["trace.tune_s"] = root.end - root.start
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None, help="write spans here and report layers")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time only")
    args = parser.parse_args(argv)

    clock = time.perf_counter

    from perfbench.workloads import WORKLOADS, time_to_best, verify_program

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir, clock)
    if args.setup_only:
        print(json.dumps({"setup_s": time.time() - args.spawned_at}))
        return 0
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer, install_probes

        tracer = Tracer(clock)
        install_probes(tracer)
    setup_s = time.time() - args.spawned_at

    start = clock()
    with tracer.span("tuner") if tracer else nullcontext():
        workload.tune()
    end = clock()
    if tracer:
        tracer.enabled = False
        start, end = tracer.spans[0].start, tracer.spans[0].end
        tracer.dump(args.trace)

    outcome = workload.outcome()
    observer = workload.observer
    mismatches = [
        getattr(task, "desc", "?")
        for task, state, cost in outcome.programs
        if task is None or not verify_program(task, state, cost, args.seed)
    ]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "tune_s": end - start,
        "trials": observer.trials,
        "time_to_best_s": sum(
            time_to_best(s, rounds) for s, rounds in zip(observer.starts, observer.segments)
        ),
        "tuned_latency_us": outcome.tuned_latency_us,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed + len(mismatches),
        "check_mismatches": mismatches,
        "correct": not mismatches and math.isfinite(outcome.tuned_latency_us),
    }
    if hasattr(workload, "device_stats"):
        report["device_stats"] = workload.device_stats()
    if tracer:
        report["layers"] = {
            **layer_metrics(tracer),
            "variants.loser_trial_share": outcome.loser_trial_share,
        }
    print(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
