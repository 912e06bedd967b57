"""The benchmark's workloads: seeded tuning sessions through the public API.

Every workload is one kind of tuning session a user of the library runs.
A benchmark run executes a fixed panel of sessions of one workload, each in
a fresh interpreter (:mod:`perfbench.session`), with session seeds derived
from the run's ``--seed``.  Load comes from that single process, with
``search_workers=1`` and at most two threads.

``op-c2d`` — one :class:`repro.Tuner` session on the ResNet-50 3x3
convolution (``single_op_shape_configs()["C2D"][0]``) for ``intel_cpu``,
sketch policy, local synchronous measurement, 16-trial rounds.
    Why: the paper's single-operator setting (Fig. 6).  One task's history
    grows every round, so cost-model training and evolutionary search do
    most of the work.
    Stresses: ``search`` (evolution), ``cost_model`` (train, predict,
    features), ``codegen``.
    Bypasses: ``scheduler``, ``store``, ``variants`` and the rpc fleet.

Not a workload: ``net-gpu``, one network :class:`repro.Tuner` session over
``["dcgan", "bert"]`` on ``nvidia_gpu`` with the gradient task scheduler
(the paper's network setting, Fig. 9, on a second target).  A session
takes about 25 s on a 2-core host, so one fits a run, and at that budget
most of its 12 tasks get a single round whose best cost swings up to 3x
from seed to seed: its tuned latency spread about 30% across seeds, more
than any bound allows.  The GPU sketch rules, GPU features and the
scheduler's allocation over many fresh tasks are therefore not measured.

``service-store`` — a :class:`repro.TuningService` over a fresh on-disk
:class:`repro.ScheduleStore`, driven as a closed loop: one caller submits
a seeded batch, waits for ``run()``, then submits the next batch (three
batches, 32-trial rounds).  Each batch mixes new single-op requests from
the C2D/GMM/DEP shape table (misses: warm-started, tuned, written back),
repeats of earlier requests (hits: zero trials) and a conv2d variant
group, which is arbitrated with pruning or, when its shape repeats,
served as a group hit.  Measurement uses ``runner="rpc"`` with two
devices, one of which fails at a fixed injected rate; ``n_retry`` and the
circuit breaker are on.
    Why: store reads happen beside writes, and it is the workload where
    training does the least work per request.  A gain on the tuning path
    that costs the hit path, or the reverse, shows here.
    Stresses: ``store`` (lookup, write, warm start), ``variants`` (pruning),
    the ``hardware`` fleet (retries, quarantine), ``scheduler``.
    Bypasses: nothing, but single-task warm starts replace most cold
    sketch sampling.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import (
    DeviceProfile,
    LogicalOp,
    MeasureCallback,
    MeasureInput,
    MeasurePipeline,
    ScheduleStore,
    SearchTask,
    Tuner,
    TuningOptions,
    TuningService,
    intel_cpu,
)
from repro.workloads import make_op_dag, single_op_shape_configs

__all__ = [
    "WORKLOADS",
    "RoundObserver",
    "service_stream",
    "time_to_best",
    "verify_program",
]

#: a round counts as "best" once its objective is within this share of the
#: session's final objective
BEST_TOLERANCE = 0.05


class RoundObserver(MeasureCallback):
    """Timestamps every measured round and counts trials and failures.

    ``objective="policy"`` records the policy's best cost after each round
    (single-task sessions); ``"scheduler"`` records the task scheduler's
    objective after each allocation round (network and service sessions).
    """

    def __init__(self, clock, objective: str = "policy"):
        self.clock = clock
        self.objective = objective
        self.trials = 0
        self.failed = 0
        #: one list of (time, objective) per tuning call
        self.segments: List[List[Tuple[float, float]]] = []
        self.starts: List[float] = []

    def start_segment(self) -> None:
        self.starts.append(self.clock())
        self.segments.append([])

    def on_round(self, event) -> None:
        self.trials += len(event.inputs)
        self.failed += sum(1 for res in event.results if not res.valid)
        if self.objective == "policy":
            self.segments[-1].append((self.clock(), event.best_cost))

    def on_scheduler_round(self, scheduler, record) -> None:
        if self.objective == "scheduler":
            self.segments[-1].append((self.clock(), record.objective_value))


def time_to_best(start: float, rounds: List[Tuple[float, float]]) -> float:
    """Seconds from ``start`` to the first round whose objective is within
    :data:`BEST_TOLERANCE` of the last round's (0 without rounds)."""
    if not rounds:
        return 0.0
    final = rounds[-1][1]
    for stamp, objective in rounds:
        if objective <= final * (1.0 + BEST_TOLERANCE):
            return stamp - start
    return rounds[-1][0] - start


def verify_program(task: SearchTask, state, reported: float, seed: int) -> bool:
    """Replay ``state``'s step history onto a fresh initial state of the
    task's DAG and re-measure it with a fresh pipeline at ``seed``; the
    cost must equal ``reported`` exactly."""
    if state is None or not math.isfinite(reported):
        return False
    replayed = task.compute_dag.init_state()
    for step in state.transform_steps:
        replayed.apply_step(step.copy())
    if replayed.fingerprint() != state.fingerprint():
        return False
    pipeline = MeasurePipeline(task.hardware_params, seed=seed)
    result = pipeline.measure([MeasureInput(task, replayed)])[0]
    return result.valid and result.min_cost == reported


@dataclass
class Outcome:
    """What one session reports besides its timings."""

    #: simulated latency of the result, in microseconds
    tuned_latency_us: float
    #: measured trials plus served requests
    attempted: int
    #: failed trials plus failed requests
    failed: int
    #: (task, state, reported cost) of every returned program to check
    programs: List[Tuple[SearchTask, object, float]]
    #: trials spent on non-winning variants / the variant groups' trials
    loser_trial_share: float = 0.0


# ---------------------------------------------------------------------------
# op-c2d
# ---------------------------------------------------------------------------


class OpC2D:
    name = "op-c2d"
    trials = 128
    round_size = 16

    def setup(self, seed: int, workdir: str, clock) -> None:
        config = single_op_shape_configs()["C2D"][0]
        self.task = SearchTask(make_op_dag("C2D", config), intel_cpu(), desc="C2D-resnet50-3x3")
        self.observer = RoundObserver(clock, "policy")
        self.tuner = Tuner(
            self.task,
            options=TuningOptions(
                num_measure_trials=self.trials,
                num_measures_per_round=self.round_size,
                seed=seed,
            ),
            callbacks=[self.observer],
        )

    def tune(self) -> None:
        self.observer.start_segment()
        self.result = self.tuner.tune()

    def outcome(self) -> Outcome:
        result = self.result
        return Outcome(
            tuned_latency_us=result.best_cost * 1e6,
            attempted=self.observer.trials,
            failed=self.observer.failed,
            programs=[(self.task, result.best_state, result.best_cost)],
        )


# ---------------------------------------------------------------------------
# service-store
# ---------------------------------------------------------------------------

#: the single-op requests of a session, from the C2D/GMM/DEP shape table.
#: Every session serves the same workloads, so the tuned latency of two
#: seeds compares; the seed orders them.  These are the shapes whose best
#: cost after one 32-trial round varies least across seeds: the other C2D
#: shapes land 3-6x apart from seed to seed at this budget.
SERVICE_SHAPES = [("C2D", 0), ("GMM", 0), ("GMM", 3), ("DEP", 1), ("DEP", 3)]

#: conv2d instances of the variant group (small, so arbitration is cheap,
#: and contested between the direct and GEMM formulations)
VARIANT_SHAPES = [
    dict(batch=1, in_channels=8, height=14, width=14, out_channels=16, kernel=3, stride=2, padding=1),
    dict(batch=1, in_channels=16, height=14, width=14, out_channels=16, kernel=3, stride=2, padding=1),
]

#: per batch: (new single-op requests, repeats, variant group is a repeat)
SERVICE_PLAN = [(2, 0, False), (1, 1, True), (2, 2, False)]


def service_stream(seed: int) -> List[Dict]:
    """The seeded request stream of one ``service-store`` session.

    Each batch is ``{"ops": [(op, shape index), ...], "new": misses among
    them, "group": variant shape index, "group_repeat": whether that shape
    was arbitrated in an earlier batch}``.  The plan (how many misses, hits
    and group hits per batch) and the set of workloads are fixed; the seed
    picks the order of the workloads and which requests repeat.
    """
    rng = random.Random(seed)
    table = list(SERVICE_SHAPES)
    rng.shuffle(table)
    shapes = list(range(len(VARIANT_SHAPES)))
    rng.shuffle(shapes)
    batches = []
    submitted: List[Tuple[str, int]] = []
    groups: List[int] = []
    for new, repeats, group_repeat in SERVICE_PLAN:
        fresh = [table.pop() for _ in range(new)]
        again = rng.sample(submitted, repeats)
        group = rng.choice(groups) if group_repeat else shapes[len(groups)]
        if not group_repeat:
            groups.append(group)
        submitted.extend(fresh)
        batches.append(
            {"ops": fresh + again, "new": new, "group": group, "group_repeat": group_repeat}
        )
    return batches


class ServiceStore:
    name = "service-store"
    round_size = 32
    #: scheduler rounds each batch may allocate beyond every missed
    #: request's warm-up round
    extra_rounds = 2
    devices = [
        DeviceProfile("board0"),
        DeviceProfile("flaky1", run_error_prob=0.3),
    ]

    def setup(self, seed: int, workdir: str, clock) -> None:
        self.batches = service_stream(seed)
        self.store = ScheduleStore(f"{workdir}/store.jsonl")
        self.observer = RoundObserver(clock, "scheduler")
        self.service = TuningService(
            self.store,
            options=TuningOptions(
                num_measures_per_round=self.round_size,
                seed=seed,
                runner="rpc",
                devices=self.devices,
                n_retry=3,
                circuit_breaker=True,
                variant_min_trials=self.round_size,
            ),
            callbacks=[self.observer],
        )
        self.requests = []
        self.groups = []

    def _task(self, op: str, index: int) -> SearchTask:
        config = single_op_shape_configs()[op][index]
        return SearchTask(make_op_dag(op, config), intel_cpu(), desc=f"{op}[{index}]")

    def tune(self) -> None:
        for batch in self.batches:
            self.observer.start_segment()
            requests = [self.service.submit(self._task(op, i)) for op, i in batch["ops"]]
            group = self.service.submit_variants(
                LogicalOp("conv2d", VARIANT_SHAPES[batch["group"]], hardware=intel_cpu())
            )
            # Every request the store cannot answer gets its warm-up round;
            # the plan says which ones those are (new ops, a new group).
            misses = batch["new"] + (0 if batch["group_repeat"] else len(group.requests))
            self.service.run(num_measure_trials=(misses + self.extra_rounds) * self.round_size)
            self.requests.extend(requests)
            self.groups.append(group)

    def outcome(self) -> Outcome:
        served = [(r.task, r.best_state, r.best_cost) for r in self.requests]
        # Best cost per distinct workload: a repeat is served the cost of
        # the request it repeats, so the seed's choice of repeats does not
        # weigh the mean.
        distinct = {r.task.workload_key: r.best_cost for r in self.requests}
        for group in self.groups:
            winner = group.request_for(group.winner) if group.winner else None
            served.append((winner.task if winner else None, group.best_state, group.best_cost))
            distinct[group.logical_key] = group.best_cost
        failed = sum(1 for _, _, c in served if not (math.isfinite(c) and c > 0))
        costs = list(distinct.values())
        geomean = (
            math.exp(statistics.fmean(math.log(c) for c in costs))
            if all(math.isfinite(c) and c > 0 for c in costs)
            else math.inf
        )
        arbitrated = [g for g in self.groups if not g.from_store]
        group_trials = sum(g.num_trials for g in arbitrated)
        loser_trials = sum(
            r.num_trials for g in arbitrated for r in g.requests if r.task.variant != g.winner
        )
        return Outcome(
            tuned_latency_us=geomean * 1e6,
            attempted=self.observer.trials + len(served),
            failed=self.observer.failed + failed,
            programs=served,
            loser_trial_share=loser_trials / group_trials if group_trials else 0.0,
        )

    def device_stats(self) -> Dict:
        scheduler = self.service.scheduler
        return scheduler.device_stats() if scheduler is not None else {}


WORKLOADS = {cls.name: cls for cls in (OpC2D, ServiceStore)}
