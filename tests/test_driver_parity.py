"""Parity of the one tuning driver over a sync session with the plain
propose → measure → ingest loop.

``SearchPolicy.tune`` and ``TaskScheduler.tune`` drive every round through a
:class:`~repro.hardware.measure.MeasureSession`; over a synchronous session
they breed no lookahead round, so a seeded session must reproduce the
batch-synchronous reference loops below exactly: the same trajectory, the
same scheduler records and the same number of measurements.
"""

from repro import SearchTask, TuningOptions, intel_cpu
from repro.hardware import MeasurePipeline
from repro.scheduler import TaskScheduler
from repro.scheduler.task_scheduler import TaskSchedulerRecord
from repro.search import SketchPolicy

from .conftest import make_matmul_dag, make_matmul_relu_dag, make_norm_dag, run_round

OPTIONS = TuningOptions(num_measure_trials=40, num_measures_per_round=8)


def _policy(task):
    return SketchPolicy(
        task, seed=3, population_size=24, num_generations=2, sample_init_population=24
    )


def _policy_reference(policy, options, measurer):
    """One round at a time until the budget is spent or the policy is dry."""
    while policy.num_trials < options.num_measure_trials:
        budget = min(
            options.num_measures_per_round,
            options.num_measure_trials - policy.num_trials,
        )
        inputs, _ = run_round(policy, budget, measurer)
        if not inputs:
            break


def _scheduler_reference(scheduler, num_measure_trials, num_measures_per_round):
    """Select a task, run one round of it, account it; repeat."""
    scheduler.measurers = scheduler._make_measurers(None)
    while scheduler.total_trials < num_measure_trials:
        index = scheduler._select_task()
        if index is None:
            break
        budget = min(num_measures_per_round, num_measure_trials - scheduler.total_trials)
        remaining = scheduler._remaining_limit(index)
        if remaining is not None:
            budget = min(budget, remaining)
        policy = scheduler.policies[index]
        inputs, _ = run_round(policy, budget, scheduler.measurers[index])
        scheduler.allocations[index] += 1
        if not inputs:
            scheduler.total_trials += 1
            scheduler.empty_rounds[index] += 1
            if scheduler.empty_rounds[index] >= scheduler.max_empty_rounds:
                scheduler.exhausted[index] = True
            continue
        scheduler.empty_rounds[index] = 0
        scheduler.total_trials += len(inputs)
        scheduler.task_trials[index] += len(inputs)
        scheduler.best_costs[index] = policy.best_cost
        scheduler.latency_history[index].append(policy.best_cost)
        scheduler.records.append(
            TaskSchedulerRecord(
                total_trials=scheduler.total_trials,
                objective_value=scheduler.objective_value(),
                best_costs=list(scheduler.best_costs),
                selected_task=index,
            )
        )


def _steps(state):
    return None if state is None else state.serialize_steps()


def test_policy_tune_matches_reference_loop():
    task = SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="matmul+relu")

    driven, driven_measurer = _policy(task), MeasurePipeline(intel_cpu(), seed=0)
    driven.tune(OPTIONS, driven_measurer)

    reference, reference_measurer = _policy(task), MeasurePipeline(intel_cpu(), seed=0)
    _policy_reference(reference, OPTIONS, reference_measurer)

    assert driven.history == reference.history
    assert driven.best_cost == reference.best_cost
    assert _steps(driven.best_state) == _steps(reference.best_state)
    assert driven_measurer.measure_count == reference_measurer.measure_count == 40


def _scheduler():
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="mm+relu"),
        SearchTask(make_matmul_dag(96, 96, 96), intel_cpu(), desc="mm"),
        SearchTask(make_norm_dag(), intel_cpu(), desc="norm"),
    ]
    return TaskScheduler(
        tasks,
        policy_factory=lambda task, model, seed: SketchPolicy(
            task,
            cost_model=model,
            seed=seed,
            population_size=16,
            num_generations=2,
            sample_init_population=16,
        ),
        eps_greedy=0.3,
        seed=5,
    )


def test_scheduler_tune_matches_reference_loop():
    driven = _scheduler()
    driven.tune(48, num_measures_per_round=8)

    reference = _scheduler()
    _scheduler_reference(reference, 48, 8)

    def curve(scheduler):
        return [
            (r.total_trials, r.selected_task, r.best_costs, r.objective_value)
            for r in scheduler.records
        ]

    assert curve(driven) == curve(reference)
    assert [p.history for p in driven.policies] == [p.history for p in reference.policies]
    assert driven.allocations == reference.allocations
    assert [m.measure_count for m in driven.measurers] == [
        m.measure_count for m in reference.measurers
    ]
    assert driven.total_trials == reference.total_trials == 48
