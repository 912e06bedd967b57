"""Search policy interface shared by Ansor and the baseline strategies.

A search policy optimizes one :class:`~repro.task.SearchTask`.  Policies are
driven either standalone (through :meth:`SearchPolicy.tune`) or by the task
scheduler (§6), which hands rounds out across tasks.  A policy implements a
round as two halves, and the driver owns the measurement in between:

* :meth:`SearchPolicy.propose_candidates` breeds the next batch of programs
  (sampling, evolution, ε-greedy selection — everything that happens *before*
  hardware is involved), and
* :meth:`SearchPolicy.ingest_results` absorbs a measured batch (best-state
  tracking, cost-model training, history).

There is one driver: rounds are submitted to a
:class:`~repro.hardware.measure.MeasureSession`, results stream back through
``on_result`` callbacks, and the round is then ingested.  Over an async
session (``TuningOptions.async_measure``) the driver keeps one lookahead
round in flight — round *k+1* is bred while round *k* occupies the devices,
which is the overlap the paper uses to hide device latency.  Over a sync
session it breeds no lookahead, so every round is bred from everything
measured before it.

Policies are also available through a string-keyed registry so higher
layers (most notably :class:`repro.tuner.Tuner`) can select a search
strategy by name: ``resolve_policy("sketch")`` returns the factory that
:class:`~repro.search.sketch_policy.SketchPolicy` registered, and the
baselines in :mod:`repro.search.baselines` register ``"beam"``,
``"random"`` and ``"limited-space"``.  A factory is called as
``factory(task, cost_model=..., seed=..., verbose=..., **kwargs)`` and
returns a ready-to-run policy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..callbacks import (
    MeasureCallback,
    MeasureEvent,
    MeasureResultEvent,
    ProgressLogger,
    StopTuning,
    fire_result,
    fire_round,
)
from ..hardware.measure import MeasureInput, MeasurePipeline, MeasureResult, MeasureSession
from ..ir.state import State
from ..task import SearchTask, TuningOptions

__all__ = [
    "SearchPolicy",
    "PolicyFactory",
    "register_policy",
    "registered_policies",
    "resolve_policy",
]

#: ``(task, cost_model=..., seed=..., verbose=..., **kwargs) -> SearchPolicy``
PolicyFactory = Callable[..., "SearchPolicy"]

_POLICY_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: Optional[PolicyFactory] = None):
    """Register a search-policy factory under a string key.

    Usable directly (``register_policy("beam", make_beam)``) or as a class /
    function decorator (``@register_policy("beam")``).  Re-registering a name
    overwrites the previous factory.
    """

    def _register(factory: PolicyFactory) -> PolicyFactory:
        _POLICY_REGISTRY[name] = factory
        return factory

    if factory is not None:
        return _register(factory)
    return _register


def registered_policies() -> List[str]:
    """The sorted names of all registered search policies."""
    return sorted(_POLICY_REGISTRY)


def resolve_policy(name: str) -> PolicyFactory:
    """Look up a policy factory by name; unknown names raise ``KeyError``
    listing every registered policy."""
    try:
        return _POLICY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown search policy {name!r}; registered policies: "
            f"{', '.join(registered_policies()) or '(none)'}"
        ) from None


class SearchPolicy:
    """Base class of search policies."""

    def __init__(self, task: SearchTask, seed: int = 0, verbose: int = 0):
        self.task = task
        self.seed = seed
        self.verbose = verbose
        self.rng = np.random.default_rng(seed)
        #: best program found so far
        self.best_state: Optional[State] = None
        #: best measured cost (seconds)
        self.best_cost: float = float("inf")
        #: number of measurement trials consumed by this policy
        self.num_trials: int = 0
        #: (trial_count, best_cost) after every round — used for tuning curves
        self.history: List[Tuple[int, float]] = []
        #: a bound :class:`~repro.store.ScheduleStore` (cross-session
        #: warm-start source); None until :meth:`bind_store` is called
        self.schedule_store = None

    def bind_store(self, store) -> None:
        """Attach a :class:`~repro.store.ScheduleStore` as this policy's
        warm-start source.  The base class only keeps the reference (and
        registers the task's structure class); policies that know how to
        seed themselves from cached bests — :class:`SketchPolicy` seeds its
        initial evolutionary population — read ``self.schedule_store``."""
        self.schedule_store = store
        if store is not None:
            store.register_task(self.task)

    # -- the propose / ingest halves -------------------------------------
    def propose_candidates(self, num_measures: int) -> List[State]:
        """Breed up to ``num_measures`` fresh candidate programs.

        This is the search half of a round — everything that happens before
        hardware is involved.  A policy must not re-propose a program it has
        already proposed (an async driver may call this again *before* the
        previous batch's results are ingested).  Returning an empty list
        means the policy is out of candidates and the session should end.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement propose_candidates()"
        )

    def ingest_results(
        self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]
    ) -> None:
        """Absorb one measured batch: best-state tracking, trial accounting
        and the history curve.  Subclasses extend this with their own
        learning (cost-model updates, elite pools) and call ``super()``."""
        for inp, res in zip(inputs, results):
            self.num_trials += 1
            if res.valid and res.min_cost < self.best_cost:
                self.best_cost = res.min_cost
                self.best_state = inp.state
        self.history.append((self.num_trials, self.best_cost))

    def close(self) -> None:
        """Release any resources the policy holds (worker pools, handles).

        A no-op in the base class.  :class:`~repro.search.sketch_policy.
        SketchPolicy` shuts down its island-search process pool here;
        :class:`~repro.tuner.Tuner` closes the policies it created itself
        once their session ends.  Closing must be idempotent, and a closed
        policy may lazily recreate its resources if it is driven again.
        """

    # ------------------------------------------------------------------
    def _make_event(
        self,
        inputs: Sequence[MeasureInput],
        results: Sequence[MeasureResult],
        measurer: Optional[MeasurePipeline] = None,
    ) -> MeasureEvent:
        """The :class:`MeasureEvent` describing the policy's latest round."""
        return MeasureEvent(
            task=self.task,
            policy=self,
            inputs=list(inputs),
            results=list(results),
            num_trials=self.num_trials,
            best_cost=self.best_cost,
            measurer=measurer,
        )

    def best_throughput(self) -> float:
        """Best achieved throughput in FLOP/s (0 when nothing measured yet)."""
        if not np.isfinite(self.best_cost) or self.best_cost <= 0:
            return 0.0
        return self.task.flop_count() / self.best_cost

    # ------------------------------------------------------------------
    def tune(
        self,
        options: Optional[TuningOptions] = None,
        measurer: Optional[MeasurePipeline] = None,
        callbacks: Sequence[MeasureCallback] = (),
    ) -> Optional[State]:
        """Run a full standalone tuning session on this task.

        Recording, progress logging and early stopping are all measure
        callbacks; ``options.verbose`` and ``options.early_stopping`` are
        honored by appending the equivalent callback when none is given.

        Rounds run through a :class:`~repro.hardware.measure.MeasureSession`
        over ``measurer`` (see :meth:`_drive`).  With
        ``options.async_measure`` (or a pipeline built with
        ``async_measure=True``) the session is asynchronous and round *k+1*
        is bred while round *k* runs on the devices; otherwise the session is
        synchronous and every round is bred after the previous one is
        ingested.
        """
        from ..callbacks import EarlyStopper  # local: keep top-level imports light

        options = options or TuningOptions()
        if measurer is None:
            # Build the measurement pipeline from the options' builder/runner
            # knobs (parallelism, timeouts), seeded like the old default.
            measurer = MeasurePipeline.from_options(
                self.task.hardware_params, options, seed=self.seed
            )
        active = list(callbacks)
        if (options.verbose or self.verbose) and not any(
            isinstance(cb, ProgressLogger) for cb in active
        ):
            active.append(ProgressLogger())
        if options.early_stopping and not any(
            isinstance(cb, EarlyStopper) for cb in active
        ):
            active.append(EarlyStopper(options.early_stopping))

        for cb in active:
            cb.on_tuning_start(self)
        try:
            async_ = options.async_measure or measurer.async_measure
            with measurer.session(async_=async_) as session:
                self._drive(options, session, measurer, active)
        except StopTuning:
            pass
        finally:
            for cb in active:
                cb.on_tuning_end(self)
        return self.best_state

    # -- the driver --------------------------------------------------------
    def _drive(
        self,
        options: TuningOptions,
        session: MeasureSession,
        measurer: MeasurePipeline,
        callbacks: Sequence[MeasureCallback],
    ) -> None:
        """Propose, measure and ingest rounds until the budget is spent or
        the policy runs out of candidates.

        An async session keeps one lookahead round in flight: while round
        *k* occupies the devices, :meth:`propose_candidates` breeds round
        *k+1* from everything ingested so far (the cost model is therefore
        one round staler than over a sync session — the price of the
        overlap, as in the paper).  A sync session breeds no lookahead.  A
        :class:`StopTuning` from any callback cancels the queued remainder,
        waits out the running measurements, and ingests/records them before
        unwinding, so no future leaks and every executed trial is counted
        exactly once.
        """
        # Budget from the trials already consumed: a reused policy resumes,
        # it does not restart.  `submitted` also reserves in-flight trials.
        submitted = self.num_trials

        def propose_and_submit():
            nonlocal submitted
            budget = min(
                options.num_measures_per_round,
                options.num_measure_trials - submitted,
            )
            if budget <= 0:
                return None
            candidates = self.propose_candidates(budget)
            if not candidates:
                return None
            inputs = [MeasureInput(self.task, state) for state in candidates]
            futures = session.submit(inputs)
            submitted += len(inputs)
            return (inputs, futures)

        current = propose_and_submit()
        while current is not None:
            # Breed the lookahead round while the current one measures.
            upcoming = propose_and_submit() if session.async_mode else None
            try:
                self._collect_round(session, current, callbacks, measurer)
            except StopTuning:
                # A policy-level stop ends the whole session: recall the
                # lookahead round's queued work, then drain and ingest
                # whatever already reached a device — nothing leaks,
                # nothing is measured that can still be cancelled.
                if upcoming is not None:
                    for fut in upcoming[1]:
                        fut.cancel()
                    self._collect_round(
                        session, upcoming, callbacks, measurer, suppress_stop=True
                    )
                raise
            # An empty proposal (budget spent or policy dry) ends the session.
            current = upcoming if session.async_mode else propose_and_submit()

    def _collect_round(
        self,
        session: MeasureSession,
        round_: Tuple[List[MeasureInput], List["MeasureFuture"]],
        callbacks: Sequence[MeasureCallback],
        measurer: MeasurePipeline,
        suppress_stop: bool = False,
    ) -> None:
        """Stream one in-flight round to completion: fire ``on_result`` as
        measurements land, then ingest the batch and fire the round event.
        On the first :class:`StopTuning` the round's queued remainder is
        cancelled (running work still completes and is observed); the stop
        re-raises after ingestion unless ``suppress_stop``."""
        inputs, futures = round_
        stop: Optional[StopTuning] = None
        kept_inputs: List[MeasureInput] = []
        results: List[MeasureResult] = []
        for fut in session.as_completed(futures):
            if fut.cancelled():
                continue
            res = fut.result()
            kept_inputs.append(fut.input)
            results.append(res)
            if callbacks:
                try:
                    fire_result(
                        callbacks,
                        MeasureResultEvent(
                            task=self.task,
                            policy=self,
                            input=fut.input,
                            result=res,
                            measurer=measurer,
                        ),
                    )
                except StopTuning as exc:
                    if stop is None:
                        stop = exc
                        # Stop paying for device time immediately: recall
                        # everything still queued on the session (this
                        # round's remainder and any lookahead round alike);
                        # running measurements complete and are kept.
                        session.cancel_pending()
        if kept_inputs:
            self.ingest_results(kept_inputs, results)
            if callbacks:
                try:
                    fire_round(callbacks, self._make_event(kept_inputs, results, measurer))
                except StopTuning as exc:
                    stop = stop or exc
        if stop is not None and not suppress_stop:
            raise stop
