"""In-memory span tracer and the layer probes of the traced benchmark run.

The traced run records one span per call into a layer of ``src/repro`` —
name, start, end and parent — by wrapping each layer's public entry point
from here, without editing the library.  Spans stay in memory and are
written out when the session ends.  A layer's *self time* is the length of
its spans minus the part of each span that its child spans cover; the
root ``tuner`` span wraps the workload's tuning calls, so its self time is
the session time outside every wrapped layer and the self times of all
layers add up to the traced tuning time.

Counts (trials, retries, store hits, ...) are recorded at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "install_probes", "LAYER_TIMES"]

#: span name -> per-layer metric name of its self time
LAYER_TIMES = {
    "tuner": "tuner.self_s",
    "scheduler": "scheduler.self_s",
    "search.sketch": "search.sketch_s",
    "search.sample": "search.sample_s",
    "search.evolve": "search.evolve_s",
    "cost_model.train": "cost_model.train_s",
    "cost_model.predict": "cost_model.predict_s",
    "cost_model.features": "cost_model.features_s",
    "codegen.lower": "codegen.lower_s",
    "hardware.build": "hardware.build_s",
    "hardware.run": "hardware.run_s",
    "store.lookup": "store.lookup_s",
    "store.write": "store.write_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the parent span in the tracer's list (None for a root)
    parent: Optional[int]


class Tracer:
    """Collects spans and counters in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with no open span of its own (a builder worker thread, say) is
    parented to the innermost open span of the main thread, which is the
    call that is waiting for it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.main_thread().ident
        #: probes record nothing while False (set once the traced calls end)
        self.enabled = True

    def _stack(self) -> List[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), float("nan"), parent))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: Optional[str],
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name`` (no span when ``None``);
        ``after(args, kwargs, result)`` records counts once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON (called at session end)."""
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counts": self.counts}, fh
            )


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of it that its children cover (children clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, [])
            if min(e, span.end) > max(s, span.start)
        ]
        own = (span.end - span.start) - _covered(clipped)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed.  Functions that
    several modules import by name are wrapped in all of them."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _wrap_method(tracer: Tracer, cls, method: str, name, after=None) -> None:
    setattr(cls, method, tracer.wrap(cls.__dict__[method], name, after))


def install_probes(tracer: Tracer) -> Dict[str, int]:
    """Wrap the public entry points of every layer a session passes
    through.  Returns the number of module bindings wrapped per function
    (every binding of a function imported by name must be covered)."""
    from repro import CostModelService  # noqa: F401  (imports every layer)
    from repro.codegen import lowering
    from repro.cost_model import features, gbdt, model
    from repro.hardware import measure, rpc
    from repro.scheduler.task_scheduler import TaskScheduler
    from repro.search import annotation, evolutionary, sketch
    from repro.store import ScheduleStore
    from repro.variants.arbiter import VariantPruner

    count = tracer.count
    bindings: Dict[str, int] = {}

    def rebind(module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        bindings[attr] = _rebind(original, tracer.wrap(original, name, after))

    # -- scheduler --------------------------------------------------------
    def scheduler_rounds(args, kwargs, result):
        count("scheduler.rounds", len(args[0].records))

    _wrap_method(tracer, TaskScheduler, "tune", "scheduler", scheduler_rounds)

    # -- search -----------------------------------------------------------
    rebind(sketch, "generate_sketches", "search.sketch")
    rebind(annotation, "sample_initial_population", "search.sample")
    _wrap_method(
        tracer,
        evolutionary.EvolutionarySearch,
        "search",
        "search.evolve",
        lambda a, k, r: count("search.rounds"),
    )

    # -- cost model -------------------------------------------------------
    _wrap_method(tracer, model.LearnedCostModel, "update", "cost_model.train")

    def fitted(args, kwargs, result):
        count("cost_model.train_calls")
        # rows fitted: one per innermost statement of each training program
        count("cost_model.train_records", len(args[1]))

    _wrap_method(tracer, gbdt.GBDTRegressor, "fit_boosting", "cost_model.train", fitted)

    def predicted(args, kwargs, result):
        count("cost_model.states_predicted", len(args[2]))

    _wrap_method(tracer, model.LearnedCostModel, "predict", "cost_model.predict", predicted)
    rebind(
        features,
        "extract_program_features_batch",
        "cost_model.features",
        lambda a, k, r: count("cost_model.states_featurized", len(a[0])),
    )

    # -- codegen ----------------------------------------------------------
    distinct = set()

    def lowered(args, kwargs, result):
        state = args[0]
        count("codegen.lower_calls")
        with tracer._lock:
            distinct.add((id(state.dag), state.fingerprint()))
            tracer.counts["codegen.lower_distinct"] = len(distinct)

    rebind(lowering, "lower_state", "codegen.lower", lowered)

    # -- hardware ---------------------------------------------------------
    for cls in (measure.LocalBuilder, rpc.RpcBuilder):
        _wrap_method(tracer, cls, "build", "hardware.build")
    for cls in (measure.LocalRunner, rpc.RpcRunner):
        _wrap_method(tracer, cls, "run", "hardware.run")

    def measured(args, kwargs, results):
        count("hardware.trials", len(results))
        for res in results:
            # Every run attempt is one ledger entry on device-pool runners;
            # device-blind runners only count re-runs.
            retries = len(res.attempts) - 1 if res.attempts else res.retry_count
            count("hardware.retries", max(retries, 0))
            if not res.valid:
                count("hardware.failed")

    _wrap_method(tracer, measure.MeasurePipeline, "measure", None, measured)

    # -- store ------------------------------------------------------------
    def looked_up(args, kwargs, entry):
        count("store.hits" if entry is not None else "store.misses")

    _wrap_method(tracer, ScheduleStore, "lookup", "store.lookup", looked_up)
    _wrap_method(tracer, ScheduleStore, "lookup_logical", "store.lookup", looked_up)
    _wrap_method(
        tracer,
        ScheduleStore,
        "similar_entries",
        "store.lookup",
        lambda a, k, r: count("store.warm_start_states", len(r)),
    )
    _wrap_method(
        tracer,
        ScheduleStore,
        "put",
        "store.write",
        lambda a, k, stored: count("store.writes", 1 if stored else 0),
    )

    # -- variants ---------------------------------------------------------
    original_prune = VariantPruner.on_scheduler_round

    @functools.wraps(original_prune)
    def prune(self, scheduler, record):
        if not tracer.enabled:
            return original_prune(self, scheduler, record)
        before = len(self.pruned_at)
        original_prune(self, scheduler, record)
        count("variants.pruned", len(self.pruned_at) - before)

    VariantPruner.on_scheduler_round = prune
    return bindings
