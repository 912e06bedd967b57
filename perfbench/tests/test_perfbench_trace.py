"""Self-time arithmetic of the benchmark's span tracer.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.trace import Span, Tracer, self_times  # noqa: E402


def _tree():
    """root [0, 10]
         a [1, 4]
           b [2, 3]
         c [5, 9]
           d [5, 6]
           e [7, 8.5]
    """
    return [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
        Span("d", 5.0, 6.0, 3),
        Span("e", 7.0, 8.5, 3),
    ]


def test_self_time_is_span_minus_children():
    own = self_times(_tree())
    assert own == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 1.5, "d": 1.0, "e": 1.5}


def test_self_times_add_up_to_the_root_span():
    assert sum(self_times(_tree()).values()) == 10.0


def test_spans_of_one_layer_are_summed():
    spans = _tree()
    spans[4].name = "e"
    assert self_times(spans)["e"] == 2.5


def test_overlapping_children_count_once_against_the_parent():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 7.0, 0),
        Span("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)["root"] == 10.0 - 6.0 - 1.0


def test_tracer_records_parents_and_closes_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("tuner"):
        with tracer.span("search.evolve"):
            with tracer.span("codegen.lower"):
                pass
        with tracer.span("cost_model.train"):
            pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("tuner", None),
        ("search.evolve", 0),
        ("codegen.lower", 1),
        ("cost_model.train", 0),
    ]
    assert all(s.end > s.start for s in tracer.spans)
    assert sum(self_times(tracer.spans).values()) == tracer.spans[0].end - tracer.spans[0].start


def test_worker_thread_span_is_parented_to_the_waiting_main_span():
    tracer = Tracer()

    def lower():
        with tracer.span("codegen.lower"):
            pass

    with tracer.span("hardware.build"):
        worker = threading.Thread(target=lower)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert tracer.spans[1].name == "codegen.lower"
    assert tracer.spans[1].parent == 0


def test_wrap_counts_and_disables():
    tracer = Tracer()
    calls = []

    def probe(args, kwargs, result):
        tracer.count("calls", result)

    wrapped = tracer.wrap(lambda x: calls.append(x) or x, "layer", probe)
    assert wrapped(2) == 2
    tracer.enabled = False
    assert wrapped(3) == 3
    assert calls == [2, 3]
    assert tracer.counts == {"calls": 2}
    assert [s.name for s in tracer.spans] == ["layer"]


PROBE_CHECK = """
import json, sys
sys.path[:0] = sys.argv[1:]
import repro
from repro.codegen import lowering
original = lowering.lower_state
from perfbench.trace import Tracer, install_probes
bindings = install_probes(Tracer())
left = [name for name, mod in sys.modules.items()
        if name.startswith("repro") and any(v is original for v in vars(mod).values())]
print(json.dumps({"bindings": bindings, "left": left}))
"""


def test_probes_wrap_every_binding_of_functions_imported_by_name():
    # In a fresh interpreter: the probes patch the library process-wide.
    out = subprocess.run(
        [sys.executable, "-c", PROBE_CHECK, str(ROOT), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["left"] == []
    # lowering itself plus the modules that import lower_state by name
    assert report["bindings"]["lower_state"] >= 6
    assert report["bindings"]["generate_sketches"] >= 2
    assert report["bindings"]["sample_initial_population"] >= 2
