"""In-memory spans around calls into shellqm's layers.

The benchmark wraps public functions of the package from outside: every
module of the package that holds a function under some name gets the wrapper
in its place, so calls between modules (``from .linalg import eigh``) are
seen too.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs traced; the span name is "<module tail>.<function>".
TRACED = (
    ("shellqm.scenario", "parse_scenario"),
    ("shellqm.linalg", "eigh"),
    ("shellqm.measurement", "born_probabilities"),
    ("shellqm.measurement", "mean_value"),
    ("shellqm.measurement", "measure"),
    ("shellqm.measurement", "constrained_min"),
    ("shellqm.dynamics", "flow"),
    ("shellqm.dynamics", "flow_numeric"),
    ("shellqm.experiments", "run_trials"),
    ("shellqm.experiments", "verification_suite"),
    ("shellqm.cli", "main"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_constrained_min(counts, args, kwargs, result, error):
    """Iterations, restarts and starts of one constrained_min call.

    A call that converges used `restarts + 1` starts and reports its
    iterations.  One that raises used every start to the iteration cap.
    """
    measurement = sys.modules["shellqm.measurement"]
    name = "measurement.constrained_min"
    if error is None:
        counts[name + ".iterations"] += result.iterations
        counts[name + ".restarts"] += result.restarts
        counts[name + ".starts"] += result.restarts + 1
        counts[name + ".converged"] += 1
    else:
        counts[name + ".failures"] += 1
        counts[name + ".iterations"] += measurement.PG_RESTARTS * measurement.PG_MAX_ITER
        counts[name + ".restarts"] += measurement.PG_RESTARTS
        counts[name + ".starts"] += measurement.PG_RESTARTS


def _count_flow_numeric(counts, args, kwargs, result, error):
    counts["dynamics.flow_numeric.steps"] += int(_arg(args, kwargs, 3, "steps"))


def _count_run_trials(counts, args, kwargs, result, error):
    counts["experiments.run_trials.draws"] += int(_arg(args, kwargs, 2, "trials"))


COUNTERS = {
    "measurement.constrained_min": _count_constrained_min,
    "dynamics.flow_numeric": _count_flow_numeric,
    "experiments.run_trials": _count_run_trials,
}


class Tracer:
    """Spans `[name, start, end, parent, op]` and exact counters.

    `parent` is the index of the enclosing span or -1; `op` is the id of the
    benchmark operation the span belongs to, shared by all its spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(span)
                if counter is not None:
                    counter(counts, args, kwargs, None, exc)
                raise
            self.end(span)
            if counter is not None:
                counter(counts, args, kwargs, result, None)
            return result

        return traced

    def install(self):
        """Put wrappers in place of the traced functions; returns an undo."""
        undo = []
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self.wrap(f"{module_name.rsplit('.', 1)[1]}.{func_name}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "shellqm" or mod_name.startswith("shellqm.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

        def restore():
            for mod, attr, original in undo:
                setattr(mod, attr, original)

        return restore

    def layer_times(self) -> tuple[dict, dict, float]:
        """Inclusive time and self time per span name, and busy time.

        Self time is a span's duration minus the durations of its direct
        children; busy time is the summed duration of root spans.
        """
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        busy = 0.0
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            total[name] += duration
            own[name] += duration
            if parent < 0:
                busy += duration
            else:
                own[self.spans[parent][0]] -= duration
        return dict(total), dict(own), busy

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_overhead_s(samples: int = 20000) -> float:
    """Cost of one traced call beyond the call itself, in seconds."""

    def nothing():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", nothing)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            nothing()
        plain = time.perf_counter() - t0
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - plain) / samples)
    return max(best, 0.0)
