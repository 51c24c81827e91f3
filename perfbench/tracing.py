"""In-memory spans around calls into kernelkl's public functions.

Each wrapper replaces a function at the module attribute its caller looks it
up through, so the program runs unchanged apart from one extra Python call per
wrapped call.  Spans stay in memory until the run ends.  A target that no
longer exists is listed in ``Tracer.missing``; one that is never called simply
records no span, and both report as absent rather than as an error.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute, span name).  The attribute is the one the caller looks
# the function up through: estimator.py imports the kernels and optimize
# functions into its own namespace, so they are wrapped there.
TARGETS = (
    ("kernelkl.cli", "read_csv_dataset", "datasets.read_csv"),
    ("kernelkl.cli", "estimate_mi", "cli.estimate_mi"),
    ("kernelkl.estimator", "joint_and_product", "estimator.joint_and_product"),
    ("kernelkl.estimator", "estimate_kl", "estimator.estimate_kl"),
    ("kernelkl.estimator", "median_heuristic_bandwidth", "kernels.bandwidth"),
    ("kernelkl.estimator", "sample_feature_map", "kernels.sample_feature_map"),
    ("kernelkl.estimator", "apply_feature_map", "kernels.apply_feature_map"),
    ("kernelkl.estimator", "build_gram", "kernels.build_gram"),
    ("kernelkl.estimator", "run_primal", "optimize.run_primal"),
    ("kernelkl.estimator", "run_dual", "optimize.run_dual"),
    ("kernelkl.fairness", "estimate_mi", "fairness.estimate_mi"),
    ("kernelkl.benchmark", "estimate_mi", "benchmark.estimate_mi"),
    ("kernelkl.benchmark", "mine_estimate", "mine.mine_estimate"),
)


def _trace_counts(trace):
    return {"iterations": int(trace.iterations), "converged": int(bool(trace.converged)), "runs": 1}


# Counts read off a wrapped call's result.  Byte counts come from array
# shapes and dtypes (what the program allocates), not from measured traffic.
COUNTERS = {
    "kernels.apply_feature_map": lambda r: {"bytes": int(r.nbytes)},
    "kernels.build_gram": lambda r: {"bytes": int(r.entries.nbytes)},
    "optimize.run_primal": lambda r: _trace_counts(r[1]),
    "optimize.run_dual": lambda r: _trace_counts(r[1]),
    "mine.mine_estimate": lambda r: _trace_counts(r.trace),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; ``install`` wraps every target that still exists."""

    def __init__(self):
        self.spans = []
        self.missing = []  # targets whose attribute no longer exists
        self._open = []
        self._saved = []

    @contextmanager
    def span(self, name):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                s.counts.update(counter(result))
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def adopt(self, records, missing):
        """Append spans another process recorded, under the span open here.

        time.perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
        so the child's timestamps need no offset.
        """
        parent = self._open[-1] if self._open else None
        base = len(self.spans)
        for r in records:
            self.spans.append(
                Span(
                    id=base + r["id"],
                    parent=parent if r["parent"] is None else base + r["parent"],
                    name=r["name"],
                    start=r["start"],
                    end=r["end"],
                    counts=r["counts"],
                )
            )
        self.missing += [name for name in missing if name not in self.missing]

    def records(self):
        return [asdict(s) for s in self.spans]


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def split_by_root(spans):
    """Root span id -> the spans under it (itself included), in recording order."""
    root = {}
    out = {}
    for s in spans:
        root[s.id] = s.id if s.parent is None else root[s.parent]
        out.setdefault(root[s.id], []).append(s)
    return out


def aggregate(spans):
    """Span name -> Aggregate, with self time = duration minus child spans.

    Calls are sequential in one thread, so child spans never overlap and their
    durations can be summed.
    """
    child_s = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        agg = out.setdefault(s.name, Aggregate())
        agg.calls += 1
        agg.total_s += s.duration
        agg.self_s += s.duration - child_s.get(s.id, 0.0)
        for key, value in s.counts.items():
            agg.counts[key] = agg.counts.get(key, 0) + value
    return out


def bytes_per_parent(spans, name):
    """Largest sum of ``bytes`` over spans called ``name`` that share one parent call."""
    per_parent = {}
    for s in spans:
        if s.name == name:
            per_parent[s.parent] = per_parent.get(s.parent, 0) + s.counts.get("bytes", 0)
    return max(per_parent.values(), default=0)
