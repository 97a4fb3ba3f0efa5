"""In-memory span tracing of the ``repro`` layers, from outside the program.

The benchmark never edits ``src/``. To attribute time to layers it wraps
the public functions of each layer where the caller looks them up: class
attributes for methods (so every instance and subclass sees the wrapper)
and module attributes for functions (every ``repro`` module that imported
the function by name gets the wrapper too). :class:`Tracer` installs the
wrappers, records one span per call while it is active and restores every
original on :meth:`Tracer.close`.

A span is ``(name, start, end, parent)``; spans nest per thread. Self time
is a span's duration minus the part of it that its children cover (see
:func:`self_times`). The program's own ``repro.obs`` tracer is not used and
stays at its null default.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
from collections import defaultdict
from math import comb
from time import perf_counter

#: Every layer the traced run reports, in table order.
LAYERS = (
    "datasets",
    "detectors",
    "subspaces",
    "neighbors",
    "stats",
    "explainers",
    "metrics",
    "pipeline",
    "serve",
    "obs",
    "utils",
)

_SCORER_METHODS = (
    "scores_many",
    "zscores_many",
    "point_zscores_many",
    "points_zscores_many",
    "scores",
    "zscores",
    "point_score",
    "point_zscore",
    "points_zscores",
)
_PROVIDER_METHODS = ("squared_distances", "kneighbors", "knn_view")


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans are kept in memory as ``[name, start, end, parent_entry]`` lists;
    :meth:`export` turns them into ``(name, start, end, parent_index)``
    tuples. Counters (cache lookups, ground-truth subspaces, scorer
    evaluations) are tallied alongside.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.active = False

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def call(self, name: str, fn, args, kwargs, on_outer=None):
        """Run ``fn`` inside a span named ``name``.

        ``on_outer(args, kwargs)`` runs for calls not nested in a span of
        the same name and returns a callback invoked after the call.
        """
        stack = self._stack()
        after = None
        if on_outer is not None and not any(entry[0] == name for entry in stack):
            after = on_outer(args, kwargs)
        entry = [name, perf_counter(), 0.0, stack[-1] if stack else None]
        self.spans.append(entry)
        stack.append(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            entry[2] = perf_counter()
            stack.pop()
            if after is not None:
                after()

    def export(self) -> list[tuple[str, float, float, int]]:
        """Spans as ``(name, start, end, parent_index)``; ``-1`` is a root."""
        index = {id(entry): i for i, entry in enumerate(self.spans)}
        return [
            (name, start, end, -1 if parent is None else index[id(parent)])
            for name, start, end, parent in self.spans
        ]

    def write_jsonl(self, path: str) -> None:
        """Write every span as one gzip-compressed JSON line: id, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent) in enumerate(self.export()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    # Wrapper installation.
    # ------------------------------------------------------------------

    def _wrap(self, fn, name_of, on_outer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name_of(args), fn, args, kwargs, on_outer)

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, on_outer=None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module holding it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, lambda _args: name, on_outer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name_of, on_outer=None) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that redefines it."""
        seen: set[type] = set()
        todo = [cls]
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                wrapper = self._wrap(klass.__dict__[attr], name_of, on_outer)
                self._set(klass, attr, wrapper)

    def patch_counter(self, cls: type, attr: str, key_of) -> None:
        """Count calls of ``cls.attr`` by ``key_of(self, result)``; no span."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            if tracer.active:
                key = key_of(obj, result)
                if key is not None:
                    tracer.count(key)
            return result

        self._set(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer in :data:`LAYERS`."""
        import repro.datasets.ground_truth  # noqa: F401 - patched by module name
        import repro.datasets.registry  # noqa: F401
        import repro.metrics.evaluation  # noqa: F401
        import repro.stats.batch as stats_batch
        from repro.detectors.base import Detector
        from repro.explainers.base import PointExplainer, SummaryExplainer
        from repro.neighbors.provider import DistanceProvider
        from repro.obs.metrics import Counter, Gauge, Histogram
        from repro.pipeline.pipeline import ExplanationPipeline
        from repro.serve.engine import ExplainEngine
        from repro.subspaces.scorer import SubspaceScorer
        from repro.utils.caching import LRUCache

        self.patch_function("repro.datasets.registry", "load_dataset", "datasets.build")
        self.patch_function(
            "repro.datasets.ground_truth",
            "exhaustive_ground_truth",
            "datasets.ground_truth",
            on_outer=self._count_ground_truth,
        )
        self.patch_method(Detector, "score", lambda a: f"detectors.{a[0].name}")
        for method in _SCORER_METHODS:
            self.patch_method(
                SubspaceScorer,
                method,
                lambda _a: "subspaces.scorer",
                on_outer=self._count_evaluations,
            )
        for method in _PROVIDER_METHODS:
            self.patch_method(DistanceProvider, method, lambda _a: "neighbors.provider")
        for fn_name in stats_batch.__all__:
            fn = getattr(stats_batch, fn_name)
            if callable(fn) and fn_name != "batch_enabled":
                self.patch_function("repro.stats.batch", fn_name, "stats.batch")
        self.patch_method(
            PointExplainer, "explain_points", lambda a: f"explainers.{a[0].name}"
        )
        self.patch_method(
            SummaryExplainer, "summarize", lambda a: f"explainers.{a[0].name}"
        )
        self.patch_function(
            "repro.metrics.evaluation", "evaluate_point_explanations", "metrics.map"
        )
        self.patch_method(ExplanationPipeline, "run", lambda _a: "pipeline.run")
        self.patch_method(ExplainEngine, "explain_many", lambda _a: "serve.engine")
        self.patch_method(Counter, "inc", lambda _a: "obs.metric")
        self.patch_method(Gauge, "set", lambda _a: "obs.metric")
        self.patch_method(Histogram, "observe", lambda _a: "obs.metric")
        self.patch_method(LRUCache, "keys", lambda _a: "utils.lru.keys")
        self.patch_counter(
            LRUCache,
            "get",
            lambda cache, result: (
                None
                if cache.name not in ("scorer", "dist")
                else f"lru.{cache.name}.{'miss' if result is None else 'hit'}"
            ),
        )

    def close(self) -> None:
        """Stop recording and restore every wrapped attribute."""
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Counter hooks (run once per call not nested in a span of its name).
    # ------------------------------------------------------------------

    def _count_ground_truth(self, args, kwargs):
        from repro.datasets import ground_truth

        call = inspect.signature(ground_truth.exhaustive_ground_truth).bind(*args, **kwargs)
        call.apply_defaults()
        n_features = call.arguments["X"].shape[1]
        self.count(
            "datasets.ground_truth.subspaces",
            sum(comb(n_features, int(m)) for m in call.arguments["dimensionalities"]),
        )
        return None

    def _count_evaluations(self, args, _kwargs):
        scorer = args[0]
        before = scorer.n_evaluations

        def after() -> None:
            self.count("subspaces.scorer.evaluations", scorer.n_evaluations - before)

        return after


# ----------------------------------------------------------------------
# Attribution.
# ----------------------------------------------------------------------


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per-span self time: duration minus the union of its children.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples. Children
    are clipped to their parent's interval and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def aggregate(
    spans: list[tuple[str, float, float, int]], key=layer_of
) -> dict[str, dict[str, float]]:
    """``{key: {calls, busy_s, self_s}}`` over ``spans``.

    ``calls`` and ``busy_s`` count only spans with no ancestor of the same
    key, so recursion and nested calls within one layer are not counted
    twice; ``self_s`` sums the self time of every span of the key.
    """
    selfs = self_times(spans)
    keys = [key(name) for name, *_ in spans]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for i, (_name, start, end, parent) in enumerate(spans):
        row = table[keys[i]]
        row["self_s"] += selfs[i]
        outer = True
        while parent >= 0:
            if keys[parent] == keys[i]:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            row["calls"] += 1
            row["busy_s"] += end - start
    return dict(table)


def layer_report(
    spans: list[tuple[str, float, float, int]], wall_s: float
) -> tuple[list[tuple[str, int, float, float, float]], float]:
    """Rows ``(layer, calls, busy_s, self_s, self/wall)`` and unattributed time."""
    table = aggregate(spans)
    rows = []
    for layer in LAYERS:
        row = table.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rows.append(
            (
                layer,
                int(row["calls"]),
                row["busy_s"],
                row["self_s"],
                row["self_s"] / wall_s if wall_s > 0 else 0.0,
            )
        )
    unattributed = wall_s - sum(r[3] for r in rows)
    return rows, unattributed


def format_layer_table(rows, unattributed_s: float, wall_s: float, overhead: float) -> str:
    """The traced-run report: one line per layer plus the remainder."""
    lines = [f"{'layer':<12}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'ratio':>8}"]
    for layer, calls, busy, self_s, ratio in rows:
        lines.append(f"{layer:<12}{calls:>10d}{busy:>11.3f}{self_s:>11.3f}{ratio:>8.3f}")
    lines.append(
        f"{'unattributed':<12}{'':>10}{'':>11}{unattributed_s:>11.3f}"
        f"{unattributed_s / wall_s if wall_s > 0 else 0.0:>8.3f}"
    )
    lines.append(f"traced wall {wall_s:.3f} s; tracing overhead {overhead:+.1%}")
    return "\n".join(lines)
