"""The benchmark's three user jobs, driven through public ``repro`` entry points.

* ``grid_smoke`` — Figures 9 and 10 (``figure9.run`` / ``figure10.run``)
  on the smoke profile at 2-d explanations: 2 datasets x 12 pipelines.
* ``dataset_build`` — cold builds of the three realistic surrogates at
  paper row counts and reduced widths (exhaustive LOF ground truth).
* ``serve_warm`` — an in-process ``ExplainServer`` answering warm requests
  in a closed loop on two connections, in rounds that send every request
  kind once; traced runs first add an open loop of seeded Poisson arrivals.

Each workload function takes the seed, the measuring time and a tracer
(``None`` for the timed run) and returns a :class:`Outcome`. The seed
drives every generated input; the program sees only those inputs.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import traceback
from dataclasses import dataclass, field
from math import comb
from time import perf_counter, sleep

from perfbench import measure
from perfbench.tracing import Tracer, aggregate, format_layer_table, layer_report

from repro.datasets import registry
from repro.experiments import figure9, figure10
from repro.experiments.config import get_profile
from repro.explainers.contrast_cache import resolve_contrast_cache
from repro.pipeline.pipeline import ExplanationPipeline
from repro.pipeline.runner import GridRunner
from repro.serve.client import ServeClient
from repro.serve.engine import ExplainEngine
from repro.serve.protocol import encode_line, resolve_dataset, resolve_pipeline, result_to_wire
from repro.serve.server import ExplainServer, ServerConfig

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: grid_smoke: the smoke profile restricted to 2-d explanations.
GRID_DIMS = (2,)
GRID_CELLS = 24  # {hics_14, breast} x {beam, refout, lookout, hics} x {lof, fast_abod, iforest}

#: dataset_build: (name, n_features) at paper row counts; ground truth 2-4 d.
GT_SHAPES = (("breast", 16), ("breast_diagnostic", 14), ("electricity", 12))
GT_DIMS = (2, 3, 4)

#: serve_warm: request mix and load shape.
SERVE_DATASETS = ("hics_14", "breast")
SERVE_DIMS = (2, 3)
SERVE_PIPELINES = ("beam+lof", "refout+lof", "lookout+lof", "hics+lof")
SERVE_SUBSETS = 6
SERVE_CONNECTIONS = 2
#: Closed loop: whole rounds of all 96 kinds; 11 rounds (1,056 requests) at
#: least, so the p99 has ten samples beyond it.
SERVE_MIN_ROUNDS = 11
#: Open loop (traced runs): a fixed offered load, so commits see the same one;
#: 40-50 % of the 62-76 req/s closed-loop capacity measured on a 2-core box.
#: Each traced run reports the ratio to the capacity it measures.
SERVE_RATE = 30.0
SERVE_OPEN_REQUESTS = 1000


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Digest of every output the run checked, so runs of one commit can be compared.
    digest: str = ""
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _reset_process_caches() -> None:
    """Forget datasets and HiCS searches memoised in this process."""
    registry.clear_cache()
    cache = resolve_contrast_cache()
    if cache is not None:
        cache.clear()


def _timed_setups(setup, teardown=None, repeats: int = SETUPS) -> tuple[float, object]:
    """Run ``setup`` ``repeats`` times from cold; median seconds, last value.

    ``teardown(value)`` releases each value but the last, untimed.
    """
    times, value = [], None
    for i in range(repeats):
        if i and teardown is not None:
            teardown(value)
        _reset_process_caches()
        started = perf_counter()
        value = setup()
        times.append(perf_counter() - started)
    return statistics.median(times), value


def _measure_units(seconds: float, unit, at_least: int = 1) -> tuple[float, list]:
    """Run ``unit()`` back to back for about ``seconds``; ``(wall_s, values)``.

    Units are never cut short. After ``at_least`` units, another starts
    only if the run would still end nearer ``seconds`` with it than
    without it, so a unit longer than ``seconds`` runs once.
    """
    values = []
    started = perf_counter()
    while True:
        values.append(unit())
        elapsed = perf_counter() - started
        if len(values) >= at_least and elapsed + 0.5 * elapsed / len(values) >= seconds:
            return elapsed, values


def _timed(tracer: Tracer | None, fn):
    """Run ``fn``, with ``tracer`` recording if given; return ``(wall_s, value)``."""
    if tracer is not None:
        tracer.active = True
    started = perf_counter()
    try:
        value = fn()
    finally:
        wall = perf_counter() - started
        if tracer is not None:
            tracer.active = False
    return wall, value


def _layer_metrics(out: Outcome, tracer: Tracer, wall: float, overhead: float) -> dict:
    """Per-layer metrics shared by every workload, plus the layer table."""
    spans = tracer.export()
    rows, unattributed = layer_report(spans, wall)
    out.report.append(format_layer_table(rows, unattributed, wall, overhead))
    by_name = aggregate(spans, key=lambda name: name)

    def name_stat(name: str, stat: str) -> float:
        return by_name.get(name, {}).get(stat, 0.0)

    def rate(cache: str) -> float:
        hit = tracer.counters.get(f"lru.{cache}.hit", 0.0)
        miss = tracer.counters.get(f"lru.{cache}.miss", 0.0)
        return hit / (hit + miss) if hit + miss else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for det in ("lof", "fast_abod", "iforest"):
        metrics[f"detectors.{det}.calls"] = (name_stat(f"detectors.{det}", "calls"), "count")
        metrics[f"detectors.{det}.busy_s"] = (name_stat(f"detectors.{det}", "busy_s"), "s")
    metrics["datasets.ground_truth.busy_s"] = (name_stat("datasets.ground_truth", "busy_s"), "s")
    metrics["datasets.ground_truth.self_s"] = (name_stat("datasets.ground_truth", "self_s"), "s")
    metrics["datasets.ground_truth.subspaces"] = (
        tracer.counters.get("datasets.ground_truth.subspaces", 0.0), "count")
    metrics["datasets.build.self_s"] = (name_stat("datasets.build", "self_s"), "s")
    metrics["subspaces.scorer.calls"] = (name_stat("subspaces.scorer", "calls"), "count")
    metrics["subspaces.scorer.self_s"] = (name_stat("subspaces.scorer", "self_s"), "s")
    metrics["subspaces.scorer.hit_rate"] = (rate("scorer"), "ratio")
    metrics["subspaces.scorer.evaluations"] = (
        tracer.counters.get("subspaces.scorer.evaluations", 0.0), "count")
    metrics["neighbors.provider.calls"] = (name_stat("neighbors.provider", "calls"), "count")
    metrics["neighbors.provider.self_s"] = (name_stat("neighbors.provider", "self_s"), "s")
    metrics["neighbors.provider.hit_rate"] = (rate("dist"), "ratio")
    metrics["obs.metric_updates"] = (name_stat("obs.metric", "calls"), "count")
    metrics["utils.lru.keys_calls"] = (name_stat("utils.lru.keys", "calls"), "count")
    for expl in ("beam", "refout", "lookout", "hics"):
        metrics[f"explainers.{expl}.calls"] = (name_stat(f"explainers.{expl}", "calls"), "count")
        metrics[f"explainers.{expl}.self_s"] = (name_stat(f"explainers.{expl}", "self_s"), "s")
    metrics["stats.batch.calls"] = (name_stat("stats.batch", "calls"), "count")
    metrics["stats.batch.busy_s"] = (name_stat("stats.batch", "busy_s"), "s")
    metrics["pipeline.run.self_s"] = (name_stat("pipeline.run", "self_s"), "s")
    metrics["metrics.map.busy_s"] = (name_stat("metrics.map", "busy_s"), "s")
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["obs.bench_trace_overhead"] = (overhead, "ratio")
    for name in ("serve.queue_wait_ms", "serve.client_wait_ms", "serve.coalesced_mean"):
        metrics[name] = (0.0, "ms" if name.endswith("_ms") else "count")
    metrics["serve.engine.hit_rate"] = (0.0, "ratio")
    metrics["serve.engine.evaluations"] = (0.0, "count")
    metrics["serve.open_p50_ms"] = (0.0, "ms")
    metrics["serve.open_p99_ms"] = (0.0, "ms")
    return metrics


# ----------------------------------------------------------------------
# grid_smoke
# ----------------------------------------------------------------------


def _grid_profile(seed: int):
    return get_profile("smoke").scaled(seed=seed, explanation_dims=GRID_DIMS, backend="serial")


def _cell_key(result) -> list:
    return [result.dataset, result.explainer, result.detector, result.dimensionality]


def grid_digest(results) -> str:
    """Digest of the MAP of every LOF and Fast ABOD cell."""
    cells = sorted(
        _cell_key(r) + [r.map] for r in results if r.detector in ("lof", "fast_abod")
    )
    return measure.digest(cells)


def cells_digest(results) -> str:
    """Digest of every cell: its MAP and each point's ranked subspaces and scores."""
    cells = sorted(
        [
            _cell_key(r),
            r.map,
            sorted(
                [int(p), [[int(f) for f in s] for s in ranking.subspaces],
                 [float(v) for v in ranking.scores]]
                for p, ranking in (r.explanations or {}).items()
            ),
        ]
        for r in results
    )
    return measure.digest(cells)


def _grid_pass(profile) -> list:
    """One cold pass of both figures; returns the cells."""
    resolve_contrast_cache().clear()
    return [cell for figure in (figure9, figure10) for cell in figure.run(profile).results]


def _check_grid(out: Outcome, seed: int, results, golden: dict) -> None:
    out.failed += GRID_CELLS - len(results)
    out.check(
        "grid: every cell ran", len(results) == GRID_CELLS, f"{len(results)} of {GRID_CELLS}"
    )
    bad = []
    for r in results:
        if r.detector != "iforest":
            continue
        if not 0.0 <= r.map <= 1.0:
            bad.append(f"{_cell_key(r)} map={r.map}")
        for ranking in r.explanations.values():
            if any(len(s) != r.dimensionality for s in ranking.subspaces):
                bad.append(f"{_cell_key(r)} ranks a subspace of the wrong width")
                break
    out.check(
        "grid: iforest cells in range and of the requested width", not bad, "; ".join(bad[:3])
    )
    table = golden["grid_smoke"]
    if str(seed) in table:
        got, want = grid_digest(results), table[str(seed)]
        out.check(
            "grid: LOF/Fast ABOD MAP digest equals golden",
            got == want,
            f"seed {seed}: {got[:12]} vs {want[:12]}",
        )
    else:
        probe = int(sorted(table, key=int)[seed % len(table)])
        got, want = grid_digest(grid_golden_cells(probe)), table[str(probe)]
        out.check(
            "grid: LOF/Fast ABOD MAP digest equals golden (probe seed)",
            got == want,
            f"probe seed {probe}: {got[:12]} vs {want[:12]}",
        )


def grid_golden_cells(seed: int) -> list:
    """The LOF and Fast ABOD cells of grid_smoke at ``seed`` (golden probe).

    Runs the same serial grid ``figure9.run``/``figure10.run`` run, minus
    the iForest pipelines.
    """
    profile = _grid_profile(seed)
    datasets = profile.all_datasets()
    results = []
    for factories in (profile.point_explainer_factories(), profile.summary_explainer_factories()):
        runner = GridRunner(
            profile.detectors()[:2],
            factories,
            skip_errors=True,
            points_selector=profile.select_points,
            backend="serial",
        )
        results.extend(runner.run(datasets, profile.explanation_dims))
    return results


def grid_smoke(seed: int, seconds: float, tracer: Tracer | None, golden: dict) -> Outcome:
    out = Outcome()
    profile = _grid_profile(seed)
    setup_s, _ = _timed_setups(profile.all_datasets, repeats=1 if tracer else SETUPS)
    out.metrics["setup_s"] = (setup_s, "s")

    if tracer is not None:
        wall_u, results = _timed(None, lambda: _grid_pass(profile))
        tracer.install()
        wall_t, traced_results = _timed(tracer, lambda: _grid_pass(profile))
        tracer.close()
        out.attempted = 2 * GRID_CELLS
        _check_grid(out, seed, results, golden)
        out.failed += GRID_CELLS - len(traced_results)
        out.digest = cells_digest(results)
        out.check(
            "grid: traced pass equals untraced pass in every cell",
            cells_digest(traced_results) == out.digest,
        )
        out.metrics.update(_layer_metrics(out, tracer, wall_t, wall_t / wall_u - 1.0))
        return out

    wall, timed_passes = _measure_units(seconds, lambda: _timed(None, lambda: _grid_pass(profile)))
    pass_s = [s for s, _ in timed_passes]
    passes = [results for _, results in timed_passes]
    out.attempted = GRID_CELLS * len(passes)
    _check_grid(out, seed, passes[0], golden)
    out.digest = cells_digest(passes[0])
    for later in passes[1:]:
        out.failed += GRID_CELLS - len(later)
        out.check("grid: every pass gives identical cells", cells_digest(later) == out.digest)
    out.metrics["throughput_per_s"] = (sum(len(p) for p in passes) / wall, "1/s")
    out.metrics["latency_p50_ms"] = (measure.nearest_rank(pass_s, 0.50) * 1000.0, "ms")
    out.metrics["latency_p99_ms"] = (measure.nearest_rank(pass_s, 0.99) * 1000.0, "ms")
    out.report.append(
        f"grid_smoke: {len(passes)} pass(es), {out.attempted} cells in {wall:.2f} s; "
        f"passes {', '.join(f'{s:.2f}' for s in pass_s)} s"
    )
    return out


# ----------------------------------------------------------------------
# dataset_build
# ----------------------------------------------------------------------


def gt_subspaces() -> int:
    return sum(comb(d, m) for _, d in GT_SHAPES for m in GT_DIMS)


def dataset_digest(dataset) -> str:
    """Digest of one built dataset: shape, outliers and ground truth."""
    gt = dataset.ground_truth
    return measure.digest(
        {
            "name": dataset.name,
            "shape": list(dataset.X.shape),
            "outliers": [int(o) for o in dataset.outliers],
            "relevant": [
                [int(p), [[int(f) for f in s] for s in gt.relevant_for(p)]]
                for p in gt.points
            ],
        }
    )


def build_dataset(name: str, n_features: int, seed: int):
    return registry.load_dataset(
        name, seed=seed, n_features=n_features, gt_dimensionalities=GT_DIMS
    )


def _gt_pass(seed: int) -> tuple[list[float], dict[str, str], int]:
    """Build every surrogate from cold; per-build seconds, digests, failures."""
    seconds, digests, failed = [], {}, 0
    for name, n_features in GT_SHAPES:
        registry.clear_cache()
        started = perf_counter()
        try:
            dataset = build_dataset(name, n_features, seed)
        except Exception as exc:  # noqa: BLE001 - a failed build is counted, not fatal
            traceback.print_exc()
            failed += 1
            digests[name] = f"failed: {type(exc).__name__}: {exc}"
            continue
        finally:
            seconds.append(perf_counter() - started)
        digests[name] = dataset_digest(dataset)
    registry.clear_cache()
    return seconds, digests, failed


def _check_gt(out: Outcome, seed: int, digests: dict, golden: dict) -> None:
    table = golden["dataset_build"]
    if str(seed) in table:
        want = table[str(seed)]
        out.check(
            "dataset_build: ground-truth digests equal golden",
            digests == want,
            f"seed {seed}; differ: {[k for k in want if digests.get(k) != want[k]]}",
        )
    else:
        probe = int(sorted(table, key=int)[seed % len(table)])
        name, n_features = GT_SHAPES[0]
        got = dataset_digest(build_dataset(name, n_features, probe))
        registry.clear_cache()
        out.check(
            "dataset_build: ground-truth digest equals golden (probe seed)",
            got == table[str(probe)][name],
            f"probe seed {probe}, {name}",
        )


def dataset_build(seed: int, seconds: float, tracer: Tracer | None, golden: dict) -> Outcome:
    out = Outcome()
    # Nothing to build ahead: the builds are the job. Set-up is the imports.
    out.metrics["setup_s"] = (0.0, "s")
    if tracer is not None:
        wall_u, (_, digests, failed) = _timed(None, lambda: _gt_pass(seed))
        tracer.install()
        wall_t, (_, traced_digests, failed_t) = _timed(tracer, lambda: _gt_pass(seed))
        tracer.close()
        out.attempted, out.failed = 2 * len(GT_SHAPES), failed + failed_t
        _check_gt(out, seed, digests, golden)
        out.digest = measure.digest(digests)
        out.check("dataset_build: traced pass equals untraced pass", digests == traced_digests)
        out.metrics.update(_layer_metrics(out, tracer, wall_t, wall_t / wall_u - 1.0))
        return out

    wall, timed_passes = _measure_units(seconds, lambda: _timed(None, lambda: _gt_pass(seed)))
    pass_s = [s for s, _ in timed_passes]
    build_s = [s for _, (builds, _, _) in timed_passes for s in builds]
    all_digests = [digests for _, (_, digests, _) in timed_passes]
    out.failed += sum(failed for _, (_, _, failed) in timed_passes)
    out.attempted = len(GT_SHAPES) * len(all_digests)
    _check_gt(out, seed, all_digests[0], golden)
    out.digest = measure.digest(all_digests[0])
    for later in all_digests[1:]:
        out.check("dataset_build: every pass gives identical ground truth", later == all_digests[0])
    out.metrics["throughput_per_s"] = (gt_subspaces() * len(all_digests) / wall, "1/s")
    out.metrics["latency_p50_ms"] = (measure.nearest_rank(pass_s, 0.50) * 1000.0, "ms")
    out.metrics["latency_p99_ms"] = (measure.nearest_rank(pass_s, 0.99) * 1000.0, "ms")
    out.report.append(
        f"dataset_build: {len(all_digests)} pass(es), {gt_subspaces()} subspaces each, "
        f"{wall:.2f} s; builds {', '.join(f'{s:.2f}' for s in build_s)} s"
    )
    return out


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------


def _subsets(at_dim: tuple[int, ...], others: tuple[int, ...]) -> list[tuple[int, ...]]:
    """:data:`SERVE_SUBSETS` distinct, overlapping point sets of up to five points.

    Windows of four slide by two over the points of interest (those
    explained at the dimensionality first); each set also holds one point
    explained at the dimensionality, so every request can be evaluated.
    """
    pool = at_dim + others
    subsets = []
    for j in range(SERVE_SUBSETS):
        window = {pool[(2 * j + i) % len(pool)] for i in range(min(4, len(pool)))}
        subsets.append(tuple(sorted(window | {at_dim[j % len(at_dim)]})))
    if len(set(subsets)) < SERVE_SUBSETS:
        raise RuntimeError(f"point subsets are not distinct: {subsets}")
    return subsets


def serve_requests(datasets: dict) -> list[dict]:
    """The 96 distinct explain requests of serve_warm."""
    requests = []
    for name in SERVE_DATASETS:
        dataset = datasets[name]
        for dim in SERVE_DIMS:
            at_dim = tuple(dataset.ground_truth.points_at(dim))
            others = tuple(p for p in dataset.outliers if p not in set(at_dim))
            for pipeline in SERVE_PIPELINES:
                for subset in _subsets(at_dim, others):
                    requests.append(
                        {"op": "explain", "dataset": name, "pipeline": pipeline,
                         "dimensionality": dim, "points": list(subset)}
                    )
    return requests


class _Server:
    """A booted and primed in-process server plus its inputs."""

    def __init__(self, seed: int) -> None:
        profile = get_profile("smoke").scaled(seed=seed)
        self.datasets = {name: resolve_dataset(name, profile) for name in SERVE_DATASETS}
        self.requests = serve_requests(self.datasets)
        engine = ExplainEngine(backend="serial")
        for dataset in self.datasets.values():
            engine.register_dataset(dataset)
        self.server = ExplainServer(ServerConfig(port=0, backend="serial"), engine=engine)
        self.handle = self.server.run_in_thread()
        with ServeClient(self.handle.host, self.handle.port) as client:
            for request in self.requests:
                response = client.request(dict(request))
                if not response.get("ok"):
                    raise RuntimeError(f"priming request failed: {response}")

    def stats(self) -> dict:
        with ServeClient(self.handle.host, self.handle.port) as client:
            return client.stats()["engine"]

    def stop(self) -> None:
        self.handle.stop()


def _drive(server: _Server, schedule: list[tuple[float | None, int]]) -> list[dict]:
    """Send ``schedule`` over :data:`SERVE_CONNECTIONS` connections.

    Entries are ``(due offset, request kind)``; a ``None`` due means
    "send as soon as a connection is free" (closed loop). Latency runs
    from the due time (open loop) or the send time (closed loop).
    """
    records: list[dict | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    errors: list[BaseException] = []
    origin = perf_counter()

    def connection() -> None:
        try:
            with ServeClient(server.handle.host, server.handle.port, timeout=120.0) as client:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    due_offset, kind = schedule[i]
                    if due_offset is not None:
                        delay = origin + due_offset - perf_counter()
                        if delay > 0:
                            sleep(delay)
                    sent = perf_counter()
                    due = sent if due_offset is None else origin + due_offset
                    response = client.request(dict(server.requests[kind]))
                    done = perf_counter()
                    records[i] = {"kind": kind, "due": due, "sent": sent, "done": done,
                                  "response": response}
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=connection) for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads) or any(r is None for r in records):
        raise RuntimeError("serve load generator did not finish")
    return records  # type: ignore[return-value]


def _reference_wire(server: _Server) -> list[str]:
    """Digest of a one-shot ExplanationPipeline run of every request kind."""
    resolve_contrast_cache().clear()
    profile = get_profile("smoke")
    engine = ExplainEngine(backend="serial")
    digests = []
    for request in server.requests:
        detector, explainer = resolve_pipeline(request["pipeline"], profile)
        pipeline = ExplanationPipeline(detector, explainer, backend="serial", engine=engine)
        result = pipeline.run(
            server.datasets[request["dataset"]],
            request["dimensionality"],
            points=tuple(sorted(request["points"])),
        )
        digests.append(measure.digest(encode_line(result_to_wire(result)).decode()))
    engine.close()
    return digests


def _compact(records: list[dict]) -> list[dict]:
    """Replace each decoded response by its status, meta and result digest."""
    for record in records:
        response = record.pop("response")
        record["ok"] = bool(response.get("ok"))
        record["meta"] = response.get("meta", {})
        record["failed"] = not record["ok"] or bool(record["meta"].get("deadline_missed"))
        record["wire"] = (
            measure.digest(encode_line(response["result"]).decode()) if record["ok"] else None
        )
    return records


def _check_serve(
    out: Outcome, server: _Server, records: list[dict], before: dict, after: dict
) -> None:
    reference = _reference_wire(server)
    out.digest = measure.digest(reference)
    failed = sum(record["failed"] for record in records)
    out.check(
        "serve: no response failed or missed its deadline",
        failed == 0,
        f"{failed} of {len(records)} failed",
    )
    mismatched = sum(record["wire"] != reference[record["kind"]] for record in records)
    out.check(
        "serve: every response byte-identical to a one-shot pipeline run",
        mismatched == 0,
        f"{mismatched} of {len(records)} differ",
    )
    grew = after["n_evaluations"] - before["n_evaluations"]
    out.check("serve: engine evaluations do not grow while timed", grew == 0, f"+{grew}")


def serve_warm(seed: int, seconds: float, tracer: Tracer | None, golden: dict) -> Outcome:
    out = Outcome()
    boots: list[_Server] = []

    def boot() -> _Server:
        boots.append(_Server(seed))
        return boots[-1]

    try:
        setup_s, server = _timed_setups(
            boot, teardown=lambda s: s.stop(), repeats=1 if tracer else SETUPS
        )
        out.metrics["setup_s"] = (setup_s, "s")
        n_kinds = len(server.requests)
        orders = measure.shuffled_rounds(seed + 1, n_kinds)

        def closed_round() -> tuple[float, list[dict]]:
            return _timed(None, lambda: _drive(server, [(None, k) for k in next(orders)]))

        before = server.stats()
        open_records: list[dict] = []
        if tracer is not None:
            open_schedule = measure.poisson_schedule(
                seed, SERVE_RATE, SERVE_OPEN_REQUESTS, n_kinds
            )
            open_records = _compact(_drive(server, open_schedule))
        wall_c, rounds = _measure_units(seconds, closed_round, at_least=SERVE_MIN_ROUNDS)
        round_rates = [len(batch) / batch_s for batch_s, batch in rounds]
        closed_records = [record for _, batch in rounds for record in _compact(batch)]
        traced_records: list[dict] = []
        if tracer is not None:
            traced_schedule = [
                (None, kind) for _ in range(SERVE_MIN_ROUNDS) for kind in next(orders)
            ]
            tracer.install()
            wall_t, traced_records = _timed(tracer, lambda: _drive(server, traced_schedule))
            tracer.close()
            traced_records = _compact(traced_records)
        after = server.stats()
    finally:
        for booted in boots:
            booted.stop()

    records = open_records + closed_records + traced_records
    out.attempted = len(records)
    out.failed = sum(r["failed"] for r in records)
    _check_serve(out, server, records, before, after)

    if tracer is not None:
        wall_u = wall_c * len(traced_records) / len(closed_records)
        out.metrics.update(_layer_metrics(out, tracer, wall_t, wall_t / wall_u - 1.0))
        open_ms = [(r["done"] - r["due"]) * 1000.0 for r in open_records]
        metas = [r["meta"] for r in open_records if r["ok"]]
        out.metrics["serve.open_p50_ms"] = (measure.nearest_rank(open_ms, 0.50), "ms")
        out.metrics["serve.open_p99_ms"] = (measure.nearest_rank(open_ms, 0.99), "ms")
        out.metrics["serve.queue_wait_ms"] = (
            statistics.fmean(m["queue_ms"] - m["seconds"] * 1000.0 for m in metas), "ms")
        out.metrics["serve.client_wait_ms"] = (
            statistics.fmean((r["sent"] - r["due"]) * 1000.0 for r in open_records), "ms")
        out.metrics["serve.coalesced_mean"] = (
            statistics.fmean(m["coalesced"] for m in metas), "count")
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        out.metrics["serve.engine.hit_rate"] = (hits / lookups if lookups else 0.0, "ratio")
        out.metrics["serve.engine.evaluations"] = (
            after["n_evaluations"] - before["n_evaluations"], "count")
        late = max(r["sent"] - r["due"] for r in open_records)
        capacity = statistics.median(round_rates)
        out.report.append(
            f"serve_warm: open loop {len(open_records)} requests at {SERVE_RATE:g}/s "
            f"= {SERVE_RATE / capacity:.2f} of the {capacity:.1f} req/s closed-loop "
            f"capacity, generator at most {late * 1000.0:.1f} ms late"
        )
        return out

    latencies = [r["done"] - r["sent"] for r in closed_records]
    out.metrics["throughput_per_s"] = (statistics.median(round_rates), "1/s")
    out.metrics["latency_p50_ms"] = (measure.nearest_rank(latencies, 0.50) * 1000.0, "ms")
    out.metrics["latency_p99_ms"] = (measure.nearest_rank(latencies, 0.99) * 1000.0, "ms")
    out.report.append(
        f"serve_warm: closed loop {len(rounds)} rounds of {n_kinds} requests on "
        f"{SERVE_CONNECTIONS} connections in {wall_c:.2f} s"
    )
    return out


WORKLOADS = {
    "grid_smoke": grid_smoke,
    "dataset_build": dataset_build,
    "serve_warm": serve_warm,
}
