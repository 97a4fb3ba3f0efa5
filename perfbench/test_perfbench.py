"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import measure, workloads
from perfbench.tracing import Tracer, aggregate, layer_report, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Measurement helpers.
# ----------------------------------------------------------------------


def test_nearest_rank_picks_an_observed_value():
    values = list(range(1, 1001))
    assert measure.nearest_rank(values, 0.99) == 990
    assert measure.nearest_rank(values, 0.50) == 500
    assert measure.nearest_rank([3.0, 1.0], 0.50) == 1.0
    assert measure.nearest_rank([3.0, 1.0], 0.99) == 3.0
    assert measure.nearest_rank([7.0], 0.01) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        measure.nearest_rank([1.0], 0.0)


def test_quartile_spread_matches_statistics_quantiles():
    assert measure.quartile_spread([10.0] * 10) == 0.0
    spread = measure.quartile_spread([9.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx((10.75 - 9.25) / 10.0)


def test_shuffled_rounds_are_balanced_and_seed_deterministic():
    def first(seed, n):
        rounds = measure.shuffled_rounds(seed, 96)
        return [next(rounds) for _ in range(n)]

    a = first(7, 5)
    assert a == first(7, 5)
    assert a != first(8, 5)
    assert all(sorted(order) == list(range(96)) for order in a)
    assert len({tuple(order) for order in a}) == 5


def test_measure_units_stops_near_the_target(monkeypatch):
    clock = iter(range(0, 1000, 3))  # every unit takes 3 s of fake time
    monkeypatch.setattr(workloads, "perf_counter", lambda: float(next(clock)))
    units = iter(range(1, 100))
    wall, values = workloads._measure_units(10.0, lambda: next(units))
    assert values == [1, 2, 3] and wall == 9.0  # a fourth unit would end at 12
    _, values = workloads._measure_units(1.0, lambda: 0)
    assert len(values) == 1  # a unit longer than the target runs once
    _, values = workloads._measure_units(1.0, lambda: 0, at_least=4)
    assert len(values) == 4


def test_poisson_schedule_is_seed_deterministic():
    a = measure.poisson_schedule(7, 30.0, 500, 96)
    assert a == measure.poisson_schedule(7, 30.0, 500, 96)
    assert a != measure.poisson_schedule(8, 30.0, 500, 96)
    dues = [due for due, _ in a]
    assert dues == sorted(dues)
    assert all(0 <= kind < 96 for _, kind in a)
    assert 500 / dues[-1] == pytest.approx(30.0, rel=0.15)


# ----------------------------------------------------------------------
# Span attribution.
# ----------------------------------------------------------------------

#: root [0, 10] -> a [1, 4] -> a.inner [2, 3]; root -> b [5, 6]
NESTED = [
    ("pipeline.run", 0.0, 10.0, -1),
    ("detectors.lof", 1.0, 4.0, 0),
    ("neighbors.provider", 2.0, 3.0, 1),
    ("metrics.map", 5.0, 6.0, 0),
]


def test_self_time_subtracts_children():
    assert self_times(NESTED) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        ("serve.engine", 0.0, 10.0, -1),
        ("pipeline.run", 1.0, 5.0, 0),
        ("pipeline.run", 3.0, 7.0, 0),
        ("pipeline.run", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_counts_outermost_spans_of_a_key():
    spans = [
        ("subspaces.scorer", 0.0, 4.0, -1),
        ("subspaces.scorer", 1.0, 3.0, 0),
        ("detectors.lof", 1.5, 2.5, 1),
    ]
    table = aggregate(spans)
    assert table["subspaces"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert table["detectors"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_layer_report_leaves_the_rest_unattributed():
    rows, unattributed = layer_report(NESTED, 12.0)
    assert sum(row[3] for row in rows) == pytest.approx(10.0)
    assert unattributed == pytest.approx(2.0)
    assert [row[0] for row in rows][:2] == ["datasets", "detectors"]


def test_tracer_wraps_and_restores_layer_functions():
    import repro.metrics.evaluation as evaluation
    import repro.pipeline.pipeline as pipeline
    from repro.detectors.base import Detector

    original_eval = evaluation.evaluate_point_explanations
    original_score = Detector.__dict__["score"]
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.evaluate_point_explanations is not original_eval
        assert Detector.__dict__["score"] is not original_score
    finally:
        tracer.close()
    assert pipeline.evaluate_point_explanations is original_eval
    assert evaluation.evaluate_point_explanations is original_eval
    assert Detector.__dict__["score"] is original_score


# ----------------------------------------------------------------------
# Tiny-scale smokes of each workload.
# ----------------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "GT_SHAPES", (("breast", 5),))
    monkeypatch.setattr(workloads, "GT_DIMS", (2, 3))
    monkeypatch.setattr(
        workloads,
        "_grid_profile",
        lambda seed: workloads.get_profile("smoke").scaled(
            seed=seed,
            explanation_dims=(2,),
            backend="serial",
            iforest={"n_trees": 2, "n_repeats": 1},
        ),
    )
    monkeypatch.setattr(workloads, "SERVE_DATASETS", ("breast",))
    monkeypatch.setattr(workloads, "SERVE_DIMS", (2,))
    monkeypatch.setattr(workloads, "SERVE_RATE", 200.0)
    monkeypatch.setattr(workloads, "SERVE_OPEN_REQUESTS", 30)
    monkeypatch.setattr(workloads, "SERVE_MIN_ROUNDS", 1)
    workloads._reset_process_caches()
    yield
    workloads._reset_process_caches()


E2E = {"throughput_per_s", "latency_p50_ms", "latency_p99_ms", "setup_s"}


def _assert_e2e(outcome):
    """Checks pass; every timing is positive (``setup_s`` gains imports in the job)."""
    assert outcome.correct, outcome.checks
    assert outcome.failed == 0
    assert set(outcome.metrics) == E2E
    assert all(outcome.metrics[name][0] > 0 for name in E2E - {"setup_s"})


def test_grid_smoke_tiny(tiny):
    seed = 3
    golden = {"grid_smoke": {str(seed): workloads.grid_digest(workloads.grid_golden_cells(seed))}}
    outcome = workloads.grid_smoke(seed, 0.01, None, golden)
    _assert_e2e(outcome)
    assert outcome.attempted == workloads.GRID_CELLS
    again = workloads._grid_pass(workloads._grid_profile(seed))
    assert workloads.cells_digest(again) == outcome.digest


def test_cells_digest_covers_iforest_rankings(tiny):
    results = workloads._grid_pass(workloads._grid_profile(3))
    cell = next(r for r in results if r.detector == "iforest" and r.explanations)
    point, ranking = next(iter(cell.explanations.items()))
    before = workloads.cells_digest(results), workloads.grid_digest(results)
    cell.explanations[point] = type(ranking)(
        ranking.subspaces, tuple(v + 1.0 for v in ranking.scores)
    )
    assert workloads.cells_digest(results) != before[0]
    assert workloads.grid_digest(results) == before[1]  # LOF and Fast ABOD cells only


def test_dataset_build_tiny_and_traced(tiny):
    seed = 2
    _, digests, _ = workloads._gt_pass(seed)
    golden = {"dataset_build": {str(seed): digests}}
    outcome = workloads.dataset_build(seed, 0.01, None, golden)
    _assert_e2e(outcome)

    traced = workloads.dataset_build(seed, 0.01, Tracer(), golden)
    assert traced.correct, traced.checks
    metrics = {name: value for name, (value, _) in traced.metrics.items()}
    assert metrics["detectors.iforest.calls"] == 0
    assert metrics["detectors.lof.calls"] > 0
    assert metrics["datasets.ground_truth.subspaces"] == 10 + 10  # C(5,2) + C(5,3)
    assert metrics["explainers.beam.calls"] == 0


def test_golden_probe_is_used_for_an_unrecorded_seed(tiny):
    _, digests, _ = workloads._gt_pass(0)
    golden = {"dataset_build": {"0": digests}}
    outcome = workloads.dataset_build(5, 0.01, None, golden)
    assert any("probe seed 0" in detail for _, _, detail in outcome.checks)
    assert outcome.correct


def test_serve_warm_tiny_and_traced(tiny):
    outcome = workloads.serve_warm(4, 0.01, None, {})
    _assert_e2e(outcome)
    assert outcome.attempted == 24  # one round: 4 pipelines x 6 point subsets

    traced = workloads.serve_warm(4, 0.01, Tracer(), {})
    assert traced.correct, traced.checks
    assert traced.attempted == 30 + 24 + 24
    metrics = {name: value for name, (value, _) in traced.metrics.items()}
    assert metrics["detectors.lof.calls"] == 0
    assert metrics["serve.engine.evaluations"] == 0
    assert metrics["serve.engine.hit_rate"] == 1.0
    assert metrics["serve.open_p99_ms"] >= metrics["serve.open_p50_ms"] > 0
    assert metrics["explainers.beam.calls"] > 0


def test_serve_warm_fails_the_run_on_error_responses(tiny, monkeypatch):
    boot = workloads._Server.__init__

    def boot_then_break(self, seed):
        boot(self, seed)

        def explain_many(*args, **kwargs):
            raise RuntimeError("injected engine failure")

        self.server.engine.explain_many = explain_many

    monkeypatch.setattr(workloads._Server, "__init__", boot_then_break)
    outcome = workloads.serve_warm(4, 0.01, None, {})
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0
    failing = {name for name, ok, _ in outcome.checks if not ok}
    assert "serve: no response failed or missed its deadline" in failing
    assert "serve: every response byte-identical to a one-shot pipeline run" in failing


# ----------------------------------------------------------------------
# The command-line contract.
# ----------------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == E2E | {"peak_rss_mb"}
    tracer = Tracer()
    layer = set(workloads._layer_metrics(workloads.Outcome(), tracer, 1.0, 0.0))
    assert {m["name"] for m in spec["per_layer"]} == layer | {"failed_frac"}
