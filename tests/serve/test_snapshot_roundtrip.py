"""Engine snapshot/restore: the warm state a restarted worker recovers.

Two levels. The engine-level tests pin the snapshot format contract
(round trip, fingerprint poisoning, atomic writes). The server-level
drill is the satellite acceptance test: serve warm -> snapshot -> kill
the server -> boot a replacement from the snapshot -> every response is
byte-identical to the always-warm server's, with ``n_evaluations == 0``
proving the replacement recomputed nothing — under both the serial and
thread execution backends.
"""

import json
import os

import pytest

from repro.datasets import load_dataset
from repro.detectors import LOF
from repro.exceptions import ValidationError
from repro.serve.client import ServeClient
from repro.serve.engine import SNAPSHOT_VERSION, ExplainEngine
from repro.serve.protocol import encode_line
from repro.serve.server import ExplainServer, ServerConfig


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("hics_14")


def _warm_engine(dataset) -> ExplainEngine:
    engine = ExplainEngine()
    engine.register_dataset(dataset)
    scorer = engine.scorer_for(dataset, LOF(k=15))
    for subspace in ((0, 1), (2, 3), (1, 2, 3)):
        scorer.scores(subspace)
    return engine


class TestEngineRoundTrip:
    def test_snapshot_restore_preserves_vectors_bit_for_bit(self, dataset):
        source = _warm_engine(dataset)
        snapshot = source.snapshot()
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["kind"] == "engine_snapshot"

        restored = ExplainEngine()
        counts = restored.restore_snapshot(
            snapshot, resolver=lambda name: dataset
        )
        assert counts == {
            "datasets": 1, "entries": 1, "vectors": 3, "skipped": 0,
        }
        original = dict(
            source.scorer_for(dataset, LOF(k=15)).export_cache()
        )
        scorer = restored.scorer_for(dataset, LOF(k=15))
        for subspace, scores in scorer.export_cache():
            assert scores.tobytes() == original[subspace].tobytes()
        # Serving the same subspaces runs zero detector evaluations.
        for subspace in ((0, 1), (2, 3), (1, 2, 3)):
            scorer.scores(subspace)
        assert scorer.n_evaluations == 0

    def test_file_round_trip_is_atomic_and_json(self, dataset, tmp_path):
        path = tmp_path / "snapshots" / "worker-0.json"
        _warm_engine(dataset).save_snapshot(path)
        assert path.is_file()
        # No tmp litter: the unique tmp file was replaced, not abandoned.
        assert os.listdir(path.parent) == ["worker-0.json"]
        with open(path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        restored = ExplainEngine()
        counts = restored.restore_snapshot(path, resolver=lambda name: dataset)
        assert counts["vectors"] == 3
        assert on_disk["version"] == SNAPSHOT_VERSION

    def test_fingerprint_mismatch_poisons_the_name(self, dataset):
        snapshot = _warm_engine(dataset).snapshot()
        other = load_dataset("breast")  # resolves, but wrong fingerprint
        restored = ExplainEngine()
        counts = restored.restore_snapshot(snapshot, resolver=lambda name: other)
        assert counts["datasets"] == 0
        assert counts["entries"] == 0
        assert counts["vectors"] == 0
        assert counts["skipped"] == 2  # the dataset record and its entry
        assert restored.stats()["entries"] == 0

    def _assert_skipped_then_recomputed(self, dataset, snapshot, original):
        restored = ExplainEngine()
        counts = restored.restore_snapshot(snapshot, resolver=lambda name: dataset)
        assert counts == {"datasets": 1, "entries": 0, "vectors": 0, "skipped": 1}
        assert len(original) == 3
        scorer = restored.scorer_for(dataset, LOF(k=15))
        for subspace, scores in original.items():
            assert scorer.scores(subspace).tobytes() == scores.tobytes()
        assert scorer.n_evaluations == len(original)  # recomputed, not restored

    def test_entry_with_another_cache_key_is_skipped(self, dataset):
        source = _warm_engine(dataset)
        snapshot = source.snapshot()
        (entry,) = snapshot["entries"]
        assert entry["cache_key"] == repr(LOF(k=15).cache_key())
        entry["cache_key"] = repr(("lof", 99, ("k", 15)))
        original = dict(source.scorer_for(dataset, LOF(k=15)).export_cache())
        self._assert_skipped_then_recomputed(dataset, snapshot, original)

    def test_revision_bump_invalidates_stored_vectors(self, dataset, monkeypatch):
        # A snapshot written before a detector's algorithm changed: the
        # pickled detector unpickles with the live (bumped) revision, so
        # only the recorded key shows that its vectors are stale.
        source = _warm_engine(dataset)
        snapshot = json.loads(json.dumps(source.snapshot()))
        original = dict(source.scorer_for(dataset, LOF(k=15)).export_cache())
        monkeypatch.setattr(LOF, "revision", LOF.revision + 1)
        self._assert_skipped_then_recomputed(dataset, snapshot, original)

    def test_unresolvable_dataset_is_skipped(self, dataset):
        snapshot = _warm_engine(dataset).snapshot()

        def resolver(name):
            raise ValidationError(f"no such dataset {name}")

        restored = ExplainEngine()
        counts = restored.restore_snapshot(snapshot, resolver=resolver)
        assert counts["vectors"] == 0
        assert counts["skipped"] == 2

    def test_rejects_foreign_payloads(self, dataset):
        restored = ExplainEngine()
        with pytest.raises(ValidationError):
            restored.restore_snapshot({"version": 999, "kind": "engine_snapshot"})
        with pytest.raises(ValidationError):
            restored.restore_snapshot({"version": SNAPSHOT_VERSION, "kind": "other"})


REQUESTS = (
    ("beam+lof", None),
    ("refout+lof", None),
    ("lookout+lof", None),
)


def _fire(handle) -> tuple[list[bytes], dict]:
    wire = []
    with ServeClient(handle.host, handle.port, timeout=300.0) as client:
        for pipeline, points in REQUESTS:
            response = client.explain("hics_14", pipeline, 2, points=points)
            assert response["ok"], response
            wire.append(encode_line(response["result"]))
        stats = client.stats()
    return wire, stats


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_server_snapshot_kill_restore_round_trip(backend, tmp_path):
    snapshot_path = str(tmp_path / f"worker-0.{backend}.json")

    # Always-warm server: pays the cold searches, snapshots on stop.
    warm_server = ExplainServer(
        ServerConfig(
            port=0,
            profile="smoke",
            warm=("hics_14",),
            backend=backend,
            snapshot_path=snapshot_path,
        )
    )
    handle = warm_server.run_in_thread()
    try:
        warm_wire, warm_stats = _fire(handle)
    finally:
        handle.stop()  # the clean-stop path writes the final snapshot
    assert os.path.isfile(snapshot_path)
    assert warm_stats["engine"]["n_evaluations"] > 0  # it computed

    # Replacement server: no warm list — everything it knows comes from
    # the snapshot, restored before accepting connections.
    restored_server = ExplainServer(
        ServerConfig(
            port=0,
            profile="smoke",
            backend=backend,
            snapshot_path=snapshot_path,
        )
    )
    handle = restored_server.run_in_thread()
    try:
        restored_wire, restored_stats = _fire(handle)
    finally:
        handle.stop()

    assert restored_wire == warm_wire  # byte-identical across the restart
    engine = restored_stats["engine"]
    assert engine["restored_vectors"] > 0
    # The restored worker served every request from snapshot state: zero
    # detector evaluations — no cold recompute happened at all.
    assert engine["n_evaluations"] == 0
