"""Cross-process telemetry: worker deltas, piggyback transport, lifecycle.

Covers the PR-7 tentpole end to end: pool workers accumulate metric and
span deltas in a local :class:`TelemetryBuffer`, ship them piggybacked
on response frames, and the coordinator merges them under
``worker``-labelled ``parallel.worker.*`` names with worker-side spans
hung beneath the coordinator-side chunk spans.  Also pins the OBS
lifecycle across the pool: workers force their inherited handle off
without clobbering the coordinator's registry or tracer, and telemetry
survives a detach/re-attach cycle.
"""

import json

import pytest

from repro import obs
from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.obs.delta import (
    TelemetryBuffer,
    decode_delta,
    encode_delta,
    merge_delta,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel import PooledCipher, PooledPrf, WorkerPool
from repro.parallel.worker import init_worker
from repro.testing.identity import assert_trace_identical, seeded_run


@pytest.fixture
def pool():
    with WorkerPool(2, min_batch=1) as p:
        yield p


def _pooled_derive(pool, items=64):
    chain = KeyChain.from_seed(5)
    prf = PooledPrf(chain.prf, pool)
    return prf.derive_many([(f"key{i:04d}", i) for i in range(items)])


class TestTelemetryBuffer:
    def test_accumulates_and_drains(self):
        buf = TelemetryBuffer()
        assert not buf
        buf.inc("parallel.worker.chunks.total", 1, kind="derive")
        buf.inc("parallel.worker.chunks.total", 1, kind="derive")
        buf.observe("parallel.worker.chunk.seconds", 0.001, kind="derive")
        buf.span("parallel.worker.chunk", 0.001, kind="derive", items=4)
        assert buf
        delta = buf.drain()
        assert delta["counters"] == [
            ["parallel.worker.chunks.total", {"kind": "derive"}, 2]]
        assert delta["observations"] == [
            ["parallel.worker.chunk.seconds", {"kind": "derive"}, [0.001]]]
        assert delta["spans"] == [
            ["parallel.worker.chunk", 0.001, {"kind": "derive", "items": 4}]]

    def test_drain_resets_for_exactly_once_shipping(self):
        buf = TelemetryBuffer()
        buf.inc("x", 3)
        buf.drain()
        assert not buf
        assert buf.drain() == {"counters": [], "observations": [],
                               "spans": []}

    def test_codec_round_trips(self):
        buf = TelemetryBuffer()
        buf.inc("c", 2, kind="encrypt")
        buf.observe("h", 0.5)
        frame = encode_delta(buf.drain(), "1234")
        decoded = decode_delta(frame)
        assert decoded["worker"] == "1234"
        assert decoded["counters"] == [["c", {"kind": "encrypt"}, 2]]
        assert decoded["observations"] == [["h", {}, [0.5]]]

    def test_merge_labels_metrics_with_worker_and_parents_spans(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        parent = tracer.record_span("parallel.chunk", 0.01, kind="derive")
        buf = TelemetryBuffer()
        buf.inc("parallel.worker.items.total", 7, kind="derive")
        buf.observe("parallel.worker.chunk.seconds", 0.002, kind="derive")
        buf.span("parallel.worker.chunk", 0.002, kind="derive", items=7)
        merge_delta(registry, tracer,
                    decode_delta(encode_delta(buf.drain(), "42")),
                    parent=parent)
        counter = registry.counter("parallel.worker.items.total",
                                   kind="derive", worker="42")
        assert counter.value == 7
        (span,) = tracer.spans("parallel.worker.chunk")
        assert span["parent"] == parent
        assert span["attrs"]["worker"] == "42"

    def test_merge_is_pure_increment(self):
        """Two deltas with the same labels accumulate — the property that
        makes a lost (killed-worker) delta an undercount, never a
        double count."""
        registry = MetricsRegistry()
        tracer = Tracer()
        for _ in range(2):
            buf = TelemetryBuffer()
            buf.inc("parallel.worker.chunks.total", 1, kind="derive")
            merge_delta(registry, tracer,
                        decode_delta(encode_delta(buf.drain(), "9")))
        assert registry.counter("parallel.worker.chunks.total",
                                kind="derive", worker="9").value == 2


class TestPooledTelemetry:
    def test_disabled_run_ships_no_telemetry(self, pool):
        obs.enable()  # reset to a fresh registry/tracer...
        obs.disable()  # ...then switch off
        _pooled_derive(pool)
        assert len(obs.OBS.registry) == 0
        assert obs.OBS.tracer.records == []

    def test_worker_metrics_merge_with_worker_labels(self, pool):
        with obs.capture() as handle:
            _pooled_derive(pool)
        merged = {
            name: dict(labels)
            for name, labels, _ in handle.registry
            if name.startswith("parallel.worker.")
        }
        assert merged, "no parallel.worker.* metrics arrived"
        names = set(merged)
        assert "parallel.worker.chunks.total" in names
        assert "parallel.worker.items.total" in names
        assert "parallel.worker.chunk.seconds" in names
        assert all("worker" in labels for labels in merged.values())
        # Every shipped item is accounted for exactly once.
        total_items = sum(
            metric.value for name, labels, metric in handle.registry
            if name == "parallel.worker.items.total")
        assert total_items == 64

    def test_worker_spans_parent_under_chunk_spans(self, pool):
        with obs.capture() as handle:
            _pooled_derive(pool)
        chunk_ids = {r["span_id"]
                     for r in handle.tracer.spans("parallel.chunk")}
        worker_spans = handle.tracer.spans("parallel.worker.chunk")
        assert worker_spans
        assert all(span["parent"] in chunk_ids for span in worker_spans)
        # One coordinator-side chunk span per worker-side chunk span:
        # deltas merged exactly once.
        assert len(worker_spans) == len(chunk_ids)
        chunks_counted = sum(
            metric.value for name, _, metric in handle.registry
            if name == "parallel.worker.chunks.total")
        assert chunks_counted == len(worker_spans)

    def test_observed_pooled_run_matches_unobserved_serial(self, pool):
        """Worker-telemetry neutrality: per-chunk deltas piggybacking on
        every response frame must leave the adversary trace and the
        responses byte-identical to a serial, observability-off run —
        and the telemetry must actually arrive, at least one
        worker-labelled chunk per round."""
        config = WaffleConfig(n=256, b=32, r=12, f_d=6, d=24, c=64,
                              value_size=512, seed=31)
        rounds = 6
        pooled = seeded_run(config, rounds, pool=pool)

        def run_observed():
            with obs.capture() as handle:
                digests = pooled()
                chunks = [(dict(labels).get("worker"), metric.value)
                          for name, labels, metric in handle.registry
                          if name == "parallel.worker.chunks.total"]
            assert sum(count for _, count in chunks) >= rounds
            assert all(worker for worker, _ in chunks)
            return digests

        assert_trace_identical(seeded_run(config, rounds), run_observed)

    def test_encrypt_and_decrypt_paths_ship_telemetry(self, pool):
        chain = KeyChain.from_seed(6)
        cipher = PooledCipher(chain.cipher, pool)
        with obs.capture() as handle:
            blobs = cipher.encrypt_many([b"v%03d" % i for i in range(48)])
            cipher.decrypt_many(blobs)
        kinds = {
            dict(labels).get("kind")
            for name, labels, _ in handle.registry
            if name == "parallel.worker.chunks.total"
        }
        assert kinds == {"encrypt", "decrypt"}

    def test_trace_jsonl_stays_valid_and_seq_monotone(self, pool, tmp_path):
        path = tmp_path / "pooled.jsonl"
        obs.enable(trace_path=str(path))
        try:
            _pooled_derive(pool)
        finally:
            obs.disable()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines
        seqs = [line["seq"] for line in lines]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert any(line.get("name") == "parallel.worker.chunk"
                   for line in lines)


class TestObsLifecycleAcrossPool:
    def test_init_worker_forces_off_without_clobbering_handles(self):
        """A forked worker inherits ``enabled=True``; init_worker must
        switch it off while leaving the registry and tracer objects —
        shared with the coordinator pre-fork — untouched."""
        obs.enable()
        registry = obs.OBS.registry
        tracer = obs.OBS.tracer
        registry.counter("pre.fork").inc()
        try:
            init_worker()
            assert obs.OBS.enabled is False
            assert obs.OBS.registry is registry
            assert obs.OBS.tracer is tracer
            assert registry.counter("pre.fork").value == 1
        finally:
            obs.disable()

    def test_detach_and_reattach_restores_telemetry(self, pool):
        from repro.parallel import attach_pool, detach_pool

        proxy = type("P", (), {})()
        proxy.keychain = KeyChain.from_seed(7)
        attach_pool(proxy, pool)
        detach_pool(proxy)
        # Detached: plain kernels, no pool traffic, no telemetry.
        with obs.capture() as handle:
            proxy.keychain.prf.derive_many([("k", 1)] * 8)
        assert not any(name.startswith("parallel.")
                       for name, _, _ in handle.registry)
        # Re-attached: telemetry flows again.
        attach_pool(proxy, pool)
        with obs.capture() as handle:
            proxy.keychain.prf.derive_many(
                [(f"k{i}", i) for i in range(32)])
        assert any(name == "parallel.worker.chunks.total"
                   for name, _, _ in handle.registry)

    def test_mid_run_enable_is_honored_per_dispatch(self, pool):
        """The telemetry flag is read from OBS.enabled at dispatch time,
        not frozen at pool construction."""
        obs.disable()
        _pooled_derive(pool)  # cold run, telemetry off
        with obs.capture() as handle:
            _pooled_derive(pool)  # same pool, telemetry on
        assert any(name == "parallel.worker.chunks.total"
                   for name, _, _ in handle.registry)
