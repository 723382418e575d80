"""End-to-end observability: instrumentation wiring and exporters.

Covers the per-round metrics and phase spans emitted by the Waffle
proxy, the net/closed-loop/HA instrumentation, the trace-
neutrality oracle across every system, and the exports (Prometheus
text, the streamed JSONL trace, terminal dashboard, span-tree profile)
through the CLI ``obs`` subcommand.
"""

import hashlib
import json
import random

from repro import obs
from repro.baselines.pancake.proxy import PancakeProxy
from repro.baselines.taostore import TaoStore
from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.obs.registry import MetricsRegistry
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.testing.identity import (
    assert_trace_identical,
    build_proxy,
    request_stream,
    seeded_run,
    trace_digest,
)
from repro.workloads.trace import Operation, TraceRequest


class TestProxyInstrumentation:
    def test_round_counters_match_proxy_totals(self):
        config = WaffleConfig.paper_defaults(n=256, seed=11)
        rounds = 5
        with obs.capture() as handle:
            proxy = build_proxy(config, KeyChain.from_seed(11))
            for batch in request_stream(config, rounds, 11):
                proxy.handle_batch(batch)
        snap = handle.registry.snapshot()
        counters = snap["counters"]
        w = "{system=waffle}"
        assert counters["rounds.total" + w] == rounds
        assert counters["requests.total" + w] == rounds * config.r
        # Every round reads exactly B ids, split real/fake-real/fake-dummy.
        assert counters["server.reads.total" + w] == rounds * config.b
        assert (counters["batch.real.total" + w]
                + counters["batch.fake_real.total" + w]
                + counters["batch.fake_dummy.total" + w]) == rounds * config.b
        assert counters["server.writes.total" + w] == rounds * config.b
        assert counters["rounds.total" + w] == proxy.totals.rounds

    def test_phase_spans_cover_every_round(self):
        config = WaffleConfig.paper_defaults(n=256, seed=11)
        rounds = 4
        with obs.capture() as handle:
            proxy = build_proxy(config, KeyChain.from_seed(11))
            for batch in request_stream(config, rounds, 11):
                proxy.handle_batch(batch)
        hists = handle.registry.snapshot()["histograms"]
        w = "{system=waffle}"
        assert hists["round.seconds" + w]["count"] == rounds
        for phase in ("plan", "decrypt", "cache", "evict", "derive", "seal"):
            assert hists[f"phase.{phase}.seconds" + w]["count"] == rounds
        for phase, label in (("server_io", "dir=read"),
                             ("server_io", "dir=write"),
                             ("decrypt", "half=write")):
            key = "phase.%s.seconds{%s,system=waffle}" % (phase, label)
            assert hists[key]["count"] == rounds
        # The trace stream carries the same spans with attributes.
        round_spans = handle.tracer.spans("round")
        assert len(round_spans) == rounds
        assert all(s["attrs"]["system"] == "waffle" for s in round_spans)
        assert all(s["attrs"]["requests"] == config.r for s in round_spans)

    def test_storage_access_events_stream(self):
        from repro.storage.recording import RecordingStore

        with obs.capture() as handle:
            store = RecordingStore(RedisSim())
            store.multi_put([("a", b"1")])
            store.multi_get(["a"])
            store.commit_round(["a"], ())
        events = handle.tracer.events("storage.access")
        assert [e["attrs"]["op"] for e in events] == \
            ["write", "read", "delete"]
        counters = handle.registry.snapshot()["counters"]
        assert counters["storage.accesses.total{op=read}"] == 1


def _neutrality_runs():
    """One fixed-seed run per system, each returning the
    ``(trace, responses)`` digests of its :class:`RecordingStore`."""
    n, rounds, seed = 64, 3, 5
    keys = [f"user{i:08d}" for i in range(n)]
    values = {key: b"v" * 32 for key in keys}

    def digests(store, replies):
        out = hashlib.sha256()
        for reply in replies:
            out.update(repr(reply).encode())
        return trace_digest(store.records), out.hexdigest()

    waffle = seeded_run(WaffleConfig.paper_defaults(n=n, seed=seed), rounds)

    def pancake():
        store = RecordingStore(RedisSim())
        proxy = PancakeProxy(keys, values, [1.0 / n] * n, store,
                             batch_size=32, keychain=KeyChain.from_seed(seed),
                             seed=seed)
        rng = random.Random(seed + 1)
        replies = []
        for _ in range(rounds):
            for _ in range(8):
                proxy.submit(TraceRequest(Operation.READ,
                                          keys[rng.randrange(n)]))
            replies.append(proxy.process_batch())
        return digests(store, replies)

    def taostore():
        store = RecordingStore(RedisSim())
        tao = TaoStore(values, store, keychain=KeyChain.from_seed(seed),
                       seed=seed)
        rng = random.Random(seed + 3)
        replies = []
        for _ in range(rounds * 4):
            tao.submit(TraceRequest(Operation.READ, keys[rng.randrange(n)]))
            replies.append(tao.drain())
        return digests(store, replies)

    return {"waffle": waffle, "pancake": pancake, "taostore": taostore}


class TestTraceNeutrality:
    def test_every_system_identical_with_obs_on(self):
        """Fixed-seed adversary-visible digests are byte-identical with
        observability fully enabled, for Waffle, Pancake and TaoStore:
        instrumentation that consumed rng draws or added or perturbed
        server accesses would show up here as a mismatch."""
        def observed(run):
            def wrapped():
                with obs.capture():
                    return run()
            return wrapped

        for system, run in _neutrality_runs().items():
            try:
                assert_trace_identical(run, observed(run))
            except AssertionError as exc:
                raise AssertionError(f"{system}: {exc}") from None
        assert not obs.OBS.enabled  # leaves observability off


class TestOtherLayers:
    def test_net_server_dispatch_metrics(self):
        from repro.net.server import StorageServer

        server = StorageServer()
        try:
            with obs.capture() as handle:
                server._dispatch(["DBSIZE"])
                assert server._dispatch(
                    ["COMMIT", [], ["k", "l"], [b"v", b"w"]]) == 2
                assert server._dispatch(
                    ["COMMIT", ["k"], ["m"], [b"x"]]) == 2
                assert server._dispatch(["MGET", "l", "m"]) == [b"w", b"x"]
            counters = handle.registry.snapshot()["counters"]
            assert counters["net.requests.total{command=DBSIZE}"] == 1
            assert counters["net.requests.total{command=COMMIT}"] == 2
            assert counters["net.requests.total{command=MGET}"] == 1
            # The RedisSim behind the server counts one command per id.
            redis = "storage.commands.total{backend=redis_sim,command=%s}"
            assert [counters[redis % name]
                    for name in ("SET", "DEL", "GET")] == [3, 1, 2]
            spans = handle.tracer.spans("net.request")
            # ``commands`` is the number of storage ids the request moved.
            assert [span["attrs"]["commands"] for span in spans] == \
                [1, 2, 2, 2]
        finally:
            server.stop()

    def test_ha_checkpoint_and_failover_metrics(self):
        from repro.core.batch import ClientRequest
        from repro.core.datastore import WaffleDatastore
        from repro.ha.replicated import ReplicatedProxy

        config = WaffleConfig.paper_defaults(n=128, seed=5)
        items = {f"user{i:08d}": b"value-%d" % i for i in range(config.n)}
        keys = list(items)
        batches = [[ClientRequest(Operation.WRITE, key, b"w-" + key.encode())
                    if i % 3 == 0 else ClientRequest(Operation.READ, key)
                    for i, key in enumerate(keys[round_::7][:config.r])]
                   for round_ in range(2)]
        for standbys in (1, 2):
            datastore = WaffleDatastore(config, items, record=False,
                                        keychain=KeyChain.from_seed(5))
            with obs.capture() as handle:
                ha = ReplicatedProxy(datastore, standbys=standbys)
                for batch in batches:
                    ha.execute_batch(batch)
                ha.fail_over()
            counters = handle.registry.snapshot()["counters"]
            assert counters["ha.snapshots.total"] == 2
            assert counters["ha.failovers.total"] == 1
            assert len(handle.tracer.spans("ha.checkpoint")) == 2
            assert len(handle.tracer.events("ha.failover")) == 1


class TestExporters:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests.total", system="waffle").inc(7)
        registry.gauge("cache.size").set(3)
        registry.histogram("round.seconds").observe(0.25)
        return registry

    def test_prometheus_rendering(self, tmp_path):
        from repro.obs.export import render_prometheus, write_prometheus

        registry = self._populated_registry()
        text = render_prometheus(registry)
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{system="waffle"} 7' in text
        assert "# TYPE cache_size gauge" in text
        assert "# TYPE round_seconds summary" in text
        assert 'round_seconds{quantile="0.5"} 0.25' in text
        assert "round_seconds_count 1" in text
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        assert path.read_text() == text

    def test_dashboard_renders_all_sections(self):
        from repro.analysis import Adversary
        from repro.obs.dashboard import render_dashboard

        config = WaffleConfig.paper_defaults(n=128, seed=3)
        with obs.capture() as handle:
            proxy = build_proxy(config, KeyChain.from_seed(3))
            for batch in request_stream(config, 3, 3):
                proxy.handle_batch(batch)
            adversary = Adversary(alpha_budget=50, window_rounds=2)
            text = render_dashboard(handle.registry, adversary=adversary)
        assert "waffle" in text
        assert "throughput / latency" in text
        assert "batch composition" in text
        assert "alpha-budget status" in text
        assert "OK" in text


class TestCli:
    def test_cli_obs_smoke(self, tmp_path, capsys):
        """The flags CI's observability smoke passes, with its artifacts
        checked the way a consumer reads them."""
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        profile = tmp_path / "profile.json"
        rc = main(["obs", "--n", "128", "--rounds", "4", "--window", "2",
                   "--profile", "--profile-out", str(profile),
                   "--trace-out", str(trace), "--prom-out", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro observability" in out
        assert "alpha-budget status" in out
        assert "span-tree profile" in out
        snapshot = json.loads(profile.read_text())
        assert snapshot["schema"] == "repro.profile/2"
        children = snapshot["tree"]["round"]["children"]
        assert children and all(name.startswith("phase.")
                                for name in children)
        types = [line.split()[3] for line in prom.read_text().splitlines()
                 if line.startswith("# TYPE")]
        assert types and set(types) <= {"counter", "gauge", "summary"}
        records = [json.loads(line) for line in trace.open()]
        assert records
        assert not obs.OBS.enabled

    def test_trace_out_replaces_an_earlier_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        argv = ["obs", "--n", "128", "--rounds", "2",
                "--trace-out", str(trace)]
        assert main(argv) == 0
        first = trace.read_text()
        assert main(argv) == 0
        assert trace.read_text().count("\n") == first.count("\n")
        records = [json.loads(line) for line in trace.open()]
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(set(seqs))
        span_ids = [r["span_id"] for r in records if r["kind"] == "span"]
        assert len(span_ids) == len(set(span_ids))
