"""Tests for the span-tree profiler (build, render, snapshot, proxy)."""

import json

import pytest

from repro import obs
from repro.obs.profile import (
    ProfileNode,
    build_profile,
    profile_snapshot,
    render_profile,
)
from repro.obs.trace import Tracer


def _records_from(tracer):
    return tracer.records


class TestBuildProfile:
    def test_folds_nested_spans_by_tree_position(self):
        tracer = Tracer()
        for _ in range(3):
            round_tok = tracer.open_span("round", root=True)
            plan = tracer.open_span("phase.plan")
            tracer.close_span(tracer.open_span("kernel.batch"), 0.01)
            tracer.close_span(plan, 0.03)
            tracer.close_span(round_tok, 0.05)
        root = build_profile(_records_from(tracer))
        assert set(root.children) == {"round"}
        round_node = root.children["round"]
        assert round_node.count == 3
        assert round_node.total == pytest.approx(0.15)
        plan_node = round_node.children["phase.plan"]
        assert plan_node.count == 3
        batch_node = plan_node.children["kernel.batch"]
        assert batch_node.count == 3
        assert batch_node.total == pytest.approx(0.03)

    def test_same_name_at_different_positions_stays_separate(self):
        tracer = Tracer()
        round_tok = tracer.open_span("round", root=True)
        io = tracer.open_span("phase.server_io")
        tracer.close_span(io, 0.01)
        tracer.close_span(round_tok, 0.02)
        orphan = tracer.open_span("phase.server_io")  # top level
        tracer.close_span(orphan, 0.5)
        root = build_profile(_records_from(tracer))
        assert root.children["round"].children["phase.server_io"].total \
            == pytest.approx(0.01)
        assert root.children["phase.server_io"].total == pytest.approx(0.5)

    def test_missing_parent_treated_as_root_not_lost(self):
        records = [
            {"kind": "span", "name": "stranded", "dur": 0.2,
             "span_id": 7, "parent": 99, "attrs": {}},
        ]
        root = build_profile(records)
        assert root.children["stranded"].total == pytest.approx(0.2)

    def test_events_are_ignored(self):
        tracer = Tracer()
        tracer.event("storage.access", op="read")
        tracer.close_span(tracer.open_span("round"), 0.1)
        root = build_profile(_records_from(tracer))
        assert set(root.children) == {"round"}

    def test_node_to_dict_is_jsonable(self):
        node = ProfileNode("round")
        node.count = 2
        node.total = 0.5
        child = node.children["phase.plan"] = ProfileNode("phase.plan")
        child.count = 2
        child.total = 0.25
        out = json.loads(json.dumps(node.to_dict()))
        assert out["count"] == 2
        assert out["children"]["phase.plan"]["seconds"] == 0.25


class TestRenderAndSnapshot:
    def _traced_run(self):
        with obs.capture() as handle:
            round_tok = handle.open_span("round", root=True)
            plan = handle.open_span("phase.plan")
            handle.close_span(plan, 0.03, labels={"system": "waffle"})
            handle.close_span(round_tok, 0.05, labels={"system": "waffle"})
        return handle

    def test_render_contains_tree_and_phase_table(self):
        handle = self._traced_run()
        text = render_profile(handle.registry, handle.tracer.records)
        assert "round" in text
        assert "phase.plan" in text
        assert "per-phase latency" in text
        assert "p99" in text

    def test_render_without_spans_says_so(self):
        registry = obs.MetricsRegistry()
        text = render_profile(registry, [])
        assert "no span records" in text

    def test_snapshot_round_trips_through_json(self):
        handle = self._traced_run()
        snap = profile_snapshot(handle.registry, handle.tracer.records)
        restored = json.loads(json.dumps(snap))
        assert restored["schema"] == "repro.profile/2"
        assert restored["tree"]["round"]["children"]["phase.plan"]["count"] \
            == 1
        assert restored["phases"]["round"]["count"] == 1
        assert restored["phases"]["phase.plan"]["count"] == 1
        assert set(restored) == {"schema", "tree", "phases"}


class TestProxyIntegration:
    @pytest.fixture(scope="class")
    def traced_proxy_run(self):
        from repro.core.batch import ClientRequest, Operation
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain

        config = WaffleConfig.paper_defaults(n=128, seed=3)
        items = {f"user{i:04d}": b"v" * 32 for i in range(128)}
        with obs.capture() as handle:
            datastore = WaffleDatastore(config, items,
                                        keychain=KeyChain.from_seed(3))
            keys = sorted(items)
            for i in range(4):
                datastore.execute_batch([
                    ClientRequest(op=Operation.READ,
                                  key=keys[(i * 7 + j) % len(keys)])
                    for j in range(config.r)])
        return handle

    def test_phases_parent_under_round(self, traced_proxy_run):
        handle = traced_proxy_run
        round_ids = {r["span_id"] for r in handle.tracer.spans("round")}
        assert len(round_ids) == 4
        for phase, half in (("phase.plan", None), ("phase.server_io", None),
                            ("phase.decrypt", None), ("phase.decrypt", "write"),
                            ("phase.cache", None), ("phase.evict", None),
                            ("phase.derive", None), ("phase.seal", None)):
            spans = [span for span in handle.tracer.spans(phase)
                     if span["attrs"].get("half") == half]
            assert spans, f"no {phase} spans (half={half})"
            assert all(span["parent"] in round_ids for span in spans), phase

    def test_profile_tree_decomposes_round_time(self, traced_proxy_run):
        handle = traced_proxy_run
        root = build_profile(handle.tracer.records)
        round_node = root.children["round"]
        assert round_node.count == 4
        # Phase inclusive time is bounded by (and most of) the round.
        assert 0 < round_node.child_total <= round_node.total
        text = render_profile(handle.registry, handle.tracer.records)
        assert "phase.decrypt" in text
        assert "phase.decrypt[half=write]" in text
        assert "phase.server_io[dir=read]" in text
