"""Tests for the structured tracing layer (spans, events, sinks)."""

import json
import math
import threading

from repro import obs
from repro.obs.trace import Tracer, jsonl_line


class TestTracer:
    def test_events_and_filtering(self):
        tracer = Tracer()
        tracer.event("storage.access", op="read", id="abc")
        tracer.event("ha.failover")
        tracer.close_span(tracer.open_span("round"), 0.5)
        assert len(tracer.events()) == 2
        assert len(tracer.events("ha.failover")) == 1
        assert len(tracer.spans()) == 1

    def test_sequence_numbers_are_monotone(self):
        tracer = Tracer()
        for _ in range(5):
            tracer.event("tick")
        assert [r["seq"] for r in tracer.records] == [0, 1, 2, 3, 4]

    def test_buffer_cap_drops_oldest(self):
        tracer = Tracer(max_records=10)
        for i in range(15):
            tracer.event("tick", i=i)
        assert len(tracer.records) <= 10
        assert tracer.dropped > 0
        # The newest record always survives.
        assert tracer.records[-1]["attrs"]["i"] == 14

    def test_jsonl_file_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        tracer.event("storage.access", op="write", id="x", round=3)
        tracer.close_span(tracer.open_span("round"), 0.01, system="waffle")
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["name"] == "storage.access"
        assert lines[1]["dur"] == 0.01

    def test_subscribe_and_unsubscribe(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.event("a")
        tracer.unsubscribe(seen.append)
        tracer.event("b")
        assert len(seen) == 1
        tracer.unsubscribe(seen.append)  # absent: no-op


class TestSpanTree:
    def test_open_close_assigns_parentage(self):
        tracer = Tracer()
        round_tok = tracer.open_span("round", root=True)
        plan_tok = tracer.open_span("phase.plan")
        tracer.close_span(plan_tok, 0.01)
        tracer.close_span(round_tok, 0.02)
        (plan,) = tracer.spans("phase.plan")
        (root,) = tracer.spans("round")
        assert plan["parent"] == root["span_id"] == round_tok
        assert root["parent"] is None

    def test_observe_span_parents_under_innermost_open(self):
        """``serve.round`` and ``net.request`` rely on this parentage."""
        with obs.capture() as handle:
            round_tok = handle.open_span("round", root=True)
            handle.observe_span("net.request", 0.005, command="MGET")
            handle.close_span(round_tok, 0.01)
            handle.observe_span("serve.round", 0.02)
        (request,) = handle.tracer.spans("net.request")
        (served,) = handle.tracer.spans("serve.round")
        assert request["parent"] == round_tok
        assert request["attrs"] == {"command": "MGET"}
        assert served["parent"] is None
        assert [r["span_id"] for r in handle.tracer.spans()] == \
            [round_tok + 1, round_tok, round_tok + 2]
        assert handle.registry.histogram("net.request.seconds").count == 1

    def test_close_pops_orphans_left_by_exceptions(self):
        tracer = Tracer()
        round_tok = tracer.open_span("round", root=True)
        tracer.open_span("phase.plan")  # never closed (exception path)
        tracer.close_span(round_tok, 0.02)
        (root,) = tracer.spans("round")
        assert root["parent"] is None
        # A following round is unaffected.
        second = tracer.open_span("round", root=True)
        tracer.close_span(second, 0.01)
        assert tracer.spans("round")[1]["parent"] is None

    def test_root_open_resets_a_corrupted_stack(self):
        tracer = Tracer()
        tracer.open_span("round")  # abandoned entirely
        round_tok = tracer.open_span("round", root=True)
        child = tracer.open_span("phase.plan")
        tracer.close_span(child, 0.01)
        tracer.close_span(round_tok, 0.02)
        (plan,) = tracer.spans("phase.plan")
        assert plan["parent"] == round_tok

    def test_span_ids_are_unique_across_records(self):
        tracer = Tracer()
        for _ in range(5):
            tok = tracer.open_span("round", root=True)
            tracer.close_span(tracer.open_span("leaf"), 0.001)
            tracer.close_span(tok, 0.002)
        ids = [r["span_id"] for r in tracer.spans()]
        assert len(ids) == len(set(ids)) == 10

    def test_stacks_are_thread_local(self):
        tracer = Tracer()
        main_tok = tracer.open_span("round", root=True)

        def other_thread():
            tok = tracer.open_span("round", root=True)
            tracer.close_span(tracer.open_span("leaf"), 0.001)
            tracer.close_span(tok, 0.002)

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        tracer.close_span(main_tok, 0.01)
        # The other thread's leaf parents under *its* round, and the
        # main thread's round still closes at the root.
        leaf = next(r for r in tracer.spans("leaf"))
        other_round = next(r for r in tracer.spans("round")
                           if r["span_id"] != main_tok)
        assert leaf["parent"] == other_round["span_id"]
        main_round = next(r for r in tracer.spans("round")
                          if r["span_id"] == main_tok)
        assert main_round["parent"] is None


class TestJsonlEncoding:
    def test_non_finite_floats_encode_as_strings(self):
        line = jsonl_line({"kind": "event", "attrs": {
            "rate": math.inf, "drop": -math.inf, "skew": math.nan,
            "nested": [1.0, math.inf], "ok": 0.5}})
        parsed = json.loads(line)  # must not raise
        assert parsed["attrs"]["rate"] == "+Inf"
        assert parsed["attrs"]["drop"] == "-Inf"
        assert parsed["attrs"]["skew"] == "NaN"
        assert parsed["attrs"]["nested"] == [1.0, "+Inf"]
        assert parsed["attrs"]["ok"] == 0.5
        assert "Infinity" not in line

    def test_file_sink_round_trips_inf(self, tmp_path):
        """A zero-width throughput window observes ``inf``; the streamed
        trace must still parse line by line."""
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(path))
        try:
            obs.OBS.event("throughput.window", ops_per_second=math.inf)
        finally:
            obs.disable()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["attrs"]["ops_per_second"] == "+Inf"


class TestObservabilityHandle:
    def test_disabled_helpers_record_nothing(self):
        obs.enable()  # reset to fresh registry/tracer...
        obs.disable()  # ...then switch off
        obs.OBS.event("storage.access", op="read")
        obs.OBS.observe_span("round", 0.5)
        assert len(obs.OBS.tracer.records) == 0
        assert len(obs.OBS.registry) == 0

    def test_capture_enables_and_disables(self):
        obs.disable()
        with obs.capture() as handle:
            assert handle is obs.OBS
            assert handle.enabled
            handle.observe_span("round", 0.001, system="waffle")
            handle.observe_span("phase.plan", 0.002,
                                labels={"system": "waffle"})
        assert not obs.OBS.enabled
        assert len(obs.OBS.tracer.spans("round")) == 1
        hist = obs.OBS.registry.histogram("phase.plan.seconds",
                                          system="waffle")
        assert hist.count == 1
