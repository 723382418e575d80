"""Tests for YCSB workload D (read-latest + inserts)."""

from collections import Counter

import pytest

from repro.analysis import Adversary
from repro.bench.ablations import check_workload_d
from repro.bench.ablations import workload_d as run_workload_d
from repro.bench.harness import run_waffle
from repro.core.config import WaffleConfig
from repro.errors import ConfigurationError
from repro.sim.costmodel import CostModel
from repro.workloads import Operation, workload_d
from repro.workloads.ycsb import key_name


class TestLatestWorkload:
    def test_mix_is_95_5(self):
        workload = workload_d(500, seed=3, value_size=64)
        ops = Counter(req.op for req in workload.requests(4000))
        assert ops[Operation.READ] / 4000 == pytest.approx(0.95, abs=0.02)
        assert ops[Operation.INSERT] > 0

    def test_inserts_extend_keyspace_monotonically(self):
        workload = workload_d(100, seed=4, value_size=64)
        inserted = [req.key for req in workload.requests(2000)
                    if req.op is Operation.INSERT]
        assert inserted == sorted(inserted)
        assert inserted[0] == key_name(100)

    def test_reads_skew_to_latest(self):
        workload = workload_d(1000, seed=5, value_size=64)
        reads = [int(req.key[4:]) for req in workload.requests(8000)
                 if req.op is Operation.READ]
        newest_decile = sum(1 for idx in reads if idx >= 0.9 * 1000)
        assert newest_decile / len(reads) > 0.3

    def test_reads_always_hit_existing_records(self):
        workload = workload_d(50, seed=6, value_size=64)
        count = 50
        for req in workload.requests(3000):
            if req.op is Operation.INSERT:
                count += 1
            else:
                assert int(req.key[4:]) < count

    def test_invalid_read_proportion(self):
        from repro.workloads.ycsb import LatestWorkload
        with pytest.raises(ConfigurationError):
            LatestWorkload(10, read_proportion=1.5)


class TestWorkloadDAgainstWaffle:
    def test_insert_heavy_run_keeps_invariants(self):
        n = 300
        config = WaffleConfig(n=n, b=24, r=10, f_d=6, d=150, c=40,
                              value_size=128, seed=7)
        workload = workload_d(n, seed=8, value_size=100)
        items = dict(workload.initial_records())
        trace = workload.trace(1500)
        measurement, datastore = run_waffle(
            config, items, trace, CostModel(), record=True)
        assert measurement.extra["inserted"] > 0
        assert datastore.proxy.real_count == \
            n + measurement.extra["inserted"]
        Adversary().feed(datastore.recorder.records).check_lifecycle()
        # Inserted keys are readable.
        from repro.core.batch import ClientRequest
        inserted_key = key_name(n)  # the first insert
        response = datastore.execute_batch([
            ClientRequest(op=Operation.READ, key=inserted_key)])[0]
        assert response.value  # non-empty payload

    def test_spent_dummy_budget_drops_the_insert_and_its_key(self):
        """At N=128 the trace inserts more keys than D has dummies: the
        inserts past the budget are dropped, and so are the trace's later
        reads of those keys, which the proxy would refuse as unknown."""
        rows = run_workload_d(n=128, rounds=400)
        check_workload_d(rows)
        assert rows[1]["dummies_left"] == 0
