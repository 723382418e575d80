"""Chaos and timing conformance for the asyncio serving frontend.

The batch-level chaos harness (:mod:`repro.testing.runner`) drives one
scripted batch at a time; this module drives the *serving* path — an
:class:`~repro.serve.frontend.AsyncFrontend` fed by an open-loop arrival
stream, with the same :class:`~repro.testing.faults.FaultyStorage`
spliced between the proxy and the recorded server (one shared deploy
step, :func:`repro.testing.runner.deploy`) so connection drops, timeouts
and partial replies land mid-connection, while the round is in flight.

Recovery is the production shape and the batch harness's own step
(:func:`repro.testing.runner.retry_round`): the frontend's round
executor retries an injected fault by reconnecting the fault wrapper and
failing over to the HA standby snapshot (deterministic replay — the
aborted attempt is a byte prefix of the retry), runs the proxy's
``check_invariants()`` after every commit, and the same differential
oracle (:func:`repro.testing.runner.judge`) as the batch harness judges
the result:

* every response matches an insecure in-order model (read-your-writes
  in round order, durability across failovers);
* aborted attempts are exact replay prefixes of their commits;
* the collapsed trace keeps Waffle's B/B/B shape and α/β bounds;
* shed requests leave **no** storage-visible records at all.

:func:`live_timing_report` runs the real frontend on the real clock
under a flash-crowd arrival stream and scores each release policy with
the PR-7 timing attacks against ground-truth rates — producing the
``{"on_fill": ..., "fixed": ...}`` shape
:func:`repro.testing.oracle.check_timing_channel` judges.  The
fixed-interval policy commits to grid ticks, so its gap series is
constant and scores exactly 0.0.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.analysis.timing import detect_onset, load_inference_attack
from repro.analysis.adversary import Adversary
from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.datastore import pad_value, unpad_value
from repro.errors import BackendUnavailableError, OverloadedError
from repro.ha.replicated import ReplicatedProxy
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import make_policy
from repro.storage.recording import AccessRecord
from repro.testing.episodes import DEFAULT_CONFIG
from repro.testing.faults import FaultPlan
from repro.testing.oracle import Attempt, Violation
from repro.testing.runner import deploy, judge, retry_round
from repro.workloads.openloop import (
    Arrival,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name

__all__ = [
    "ServingEpisode",
    "ServingResult",
    "gap_ticks",
    "live_timing_report",
    "run_serving_episode",
    "run_serving_sweep",
]


@dataclass
class ServingEpisode:
    """One deterministic serving chaos scenario.

    The arrival stream, the fault plan, and the proxy are all seeded, so
    an episode replays bit-for-bit: arrivals enqueue in stream order
    (asyncio task creation order is deterministic), rounds partition the
    queue FIFO, and injected faults fire at fixed storage-op indices.
    """

    seed: int
    workload: str = "poisson"  # "poisson" | "flash_crowd"
    requests: int = 48
    rate: float = 1000.0
    policy: str = "on_fill"
    queue_cap: int = 4096
    fault_rate: float = 0.05
    write_fraction: float = 0.45
    config: dict = field(default_factory=lambda: dict(DEFAULT_CONFIG))
    max_attempts: int = 8

    def build_config(self) -> WaffleConfig:
        return WaffleConfig(seed=self.seed, **self.config)

    def build_arrivals(self) -> PoissonArrivals | FlashCrowdArrivals:
        """The episode's arrival stream (ops drawn from the same seed)."""
        n_keys = self.config["n"]
        read_fraction = 1.0 - self.write_fraction
        if self.workload == "poisson":
            return PoissonArrivals(self.rate, n_keys, seed=self.seed,
                                   read_fraction=read_fraction)
        if self.workload == "flash_crowd":
            duration = self.requests / self.rate
            return FlashCrowdArrivals(
                self.rate, n_keys, spike_factor=4.0,
                burst_start=duration * 0.4, burst_duration=duration * 0.3,
                hot_keys=max(1, n_keys // 16), seed=self.seed,
                read_fraction=read_fraction)
        raise ValueError(f"unknown serving workload {self.workload!r}")


@dataclass(slots=True)
class ServingResult:
    """Everything one serving chaos run produced, for oracles and reports."""

    episode: ServingEpisode
    violations: list[Violation] = field(default_factory=list)
    rounds_committed: int = 0
    aborted_attempts: int = 0
    failovers: int = 0
    shed: int = 0
    completed: int = 0
    attempts: list[Attempt] = field(default_factory=list)
    collapsed_records: list[AccessRecord] = field(default_factory=list)
    release_times: list[float] = field(default_factory=list)
    adversary: Adversary | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def reconnects(self) -> int:
        """Every failover re-opens the storage connection first."""
        return self.failovers


def run_serving_episode(episode: ServingEpisode) -> ServingResult:
    """Drive one open-loop arrival stream through a faulty serving stack."""
    result = ServingResult(episode=episode)
    cfg = episode.build_config()
    value_size = cfg.value_size

    # ---- deploy: proxy -> FaultyStorage -> recorder -> server -----------
    items = {key_name(i): f"serve-{episode.seed}-{i}".encode()
             for i in range(cfg.n)}
    deployment = deploy(cfg, episode.seed, items, FaultPlan.generate(
        episode.seed ^ 0x5E12FE, 6 * episode.requests + 8,
        rate=episode.fault_rate))
    baseline = deployment.baseline
    ha = ReplicatedProxy(deployment.proxy)
    batch_counter = 0

    def execute(requests: list[ClientRequest]) -> list[ClientResponse]:
        """One round through :func:`~repro.testing.runner.retry_round`.

        Runs on the frontend's round thread; rounds are strictly
        sequential, so the HA object and the baseline see ordered use.
        """
        nonlocal batch_counter
        batch_index = batch_counter
        batch_counter += 1
        prepared = [
            ClientRequest(op=req.op, key=req.key,
                          value=pad_value(req.value, value_size),
                          request_id=req.request_id)
            if req.value is not None else req
            for req in requests
        ]
        responses = retry_round(deployment, ha, result, prepared,
                                batch_index, episode.max_attempts)
        if responses is None:
            raise BackendUnavailableError(
                f"round {batch_index} still failing after "
                f"{episode.max_attempts} attempts")
        # Differential model, in round order (= admission order).
        by_id = {resp.request_id: resp for resp in responses}
        for request in requests:
            if request.op is Operation.WRITE:
                baseline.put(request.key, request.value)
                expected = request.value
            else:
                expected = baseline.get(request.key)
            got = unpad_value(by_id[request.request_id].value)
            if got != expected:
                result.violations.append(Violation(
                    "semantics",
                    f"round {batch_index} {request.op.value} of "
                    f"{request.key!r} returned {got!r}, expected "
                    f"{expected!r}"))
        return [
            ClientResponse(request_id=resp.request_id, key=resp.key,
                           value=unpad_value(resp.value))
            for resp in responses
        ]

    # ---- drive the open-loop stream through the frontend -----------------
    arrivals = episode.build_arrivals().generate(
        episode.requests / episode.rate * 4.0)[:episode.requests]

    async def drive() -> None:
        frontend = AsyncFrontend(
            execute=execute, r=cfg.r,
            policy=make_policy(episode.policy, cfg.r, max_wait_s=0.002),
            queue_cap=episode.queue_cap)

        async def one(arrival: Arrival) -> bytes:
            if arrival.op is Operation.WRITE:
                value = f"w-{arrival.key}-{arrival.at:.6f}".encode()
                return await frontend.put(arrival.key, value)
            return await frontend.get(arrival.key)

        # Tasks run their first step (through the synchronous enqueue) in
        # creation order at the next suspension point, and the round
        # thread starts only after that, so the pending queue holds the
        # whole stream in arrival order before rounds fire, however slow
        # the host; close() then drains any sub-R straggler tail that a
        # pure on-fill policy would otherwise hold forever.
        tasks = [asyncio.ensure_future(one(arrival)) for arrival in arrivals]
        await asyncio.sleep(0)
        await frontend.start()
        await frontend.close()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        result.release_times = list(frontend.release_times)
        for outcome in outcomes:
            if isinstance(outcome, OverloadedError):
                result.shed += 1
            elif isinstance(outcome, BaseException):
                result.violations.append(Violation(
                    "crash",
                    f"client saw non-injected "
                    f"{type(outcome).__name__}: {outcome}"))
            else:
                result.completed += 1

    asyncio.run(drive())

    # ---- judge -----------------------------------------------------------
    violations, result.collapsed_records, result.adversary = judge(
        deployment, result.attempts, cfg, ha.proxy.id_log)
    result.violations.extend(violations)
    return result


@dataclass(slots=True)
class ServingSweepReport:
    """Aggregate outcome of a serving chaos sweep."""

    episodes: int = 0
    rounds_committed: int = 0
    aborted_attempts: int = 0
    reconnects: int = 0
    shed: int = 0
    completed: int = 0
    failures: list[tuple[ServingEpisode, list[Violation]]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"serving episodes  : {self.episodes}",
            f"rounds committed  : {self.rounds_committed}",
            f"aborted attempts  : {self.aborted_attempts}",
            f"reconnects        : {self.reconnects}",
            f"requests completed: {self.completed} (+{self.shed} shed)",
            f"violations        : "
            + str(sum(len(v) for _, v in self.failures)),
        ]
        for episode, violations in self.failures[:5]:
            lines.append(f"  seed {episode.seed} ({episode.workload}/"
                         f"{episode.policy}): "
                         + "; ".join(str(v) for v in violations[:3]))
        return "\n".join(lines)


def run_serving_sweep(episodes: int = 12, base_seed: int = 0,
                      requests: int = 32,
                      fault_rate: float = 0.05) -> ServingSweepReport:
    """Run seeded serving episodes across workloads × policies.

    Fixed-interval is excluded here: it fires wall-clock-paced empty
    rounds, which belongs to the live timing check
    (:func:`live_timing_report`), not the deterministic oracle sweep.
    """
    workloads = ("poisson", "flash_crowd")
    policies = ("on_fill", "max_wait")
    report = ServingSweepReport()
    for index in range(episodes):
        episode = ServingEpisode(
            seed=base_seed + index,
            workload=workloads[index % len(workloads)],
            policy=policies[(index // len(workloads)) % len(policies)],
            requests=requests,
            fault_rate=fault_rate)
        result = run_serving_episode(episode)
        report.episodes += 1
        report.rounds_committed += result.rounds_committed
        report.aborted_attempts += result.aborted_attempts
        report.reconnects += result.reconnects
        report.shed += result.shed
        report.completed += result.completed
        if not result.ok:
            report.failures.append((episode, result.violations))
    return report


# ----------------------------------------------------------------------
# the live timing check
# ----------------------------------------------------------------------
def _score_live_policy(policy_name: str, *, seed: int, rate: float,
                       duration_s: float, interval_s: float,
                       r: int) -> dict:
    """Run the real frontend on the real clock and score its schedule."""
    workload = FlashCrowdArrivals(
        rate, 64, spike_factor=5.0, burst_start=duration_s * 0.4,
        burst_duration=duration_s * 0.3, hot_keys=4, seed=seed,
        read_fraction=1.0)
    arrivals = workload.generate(duration_s)

    def execute(requests: list[ClientRequest]) -> list[ClientResponse]:
        # The adversary scores *when* rounds fire, not what they carry;
        # a stand-in executor keeps the live run fast and jitter-free.
        return [ClientResponse(request_id=req.request_id, key=req.key,
                               value=b"") for req in requests]

    policy = make_policy(policy_name, r, max_wait_s=interval_s,
                         interval_s=interval_s)
    release_times: list[float] = []
    anchor = 0.0

    async def drive() -> None:
        nonlocal anchor
        frontend = AsyncFrontend(execute=execute, r=r, policy=policy)
        start = time.perf_counter()
        anchor = start
        await frontend.start()
        submitted = 0
        all_submitted = asyncio.Event()

        async def one(arrival: Arrival) -> bytes:
            nonlocal submitted
            await asyncio.sleep(max(0.0, arrival.at
                                    - (time.perf_counter() - start)))
            submitted += 1
            if submitted == len(arrivals):
                all_submitted.set()
            # The enqueue below happens in this same task step, before
            # any close() waiter woken by the event can run.
            return await frontend.get(arrival.key)

        tasks = [asyncio.ensure_future(one(arrival)) for arrival in arrivals]
        await all_submitted.wait()
        if frontend.policy.fires_empty:
            # Let the shaped schedule idle past the stream's end so the
            # adversary also sees the "quiet" regime.
            await asyncio.sleep(duration_s * 0.2)
        await frontend.close()  # drains any sub-R on-fill straggler tail
        await asyncio.gather(*tasks)
        release_times.extend(frontend.release_times)

    asyncio.run(drive())

    gaps = list(zip(release_times, release_times[1:]))
    true_rates = [workload.rate_at((a + b) / 2.0 - anchor) for a, b in gaps]
    attack = load_inference_attack(release_times, true_rates, r)
    report = {
        "policy": policy_name,
        "rounds": len(release_times),
        "leakage_score": attack["leakage_score"],
        "onset_gap": detect_onset(release_times),
        "seed": seed,
    }
    if policy.fires_empty:
        report["gap_ticks"] = gap_ticks(release_times, interval_s)
    return report


def gap_ticks(release_times: list[float], interval_s: float) -> list[float]:
    """Distinct gaps between committed release instants, in ticks.

    A grid policy commits to whole ticks: ``[1.0]``, plus 2.0, 3.0, ...
    only where the host stalled across a tick (the only way its score
    leaves 0.0).
    """
    return sorted({round((b - a) / interval_s, 6)
                   for a, b in zip(release_times, release_times[1:])})


def live_timing_report(seed: int = 0, *, rate: float = 600.0,
                       duration_s: float = 0.6,
                       interval_s: float = 0.025, r: int = 4) -> dict:
    """Score on-fill vs fixed-interval on the live (wall-clock) frontend.

    Returns the benchmark shape
    :func:`repro.testing.oracle.check_timing_channel` expects.  The
    schedule scored is the one each policy *committed to*: on-fill
    commits to "now" (workload-shaped, leaky), fixed-interval commits to
    grid ticks (constant gaps, leakage exactly 0.0 — sub-tick dispatch
    jitter is host noise below the adversary's sampling resolution; a
    host stall longer than a tick skips it and shows in ``gap_ticks``).
    """
    report = {
        "seed": seed,
        "on_fill": _score_live_policy("on_fill", seed=seed, rate=rate,
                                      duration_s=duration_s,
                                      interval_s=interval_s, r=r),
        "fixed": _score_live_policy("fixed_interval", seed=seed, rate=rate,
                                    duration_s=duration_s,
                                    interval_s=interval_s, r=r),
    }
    return report
