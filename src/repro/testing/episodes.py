"""Randomized chaos episodes: generation, validation, serialization.

An :class:`Episode` is a fully explicit description of one chaos run —
the Waffle configuration, the HA group's standby count (one is
primary-secondary replication), the ordered list of client-level
operations (request batches, proxy crashes, standby failures, inserts,
deletes) and the :class:`~repro.testing.faults.FaultPlan` of storage
faults.  Episodes are:

* **deterministic** — the same episode always produces the same run,
  byte for byte (the proxy, the fault plan and the generator are all
  seeded);
* **serializable** — :meth:`Episode.to_json` /
  :meth:`Episode.from_json` round-trip through a plain-JSON reproducer
  file (``repro.cli chaos --replay``);
* **shrinkable** — operations and fault entries can be removed
  independently, and :meth:`Episode.validate` decides whether a mutated
  episode is still well-formed (the shrinker discards candidates that
  are not, e.g. a batch reading a key whose insert was shrunk away).

Validation mirrors the system's own rules: a key inserted via the
mutation path becomes readable only after the next executed batch (the
round that drains the mutation queue), a deleted key is never referenced
again, a crash discards mutations not yet made durable by a batch, and a
quorum group never falls below its batch-acknowledgement threshold.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import WaffleConfig
from repro.errors import ConfigurationError
from repro.testing.faults import FAULT_KINDS, FaultPlan
from repro.workloads.ycsb import key_name

__all__ = ["DEFAULT_CONFIG", "Episode", "generate_episode"]

#: The standard chaos configuration: small enough that hundreds of
#: episodes run in CI-budget time, large enough that every mechanism is
#: exercised (cache misses, fake-real selection pressure, dummy epochs)
#: and the standard regime ``C >= B - f_D + R`` holds so every round
#: moves exactly B objects each way.  β = 1 here, so the β check is
#: non-vacuous.
DEFAULT_CONFIG = {
    "n": 96, "b": 12, "r": 4, "f_d": 3, "d": 24, "c": 28, "value_size": 48,
}


@dataclass
class Episode:
    """One deterministic chaos scenario.

    ``ops`` entries are plain dicts (JSON-shaped):

    * ``{"type": "batch", "requests": [["read", key] | ["write", key, value], ...]}``
    * ``{"type": "crash"}`` — primary dies at a batch boundary; failover.
    * ``{"type": "fail_standby", "standby": i}`` (never below quorum)
    * ``{"type": "restore_standby", "standby": i}``
    * ``{"type": "insert", "key": k, "value": v}`` — mutation path
    * ``{"type": "delete", "key": k}`` — mutation path

    Write/insert values are ASCII strings (encoded at run time).
    """

    seed: int
    standbys: int = 1
    quorum: int | None = None
    config: dict = field(default_factory=lambda: dict(DEFAULT_CONFIG))
    ops: list[dict] = field(default_factory=list)
    faults: FaultPlan = field(default_factory=FaultPlan)
    max_attempts: int = 8

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def operation_count(self) -> int:
        """Client-level size: individual requests plus non-batch ops."""
        count = 0
        for op in self.ops:
            count += len(op["requests"]) if op["type"] == "batch" else 1
        return count

    @property
    def batch_count(self) -> int:
        return sum(1 for op in self.ops if op["type"] == "batch")

    def build_config(self) -> WaffleConfig:
        return WaffleConfig(seed=self.seed, **self.config)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> str | None:
        """Return a reason the episode is ill-formed, or None if valid.

        Simulates client-visible key liveness and group membership under
        the same rules the runner enforces, so the shrinker can discard
        mutated episodes that would fail for harness (not system)
        reasons.
        """
        cfg_n = self.config["n"]
        cfg_d = self.config["d"]
        live = {key_name(i) for i in range(cfg_n)}
        #: mutations enqueued but not yet made durable by a batch.
        pending_inserts: list[str] = []
        pending_deletes: list[str] = []
        dummies = cfg_d
        group = self.standbys + 1
        quorum = self.quorum if self.quorum is not None else group // 2 + 1
        alive = [True] * self.standbys

        for position, op in enumerate(self.ops):
            kind = op.get("type")
            where = f"op {position}"
            if kind == "batch":
                if not op["requests"]:
                    return f"{where}: empty batch"
                if len(op["requests"]) > self.config["r"]:
                    return f"{where}: batch exceeds R"
                for request in op["requests"]:
                    if request[0] not in ("read", "write"):
                        return f"{where}: unknown request {request[0]!r}"
                    if request[1] not in live:
                        return f"{where}: key {request[1]!r} not live"
                if 1 + sum(alive) < quorum:
                    return f"{where}: batch below quorum"
                # The batch drains the queue: pending mutations durable.
                live.update(pending_inserts)
                dummies -= len(pending_inserts)
                dummies += len(pending_deletes)
                pending_inserts.clear()
                pending_deletes.clear()
            elif kind == "crash":
                if sum(alive) < 1:
                    return f"{where}: no standby to promote"
                # Unacknowledged mutations survive only because the
                # runner (acting as the client) re-submits them; keys
                # stay pending either way.
            elif kind == "fail_standby":
                index = op["standby"]
                if not 0 <= index < self.standbys or not alive[index]:
                    return f"{where}: standby {index} not alive"
                alive[index] = False
                if 1 + sum(alive) < quorum:
                    return f"{where}: failure drops group below quorum"
            elif kind == "restore_standby":
                index = op["standby"]
                if not 0 <= index < self.standbys:
                    return f"{where}: no standby {index}"
                alive[index] = True
            elif kind == "insert":
                key = op["key"]
                if key in live or key in pending_inserts:
                    return f"{where}: insert of existing key {key!r}"
                if dummies - len(pending_inserts) <= 0:
                    return f"{where}: no dummy slot for insert"
                if len(op["value"].encode()) > self.config["value_size"] - 4:
                    return f"{where}: insert value too large"
                pending_inserts.append(key)
            elif kind == "delete":
                key = op["key"]
                if key not in live:
                    return f"{where}: delete of non-live key {key!r}"
                live.discard(key)
                pending_deletes.append(key)
            else:
                return f"{where}: unknown op type {kind!r}"
        return None

    # ------------------------------------------------------------------
    # serialization (the reproducer file format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "standbys": self.standbys,
            "quorum": self.quorum,
            "config": dict(self.config),
            "ops": [dict(op) for op in self.ops],
            "faults": {str(k): v for k, v in sorted(self.faults.faults.items())},
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Episode":
        return cls(
            seed=data["seed"],
            standbys=data.get("standbys", 1),
            quorum=data.get("quorum"),
            config=dict(data.get("config", DEFAULT_CONFIG)),
            ops=[dict(op) for op in data["ops"]],
            faults=FaultPlan(
                faults={int(k): v
                        for k, v in data.get("faults", {}).items()}),
            max_attempts=data.get("max_attempts", 8),
        )

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, text_or_path: str | Path) -> "Episode":
        if isinstance(text_or_path, Path) or \
                (isinstance(text_or_path, str) and "\n" not in text_or_path
                 and text_or_path.endswith(".json")):
            text = Path(text_or_path).read_text(encoding="utf-8")
        else:
            text = str(text_or_path)
        return cls.from_dict(json.loads(text))


def generate_episode(seed: int, standbys: int = 1,
                     steps: int = 16, fault_rate: float = 0.06,
                     crash_rate: float = 0.06, mutation_rate: float = 0.08,
                     standby_churn_rate: float = 0.06,
                     write_fraction: float = 0.45) -> Episode:
    """Sample one valid episode from a seed.

    ``steps`` counts *scheduling slots*: most become request batches, the
    rest crashes, standby churn or mutations according to the rates.
    Standby churn needs a group that can lose a standby and keep its
    quorum (``standbys > 1``); otherwise its slot falls through.  The
    generated episode always passes :meth:`Episode.validate`.
    """
    rng = random.Random(seed ^ 0x5EED_C4A0)
    config = dict(DEFAULT_CONFIG)
    episode = Episode(seed=seed, standbys=standbys, config=config, ops=[])

    live = [key_name(i) for i in range(config["n"])]
    pending_inserts: list[str] = []
    dummies = config["d"]
    alive = [True] * standbys
    quorum = (standbys + 1) // 2 + 1  # the group's majority default
    fresh_counter = 0
    value_counter = 0
    inserts_left = min(8, config["d"] // 3)
    deletes_left = min(8, config["n"] - config["c"] - config["b"])

    def make_batch() -> dict:
        nonlocal value_counter
        requests = []
        for _ in range(rng.randint(1, config["r"])):
            key = rng.choice(live)
            if rng.random() < write_fraction:
                value_counter += 1
                requests.append(["write", key, f"w{seed}-{value_counter}"])
            else:
                requests.append(["read", key])
        return {"type": "batch", "requests": requests}

    for step in range(steps):
        roll = rng.random()
        op: dict | None = None
        if step == 0 or step == steps - 1:
            op = None  # force a batch first (baseline) and last (drain)
        elif roll < crash_rate:
            if sum(alive) >= 1:
                op = {"type": "crash"}
        elif roll < crash_rate + standby_churn_rate and standbys >= quorum:
            # Only a group that can lose a standby and keep its quorum.
            dead = [i for i, ok in enumerate(alive) if not ok]
            can_fail = [i for i, ok in enumerate(alive)
                        if ok and 1 + sum(alive) - 1 >= quorum]
            if dead and rng.random() < 0.5:
                index = rng.choice(dead)
                alive[index] = True
                op = {"type": "restore_standby", "standby": index}
            elif can_fail:
                index = rng.choice(can_fail)
                alive[index] = False
                op = {"type": "fail_standby", "standby": index}
        elif roll < crash_rate + standby_churn_rate + mutation_rate:
            # At most one pending mutation of each kind keeps the drain
            # guarantees (and hence validation) simple.
            if rng.random() < 0.5 and inserts_left and not pending_inserts \
                    and dummies > 0:
                fresh_counter += 1
                key = f"chaos{seed}-{fresh_counter:04d}"
                value_counter += 1
                pending_inserts.append(key)
                dummies -= 1
                inserts_left -= 1
                op = {"type": "insert", "key": key,
                      "value": f"i{seed}-{value_counter}"}
            elif deletes_left and len(live) > config["c"] + config["b"]:
                key = live.pop(rng.randrange(len(live)))
                dummies += 1
                deletes_left -= 1
                op = {"type": "delete", "key": key}
        if op is None:
            op = make_batch()
            live.extend(pending_inserts)
            pending_inserts.clear()
        episode.ops.append(op)

    # Storage-fault horizon: 3 server ops per completed round, doubled
    # for retried attempts, plus slack so late faults still land.
    horizon = 6 * episode.batch_count + 8
    episode.faults = FaultPlan.generate(seed ^ 0xFA17, horizon,
                                        rate=fault_rate, kinds=FAULT_KINDS)
    episode.max_attempts = len(episode.faults) + 3

    reason = episode.validate()
    if reason is not None:  # pragma: no cover - generator invariant
        raise ConfigurationError(f"generated episode invalid: {reason}")
    return episode
