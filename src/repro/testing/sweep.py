"""Seeded chaos sweeps: many episodes, mixed adversity profiles.

One episode exercises one scenario; confidence comes from volume.  A
sweep generates ``episodes`` deterministic episodes from consecutive
seeds, alternating HA groups of one standby (primary-secondary) and two
(a group of three acknowledging at two), cycling through adversity *profiles*
(fault-heavy, crash-heavy, calm-with-mutations, everything-at-once), and
runs each through the full differential oracle.  The sweep is itself a
pure function of ``base_seed`` — CI failures replay locally bit-for-bit
via ``repro.cli chaos --seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.testing.episodes import Episode, generate_episode
from repro.testing.oracle import Violation
from repro.testing.runner import EpisodeResult, run_episode

__all__ = ["DEFAULT_PROFILES", "SweepReport", "run_sweep"]

#: Named adversity mixes; each episode takes the next one round-robin.
DEFAULT_PROFILES: tuple[dict, ...] = (
    {"name": "mixed", "fault_rate": 0.05, "crash_rate": 0.05},
    {"name": "faulty-storage", "fault_rate": 0.14, "crash_rate": 0.0},
    {"name": "crashy-proxy", "fault_rate": 0.0, "crash_rate": 0.2},
    {"name": "churn", "fault_rate": 0.08, "crash_rate": 0.06,
     "mutation_rate": 0.2, "standby_churn_rate": 0.12},
)


@dataclass(slots=True)
class SweepReport:
    """Aggregate outcome of one chaos sweep."""

    episodes: int = 0
    rounds_committed: int = 0
    failovers: int = 0
    aborted_attempts: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Failing episodes with their violations, in discovery order.
    failures: list[tuple[Episode, list[Violation]]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"episodes          : {self.episodes}",
            f"rounds committed  : {self.rounds_committed}",
            f"failovers         : {self.failovers}",
            f"aborted attempts  : {self.aborted_attempts}",
            f"faults injected   : "
            + (", ".join(f"{kind}={count}" for kind, count
                         in sorted(self.faults_injected.items())) or "none"),
            f"violations        : "
            + str(sum(len(v) for _, v in self.failures)),
        ]
        for episode, violations in self.failures[:5]:
            lines.append(f"  seed {episode.seed} "
                         f"(standbys={episode.standbys}): "
                         + "; ".join(str(v) for v in violations[:3]))
        return "\n".join(lines)


def _absorb(report: SweepReport, result: EpisodeResult) -> None:
    report.episodes += 1
    report.rounds_committed += result.rounds_committed
    report.failovers += result.failovers
    report.aborted_attempts += result.aborted_attempts
    for kind, count in result.faults_injected.items():
        report.faults_injected[kind] = \
            report.faults_injected.get(kind, 0) + count
    if not result.ok:
        report.failures.append((result.episode, result.violations))


def run_sweep(episodes: int = 100, base_seed: int = 0,
              steps: int = 16) -> SweepReport:
    """Run ``episodes`` seeded chaos episodes and aggregate the verdicts."""
    report = SweepReport()
    for index in range(episodes):
        profile = dict(DEFAULT_PROFILES[index % len(DEFAULT_PROFILES)])
        profile.pop("name", None)
        episode = generate_episode(
            seed=base_seed + index,
            standbys=1 + index % 2,
            steps=steps,
            **profile)
        _absorb(report, run_episode(episode))
    return report
