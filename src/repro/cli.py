"""Command-line interface: regenerate any experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig2ab --n 4096 --rounds 40
    python -m repro.cli run table2
    python -m repro.cli run timing-attack --json
    python -m repro.cli bounds --n 1048576 --level high
    python -m repro.cli lint

``run`` executes one row of :data:`repro.bench.EXPERIMENTS` and prints
its rendered text — with no flags, exactly the file committed under
``benchmarks/results/``; ``bounds`` evaluates the Theorem 7.1/7.2
bounds for a preset without running anything; ``lint`` runs the oblint
static-analysis suite (DESIGN.md §9).

Exit codes are part of the CLI contract (scripts and CI dispatch on
them, and ``tests/test_cli.py`` pins them):

* ``0`` — success / clean,
* ``1`` — lint findings or a failed security audit,
* ``2`` — the chaos differential oracle found a violation,
* ``64`` — malformed command line (BSD ``EX_USAGE``), including
  parameters no Waffle configuration can take (a ``ConfigurationError``,
  reported on one stderr line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import NoReturn

from repro.bench import EXPERIMENTS
from repro.core.config import SecurityLevel, WaffleConfig
from repro.errors import ConfigurationError

__all__ = ["EXIT_CHAOS", "EXIT_LINT", "EXIT_USAGE", "main"]

#: Lint findings (or failed audit) — "the code is wrong".
EXIT_LINT = 1
#: Chaos oracle violation — "the system misbehaved under faults".
EXIT_CHAOS = 2
#: Malformed command line (BSD sysexits.h EX_USAGE).
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with :data:`EXIT_USAGE` on bad usage.

    argparse's default exit code for usage errors is 2, which would
    collide with :data:`EXIT_CHAOS`; subparsers inherit this class via
    ``parser_class`` so ``repro chaos --bogus`` also exits 64.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type of ``--n`` and ``--rounds``."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro", description="Waffle reproduction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=list(EXPERIMENTS))
    run.add_argument("--n", type=_positive_int, default=None,
                     help="scaled database size (default: the committed "
                          "figure's; ignored by rows that take none)")
    run.add_argument("--rounds", type=_positive_int, default=None,
                     help="batch rounds per data point (likewise)")
    run.add_argument("--json", action="store_true",
                     help="emit the raw result as JSON instead of the "
                          "rendered text")

    bounds = sub.add_parser("bounds", help="evaluate Theorem 7.1/7.2 bounds")
    bounds.add_argument("--n", type=_positive_int, default=10**6)
    bounds.add_argument("--level", choices=[l.value for l in SecurityLevel],
                        default=None,
                        help="Table 2 preset (default: §8.2 defaults)")

    audit = sub.add_parser(
        "audit", help="run a workload and emit a security audit report")
    audit.add_argument("--n", type=_positive_int, default=2048)
    audit.add_argument("--rounds", type=_positive_int, default=200)
    audit.add_argument("--uniform", action="store_true",
                       help="uniform instead of Zipf-0.99 input")

    obs_p = sub.add_parser(
        "obs", help="run an instrumented workload and render the live "
                    "observability dashboard")
    obs_p.add_argument("--n", type=_positive_int, default=1024)
    obs_p.add_argument("--rounds", type=_positive_int, default=50)
    obs_p.add_argument("--window", type=int, default=10,
                       help="rounds per window of the alpha-budget panel")
    obs_p.add_argument("--trace-out", default=None,
                       help="stream the JSONL trace to this file")
    obs_p.add_argument("--prom-out", default=None,
                       help="write a Prometheus text snapshot to this file")
    obs_p.add_argument("--profile", action="store_true",
                       help="render the span-tree profile (per-phase "
                            "time decomposition)")
    obs_p.add_argument("--profile-out", default=None, metavar="PATH",
                       help="write the profile snapshot as JSON to PATH")

    chaos = sub.add_parser(
        "chaos", help="run seeded chaos episodes through the differential "
                      "oracle (fault injection + HA failover)")
    chaos.add_argument("--episodes", type=_positive_int, default=100,
                       help="number of episodes to sweep (default 100)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; episode i uses seed + i")
    chaos.add_argument("--steps", type=_positive_int, default=16,
                       help="scheduling slots per episode")
    chaos.add_argument("--json", action="store_true",
                       help="emit the sweep report as JSON")
    chaos.add_argument("--save-failure", default=None, metavar="PATH",
                       help="write the first failing episode (shrunk unless "
                            "--no-shrink) as a JSON reproducer")
    chaos.add_argument("--replay", default=None, metavar="PATH",
                       help="run one episode from a reproducer file instead "
                            "of sweeping")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip minimizing failing episodes")

    serve = sub.add_parser(
        "serve", help="run the asyncio round-coalescing server "
                      "(repro.serve) over TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = pick a free port)")
    serve.add_argument("--n", type=_positive_int, default=1024,
                       help="database size")
    serve.add_argument("--seed", type=int, default=1,
                       help="seed of the dataset and the --demo-load "
                            "client (the proxy's coin flips come from "
                            "its fresh keychain)")
    serve.add_argument("--policy",
                       choices=["on-fill", "max-wait", "fixed-interval"],
                       default="max-wait",
                       help="round-release policy (DESIGN.md §13)")
    serve.add_argument("--max-wait", type=float, default=0.01,
                       help="max-wait straggler deadline in seconds")
    serve.add_argument("--interval", type=float, default=0.02,
                       help="fixed-interval period in seconds")
    serve.add_argument("--queue-cap", type=int, default=1024,
                       help="admission cap on pending requests "
                            "(past it requests are shed as Overloaded)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds then exit "
                            "(default 0 = until interrupted)")
    serve.add_argument("--demo-load", type=float, default=0.0,
                       metavar="RATE",
                       help="drive a seeded Poisson client load at RATE "
                            "req/s against the server for --duration")
    serve.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write final serving stats as JSON to PATH")

    lint = sub.add_parser(
        "lint", help="run the oblint static-analysis suite (DESIGN.md §9)")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of text")
    lint.add_argument("--report-out", default=None, metavar="PATH",
                      help="additionally write the JSON report to PATH "
                           "(CI uploads this as an artifact)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list every rule and exit")
    return parser


def _run_experiment(args: argparse.Namespace) -> int:
    experiment = EXPERIMENTS[args.experiment]
    params = experiment.parameters(n=args.n, rounds=args.rounds)
    result = experiment.run(**params)
    if args.json:
        print(json.dumps(result, indent=2, default=dataclasses.asdict))
    else:
        print(experiment.render(result, params))
    return 0


def _show_bounds(args: argparse.Namespace) -> int:
    if args.level is None:
        config = WaffleConfig.paper_defaults(n=args.n)
        name = "paper defaults (§8.2)"
    else:
        config = WaffleConfig.security_preset(SecurityLevel(args.level),
                                              n=args.n)
        name = f"Table 2 '{args.level}' preset"
    print(f"{name} at N={args.n}:")
    print(f"  B={config.b} R={config.r} f_D={config.f_d} "
          f"C={config.c} D={config.d}")
    print(f"  alpha (Theorem 7.1)        : {config.alpha_bound()}")
    print(f"  alpha (implementation)     : {config.alpha_bound_effective()}")
    print(f"  beta  (Theorem 7.2)        : {config.beta_bound()}")
    print(f"  security score beta/alpha  : {config.security_score():.4f}")
    print(f"  bandwidth overhead         : {config.bandwidth_overhead():.2f}x")
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    from repro.analysis.report import security_audit
    from repro.bench.harness import run_waffle
    from repro.sim.costmodel import CostModel
    from repro.workloads.ycsb import YcsbWorkload

    config = WaffleConfig.paper_defaults(n=args.n, seed=1)
    workload = YcsbWorkload(args.n, read_proportion=0.5,
                            uniform=args.uniform, theta=0.99,
                            value_size=256, seed=2)
    items = dict(workload.initial_records())
    trace = workload.trace(config.r * args.rounds)
    _, datastore = run_waffle(config, items, trace, CostModel(),
                              record=True, log_ids=True)
    result = security_audit(datastore)
    print(result.markdown)
    return 0 if result.passed else 1


def _run_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.adversary import Adversary
    from repro.core.batch import ClientRequest
    from repro.core.datastore import WaffleDatastore
    from repro.crypto.keys import KeyChain
    from repro.obs.dashboard import render_dashboard
    from repro.obs.export import write_prometheus
    from repro.workloads.ycsb import YcsbWorkload

    config = WaffleConfig.paper_defaults(n=args.n, seed=1)
    handle = obs.enable(trace_path=args.trace_out)
    # Attached before the datastore is built so initialization writes
    # stream into the adversary — otherwise every steady-state read would
    # look like a read of an unobserved id.
    adversary = Adversary(alpha_budget=config.alpha_bound_effective(),
                          window_rounds=args.window)
    adversary.attach(handle.tracer)

    workload = YcsbWorkload(args.n, read_proportion=0.5, theta=0.99,
                            value_size=128, seed=2)
    items = dict(workload.initial_records())
    datastore = WaffleDatastore(config, items,
                                keychain=KeyChain.from_seed(1))
    trace = workload.trace(config.r * args.rounds)
    for i in range(args.rounds):
        chunk = trace[i * config.r:(i + 1) * config.r]
        datastore.execute_batch([
            ClientRequest(op=req.op, key=req.key, value=req.value)
            for req in chunk])

    print(render_dashboard(handle.registry, adversary=adversary))
    if args.profile:
        from repro.obs.profile import render_profile

        print(render_profile(handle.registry, handle.tracer.records))
    if args.profile_out:
        from repro.obs.profile import profile_snapshot

        with open(args.profile_out, "w", encoding="utf-8") as out:
            json.dump(profile_snapshot(handle.registry,
                                       handle.tracer.records), out, indent=2)
        print(f"profile snapshot -> {args.profile_out}")
    if args.prom_out:
        write_prometheus(handle.registry, args.prom_out)
        print(f"prometheus snapshot -> {args.prom_out}")
    if args.trace_out:
        handle.tracer.flush()
        print(f"trace jsonl -> {args.trace_out}")
    obs.disable()
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.testing import (
        Episode,
        run_episode,
        run_sweep,
        shrink_episode,
    )

    if args.replay is not None:
        episode = Episode.from_json(Path(args.replay))
        result = run_episode(episode)
        if args.json:
            print(json.dumps({
                "ok": result.ok,
                "rounds_committed": result.rounds_committed,
                "failovers": result.failovers,
                "aborted_attempts": result.aborted_attempts,
                "violations": [vars(v) for v in result.violations],
            }, indent=2))
        else:
            print(f"episode seed {episode.seed} "
                  f"(standbys={episode.standbys}): "
                  + ("OK" if result.ok else "FAILED"))
            for violation in result.violations:
                print(f"  {violation}")
        return 0 if result.ok else EXIT_CHAOS

    report = run_sweep(episodes=args.episodes, base_seed=args.seed,
                       steps=args.steps)
    if args.json:
        print(json.dumps({
            "episodes": report.episodes,
            "rounds_committed": report.rounds_committed,
            "failovers": report.failovers,
            "aborted_attempts": report.aborted_attempts,
            "faults_injected": report.faults_injected,
            "failures": [
                {"seed": episode.seed, "standbys": episode.standbys,
                 "violations": [vars(v) for v in violations]}
                for episode, violations in report.failures
            ],
        }, indent=2))
    else:
        print(report.describe())
    if report.ok:
        return 0
    episode, _ = report.failures[0]
    if not args.no_shrink:
        shrunk = shrink_episode(
            episode, lambda e: not run_episode(e).ok)
        episode = shrunk.episode
        print(f"first failure shrunk: {shrunk.initial_size} -> "
              f"{shrunk.final_size} operations "
              f"({shrunk.evaluations} evaluations)")
    if args.save_failure:
        episode.to_json(args.save_failure)
        print(f"reproducer -> {args.save_failure}")
    return EXIT_CHAOS


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.datastore import WaffleDatastore
    from repro.errors import OverloadedError
    from repro.serve import AsyncFrontend, AsyncServeClient, ServeServer
    from repro.serve.policy import make_policy
    from repro.workloads.openloop import Arrival, PoissonArrivals
    from repro.workloads.trace import Operation
    from repro.workloads.ycsb import YcsbWorkload

    if args.demo_load > 0 and args.duration <= 0:
        print("--demo-load requires a positive --duration", file=sys.stderr)
        return EXIT_USAGE

    config = WaffleConfig.paper_defaults(n=args.n, seed=args.seed)
    workload = YcsbWorkload(args.n, read_proportion=0.5, theta=0.99,
                            value_size=128, seed=args.seed)
    datastore = WaffleDatastore(config, dict(workload.initial_records()),
                                record=False)
    frontend = AsyncFrontend(
        datastore,
        policy=make_policy(args.policy, config.r, max_wait_s=args.max_wait,
                           interval_s=args.interval),
        queue_cap=args.queue_cap)

    async def demo_client(host: str, port: int) -> dict:
        stream = PoissonArrivals(args.demo_load, args.n, seed=args.seed)
        arrivals = stream.generate(args.duration)
        workers = 8
        shares = [arrivals[i::workers] for i in range(workers)]
        counts = {"completed": 0, "shed": 0}

        async def worker(share: list[Arrival]) -> None:
            async with AsyncServeClient(host, port) as client:
                for arrival in share:
                    try:
                        if arrival.op is Operation.WRITE:
                            await client.put(arrival.key, b"demo-write")
                        else:
                            await client.get(arrival.key)
                    except OverloadedError:
                        counts["shed"] += 1
                    else:
                        counts["completed"] += 1

        await asyncio.gather(*(worker(share) for share in shares))
        return counts

    async def run_server() -> dict:
        async with ServeServer(frontend, args.host, args.port) as server:
            host, port = server.address
            print(f"serving on {host}:{port} "
                  f"(policy {args.policy.replace('-', '_')}, R={config.r}, "
                  f"queue cap {args.queue_cap})")
            demo: dict = {}
            if args.demo_load > 0:
                demo = await demo_client(host, port)
            elif args.duration > 0:
                await asyncio.sleep(args.duration)
            else:  # pragma: no cover - interactive path
                try:
                    while True:
                        await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
            stats = frontend.stats()
            stats["connections_total"] = server.connections_total
            stats.update(demo)
            return stats

    try:
        stats = asyncio.run(run_server())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        stats = frontend.stats()
        print()
    for key, value in stats.items():
        print(f"  {key:18s}: {value}")
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")
        print(f"stats -> {args.stats_json}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import default_rules, run_lint

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.severity:7s} {rule.name}: "
                  f"{rule.description}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"lint: no such file or directory: {path}", file=sys.stderr)
        return EXIT_USAGE
    report = run_lint(args.paths)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    return 0 if report.ok else EXIT_LINT


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name, experiment in EXPERIMENTS.items():
                print(f"{name:22s} {experiment.paper.splitlines()[0]}")
            return 0
        if args.command == "run":
            return _run_experiment(args)
        if args.command == "audit":
            return _run_audit(args)
        if args.command == "obs":
            return _run_obs(args)
        if args.command == "chaos":
            return _run_chaos(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "lint":
            return _run_lint(args)
        return _show_bounds(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
