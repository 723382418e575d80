"""The experiment table: every simulated-time figure is one row (DESIGN §3).

:data:`EXPERIMENTS` maps an id to an :class:`Experiment` — the function
that produces the rows (its docstring is the paper's claim), the text
committed under ``benchmarks/results/`` and the shape assertions that
text must satisfy.  ``repro.cli list`` / ``run``,
``benchmarks/bench_figures.py`` and DESIGN §3 all read that table; adding
an experiment is adding a row.  ``render`` and ``check`` sit next to their
``run``; the rows beyond the paper's figures live in
:mod:`repro.bench.ablations`.

Every ``run`` executes the real systems over generated workloads at a
scaled N (the paper's parameter *ratios* are preserved; see DESIGN.md §1).
Its keyword defaults *are* the committed figure's parameters, so calling
it bare regenerates the committed file.

Scaling convention: the paper's defaults are N=2^20, B=2500, R=40% of B,
f_D=20% of B, C=2% of N, D balancing the two α ratios.  ``default_config``
re-derives them for any N.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.analysis.attacks import (
    AttackResult,
    cooccurrence_attack,
    frequency_analysis_attack,
)
from repro.analysis.adversary import Adversary
from repro.analysis.histograms import histogram_difference, render_histogram
from repro.bench import ablations
from repro.bench.harness import (
    Measurement,
    run_insecure,
    run_pancake,
    run_taostore,
    run_waffle,
)
from repro.bench.reporting import format_series, format_table, titled_table
from repro.core.config import SecurityLevel, WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.sim.costmodel import CostModel
from repro.storage.recording import AccessRecord
from repro.workloads.correlated import ClickstreamModel, CorrelatedWorkload
from repro.workloads.ycsb import YcsbWorkload, key_name, workload_a, workload_c

__all__ = ["DEFAULT_N", "EXPERIMENTS", "Experiment", "default_config"]

#: Default scaled database size for the experiments (paper: 2^20).
DEFAULT_N = 2**14


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    #: Produces the result; its keyword defaults are the committed
    #: figure's parameters, ``run.__name__`` is the stem of the file under
    #: ``benchmarks/results/`` and its docstring is :attr:`paper`.
    run: Callable[..., Any]
    #: ``render(result, params)`` -> the committed text, ``params`` being
    #: :meth:`parameters` of the run that produced ``result``.
    render: Callable[[Any, dict], str]
    #: Shape assertions that hold at the committed size (the bench runs
    #: them; ``repro.cli run`` with overrides does not).
    check: Callable[[Any], None]

    @property
    def paper(self) -> str:
        """The paper's claim (for an ablation: what the run isolates);
        the first line is the title ``repro.cli list`` prints."""
        return inspect.cleandoc(self.run.__doc__)

    def parameters(self, **overrides: Any) -> dict:
        """``run``'s keyword defaults, with the overrides it accepts (one
        that is ``None`` or names no parameter of ``run`` is dropped)."""
        params = {name: parameter.default for name, parameter
                  in inspect.signature(self.run).parameters.items()}
        params.update((name, value) for name, value in overrides.items()
                      if name in params and value is not None)
        return params


def default_config(n: int = DEFAULT_N, seed: int = 7,
                   **overrides: Any) -> WaffleConfig:
    """The §8.2 default configuration scaled to ``n``."""
    config = WaffleConfig.paper_defaults(n=n, seed=seed)
    if overrides:
        config = replace(config, **overrides)
    return config


def _items(workload: YcsbWorkload) -> dict[str, bytes]:
    return dict(workload.initial_records())


def _rebalance(config: WaffleConfig, b: int | None = None, r: int | None = None,
               f_d: int | None = None, d: int | None = None) -> WaffleConfig:
    """Adjust parameters, keeping D balanced unless given explicitly."""
    b = b if b is not None else config.b
    r = r if r is not None else config.r
    f_d = f_d if f_d is not None else config.f_d
    if d is None:
        d = WaffleConfig._balanced_dummies(config.n, b, r, f_d)
    return replace(config, b=b, r=r, f_d=f_d, d=d)


def _perf(measurement: Measurement) -> dict:
    return {"throughput_ops": measurement.throughput_ops,
            "latency_ms": measurement.latency_s * 1e3}


def _pct(fraction: float) -> int:
    return round(100 * fraction)


def _sweep(n: int, rounds: int, seed: int, points: Iterable[Any],
           configure: Callable[[WaffleConfig, Any], WaffleConfig],
           cost: CostModel | None = None,
           ) -> Iterator[tuple[Any, WaffleConfig, Measurement]]:
    """One Waffle run on YCSB-A per point of a single-axis sweep.

    ``configure(base, point)`` turns the §8.2 defaults into the point's
    configuration; every point replays the same seeded workload for
    ``rounds`` full batches on a 4-core proxy.  Yields
    ``(point, config, measurement)``.
    """
    cost = cost if cost is not None else CostModel(cores=4)
    base = default_config(n, seed=seed)
    items = _items(workload_a(n, seed=seed, value_size=1000))
    for point in points:
        config = configure(base, point)
        trace = workload_a(n, seed=seed, value_size=1000).trace(
            config.r * rounds)
        measurement, _ = run_waffle(config, items, trace, cost)
        yield point, config, measurement


def _render_sweep(title: str, x: str) -> Callable[[list[dict], dict], str]:
    """The committed text of a sweep: its table, then throughput bars."""
    table = titled_table(title)

    def render(rows: list[dict], params: dict) -> str:
        return "\n".join([table(rows, params),
                          format_series(rows, x, "throughput_ops")])
    return render


# ----------------------------------------------------------------------
# Figure 2a/2b — Waffle vs insecure, Pancake, TaoStore
# ----------------------------------------------------------------------
def fig2ab_baselines(n: int = DEFAULT_N, rounds: int = 120,
                     cost: CostModel | None = None,
                     taostore_requests: int = 200, seed: int = 11) -> list[dict]:
    """Figure 2a/2b: Waffle vs insecure baseline, Pancake, TaoStore.

    Paper (N=2^20, single-core proxies, YCSB A & C, Zipf 0.99): insecure
    5.8-6.04x Waffle's throughput; Waffle 45.5-57.7% above Pancake and
    102x above TaoStore; latency insecure < Waffle (<1ms) < Pancake <
    TaoStore (~300ms).  Mirrors §8.1's setup: batch 2500-scaled; R = B/2
    (Pancake's effective real fraction); f_D = 20% of B; single-core
    proxies (the paper could not run the multi-core proxy here).
    """
    cost = cost if cost is not None else CostModel(cores=1)
    rows = []
    for name, factory in (("YCSB-A", workload_a), ("YCSB-C", workload_c)):
        workload = factory(n, seed=seed, value_size=1000)
        items = _items(workload)
        base = default_config(n, seed=seed)
        config = _rebalance(base, r=round(base.b / 2), f_d=round(0.2 * base.b))
        trace = workload.trace(config.r * rounds)

        waffle, _ = run_waffle(config, items, trace, cost)
        insecure = run_insecure(items, trace[: config.r * 10], cost)
        pi = workload._sampler.probabilities_by_index()
        keys = [key_name(i) for i in range(n)]
        pancake, _ = run_pancake(keys, items, pi,
                                 trace[: config.r * max(20, rounds // 4)],
                                 cost, batch_size=config.b, seed=seed)
        taostore, _ = run_taostore(items, trace[:taostore_requests], cost,
                                   seed=seed)
        for m in (insecure, waffle, pancake, taostore):
            rows.append({
                "workload": name, "system": m.system,
                "throughput_ops": m.throughput_ops,
                "latency_ms": m.latency_s * 1e3,
            })
    return rows


def _render_fig2ab(rows: list[dict], params: dict) -> str:
    by = {(row["workload"], row["system"]): row for row in rows}
    lines = [format_table(rows, title="Figure 2a/2b - baselines "
                                      f"(N={params['n']}, scaled)")]
    for workload in ("YCSB-A", "YCSB-C"):
        waffle = by[(workload, "waffle")]["throughput_ops"]
        lines.append(
            f"{workload}: insecure/waffle = "
            f"{by[(workload, 'insecure')]['throughput_ops'] / waffle:.2f} "
            "(paper 5.8-6.04) | waffle/pancake = "
            f"{waffle / by[(workload, 'pancake')]['throughput_ops']:.2f} "
            "(paper 1.455-1.577) | waffle/taostore = "
            f"{waffle / by[(workload, 'taostore')]['throughput_ops']:.0f} "
            "(paper 102)"
        )
    return "\n".join(lines)


def _check_fig2ab(rows: list[dict]) -> None:
    by = {(row["workload"], row["system"]): row for row in rows}
    for workload in ("YCSB-A", "YCSB-C"):
        waffle = by[(workload, "waffle")]
        assert by[(workload, "insecure")]["throughput_ops"] > \
            waffle["throughput_ops"]
        assert waffle["throughput_ops"] > \
            by[(workload, "pancake")]["throughput_ops"]
        assert waffle["throughput_ops"] > \
            50 * by[(workload, "taostore")]["throughput_ops"]
        assert by[(workload, "taostore")]["latency_ms"] > 100


# ----------------------------------------------------------------------
# Figure 2c — proxy cores
# ----------------------------------------------------------------------
def fig2c_cores(n: int = DEFAULT_N, rounds: int = 60,
                cores: tuple[int, ...] = (1, 2, 4, 6, 8, 12),
                seed: int = 13) -> list[dict]:
    """Figure 2c: Waffle throughput/latency vs proxy core count.

    Paper: +58.9% throughput and -37.2% latency from 1 to 4 cores; beyond
    4 cores multi-threading overwhelms the proxy and throughput drops ~40%.
    """
    workload = workload_a(n, seed=seed, value_size=1000)
    items = _items(workload)
    config = default_config(n, seed=seed)
    trace = workload.trace(config.r * rounds)
    rows = []
    for core_count in cores:
        cost = CostModel(cores=core_count)
        measurement, _ = run_waffle(config, items, trace, cost)
        rows.append({
            "cores": core_count,
            **_perf(measurement),
            "efficiency": cost.core_efficiency(),
        })
    return rows


def _fig2c_gain_and_drop(rows: list[dict]) -> tuple[float, float]:
    by_cores = {row["cores"]: row["throughput_ops"] for row in rows}
    return ((by_cores[4] / by_cores[1] - 1) * 100,
            (1 - by_cores[8] / by_cores[4]) * 100)


def _render_fig2c(rows: list[dict], params: dict) -> str:
    gain, drop = _fig2c_gain_and_drop(rows)
    return "\n".join([
        _render_sweep("Figure 2c - cores (N={n})", "cores")(rows, params),
        f"1->4 cores: +{gain:.1f}% (paper +58.9%); "
        f"4->8 cores: -{drop:.1f}% (paper ~-40%)",
    ])


def _check_fig2c(rows: list[dict]) -> None:
    by_cores = {row["cores"]: row for row in rows}
    gain, drop = _fig2c_gain_and_drop(rows)
    assert by_cores[4]["throughput_ops"] > by_cores[1]["throughput_ops"]
    assert by_cores[4]["throughput_ops"] > by_cores[8]["throughput_ops"]
    assert by_cores[4]["latency_ms"] < by_cores[1]["latency_ms"]
    assert 30 < gain < 90
    assert 20 < drop < 60


# ----------------------------------------------------------------------
# Figure 2d — cache size
# ----------------------------------------------------------------------
def fig2d_cache(n: int = DEFAULT_N, rounds: int = 60,
                fractions: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08,
                                                0.16, 0.32),
                seed: int = 17) -> list[dict]:
    """Figure 2d: Waffle performance vs cache size (1%..32% of N).

    Paper: counter-intuitively, performance *degrades* gradually as the
    cache grows (the LRU recency tracking costs more); optimum at 1-2%.
    """
    def configure(base: WaffleConfig, fraction: float) -> WaffleConfig:
        return replace(base, c=max(1, round(fraction * n)))

    return [{"cache_pct": _pct(fraction), **_perf(measurement),
             "hit_rate": measurement.extra["cache_hit_rate"]}
            for fraction, _, measurement
            in _sweep(n, rounds, seed, fractions, configure)]


def _check_fig2d(rows: list[dict]) -> None:
    values = [row["throughput_ops"] for row in rows]
    assert values == sorted(values, reverse=True)  # monotone mild decline
    assert values[-1] > 0.85 * values[0]  # gradual, not a cliff
    hit_rates = [row["hit_rate"] for row in rows]
    assert hit_rates == sorted(hit_rates)  # bigger cache, more hits


# ----------------------------------------------------------------------
# Figure 3a-3d — parameter sweeps
# ----------------------------------------------------------------------
def fig3a_batch_size(n: int = DEFAULT_N, rounds: int = 60,
                     batch_sizes: tuple[int, ...] = (10, 20, 39, 78, 156),
                     seed: int = 19) -> list[dict]:
    """Figure 3a: throughput vs batch size B (R=40%, f_D=20% proportional).

    Paper: B=10 performs worst; beyond a small knee the curve is flat
    (<= 5% variation) — batch size has security implications but not
    performance implications.
    """
    def configure(base: WaffleConfig, b: int) -> WaffleConfig:
        return _rebalance(base, b=b, r=max(1, round(0.4 * b)),
                          f_d=max(1, round(0.2 * b)))

    return [{"batch_size": b, **_perf(measurement)}
            for b, _, measurement
            in _sweep(n, rounds, seed, batch_sizes, configure)]


def _check_fig3a(rows: list[dict]) -> None:
    smallest = rows[0]["throughput_ops"]
    plateau = [row["throughput_ops"] for row in rows[2:]]
    assert all(value > smallest for value in plateau)
    # Flat plateau: max 25% spread at this scale (paper: 5% at N=2^20,
    # where the fixed RTT amortizes further).
    assert max(plateau) / min(plateau) < 1.25


def fig3b_real_fraction(n: int = DEFAULT_N, rounds: int = 60,
                        fractions: tuple[float, ...] = (0.1, 0.2, 0.4,
                                                        0.6, 0.79),
                        seed: int = 23) -> list[dict]:
    """Figure 3b: throughput vs R (the real-request share of the batch).

    Paper: throughput improves 5.8x as R grows from 10% to 80% of B (f_D
    fixed at 20%) — more client requests per round, fewer fake queries —
    while security (α) favours lower R.
    """
    def configure(base: WaffleConfig, fraction: float) -> WaffleConfig:
        return _rebalance(base, r=max(1, min(base.b - base.f_d - 1,
                                             round(fraction * base.b))))

    return [{"real_pct": _pct(fraction), **_perf(measurement),
             "alpha_bound": config.alpha_bound()}
            for fraction, config, measurement
            in _sweep(n, rounds, seed, fractions, configure)]


def _render_fig3b(rows: list[dict], params: dict) -> str:
    improvement = rows[-1]["throughput_ops"] / rows[0]["throughput_ops"]
    return "\n".join([
        _render_sweep("Figure 3b - R share (N={n})",
                      "real_pct")(rows, params),
        f"10% -> ~80%: {improvement:.2f}x (paper 5.8x)",
    ])


def _check_fig3b(rows: list[dict]) -> None:
    values = [row["throughput_ops"] for row in rows]
    assert values == sorted(values)
    assert values[-1] / values[0] > 4.0
    # The security cost: alpha (theoretical) grows with R.
    alphas = [row["alpha_bound"] for row in rows]
    assert alphas == sorted(alphas)


def fig3c_fake_dummy(n: int = DEFAULT_N, rounds: int = 60,
                     fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4,
                                                     0.5, 0.59),
                     seed: int = 29) -> list[dict]:
    """Figure 3c: throughput vs f_D (fake-dummy share of the batch).

    Paper: throughput improves as f_D grows from 10% to 60% of B (R fixed
    at 40%) — dummy objects are never cached, so larger f_D means fewer
    cache insertions/evictions per round — while α favours lower f_D.
    """
    def configure(base: WaffleConfig, fraction: float) -> WaffleConfig:
        return _rebalance(base, f_d=max(1, min(base.b - base.r - 1,
                                               round(fraction * base.b))))

    return [{"fake_dummy_pct": _pct(fraction), **_perf(measurement),
             "alpha_bound": config.alpha_bound()}
            for fraction, config, measurement
            in _sweep(n, rounds, seed, fractions, configure)]


def _check_fig3c(rows: list[dict]) -> None:
    values = [row["throughput_ops"] for row in rows]
    assert values[-1] > values[0]
    assert values == sorted(values)
    alphas = [row["alpha_bound"] for row in rows]
    assert alphas == sorted(alphas)  # the security price of larger f_D


def fig3d_num_dummies(n: int = DEFAULT_N, rounds: int = 60,
                      fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
                      seed: int = 31) -> list[dict]:
    """Figure 3d: throughput vs number of dummy objects D (20%..100% of N).

    Paper: D has no significant effect — only the dummy index depends on
    it and dummies are never cached.
    """
    def configure(base: WaffleConfig, fraction: float) -> WaffleConfig:
        return _rebalance(base, d=max(base.f_d, round(fraction * n)))

    return [{"dummies_pct_of_n": _pct(fraction), **_perf(measurement)}
            for fraction, _, measurement
            in _sweep(n, rounds, seed, fractions, configure)]


def _check_fig3d(rows: list[dict]) -> None:
    values = [row["throughput_ops"] for row in rows]
    assert max(values) / min(values) < 1.05  # flat


# ----------------------------------------------------------------------
# Table 2 + Figure 4 — security levels
# ----------------------------------------------------------------------
def _security_run(config: WaffleConfig, uniform: bool, rounds: int,
                  cost: CostModel, seed: int
                  ) -> tuple[Measurement, Adversary]:
    workload = YcsbWorkload(config.n, read_proportion=1.0, uniform=uniform,
                            theta=0.99, value_size=1000, seed=seed)
    items = _items(workload)
    trace = workload.trace(config.r * rounds)
    measurement, datastore = run_waffle(config, items, trace, cost,
                                        record=True, log_ids=True)
    adversary = Adversary(datastore.proxy.id_log) \
        .feed(datastore.recorder.records)
    return measurement, adversary


def table2_security_levels(n: int = DEFAULT_N, rounds: int = 300,
                           cost: CostModel | None = None,
                           seed: int = 37,
                           levels: tuple[SecurityLevel, ...] = (
                               SecurityLevel.HIGH,
                               SecurityLevel.MEDIUM,
                               SecurityLevel.LOW,
                           )) -> list[dict]:
    """Table 2: three security levels × two input distributions.

    Paper (N=10^6): high → theoretical α=165/β=161, observed max α=3 /
    min β=162, ~30 ops/s; medium → α=1000/β=5, observed 692-713 / 9,
    ~11k ops/s; low → α=999999 (not oblivious), ~22k ops/s.  The
    theoretical columns are also evaluated at the paper's N, where they
    must equal Table 2 exactly; the observed columns and throughputs are
    measured at the scaled N.
    """
    cost = cost if cost is not None else CostModel(cores=4)
    rows = []
    for level in levels:
        paper_cfg = WaffleConfig.security_preset(level, n=10**6)
        for uniform in (False, True):
            config = WaffleConfig.security_preset(level, n=n, seed=seed)
            level_rounds = rounds
            if level is SecurityLevel.HIGH:
                # High security keeps objects cached for ~beta rounds; run
                # past 2x the beta bound so evictions (and hence observed
                # beta values) actually occur.
                level_rounds = max(2 * config.beta_bound() + 60,
                                   rounds // 4)
            measurement, adversary = _security_run(config, uniform,
                                                   level_rounds, cost, seed)
            measured_alpha = adversary.max_alpha
            measured_beta = adversary.min_beta
            if level is SecurityLevel.LOW:
                # The paper does not report α/β here: unpopular objects
                # stay unread for the whole run.
                measured_alpha = None
                measured_beta = None
            rows.append({
                "level": level.value,
                "distribution": "uniform" if uniform else "skewed",
                "alpha_theory_paper_n": paper_cfg.alpha_bound(),
                "alpha_theory": config.alpha_bound(),
                "alpha_effective": config.alpha_bound_effective(),
                "alpha_observed": measured_alpha,
                "beta_theory_paper_n": paper_cfg.beta_bound(),
                "beta_theory": config.beta_bound(),
                "beta_observed": measured_beta,
                "throughput_ops": measurement.throughput_ops,
                "unread_ids": adversary.unread_ids,
            })
    return rows


def _check_table2(rows: list[dict]) -> None:
    by = {(row["level"], row["distribution"]): row for row in rows}

    # Paper-exact theoretical bounds at N=10^6 (Table 2's own numbers).
    assert by[("high", "skewed")]["alpha_theory_paper_n"] == 165
    assert by[("high", "skewed")]["beta_theory_paper_n"] == 161
    assert by[("medium", "skewed")]["alpha_theory_paper_n"] == 1000
    assert by[("medium", "skewed")]["beta_theory_paper_n"] == 5
    assert by[("low", "skewed")]["alpha_theory_paper_n"] == 999999
    assert by[("low", "skewed")]["beta_theory_paper_n"] == 4

    for row in rows:
        # Theorem 7.3: observations within the implementation bounds.
        if row["alpha_observed"] is not None:
            assert row["alpha_observed"] <= row["alpha_effective"]
        if row["beta_observed"] is not None:
            assert row["beta_observed"] >= row["beta_theory"]

    # Security/performance ordering across the three levels.
    assert by[("high", "skewed")]["throughput_ops"] < \
        by[("medium", "skewed")]["throughput_ops"] < \
        by[("low", "skewed")]["throughput_ops"]

    # High security observes far smaller alpha than its bound (paper: 3
    # vs 165) because only ~1% of objects are server-resident.
    high = by[("high", "skewed")]
    assert high["alpha_observed"] < high["alpha_theory"] / 5


def fig4_alpha_histograms(n: int = DEFAULT_N, rounds: int = 300,
                          cost: CostModel | None = None,
                          seed: int = 41) -> dict:
    """Figure 4: adversary-observable α histograms, high & medium security,
    skewed vs uniform inputs.

    Paper: for a given security level the two input distributions produce
    near-identical histograms (high: avg bucket difference 1,994 of ~2.5M
    requests; medium: 25,024, i.e. ~1% of requests differ) — that
    similarity is the empirical obliviousness argument.
    """
    cost = cost if cost is not None else CostModel(cores=4)
    out: dict = {"histograms": {}, "comparisons": {}}
    for level in (SecurityLevel.HIGH, SecurityLevel.MEDIUM):
        histograms = {}
        for uniform in (False, True):
            config = WaffleConfig.security_preset(level, n=n, seed=seed)
            level_rounds = rounds if level is SecurityLevel.MEDIUM else max(
                40, rounds // 4)
            _, adversary = _security_run(config, uniform, level_rounds,
                                         cost, seed)
            name = "uniform" if uniform else "skewed"
            histograms[name] = adversary.alpha_histogram
        out["histograms"][level.value] = histograms
        out["comparisons"][level.value] = histogram_difference(
            histograms["skewed"], histograms["uniform"])
    return out


def _render_fig4(out: dict, params: dict) -> str:
    lines = [f"Figure 4 - alpha histograms (N={params['n']})"]
    for level in ("high", "medium"):
        comparison = out["comparisons"][level]
        lines.append(f"\n[{level} security] differing fraction = "
                     f"{comparison.differing_fraction:.4f} "
                     "(paper: ~0.001 high / ~0.01 medium); "
                     f"mean bucket diff = "
                     f"{comparison.mean_bucket_difference:.1f}")
        for dist in ("skewed", "uniform"):
            lines.append(f"-- {level}/{dist}:")
            lines.append(render_histogram(out["histograms"][level][dist],
                                          max_rows=10))
    return "\n".join(lines)


def _check_fig4(out: dict) -> None:
    # Obliviousness: histograms close across input distributions.
    assert out["comparisons"]["high"].differing_fraction < 0.25
    assert out["comparisons"]["medium"].differing_fraction < 0.25
    # High security concentrates alpha near zero; medium spreads wide.
    high_max = max(out["histograms"]["high"]["skewed"])
    medium_max = max(out["histograms"]["medium"]["skewed"])
    assert high_max < medium_max


# ----------------------------------------------------------------------
# Figure 5 — correlated queries (the IHOP setup)
# ----------------------------------------------------------------------
def fig5_correlated(n: int = 500, requests: int = 50_000,
                    r_fractions: tuple[float, ...] = (0.2, 0.4),
                    cost: CostModel | None = None, seed: int = 43) -> list[dict]:
    """Figure 5: α histograms under correlated vs independent queries.

    Paper (N=500, B=100, f_D=20, C=2%, D=200, IHOP clickstream): with
    R=20% of B the α values differ for ~0.8% of requests (8.3 kops/s);
    with R=40% they differ for ~3% (15.2 kops/s) — lower R buys more
    obliviousness for correlated inputs at a throughput cost.  Correlated
    queries come from the clickstream model, the independent control from
    shuffling the same trace.
    """
    cost = cost if cost is not None else CostModel(cores=4)
    model = ClickstreamModel(n, seed=seed)
    workload = CorrelatedWorkload(model, seed=seed + 1)
    rows = []
    for fraction in r_fractions:
        b = 100
        config = WaffleConfig(
            n=n, b=b, r=round(fraction * b), f_d=round(0.2 * b), d=200,
            c=max(1, round(0.02 * n)), value_size=256, seed=seed,
        )
        histograms = {}
        throughputs = {}
        for correlated in (True, False):
            trace = (workload.correlated_trace(requests) if correlated
                     else workload.independent_trace(requests))
            values = {key_name(i): b"a" * 64 for i in range(n)}
            measurement, datastore = run_waffle(config, values, trace, cost,
                                                record=True)
            name = "correlated" if correlated else "independent"
            histograms[name] = Adversary().feed(
                datastore.recorder.records).alpha_histogram
            throughputs[name] = measurement.throughput_ops
        comparison = histogram_difference(histograms["correlated"],
                                          histograms["independent"])
        rows.append({
            "r_pct": round(100 * fraction),
            "differing_fraction": comparison.differing_fraction,
            "mean_bucket_difference": comparison.mean_bucket_difference,
            "throughput_ops": throughputs["correlated"],
            "histograms": histograms,
        })
    return rows


def _render_fig5(rows: list[dict], params: dict) -> str:
    table = titled_table("Figure 5 - correlated queries (N={n}, B=100, "
                         "f_D=20, C=2%, D=200)", hide=("histograms",))
    return "\n".join([
        table(rows, params),
        "paper: R=20% -> ~0.8% differ, R=40% -> ~3% differ",
    ])


def _check_fig5(rows: list[dict]) -> None:
    by_r = {row["r_pct"]: row for row in rows}
    # Histograms stay close under correlation (obliviousness holds).
    assert by_r[20]["differing_fraction"] < 0.15
    assert by_r[40]["differing_fraction"] < 0.25
    # Lower R = more oblivious; higher R = faster (the paper's trade-off).
    assert by_r[20]["differing_fraction"] <= \
        by_r[40]["differing_fraction"] + 0.02
    assert by_r[40]["throughput_ops"] > by_r[20]["throughput_ops"]


# ----------------------------------------------------------------------
# Figure 6 — security vs performance trade-off
# ----------------------------------------------------------------------
_FIG6_GRID = (
    (0.1, 0.2), (0.2, 0.2), (0.4, 0.2), (0.6, 0.2),
    (0.4, 0.1), (0.4, 0.3), (0.4, 0.4), (0.2, 0.4),
)


def fig6_tradeoff(n: int = DEFAULT_N, rounds: int = 40,
                  seed: int = 47, cost: CostModel | None = None) -> list[dict]:
    """Figure 6: security (theoretical α) vs throughput over an R/f_D grid.

    Paper: lower α (more security) entails lower throughput; the R/f_D
    grid traces the frontier an operator tunes along (§8.4).
    """
    def shape(base: WaffleConfig, point: tuple[float, float]
              ) -> tuple[int, int]:
        return (max(1, round(point[0] * base.b)),
                max(1, round(point[1] * base.b)))

    def configure(base: WaffleConfig, point: tuple[float, float]
                  ) -> WaffleConfig:
        r, f_d = shape(base, point)
        return _rebalance(base, r=r, f_d=f_d)

    base = default_config(n, seed=seed)
    grid = [point for point in _FIG6_GRID if sum(shape(base, point)) < base.b]
    rows = [{"r_pct": _pct(r_frac), "fd_pct": _pct(fd_frac),
             "alpha_theory": config.alpha_bound(),
             "throughput_ops": measurement.throughput_ops}
            for (r_frac, fd_frac), config, measurement
            in _sweep(n, rounds, seed, grid, configure, cost)]
    rows.sort(key=lambda row: row["alpha_theory"])
    return rows


def _check_fig6(rows: list[dict]) -> None:
    alphas = np.array([row["alpha_theory"] for row in rows], float)
    throughputs = np.array([row["throughput_ops"] for row in rows], float)
    # Positive rank correlation: lower alpha (more secure) <-> slower.
    correlation = np.corrcoef(np.argsort(np.argsort(alphas)),
                              np.argsort(np.argsort(throughputs)))[0, 1]
    assert correlation > 0.5
    assert throughputs[0] < throughputs[-1]


# ----------------------------------------------------------------------
# Attacks (§8.3.2 claim) and the fake-policy ablation
# ----------------------------------------------------------------------
def attack_correlated(n: int = 40, requests: int = 40_000,
                      seed: int = 5) -> dict:
    """§8.3.2: the correlated (known-query co-occurrence) attack against
    Pancake vs Waffle — why storage ids are not static (Challenge 4).

    Reproduces the paper's qualitative claim: with correlated
    queries and static storage ids, the attack recovers far more keys
    than chance against Pancake, while against Waffle — whose ids are
    read at most once — the co-occurrence signal does not exist and
    recovery stays at or below chance.
    """
    from repro.storage.recording import RecordingStore
    from repro.storage.redis_sim import RedisSim
    from repro.baselines.pancake import PancakeProxy

    model = ClickstreamModel(n, out_degree=5, alpha=1.6, seed=seed)
    workload = CorrelatedWorkload(model, seed=seed + 1)
    trace = workload.correlated_trace(requests)
    keys = [key_name(i) for i in range(n)]
    values = {key: b"v" * 32 for key in keys}
    transition = model.transition_matrix()

    # --- Pancake: static replica ids, observable co-occurrence ---------
    stationary_counts = Counter(req.key for req in trace)
    pi = np.array([stationary_counts.get(key, 0) for key in keys], float)
    pi /= pi.sum()
    recorder = RecordingStore(RedisSim())
    pancake = PancakeProxy(keys, dict(values), pi, recorder, batch_size=10,
                           seed=seed, keychain=KeyChain.from_seed(seed))
    for request in trace:
        pancake.submit(request)
    while pancake.pending():
        pancake.process_batch()
    truth = {}
    for key_index, key in enumerate(keys):
        for replica in range(pancake.smoothing.replica_count(key_index)):
            truth[pancake._replica_id(key_index, replica)] = key
    pancake_result = cooccurrence_attack(
        recorder.records, transition, keys, truth, seed=seed,
    )

    # --- Waffle: rotating ids, no co-occurrence signal ------------------
    config = WaffleConfig(n=n, b=20, r=8, f_d=4, d=60,
                          c=max(1, round(0.02 * n)), value_size=128,
                          seed=seed)
    cost = CostModel()
    waffle_trace = trace[: min(len(trace), 20_000)]
    _, datastore = run_waffle(config, values, waffle_trace, cost,
                              record=True, log_ids=True)
    waffle_truth = {
        sid: key for sid, key in datastore.proxy.id_log.items()
        if not key.startswith("\x00")
    }
    # min_occurrences=1 lets the attack *try* against Waffle (otherwise
    # every id is filtered out because none repeats).
    waffle_result = cooccurrence_attack(
        datastore.recorder.records, transition, keys, waffle_truth,
        seed=seed, min_occurrences=1,
    )
    return {
        "pancake_accuracy": pancake_result.accuracy,
        "pancake_targets": pancake_result.targets,
        "waffle_accuracy": waffle_result.accuracy,
        "waffle_targets": waffle_result.targets,
        "chance": 1.0 / n,
    }


def _render_attack_correlated(out: dict, params: dict) -> str:
    return "\n".join([
        "Correlated known-query co-occurrence attack (IHOP-style)",
        f"  chance baseline        : {out['chance']:.3f}",
        f"  Pancake (static ids)   : {out['pancake_accuracy']:.3f} "
        f"over {out['pancake_targets']} unknown ids",
        f"  Waffle (rotating ids)  : {out['waffle_accuracy']:.3f} "
        f"over {out['waffle_targets']} unknown ids",
        "paper: attack succeeds against Pancake, fails against Waffle",
    ])


def _check_attack_correlated(out: dict) -> None:
    assert out["pancake_accuracy"] > 6 * out["chance"]
    assert out["waffle_accuracy"] < 3 * out["chance"]


def frequency_attack_comparison(n: int = 256, requests: int = 20_000,
                                seed: int = 61) -> dict:
    """§2: frequency analysis against deterministic static ids vs Waffle.

    Paper: access frequencies alone identify deterministically encrypted
    objects; Waffle's ids are read at most once, so the attack has
    nothing to rank.
    """
    from repro.storage.recording import RecordingStore
    from repro.storage.redis_sim import RedisSim

    workload = workload_c(n, seed=seed, value_size=128)
    items = _items(workload)
    trace = workload.trace(requests)
    auxiliary = {
        key_name(i): p
        for i, p in enumerate(workload._sampler.probabilities_by_index())
    }

    # Deterministically encrypted baseline: static ids = PRF(key, 0).
    keychain = KeyChain.from_seed(seed)
    recorder = RecordingStore(RedisSim())
    det_ids = {key: keychain.prf.derive(key, 0) for key in items}
    truth = {sid: key for key, sid in det_ids.items()}
    recorder.multi_put((det_ids[k], v) for k, v in items.items())
    for request in trace:
        recorder.multi_get([det_ids[request.key]])
    det_result = frequency_analysis_attack(recorder.records, auxiliary, truth)

    config = WaffleConfig(n=n, b=24, r=10, f_d=4, d=100,
                          c=max(1, round(0.02 * n)), value_size=256,
                          seed=seed)
    _, datastore = run_waffle(config, items, trace, CostModel(),
                              record=True, log_ids=True)
    waffle_result = frequency_analysis_attack(
        datastore.recorder.records, auxiliary, dict(datastore.proxy.id_log))

    def top_k_accuracy(result: AttackResult, records: list[AccessRecord],
                       k: int = 10) -> float:
        counts = Counter(r.storage_id for r in records if r.op == "read")
        top = [sid for sid, _ in counts.most_common(k)
               if sid in result.guesses]
        if not top:
            return 0.0
        truth_map = truth if result is det_result else datastore.proxy.id_log
        return sum(result.guesses[sid] == truth_map.get(sid)
                   for sid in top) / len(top)

    return {
        "deterministic_accuracy": det_result.accuracy,
        "deterministic_top10": top_k_accuracy(det_result, recorder.records),
        "waffle_accuracy": waffle_result.accuracy,
        "waffle_top10": top_k_accuracy(waffle_result,
                                       datastore.recorder.records),
        "chance": 1.0 / n,
    }


def _render_frequency_attack(out: dict, params: dict) -> str:
    return "\n".join([
        f"Frequency-analysis attack (N={params['n']}, Zipf 0.99, "
        f"{params['requests']} requests)",
        f"  chance baseline           : {out['chance']:.4f}",
        f"  deterministic static ids  : {out['deterministic_accuracy']:.3f} "
        f"of all ids, {out['deterministic_top10']:.2f} of the 10 hottest",
        f"  Waffle (rotating ids)     : {out['waffle_accuracy']:.3f} "
        f"of all ids, {out['waffle_top10']:.2f} of the 10 hottest",
        "paper (§2): access frequencies identify deterministically "
        "encrypted objects; Waffle's ids are read once and carry none",
    ])


def _check_frequency_attack(out: dict) -> None:
    assert out["deterministic_top10"] >= 0.7
    assert out["deterministic_accuracy"] > 5 * out["chance"]
    assert out["waffle_accuracy"] <= 0.05
    assert out["waffle_top10"] <= 0.2


def low_security_distinguisher(n: int = 2048, rounds: int = 100,
                               seed: int = 67) -> dict:
    """Table 2, low row: "not oblivious", made measurable.

    With R close to B, only ``f_R ≈ 1`` guaranteed fake-real queries fire
    per round, so sweeping the initialization ids off the server is at
    the mercy of the *input*: a skewed workload (cache hits + duplicate
    dedup shrink r, freeing fake budget) sweeps them quickly, while a
    uniform workload keeps r pinned at R and leaves initialization ids
    unread for the whole run.  An adversary counting still-unread
    round-0 ids therefore distinguishes the two input distributions at
    the low-security setting — while at medium security (small R, ample
    f_R) both inputs sweep everything and the counts coincide at zero.
    """
    # Explicit configs: the scaled Table 2 presets quantize R/B too
    # coarsely at reproduction sizes to show the contrast.
    shapes = {
        "low": dict(b=64, r=50, f_d=13),     # f_R floor = 1
        "medium": dict(b=64, r=26, f_d=13),  # f_R floor = 25
    }
    out: dict = {}
    for level, shape in shapes.items():
        counts = {}
        for uniform in (False, True):
            config = WaffleConfig(n=n, d=10 * shape["f_d"] * 4,
                                  c=max(1, round(0.02 * n)),
                                  value_size=256, seed=seed, **shape)
            workload = YcsbWorkload(n, read_proportion=1.0,
                                    uniform=uniform, theta=0.99,
                                    value_size=200, seed=seed)
            items = _items(workload)
            trace = workload.trace(config.r * rounds)
            _, datastore = run_waffle(config, items, trace,
                                      CostModel(), record=True)
            name = "uniform" if uniform else "skewed"
            counts[name] = Adversary().feed(
                datastore.recorder.records).unread_written_by(0)
        out[level] = {
            "stale_init_skewed": counts["skewed"],
            "stale_init_uniform": counts["uniform"],
            "gap": abs(counts["skewed"] - counts["uniform"]),
        }
    return out


def _render_low_security(out: dict, params: dict) -> str:
    rows = [{"level": level, **counts} for level, counts in out.items()]
    return "\n".join([
        format_table(rows, title="Initialization ids still unread after "
                                 f"{params['rounds']} rounds "
                                 f"(N={params['n']}, B=64)"),
        "paper (Table 2): low security is not oblivious - the count "
        "separates skewed from uniform input; at medium it does not",
    ])


def _check_low_security(out: dict) -> None:
    assert out["low"]["gap"] > 20
    assert out["medium"]["gap"] <= 3


def ablation_fake_policy(n: int = 4096, rounds: int = 1200,
                         seed: int = 59) -> dict:
    """Challenge 2: least-recently-accessed vs uniform-random fake-query
    selection.

    Not a paper figure — it isolates the §4 design choice: picking
    least-recently-accessed objects for fake queries is what bounds α.
    Uniform-random selection
    (:class:`~repro.bench.ablations.UniformFakeReals`) leaves a tail of
    objects unvisited for arbitrarily long, so the observed max α blows
    past the least-recent policy's bound.
    """
    cost = CostModel(cores=4)
    # No dummy objects: the dummy rotation has its own α dynamics that
    # would mask the fake-real policy difference under study.
    config = default_config(n, seed=seed, f_d=0, d=0)
    out = {}
    for policy in ("least_recent", "uniform"):
        workload = workload_c(n, seed=seed, value_size=1000)
        items = _items(workload)
        trace = workload.trace(config.r * rounds)
        datastore = WaffleDatastore(config, items, record=True,
                                    keychain=KeyChain.from_seed(seed))
        if policy == "uniform":
            datastore.proxy.__class__ = ablations.UniformFakeReals
        run_waffle(config, items, trace, cost, datastore=datastore)
        adversary = Adversary().feed(datastore.recorder.records)
        out[policy] = {
            "max_alpha": adversary.max_alpha,
            "bound": config.alpha_bound_effective(),
            "unread_ids": adversary.unread_ids,
        }
    return out


def _render_fake_policy(out: dict, params: dict) -> str:
    return "\n".join([
        f"Fake-query selection policy ablation (N={params['n']}, "
        f"{params['rounds']} rounds)",
        f"  least_recent: max alpha {out['least_recent']['max_alpha']} "
        f"(bound {out['least_recent']['bound']}), "
        f"unread ids {out['least_recent']['unread_ids']}",
        f"  uniform     : max alpha {out['uniform']['max_alpha']} "
        f"(no bound holds), unread ids {out['uniform']['unread_ids']}",
    ])


def _check_fake_policy(out: dict) -> None:
    assert out["least_recent"]["max_alpha"] <= out["least_recent"]["bound"]
    assert out["uniform"]["max_alpha"] > 1.5 * out["least_recent"]["max_alpha"]


# ----------------------------------------------------------------------
# The table (DESIGN.md §3 order)
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Experiment] = {
    "fig2ab": Experiment(fig2ab_baselines, _render_fig2ab, _check_fig2ab),
    "fig2c": Experiment(fig2c_cores, _render_fig2c, _check_fig2c),
    "fig2d": Experiment(
        fig2d_cache,
        _render_sweep("Figure 2d - cache size (N={n})", "cache_pct"),
        _check_fig2d),
    "fig3a": Experiment(
        fig3a_batch_size,
        _render_sweep("Figure 3a - batch size (N={n})", "batch_size"),
        _check_fig3a),
    "fig3b": Experiment(fig3b_real_fraction, _render_fig3b, _check_fig3b),
    "fig3c": Experiment(
        fig3c_fake_dummy,
        _render_sweep("Figure 3c - f_D share (N={n})", "fake_dummy_pct"),
        _check_fig3c),
    "fig3d": Experiment(
        fig3d_num_dummies,
        _render_sweep("Figure 3d - dummy count (N={n})", "dummies_pct_of_n"),
        _check_fig3d),
    "table2": Experiment(
        table2_security_levels,
        titled_table("Table 2 - security levels (scaled N={n}; *_paper_n "
                     "columns evaluated at the paper's N=10^6)",
                     hide=("unread_ids",)),
        _check_table2),
    "fig4": Experiment(fig4_alpha_histograms, _render_fig4, _check_fig4),
    "fig5": Experiment(fig5_correlated, _render_fig5, _check_fig5),
    "fig6": Experiment(
        fig6_tradeoff,
        titled_table("Figure 6 - security vs performance (N={n}, sorted by "
                     "theoretical alpha)"),
        _check_fig6),
    "attack": Experiment(attack_correlated, _render_attack_correlated,
                         _check_attack_correlated),
    "attack-frequency": Experiment(
        frequency_attack_comparison, _render_frequency_attack,
        _check_frequency_attack),
    "low-security-leak": Experiment(
        low_security_distinguisher, _render_low_security,
        _check_low_security),
    "ablation-fake-policy": Experiment(
        ablation_fake_policy, _render_fake_policy, _check_fake_policy),
    "leakage-profile": Experiment(
        ablations.leakage_profile,
        titled_table("Leakage profile (N={n}, Zipf 0.99, {requests} "
                     "requests)"),
        ablations.check_leakage_profile),
    "ha-overhead": Experiment(
        ablations.ha_overhead, ablations.render_ha_overhead,
        ablations.check_ha_overhead),
    "workload-d": Experiment(
        ablations.workload_d, titled_table("Workload D vs C (N={n})"),
        ablations.check_workload_d),
    "timing-attack": Experiment(
        ablations.timing_attack, ablations.render_timing_attack,
        ablations.check_timing_attack),
}
