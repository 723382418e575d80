"""Security audit report: everything an operator checks, in one document.

:func:`security_audit` replays a deployment's recorded trace through one
:class:`~repro.analysis.adversary.Adversary` and renders what it read —
id-lifecycle invariants, α/β bounds vs theory, leakage statistics, the
α histogram — as a markdown report an operator can archive next to
their parameter choices (§8.4's operational workflow).  The CLI exposes it as ``repro audit``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.adversary import Adversary
from repro.analysis.histograms import render_histogram
from repro.core.datastore import WaffleDatastore
from repro.errors import ConfigurationError

__all__ = ["AuditResult", "security_audit"]


@dataclass(frozen=True, slots=True)
class AuditResult:
    """Outcome of one audit: verdicts plus the rendered report."""

    invariants_ok: bool
    alpha_ok: bool
    beta_ok: bool
    markdown: str

    @property
    def passed(self) -> bool:
        return self.invariants_ok and self.alpha_ok and self.beta_ok


def security_audit(datastore: WaffleDatastore,
                   steady_state_from_round: int = 1) -> AuditResult:
    """Audit a recorded deployment; requires ``record=True`` (and ideally
    ``log_ids=True`` for the β section)."""
    if datastore.recorder is None:
        raise ConfigurationError(
            "auditing needs the adversary recorder: construct the "
            "datastore with record=True"
        )
    config = datastore.config
    records = datastore.recorder.records
    id_log = datastore.proxy.id_log
    report = Adversary(id_log, from_round=steady_state_from_round) \
        .feed(records)
    invariants_ok = report.violation is None
    invariant_note = ("every storage id written once, read once, deleted"
                      if invariants_ok else f"VIOLATION: {report.violation}")
    alpha_bound = config.alpha_bound_effective()
    beta_bound = config.beta_bound()
    alpha_ok = report.max_alpha is None or report.max_alpha <= alpha_bound
    beta_ok = report.min_beta is None or report.min_beta >= beta_bound
    leakage = report.leakage()

    check = "PASS" if (invariants_ok and alpha_ok and beta_ok) else "FAIL"
    lines = [
        "# Waffle security audit",
        "",
        f"**Verdict: {check}**",
        "",
        "## Configuration",
        "",
        f"- N={config.n}, B={config.b}, R={config.r}, "
        f"f_D={config.f_d}, D={config.d}, C={config.c}",
        f"- dummy policy: {config.dummy_policy}; "
        f"fake-real policy: {config.fake_real_policy}",
        f"- theoretical α (Thm 7.1): {config.alpha_bound()}; "
        f"implementation α bound: {alpha_bound}; "
        f"β (Thm 7.2): {beta_bound}",
        f"- bandwidth overhead: {config.bandwidth_overhead():.2f}x",
        "",
        "## Storage-id lifecycle",
        "",
        f"- {invariant_note}",
        f"- accesses observed: {len(records)} over "
        f"{datastore.proxy.totals.rounds} rounds",
        "",
        "## α,β-uniformity (Definition 1)",
        "",
        f"- observed max α: {report.max_alpha} "
        f"(bound {alpha_bound}) — {'OK' if alpha_ok else 'VIOLATED'}",
        f"- observed min β: {report.min_beta} "
        f"(bound {beta_bound}) — {'OK' if beta_ok else 'VIOLATED'}"
        + ("" if id_log is not None else
           "  *(enable log_ids=True to measure β)*"),
        f"- ids written but not yet read: {report.unread_ids}",
        "",
        "## Leakage statistics (steady state)",
        "",
        f"- normalized access entropy: {leakage.normalized_entropy:.4f} "
        "(1.0 = perfectly flat)",
        f"- KL divergence from uniform: "
        f"{leakage.kl_divergence_bits:.6f} bits",
        f"- χ² uniformity p-value: {leakage.chi_square_p:.4f}",
        f"- per-round load CV (reads/writes): "
        f"{leakage.read_cv:.4f} / {leakage.write_cv:.4f}",
        "",
        "## α histogram",
        "",
        "```",
        render_histogram(report.alpha_histogram, max_rows=12),
        "```",
    ]
    return AuditResult(
        invariants_ok=invariants_ok,
        alpha_ok=alpha_ok,
        beta_ok=beta_ok,
        markdown="\n".join(lines),
    )
