"""Security-analysis toolkit: what the adversary sees, measured.

* :mod:`repro.analysis.adversary` — :class:`Adversary`, the one reader of
  the storage server's view: it takes accesses one at a time (a recorded
  trace, a tracer's ``storage.access`` events) and answers α and β per
  Definition 1 against the Theorem 7.1/7.2 bounds (Table 2), the id
  lifecycle, per-round shape, the entropy / KL / χ² leakage statistics
  and the round-release instants;
* :mod:`repro.analysis.histograms` — α-histogram comparison behind
  Figures 4 and 5;
* :mod:`repro.analysis.attacks` — the inference attacks the paper cites:
  frequency analysis (§2) and an IHOP-style correlated co-occurrence
  attack (§8.3.2), runnable against any recorded trace;
* :mod:`repro.analysis.timing` — the timing attacks over round-release
  instants (load inference, onset detection) and the fixed-interval
  shaping comparison;
* :mod:`repro.analysis.report` — the security audit ``repro audit``
  prints.
"""

from repro.analysis.adversary import Adversary, LeakageSummary
from repro.analysis.histograms import histogram_difference, render_histogram
from repro.analysis.attacks import (
    cooccurrence_attack,
    frequency_analysis_attack,
)
from repro.analysis.report import AuditResult, security_audit
from repro.analysis.timing import (
    detect_onset,
    load_inference_attack,
    simulate_round_times,
    timing_attack_benchmark,
)

__all__ = [
    "Adversary",
    "AuditResult",
    "LeakageSummary",
    "cooccurrence_attack",
    "detect_onset",
    "frequency_analysis_attack",
    "histogram_difference",
    "load_inference_attack",
    "render_histogram",
    "security_audit",
    "simulate_round_times",
    "timing_attack_benchmark",
]
