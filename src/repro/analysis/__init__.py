"""Security-analysis toolkit: what the adversary sees, measured.

* :mod:`repro.analysis.uniformity` — α/β measurement per Definition 1 and
  verification of the Theorem 7.1/7.2 bounds (Table 2);
* :mod:`repro.analysis.histograms` — α-value histograms and the
  distribution-difference metrics behind Figures 4 and 5;
* :mod:`repro.analysis.attacks` — the inference attacks the paper cites:
  frequency analysis (§2) and an IHOP-style correlated co-occurrence
  attack (§8.3.2), runnable against any recorded trace;
* :mod:`repro.analysis.timing` — the timing-leakage observatory: round
  release schedules as a side channel, with load-inference and
  onset-detection attacks plus the fixed-interval shaping comparison.
"""

from repro.analysis.histograms import alpha_histogram, histogram_difference
from repro.analysis.uniformity import (
    UniformityReport,
    measure_alpha,
    measure_beta,
    verify_storage_invariants,
)
from repro.analysis.attacks import (
    cooccurrence_attack,
    frequency_analysis_attack,
)
from repro.analysis.leakage import LeakageSummary, leakage_summary
from repro.analysis.monitor import AlphaMonitor
from repro.analysis.report import AuditResult, security_audit
from repro.analysis.timing import (
    TimingObserver,
    attach_timing_observer,
    detect_onset,
    load_inference_attack,
    simulate_round_times,
    timing_attack_benchmark,
)

__all__ = [
    "AlphaMonitor",
    "AuditResult",
    "security_audit",
    "LeakageSummary",
    "TimingObserver",
    "UniformityReport",
    "alpha_histogram",
    "attach_timing_observer",
    "cooccurrence_attack",
    "detect_onset",
    "frequency_analysis_attack",
    "histogram_difference",
    "leakage_summary",
    "load_inference_attack",
    "measure_alpha",
    "measure_beta",
    "simulate_round_times",
    "timing_attack_benchmark",
    "verify_storage_invariants",
]
