"""Host data-cleaning systems (substrates).

Sparcle is a framework *inside* a host system: the host contributes the
final error-correction step that consumes the formulated input (§5), and —
run without Sparcle — the host *is* the experimental baseline (§6). This
package provides both, plus the in-memory Baran competitor.
"""
from repro.hostsys.aimnet import repair_from_violations
from repro.hostsys.baran import BaranResult, baran_clean
from repro.hostsys.holoclean import repair_from_factors

__all__ = [
    "BaranResult",
    "baran_clean",
    "repair_from_factors",
    "repair_from_violations",
]
