"""Driftwatch: GNSS spoofing detection workbench.

Simulates a UAV navigating a flow-field controller from pseudorange-based
position fixes, injects drift-style spoofing attacks, and benchmarks online
changepoint detection on the learned critic's value stream against
classical baselines.
"""

__version__ = "0.1.0"
