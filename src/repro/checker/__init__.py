"""The model checker (the Spin substitute).

* :mod:`repro.checker.violations` - violation and trace records;
* :mod:`repro.checker.monitor` - the safety monitor evaluated during
  cascades (invariants, command conflicts, leakage, robustness);
* :mod:`repro.checker.compiled` - the compiled property set and its
  invariant-verdict memo;
* :mod:`repro.checker.trace` - counterexample rendering, including the
  Fig-7 style Spin violation-log format.
"""

from repro.checker.monitor import SafetyMonitor
from repro.checker.trace import SpinLogRenderer, render_violation_log
from repro.checker.violations import Counterexample, TraceStep, Violation

__all__ = [
    "SafetyMonitor",
    "Counterexample",
    "TraceStep",
    "Violation",
    "SpinLogRenderer",
    "render_violation_log",
]
