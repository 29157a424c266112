"""The model checker (the Spin substitute).

* :mod:`repro.checker.violations` - violation and trace records;
* :mod:`repro.checker.monitor` - the safety monitor evaluated during
  cascades (invariants, command conflicts, leakage, robustness);
* :mod:`repro.checker.compiled` - the compiled property set and its
  invariant-verdict memo;
* :mod:`repro.checker.ltl` - an LTL fragment with finite-trace evaluation
  and safety-invariant compilation;
* :mod:`repro.checker.trace` - counterexample rendering, including the
  Fig-7 style Spin violation-log format.
"""

from repro.checker.ltl import AtomTable, LTLSyntaxError, bad_prefix, never_claim, parse
from repro.checker.monitor import SafetyMonitor
from repro.checker.trace import SpinLogRenderer, render_violation_log
from repro.checker.violations import Counterexample, TraceStep, Violation

__all__ = [
    "SafetyMonitor",
    "Counterexample",
    "TraceStep",
    "Violation",
    "AtomTable",
    "LTLSyntaxError",
    "bad_prefix",
    "never_claim",
    "parse",
    "SpinLogRenderer",
    "render_violation_log",
]
