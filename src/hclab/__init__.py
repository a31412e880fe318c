"""hclab: equidistribution statistics on compact groups and necessary-condition
tests for hypercyclicity of weighted translation operators.

Supported group contexts: finite groups from an explicit Cayley-table catalog,
the circle, and truncated p-adic integer rings / windowed p-adic fields.  The
library computes exact set algebra on null-boundary sets, orbit density
statistics with event-point-exact suprema, character averaging bounds,
regular-representation fixed-vector certificates, zero-log-integral tests,
step-function approximation machinery, and p-adic ball (U/L) obstructions.
A structured verdict report records which necessary condition failed; a
passing report never asserts hypercyclicity.
"""

__version__ = "0.1.0"
