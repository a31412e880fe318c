"""Structured verdict reports for the necessary-condition battery."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["RuleFiring", "VerdictReport", "jsonable"]

NOT_HYPERCYCLIC = "NotHypercyclic"
CONDITIONS_PASSED = "NecessaryConditionsPassed"

RULE_TORSION = "Torsion"
RULE_MONOTONE = "MonotoneWeightPower"
RULE_LOG_INTEGRAL = "LogIntegralNonzero"
RULE_UL_EMPTY = "ULEmpty"
RULE_LOCALLY_CONSTANT = "LocallyConstant"


def jsonable(value):
    """Recursively convert report payloads to JSON-friendly values.

    Fractions become exact "p/q" strings so nothing is lost in round-trips.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class RuleFiring:
    """One violated necessary condition, with its witness data."""

    rule: str
    params: dict
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "params": jsonable(self.params),
            "witnesses": jsonable(self.witnesses),
        }


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of the necessary-condition battery.

    Exactly one rule fires when the verdict is NotHypercyclic.  The passing
    verdict never asserts hypercyclicity; it only says that no implemented
    necessary condition failed at the configured horizons.

    ``log_integral`` keeps the ``hctest.LogIntegralResult`` the battery
    computed (None when it stopped before that rule), ``walk`` its
    ``hctest.ProductWalk`` and ``coset_problems`` the ``padic.CosetProblem``s
    of a windowed context (else None), so callers continue them instead of
    starting again; ``to_dict`` leaves all three out.
    """

    verdict: str
    fired_rule: RuleFiring | None
    tolerances: dict
    horizons: dict
    context: str
    notes: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)
    log_integral: object = field(default=None, compare=False)
    walk: object = field(default=None, compare=False)
    coset_problems: object = field(default=None, compare=False)

    @property
    def not_hypercyclic(self) -> bool:
        return self.verdict == NOT_HYPERCYCLIC

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fired_rule": self.fired_rule.to_dict() if self.fired_rule else None,
            "tolerances": jsonable(self.tolerances),
            "horizons": jsonable(self.horizons),
            "context": self.context,
            "notes": list(self.notes),
            "metadata": jsonable(self.metadata),
        }
