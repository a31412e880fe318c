"""Representation criteria: circle characters and the finite-group
eigenvalue-1 test via regular-representation cycle counting.

General irreducible representations are never computed.  For a finite group
the regular representation contains every irreducible with multiplicity equal
to its dimension, and the eigenvalue-1 multiplicity of a permutation matrix is
its number of cycles; right multiplication by ``a`` decomposes into
|G| / order(a) cycles, one of which accounts for the trivial representation.
So "some nontrivial irreducible fixes a vector under a" is exactly
|G| / order(a) > 1, and the whole criterion reduces to exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import CircleElement, FiniteGroup

__all__ = [
    "FixedIrrepCertificate",
    "circle_has_fixed_character",
    "fixed_irrep_multiplicity",
    "regular_rep_cycles",
    "noncyclic_equivalence_check",
]


def circle_has_fixed_character(a: CircleElement, k_max: int) -> int | None:
    """Smallest 1 <= k <= k_max whose character is fixed by rotation ``a``.

    Only declared-rational elements can be caught: the smallest such k is the
    reduced denominator of the angle.  Irrational-flagged elements always
    return None.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    if not a.declared_rational:
        return None
    den = a.value.denominator
    return den if den <= k_max else None


@dataclass(frozen=True)
class FixedIrrepCertificate:
    """Outcome of the eigenvalue-1 test for one group element.

    ``multiplicity`` is the eigenvalue-1 multiplicity of right multiplication
    by ``a`` in the regular representation (= its cycle count = |G|/ord(a));
    the verdict is True when a nontrivial irreducible also fixes a vector,
    i.e. when the multiplicity exceeds the single copy owed to the trivial
    representation.
    """

    group_name: str
    element: int
    order: int
    multiplicity: int
    verdict: bool


def regular_rep_cycles(group: FiniteGroup, a: int) -> list[list[int]]:
    """Cycle decomposition of the permutation x -> x * a on the group."""
    seen = [False] * group.order
    cycles = []
    for start in group.elements():
        if seen[start]:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = group.mul(x, a)
        cycles.append(cyc)
    return cycles


def fixed_irrep_multiplicity(a: int, group: FiniteGroup) -> FixedIrrepCertificate:
    order = group.element_order(a)
    multiplicity = group.order // order
    return FixedIrrepCertificate(
        group_name=group.name,
        element=a,
        order=order,
        multiplicity=multiplicity,
        verdict=multiplicity > 1,
    )


def noncyclic_equivalence_check(group: FiniteGroup) -> bool:
    """Validate, exhaustively, that "every element gets verdict True" is
    equivalent to "no element generates the group".  Returns the truth of the
    biconditional, which a correct implementation makes True for every group.
    """
    all_flagged = all(fixed_irrep_multiplicity(a, group).verdict for a in group.elements())
    non_cyclic = not any(group.generates(a) for a in group.elements())
    return all_flagged == non_cyclic
