"""One object per group family: the circle, finite groups and truncated p-adics.

The spec grammar, the tasks, the necessary conditions that apply and the
orbit statistic all depend on the family of the group: torsion is a finite
order, a declared-rational angle or the zero p-adic step; only the p-adics
have the windowed coset reduction and the ball rules; the circle's orbits
are swept, and the other groups, which share one enumerable surface
(``groups``), are counted exhaustively here, on the context that resolves
the set (``_resolved``), and priced in pairs (``Family.orbit_pairs``).
``family(group)`` finds a group's object by its type, the one place outside
``groups`` that tells the group classes apart, and ``parse_group`` by the
spec's kind.  Each family holds the tables of its spec objects, which
``read_fields`` checks.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from fractions import Fraction

from . import equidist, padic
from .borel import BallSet, FiniteSubset, IntervalSet, arc_pieces
from .errors import HclabError, SpecValidationError
from .groups import (CIRCLE, MAX_CIRCLE_HORIZON, MAX_ORBIT_DENOMINATOR, CircleGroup, FiniteGroup,
                     OrbitSequence, PAdicContext, catalog)
from .repcheck import circle_has_fixed_character, fixed_irrep_multiplicity, noncyclic_equivalence_check
from .report import RULE_TORSION, RuleFiring
from .weights import ExprWeight, FiniteWeight, PAdicTableWeight, StepFunction, StepWeight

__all__ = ["Family", "family", "parse_group", "read_fields"]

# the errors a family's spec parser raises on a bad field; a float() may
# also overflow
_FIELD_ERRORS = (HclabError, OverflowError, TypeError, ValueError, ZeroDivisionError)
# the most residues p^(precision + window) a zp / qp context may have: the
# exhaustive p-adic paths visit every residue
MAX_PADIC_RESIDUES = 3 ** 8
# the most (translate, term) pairs an equidist task's exhaustive counts may
# visit (``Family.orbit_pairs``): about 11 s at 1.1 us a pair on one core of
# a 2-vCPU x86-64 host; a set that is one point of its resolving context
# visits none
MAX_EXHAUSTIVE_PAIRS = 10 ** 7
# the most digits of a spec's rational literal, and the largest decimal
# exponent it may give (Python's own integer-string limit): a literal spells
# integers below 10^8600, where Fraction("1e-10000000") builds 10^(10^7)
MAX_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# the most points of a spec's grid (quadrature, scan or weight): 32 MB a float64 array
MAX_GRID_POINTS = 2 ** 22


# ---------------------------------------------------------------------------
# the spec grammar: a spec object's table maps each key it allows to its
# reader, read(value, name, diags, *context), which returns the value or None
# with a diagnostic naming ``name`` (``group.p``), or raises on a literal


def read_fields(desc, name, table, diags, *context, defaults=None):
    """The entries of the object ``desc`` by ``table``, in its order, a key
    it lacks read as its default (a required key's is None); unknown keys
    are a diagnostic.  None when ``desc`` is not an object."""
    if not isinstance(desc, dict):
        return None
    unknown = desc.keys() - table.keys()
    if unknown:
        diags.append(f"{name or 'spec'}: unknown fields {sorted(unknown)}")
    given = {**defaults, **desc} if defaults else desc
    prefix = f"{name}." if name else ""
    return {key: read(given[key], prefix + key, diags, *context) for key, read in table.items() if key in given}


def _given(value, *_):
    """The reader of a value that its object's parser reads."""
    return value


def _integer(minimum, maximum=None):
    """The reader of an integer in [minimum, maximum] (``_parse_int``)."""
    return lambda value, name, diags, *_: _parse_int(value, name, minimum, diags, maximum)


@functools.lru_cache(maxsize=4096)
def _rational(text: str) -> Fraction:
    """The rational a spec string spells, of at most ``MAX_LITERAL_DIGITS``
    digits and a decimal exponent of at most as much; a weight's tables
    repeat a few strings, so each is parsed once."""
    digits = sum(map(str.isdecimal, text))
    if digits > MAX_LITERAL_DIGITS:
        raise SpecValidationError(f"a rational literal of {digits} digits exceeds the limit {MAX_LITERAL_DIGITS}")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_LITERAL_DIGITS:
        raise SpecValidationError(f"the decimal exponent {exponent[1]} of a rational literal exceeds "
                                  f"the limit {MAX_LITERAL_DIGITS}")
    return Fraction(text)


def _parse_int(value, field, minimum, diags, maximum=None):
    """An integer in [minimum, maximum] (a JSON integer or an integer
    string; None leaves that side open), or None with a diagnostic that
    names the field."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        k = int(value)
    except ValueError:
        diags.append(f"{field}: {value!r} is not an integer")
        return None
    if minimum is not None and k < minimum:
        diags.append(f"{field}: {value!r} is below the minimum {minimum}")
        return None
    if maximum is not None and k > maximum:
        diags.append(f"{field}: {value!r} is above the maximum {maximum}")
        return None
    return k


def _parse_int_list(value, field, minimum, diags, maximum=None):
    """A list of integers in [minimum, maximum], or None with a diagnostic
    that names the field."""
    if not isinstance(value, list):
        diags.append(f"{field}: expected a list of integers, got {value!r}")
        return None
    out = [_parse_int(entry, field, minimum, diags, maximum) for entry in value]
    return None if None in out else out


def _angle(value, name, diags, *_):
    """A binary64 angle: a number or a numeric string, never a bool."""
    if not isinstance(value, bool):
        return CIRCLE.from_float(float(value))
    diags.append(f"{name}: expected a number, got {value!r}")


def _flag(value, name, diags, *_):
    if isinstance(value, bool):
        return value
    diags.append(f"{name}: expected true or false, got {value!r}")


def _catalog_group(value, name, diags):
    groups = catalog()
    if isinstance(value, str) and value in groups:
        return groups[value]
    diags.append(f"{name}: unknown finite group {value!r}; catalog: {sorted(groups)}")


# ---------------------------------------------------------------------------
# the families


class Family:
    """The decisions hclab takes by group family; the defaults serve the
    enumerable groups.  Each family also has its spec tables and parsers
    (``parse_group``, ``parse_element``, ``parse_set``, ``parse_weight``:
    each appends its diagnostics to ``diags`` and returns None for a field
    it rejects, or raises), its torsion rule ``torsion(group, a)``, and
    ``reps(group, element, k_max)`` when it runs that task (k_max bounds the
    circle's fixed-character search)."""

    # the tasks a spec on this family may not run, with their diagnostic
    task_needs = {"padic": "padic: requires a zp or qp group"}
    # whether character sweeps run on this family
    characters = False
    # the largest horizon in ``horizons.N_list``; None leaves it open
    max_horizon: int | None = None
    # the diagnostic of a reps spec without an element when this family's
    # reps reads one; None when it runs over every element
    reps_element: str | None = None
    group_defaults: dict = {}

    def parse_element(self, group, desc, diags):
        """An object of one ``element_fields`` key, or a bare value by the last's."""
        if not isinstance(desc, dict):
            return self.element_fields[next(reversed(self.element_fields))](desc, "element", diags, group)
        fields = read_fields(desc, "element", self.element_fields, diags, group)
        if len(fields) == 1:
            return fields.popitem()[1]
        diags.append(f"element: need {' or '.join(map(repr, self.element_fields))}")
        return None

    def as_element(self, group, x):
        """``x`` as an element of ``group``."""
        return x

    def ul_n_max(self, group, config) -> int:
        """The rows the U/L ball scan reads from the product walk."""
        return 0

    def coset_problems(self, w, a) -> list | None:
        """The problems a verdict on ``w`` decomposes into, or None when it
        is decided on the group itself."""
        return None

    def table_rules(self, w, a, walk, horizons: dict) -> RuleFiring | None:
        """The first firing of the rules that run after the monotone scan;
        each records the horizon it reached in ``horizons``."""
        return None

    def orbit_count(self, K, seq, N: int, translate=None) -> int:
        """The terms 1..N-1 of ``seq`` in K translated by ``translate``, on
        the coarsest context that resolves K (``_resolved``)."""
        r = _resolved(K, seq, translate)
        return _support_count(r.K, r.seq.group, r.seq.residue_support(N), r.translate)

    def orbit_extremes(self, sets, seq, Ns: list[int]) -> list[list[tuple[int, int]]]:
        """Per set, the least and greatest ``orbit_count`` over all
        translates at each N.  The orbit runs through the cyclic subgroup of
        its step with period P, so a set that is one point is hit (N-2)//P +
        1 times at most, and at least (N-1)//P times when the step generates
        the whole group, else never; other sets are counted exhaustively."""
        out = []
        for K in sets:
            r = _resolved(K, seq)
            group, P = r.seq.group, r.period
            if r.one_point:
                out.append([((N - 1) // P if P == len(group) else 0, (N - 2) // P + 1) for N in Ns])
                continue
            counts = ([_support_count(r.K, group, support, x) for x in group.elements()]
                      for support in map(r.seq.residue_support, Ns))
            out.append([(min(c), max(c)) for c in counts])
        return out

    def orbit_pairs(self, sets, seq, Ns) -> int:
        """The (translate, term) pairs ``orbit_extremes`` visits: per set
        that is not one point, every translate of its resolving context
        against the min(P, N - 1) distinct terms at each N."""
        resolved = (_resolved(K, seq) for K in sets)
        return sum(len(r.seq.group) * sum(min(r.period, N - 1) for N in Ns) for r in resolved if not r.one_point)


_Resolved = namedtuple("_Resolved", "K seq translate period one_point")


def _resolved(K, seq: OrbitSequence, translate=None) -> _Resolved:
    """K, the orbit and a translate on the coarsest context that resolves K
    (``K.resolved``), with the orbit's period there and whether K is one
    point of it (a ball of radius exponent r >= 1, a one-element subset).
    A ball set of finest level j reads residues mod p^(j + window) only, and
    reduction to that quotient is a homomorphism, so the element and the
    translate are projected there (``from_residue``) and every count stays
    the same.  A finite group resolves to itself."""
    group, K = K.resolved(seq.group)
    if group != seq.group:
        seq = OrbitSequence(group, group.from_residue(seq.element.residue))
        if translate is not None:
            translate = group.from_residue(translate.residue)
    return _Resolved(K, seq, translate, group.element_order(seq.element), K.measure() * len(group) == 1)


def _support_count(K, group, support, x=None) -> int:
    """Terms y of an enumerable orbit's support (``residue_support``) with
    x * y in K, counted with multiplicity (y itself when x is None)."""
    return sum(mult for y, mult in support if K.contains(y if x is None else group.mul(x, y)))


def _is_arc_literal(desc) -> bool:
    return isinstance(desc, list) and len(desc) == 2 and isinstance(desc[0], list) and isinstance(desc[1], str)


class CircleFamily(Family):
    """The circle: exact angles, algebra sets of arcs and points, expression
    and step weights, and orbit counts from one event sweep."""

    characters = True
    max_horizon = MAX_CIRCLE_HORIZON
    reps_element = "reps: the circle variant needs an 'element'"
    group_fields = {"circle": {"group": _given}}
    element_fields = {"rational": lambda value, *_: CIRCLE.element(_rational(str(value))), "angle": _angle}
    # the forms of a weight, each named by its first key
    weight_forms = {"expr": {"expr": lambda value, *_: str(value), "grid_points": _integer(1, MAX_GRID_POINTS)},
                    "step": {"step": _given}}

    def parse_group(self, fields, diags):
        return CIRCLE

    def parse_element(self, group, desc, diags):
        if not isinstance(desc, dict):  # a bare string is exact, a bare number binary64
            desc = {"rational" if isinstance(desc, str) else "angle": desc}
        element = super().parse_element(group, desc, diags)
        # the orbit is held as integer residues mod the angle's denominator
        if element is not None and element.value.denominator > MAX_ORBIT_DENOMINATOR:
            diags.append(f"element: the angle's denominator, at least "
                         f"2^{element.value.denominator.bit_length() - 1}, exceeds the limit "
                         f"2^{MAX_ORBIT_DENOMINATOR.bit_length() - 1}")
            return None
        return element

    def parse_set(self, group, desc, diags):
        arcs, points = [], []
        pieces = desc if (isinstance(desc, list) and desc and not _is_arc_literal(desc)) else [desc]
        for piece in pieces:
            if isinstance(piece, dict) and set(piece) == {"point"}:
                points.append(_rational(str(piece["point"])))
            elif (isinstance(piece, list) and len(piece) == 2
                  and isinstance(piece[0], list) and len(piece[0]) == 2):
                lo, hi = (_rational(str(v)) for v in piece[0])
                arc, ends = arc_pieces(lo, hi, str(piece[1]))
                arcs.append(arc)
                points += ends
            else:
                raise SpecValidationError(f"set literal {piece!r} not understood")
        return IntervalSet.from_pieces(arcs, points)

    def parse_weight(self, group, desc, diags):
        form = next((key for key in self.weight_forms if key in desc), None) if isinstance(desc, dict) else None
        if form is None:
            diags.append("weight: circle weights need 'expr' or 'step'")
            return None
        fields = read_fields(desc, "weight", self.weight_forms[form], diags)
        if form == "expr":
            return None if None in fields.values() else ExprWeight(**fields)
        return StepWeight(StepFunction.of([(self.parse_set(group, set_desc, diags), _rational(str(value)))
                                           for set_desc, value in fields["step"]]))

    def reps(self, group, element, k_max: int) -> dict:
        k = circle_has_fixed_character(element, k_max)
        return {"kind": "circle", "k_max": k_max, "fixed_character": k, "has_fixed_character": k is not None}

    def as_element(self, group, x):
        return group.element(x)

    def torsion(self, group, a):
        """An angle declared rational has finite order; a binary64 angle is
        treated as irrational, so its rotation is equidistributed (Weyl)."""
        if a.declared_rational:
            return RuleFiring(RULE_TORSION, {"order": a.value.denominator}, {"angle": a.value})
        return None

    def orbit_count(self, K, seq, N, translate=None):
        counter = equidist.OrbitCounter.from_sequence(seq, N)
        return int(counter.count_in_translated(K, [0 if translate is None else translate])[0])

    def orbit_pairs(self, sets, seq, Ns):
        """The sweep visits no (translate, term) pairs."""
        return 0

    def orbit_extremes(self, sets, seq, Ns):
        """From one sorted orbit per N and each set's boundaries prepared
        once (``equidist.OrbitCounter.sup_candidates``)."""
        if not sets:
            return []
        bounds = [equidist.Boundaries.prepare(seq.element.value.denominator, S) for S in sets]
        out = [[] for _ in sets]
        for n in Ns:
            counter = equidist.OrbitCounter.from_sequence(seq, n)
            for row, b in zip(out, bounds):
                row += counter.sup_candidates(b).extremes()
        return out


class FiniteFamily(Family):
    """The catalog's finite groups: element indices, index sets, one exact
    value per element; every element has finite order."""

    group_fields = {"finite": {"group": _given, "name": _catalog_group}}
    group_defaults = {"name": None}
    element_fields = {"index": lambda value, name, diags, group: _parse_int(value, name, 0, diags,
                                                                            group.order - 1)}
    weight_fields = {"values": lambda value, *_: [_rational(str(v)) for v in value]}

    def parse_group(self, fields, diags):
        return fields["name"]

    def parse_set(self, group, desc, diags):
        if not (isinstance(desc, dict) and set(desc) == {"indices"}):
            diags.append(f"sets: finite sets need {{'indices': [...]}}, got {desc!r}")
            return None
        indices = _parse_int_list(desc["indices"], "sets", 0, diags)
        return FiniteSubset.of(group, indices) if indices is not None else None

    def parse_weight(self, group, desc, diags):
        if isinstance(desc, dict) and "values" in desc:
            return FiniteWeight(group, read_fields(desc, "weight", self.weight_fields, diags)["values"])
        diags.append("weight: finite weights need {'values': [...]}")
        return None

    def reps(self, group, element, k_max: int) -> dict:
        per_element = []
        for a in [element] if element is not None else group.elements():
            cert = fixed_irrep_multiplicity(a, group)
            per_element.append({"element": a, "order": cert.order, "multiplicity": cert.multiplicity,
                                "verdict": cert.verdict})
        return {"kind": "finite", "group": group.name, "order": group.order,
                "noncyclic_equivalence_holds": noncyclic_equivalence_check(group), "elements": per_element}

    def torsion(self, group, a):
        """Every element of a finite group has finite order."""
        return RuleFiring(RULE_TORSION, {"order": group.element_order(a)}, {"element": a, "group": group.name})


def _digits(value, name, diags, group):
    digits = _parse_int_list(value, name, 0, diags)
    return None if digits is None else group.from_digits(digits)


# a table weight's level and values, inline or under "table", and its marker
_TABLE_FIELDS = {
    "level": lambda value, name, diags, group: _parse_int(value, name, -group.window, diags, group.precision),
    "values": _given,
}


class PAdicFamily(Family):
    """Truncated Z_p and windowed Q_p: elements by digits or value, unions
    of balls, tables constant on cosets; the U/L ball rules (Chen and Chu,
    "Hypercyclic weighted translations on groups", Proc. AMS 2011)."""

    task_needs = {"reps": "reps: requires a finite group or the circle"}
    group_fields = {"zp": {"group": _given, "p": _integer(2), "precision": _integer(1)}}
    group_fields["qp"] = dict(group_fields["zp"], window=_integer(0))
    group_defaults = {"p": None, "precision": 4}
    element_fields = {"digits": _digits,
                      "value": lambda value, name, diags, group: group.element(_rational(str(value)))}
    weight_forms = {"table": {"table": _given, "declared_locally_constant": _flag},
                    "values": {**_TABLE_FIELDS, "declared_locally_constant": _flag}}

    def parse_group(self, fields, diags):
        p, precision, window = fields["p"], fields["precision"], fields.get("window", 0)
        if None in (p, precision, window):
            return None
        digits = precision + window
        # p >= 2, so a digit count at the limit's bit length already exceeds
        # it; testing that first never forms a huge power
        if digits >= MAX_PADIC_RESIDUES.bit_length() or p ** digits > MAX_PADIC_RESIDUES:
            diags.append(f"group: {p}^{digits} residues exceed the limit {MAX_PADIC_RESIDUES}")
            return None
        # the residue limit keeps p small enough for trial division
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            diags.append(f"group: p = {p} is not a prime")
            return None
        return PAdicContext(p, precision, window)

    def parse_set(self, group, desc, diags):
        balls = []
        for piece in desc if isinstance(desc, list) else [desc]:
            if not isinstance(piece, dict) or set(piece) != {"center", "radius_exp"}:
                raise SpecValidationError(f"ball literal {piece!r} not understood")
            radius_exp = _parse_int(piece["radius_exp"], "sets.radius_exp", None, diags)
            if radius_exp is None:
                return None
            balls.append((radius_exp, group.element(_rational(str(piece["center"]))).residue))
        return BallSet.from_balls(group, balls)

    def parse_weight(self, group, desc, diags):
        form = "table" if isinstance(desc, dict) and "table" in desc else "values"
        table = desc["table"] if form == "table" else desc
        if not isinstance(table, dict) or not isinstance(table.get("values"), dict):
            diags.append("weight: p-adic weights need {'level': k, 'values': {...}}")
            return None
        defaults = {"level": group.precision, "declared_locally_constant": True}
        fields = read_fields(desc, "weight", self.weight_forms[form], diags, group, defaults=defaults)
        if form == "table":
            fields.update(read_fields(table, "weight.table", _TABLE_FIELDS, diags, group, defaults=defaults))
        level, declared = fields["level"], fields["declared_locally_constant"]
        if None in (level, declared):  # the level is checked before p^(level + window) is formed
            return None
        size = group.prime ** (level + group.window)
        values = {}
        for key, val in table["values"].items():
            res = group.element(_rational(str(key))).residue % size
            values[res] = _rational(str(val))
        return PAdicTableWeight(group, level, values, declared)

    def torsion(self, group, a):
        """The only torsion element of an additive p-adic group is 0; a value
        that vanishes at the working precision is treated the same way."""
        if a.is_zero():
            return RuleFiring(RULE_TORSION, {"reason": "translation element is 0 at working precision"}, {})
        return None

    def ul_n_max(self, group, config):
        # the U/L rows of a windowed context come from its coset problems
        if group.window:
            return 0
        return config.ul_n_max if config.ul_n_max is not None else min(group.modulus * group.prime, 64)

    def coset_problems(self, w, a):
        """A windowed context decomposes into coset problems over Z_p."""
        return padic.qp_reduction(w, a) if w.group.window > 0 else None

    def table_rules(self, w, a, walk, horizons):
        """The locally-constant obstruction, then the U/L ball scan to the
        walk's horizon."""
        horizons["ul_n_max"] = walk.ul_n_max
        return padic.locally_constant_obstruction(w, a) or padic.ul_scan(walk)


_BY_TYPE = {CircleGroup: CircleFamily(), FiniteGroup: FiniteFamily(), PAdicContext: PAdicFamily()}
_BY_KIND = {kind: fam for fam in _BY_TYPE.values() for kind in fam.group_fields}


def family(group) -> Family:
    """The family object of ``group``, by its type."""
    try:
        return _BY_TYPE[type(group)]
    except KeyError:
        raise TypeError(f"unsupported group {group!r}") from None


def parse_group(desc, diags):
    """The group a spec's ``group`` object describes, or None with a diagnostic."""
    if not isinstance(desc, dict) or "group" not in desc:
        diags.append("group: expected an object with a 'group' field")
        return None
    kind = desc["group"]
    fam = _BY_KIND.get(kind) if isinstance(kind, str) else None
    if fam is None:
        diags.append(f"group: unknown kind {kind!r}")
        return None
    return fam.parse_group(read_fields(desc, "group", fam.group_fields[kind], diags, defaults=fam.group_defaults),
                           diags)
