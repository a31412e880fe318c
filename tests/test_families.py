"""The family objects: the one lookup that tells group classes apart."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import hclab
from hclab.families import family
from hclab.groups import CIRCLE
from hclab.hctest import verdict
from hclab.weights import Weight

_GROUP_CLASSES = {"CircleGroup", "FiniteGroup", "PAdicContext"}


def _names(node) -> set[str]:
    """The class names an isinstance argument or a comparison operand spells."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _names(node.left) | _names(node.right)
    return set()


def family_tests(source: str) -> list[int]:
    """The lines of ``source`` that test a group's family themselves: an
    isinstance against a group class, or an identity test against CIRCLE
    or a group class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and _names(node.args[1]) & _GROUP_CLASSES):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
              and set().union(*map(_names, [node.left, *node.comparators])) & (_GROUP_CLASSES | {"CIRCLE"})):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_the_family_lookup_tells_group_classes_apart():
    # element coercions (an isinstance on CircleElement or PAdicNumber) test
    # an argument's class, not a family, and may stay where they are
    package = Path(hclab.__file__).parent
    found = {path.name: family_tests(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name not in ("groups.py", "families.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_kind_of_family_test():
    source = "\n".join([
        "isinstance(g, FiniteGroup)",
        "isinstance(g, (CircleElement, groups.PAdicContext))",
        "isinstance(g, CircleGroup | int)",
        "g is CIRCLE",
        "g is not CIRCLE",
        "type(g) is FiniteGroup",
        "isinstance(x, CircleElement)",
        "g == CIRCLE",
    ])
    assert family_tests(source) == [1, 2, 3, 4, 5, 6]


def test_a_group_without_a_family_is_rejected_by_the_lookup():
    class Unknown:
        pass

    class OnUnknown(Weight):
        group = Unknown()

    with pytest.raises(TypeError, match="unsupported group"):
        family(Unknown())
    # the verdict asks once, before any rule runs
    with pytest.raises(TypeError, match="unsupported group"):
        verdict(OnUnknown(), CIRCLE.element(Fraction(1, 3)))
