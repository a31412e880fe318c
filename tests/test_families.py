"""The family objects: the one lookup that tells group classes apart; the
weights, which alone tell weight classes apart; and the one spec-grammar
helper that checks an object's keys."""

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
_WEIGHT_CLASSES = {"Weight", "ExprWeight", "StepWeight", "FiniteWeight", "PAdicTableWeight"}


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


def class_tests(tree: ast.AST, classes: set[str]) -> list[int]:
    """The lines under ``tree`` that test a value against ``classes``: an
    isinstance against one of them, or an identity test against one."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and _names(node.args[1]) & classes):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
              and set().union(*map(_names, [node.left, *node.comparators])) & classes):
            lines.append(node.lineno)
    return sorted(set(lines))


def family_tests(source: str) -> list[int]:
    """The lines of ``source`` that test a group's family themselves: an
    isinstance against a group class, or an identity test against CIRCLE
    or a group class."""
    return class_tests(ast.parse(source), _GROUP_CLASSES | {"CIRCLE"})


def module_function_tests(tree: ast.Module, classes: set[str]) -> list[int]:
    """``class_tests`` inside the module-level functions of ``tree`` only: a
    method may test a value against its own class."""
    return sorted(line for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for line in class_tests(node, classes))


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


def test_only_the_weights_tell_weight_classes_apart():
    # the walk, the products and the operator read a weight through its own
    # value_at and product_rows; the circle grid's domain path is the
    # operator's, in weights
    package = Path(hclab.__file__).parent
    hctest = ast.parse((package / "hctest.py").read_text())
    weights = ast.parse((package / "weights.py").read_text())
    assert class_tests(hctest, _WEIGHT_CLASSES | {"CircleGrid"}) == []
    assert module_function_tests(weights, _WEIGHT_CLASSES) == []


def test_the_guard_sees_each_kind_of_weight_test():
    tree = ast.parse("\n".join([
        "def rows(w, d, x):",
        "    isinstance(w, StepWeight)",
        "    isinstance(w, (weights.FiniteWeight, int))",
        "    type(w) is not PAdicTableWeight",
        "    isinstance(d, CircleGrid)",
        "    isinstance(x, CircleElement)",
        "class StepWeight(Weight):",
        "    def __eq__(self, other):",
        "        return isinstance(other, ExprWeight | Weight)",
    ]))
    assert class_tests(tree, _WEIGHT_CLASSES | {"CircleGrid"}) == [2, 3, 4, 5, 9]
    assert module_function_tests(tree, _WEIGHT_CLASSES) == [2, 3, 4]


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


def unknown_key_checks(tree: ast.AST) -> list[str]:
    """The functions under ``tree`` that subtract from an object's key set
    (``set(desc) - ...`` or ``desc.keys() - ...``): a hand-written check of
    its keys against the ones it allows."""
    def key_set(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "set")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "keys"))

    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and key_set(node.left)})


def test_only_read_fields_checks_an_objects_keys():
    # every spec object's keys are checked against its table by read_fields;
    # set literals keep their own shape checks, which compare, not subtract
    package = Path(hclab.__file__).parent
    for name in ("cli.py", "families.py"):
        assert unknown_key_checks(ast.parse((package / name).read_text())) in ([], ["read_fields"]), name
    source = "def parse_group(desc):\n    extra = set(desc) - {'group'}\ndef f(d):\n    return d.keys() - {'a'}\n"
    assert unknown_key_checks(ast.parse(source)) == ["f", "parse_group"]
