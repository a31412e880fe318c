"""The mutation census tool's site finder and flip, on a short source."""

import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "tools" / "mutation_census.py"
_SPEC = importlib.util.spec_from_file_location("mutation_census", _PATH)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

SOURCE = b"""x = 1
if a < b <= c:
    y = f(a) >= 2
z = "<" if p > q else "<="
w = (u
     >= v)
"""

# (line, column, byte offset, operator): a chained comparison gives one
# site per operator, the "<" inside a string none, and a comparison split
# over two lines its operator's own line
SITES = [(2, 6, 11, "<"), (2, 10, 15, "<="), (3, 14, 34, ">="), (4, 14, 52, ">"), (6, 6, 78, ">=")]


class _Ops(ast.NodeTransformer):
    """A module's tree with every comparison operator replaced by ==."""

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [ast.Eq() for _ in node.ops]
        return node


def _shape(source: bytes):
    """The program up to its comparison operators, and each node's line."""
    tree = _Ops().visit(ast.parse(source))
    return ast.dump(tree), [getattr(node, "lineno", None) for node in ast.walk(tree)]


def test_sites_locate_each_ordering_comparison():
    assert census.sites(SOURCE) == SITES
    for line, col, offset, op in SITES:
        assert SOURCE[offset:offset + len(op)] == op.encode()
        assert SOURCE.splitlines()[line - 1][col - 1:col - 1 + len(op)] == op.encode()


def test_a_flip_keeps_every_other_byte_and_line():
    for line, col, offset, op in SITES:
        new = census.FLIP[op]
        mutant = census.flip(SOURCE, offset, op)
        assert mutant[:offset] == SOURCE[:offset]
        assert mutant[offset:offset + len(new)] == new.encode()
        assert mutant[offset + len(new):] == SOURCE[offset + len(op):]
        assert _shape(mutant) == _shape(SOURCE)
        # the same sites on the same lines, the one flipped, and what
        # follows it on its line moved by the flip's change of length
        shift = len(new) - len(op)
        assert census.sites(mutant) == [
            (ln, c + (shift if ln == line and o > offset else 0), o + (shift if o > offset else 0),
             new if o == offset else o_op)
            for ln, c, o, o_op in SITES]


def test_the_exit_code_says_whether_any_mutant_lived(monkeypatch, capsys):
    # one site of a real module, with tier-1 replaced by a fixed outcome
    # after the clean run passes
    line = census.sites((census.REPO / "src" / "hclab" / "groups.py").read_bytes())[0][0]
    for outcome, code in (("killed", 0), ("survived", 1), ("timeout", 1)):
        runs = iter(["survived", outcome])
        monkeypatch.setattr(census, "tier1", lambda src: next(runs))
        assert census.main(["groups", "--line", str(line)]) == code
        assert capsys.readouterr().out.splitlines()[0].endswith(outcome)


@pytest.mark.parametrize("clean", ["killed", "timeout"])
def test_a_copy_that_fails_unmutated_stops_the_census(monkeypatch, capsys, clean):
    # tier-1 fails (or hangs) on the clean copy: no mutant is run, and none
    # is reported killed
    runs = []
    monkeypatch.setattr(census, "tier1", lambda src: runs.append(src) or clean)
    assert census.main(["groups"]) == 2
    assert len(runs) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unmutated copy" in err
