"""Tests for ``hclab.lemmas`` as a module: it alone holds the paper's
operator identities, the command line never imports it, and its scale
diagram reads the engine's ball rows.  The identities themselves are
tested beside the code they check (``test_hctest``, ``test_padic``,
``test_equidist``, ``test_acceptance``)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hclab
from hclab import equidist, hctest, lemmas, padic, weights
from hclab.groups import PAdicContext
from hclab.lemmas import conjugate_scale, multiplication_diagram_defect, translation_diagram_defect
from hclab.weights import PAdicTableWeight, weight_product

_MOVED_HELPERS = ("_level_set", "_bisect_edge", "_grid_shift", "_weighted_shift", "_translate_function")


def test_the_cli_does_not_import_the_lemmas():
    # a fresh interpreter, so no other test's import is seen
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hclab.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, hclab.cli; sys.exit('hclab.lemmas' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_each_lemma_lives_in_the_lemmas_module_only():
    for name in lemmas.__all__:
        assert getattr(lemmas, name).__module__ == "hclab.lemmas"
    for module in (equidist, hctest, padic, weights):
        for name in (*lemmas.__all__, *_MOVED_HELPERS):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__


def test_each_diagram_runs_through_the_one_basis_loop_and_pullback(monkeypatch):
    calls = []
    for name in ("_basis_defect", "_pullback"):
        real = getattr(lemmas, name)
        monkeypatch.setattr(lemmas, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "1"})
    a = ctx.element(1)
    checks = [lambda: translation_diagram_defect(w, a, ctx.element(4)),
              lambda: conjugate_scale(w, a, 3, 2).commutation_defect(),
              lambda: multiplication_diagram_defect(w, ctx.element(2))]
    for check in checks:
        calls.clear()
        assert check() == 0
        # one basis loop, and one pullback on each side of the diagram per indicator
        assert calls.count("_basis_defect") == 1
        assert calls.count("_pullback") == 2 * ctx.modulus


_VALUES = [Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3", "7/5")]


@st.composite
def _scale_cases(draw):
    """A window-0 table weight, an element, n >= 1 with n a nonzero at
    working precision, and a center x'."""
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(1, 3 if p < 5 else 2))
    ctx = PAdicContext(p, K)
    level = draw(st.integers(0, K))
    values = draw(st.lists(st.sampled_from(_VALUES), min_size=p ** level, max_size=p ** level))
    a = ctx.from_residue(draw(st.integers(1, ctx.modulus - 1)))
    n = draw(st.integers(1, 2 * p * p))
    assume(not a.scalar_mul(n).is_zero())
    return PAdicTableWeight(ctx, level, dict(enumerate(values))), a, n, draw(st.integers(0, ctx.modulus - 1))


@settings(max_examples=200, deadline=None)
@given(_scale_cases())
def test_the_reduced_table_is_the_n_step_product(case):
    # the table is read from the ball rows of the engine's U/L test; the
    # reference is the product of n point values along the orbit
    w, a, n, x_prime = case
    ctx = w.context
    tri = conjugate_scale(w, a, n, x_prime)
    scale = ctx.prime ** tri.scale_exponent
    assert tri.reduced_weight.table == {
        s: weight_product(w, a, n, ctx.from_residue(scale * s + x_prime))
        for s in range(len(tri.reduced_weight.table))}
