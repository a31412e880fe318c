"""A ball-list oracle for p-adic ball sets.

A set is a sorted tuple of balls (level j, center residue mod
p^(j + window)), normalised by a fixpoint: balls inside a coarser ball are
dropped and complete families of p sibling balls fuse into their parent,
until nothing changes.  Every operation works on the ball lists directly,
and membership tests each ball in turn."""

from fractions import Fraction

from hclab.errors import WindowExceeded
from hclab.groups import PAdicContext


def normalize(ctx, balls):
    p, m, K = ctx.prime, ctx.window, ctx.precision
    work = set()
    for j, c in balls:
        if not -m <= j <= K:
            raise WindowExceeded(f"ball level {j} outside [{-m}, {K}]")
        work.add((j, c % p ** (j + m)))
    changed = True
    while changed:
        changed = False
        # drop balls contained in a coarser one: one of their ancestors
        pruned = {(j, c) for j, c in work
                  if not any((i, c % p ** (i + m)) in work for i in range(-m, j))}
        if pruned != work:
            work, changed = pruned, True
            continue
        # fuse complete sibling families into their parent
        for j, c in sorted(work, reverse=True):
            if j <= -m:
                continue
            parent = c % p ** (j - 1 + m)
            siblings = {(j, parent + t * p ** (j - 1 + m)) for t in range(p)}
            if siblings <= work:
                work -= siblings
                work.add((j - 1, parent))
                changed = True
                break
    return tuple(sorted(work))


def contains(ctx, balls, residue):
    p, m = ctx.prime, ctx.window
    return any(residue % p ** (j + m) == c for j, c in balls)


def measure(ctx, balls):
    p, m = ctx.prime, ctx.window
    return sum((Fraction(1, p ** (j + m)) for j, _ in balls), Fraction(0))


def union(ctx, a, b):
    return normalize(ctx, list(a + b))


def intersection(ctx, a, b):
    out = []
    p, m = ctx.prime, ctx.window
    for j1, c1 in a:
        for j2, c2 in b:
            (jc, cc), (jf, cf) = sorted([(j1, c1), (j2, c2)])
            # the finer ball meets the coarser one iff it sits inside it
            if cf % p ** (jc + m) == cc:
                out.append((jf, cf))
    return normalize(ctx, out)


def complement(ctx, balls):
    p, m = ctx.prime, ctx.window
    level = max((j for j, _ in balls), default=-m)
    return normalize(ctx, [(level, r) for r in range(p ** (level + m))
                           if not contains(ctx, balls, r)])


def difference(ctx, a, b):
    return intersection(ctx, a, complement(ctx, b))


def translated(ctx, balls, residue):
    p, m = ctx.prime, ctx.window
    return normalize(ctx, [(j, (c + residue) % p ** (j + m)) for j, c in balls])


def resolved(ctx, balls):
    """The context of precision max(1, finest level) with the same window."""
    finest = max((j for j, _ in balls), default=1)
    return PAdicContext(ctx.prime, max(1, finest), ctx.window)


def render(ctx, balls):
    """The ``repr`` of the set."""
    inner = ", ".join(f"{c}+p^{j}Zp" for j, c in balls)
    return f"BallSet({ctx.name}; {inner})"
