"""Exact rational solve for the small systems of the package.

Matrices here are rank-of-the-group sized (a handful of rows for Cartan
matrices and cocharacter lattices), so plain fraction elimination is both
exact and instant.
"""

from __future__ import annotations

from fractions import Fraction


def solve_rational(a, b):
    """Solve a @ x = b exactly over Q; returns None when inconsistent.

    ``a`` is a list of rows (possibly non-square), ``b`` a vector.  When the
    system is underdetermined any one solution is returned (free variables
    set to zero).
    """
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(a, b)]
    nrows = len(m)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, nrows):
        if m[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return x

