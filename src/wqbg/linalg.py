"""Small exact linear algebra helpers: rational solve, Smith normal form.

Matrices here are rank-of-the-group sized (a handful of rows for Cartan
matrices and cocharacter lattices), so plain fraction or integer elimination
is both exact and instant.
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


def smith_normal_form(mat):
    """Diagonalize an integer matrix over Z with a tracked left transform.

    Returns ``(diag, divisors, U)`` where ``U @ mat @ V`` is diagonal for
    some untracked unimodular V.  ``diag`` is the raw diagonal (one entry per
    row, nonnegative) -- together with U it presents the cokernel, which is
    what kappa computations use.  ``divisors`` is the same multiset
    normalized into an elementary divisor chain d_1 | d_2 | ... for display.
    """
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        piv = next(
            ((i, j) for j in range(t, ncols) for i in range(t, nrows) if a[i][j] != 0),
            None,
        )
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t by row gcd steps
            dirty = False
            for i in range(t + 1, nrows):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            # clear row t by column gcd steps
            for j in range(t + 1, ncols):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                break
        t += 1

    # raw diagonal, padded to one entry per row: rows past min(nrows, ncols)
    # (or rows whose pivot search failed) contribute a free Z factor, i.e. 0.
    diag = [abs(a[i][i]) if i < ncols else 0 for i in range(nrows)]
    # sign normalization is harmless for the cokernel (units of Z)

    from math import gcd

    divisors = [d for d in diag]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            di, dj = divisors[i], divisors[j]
            if di == 0 and dj != 0:
                divisors[i], divisors[j] = dj, 0
            elif di != 0 and dj % di != 0:
                g = gcd(di, dj)
                divisors[i], divisors[j] = g, di * dj // g
    return diag, divisors, u
