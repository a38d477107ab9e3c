"""Reference values for the benchmark's answer checks, computed apart from wqbg.

Nothing here imports the program.  Every value is either a textbook
constant, with its source, or is computed from the textbook root data by
the small exact models below:

* Simple roots are the explicit vectors of Bourbaki, *Lie Groups and Lie
  Algebras*, Ch. IV-VI, Plates I-IX.  The Cartan matrix is
  a[i][j] = <alpha_i^vee, alpha_j> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i).
* W acts on simple-root coordinates by the integer matrices
  s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
* l_R(w) = rank(1 - w) in that representation (Carter, "Conjugacy classes
  in the Weyl group", Compositio Math. 25 (1972), Lemma 2), by exact
  elimination over the rationals.
* The sigma-twisted class of w0 is the orbit of w0 under
  w -> s_i w s_{sigma(i)}, which is the action x . w = x w sigma(x)^{-1}
  restricted to the generators.

Run ``python3 bench/oracle.py`` to print every value the checks use, next
to its source.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# textbook constants

# l_R(w0), Carter (1972), Table 3 (the class of w0 = -1, or of the longest
# element in types A_n, D_odd, E6): floor((n+1)/2) for A_n, n for B_n/C_n,
# n for D_even, n-1 for D_odd, 4 for E6, 7 for E7, 8 for E8, 4 for F4, 2 for G2.
def carter_lr_w0(letter: str, n: int) -> int:
    if letter == "A":
        return (n + 1) // 2
    if letter in "BC":
        return n
    if letter == "D":
        return n if n % 2 == 0 else n - 1
    return {("E", 6): 4, ("E", 7): 7, ("E", 8): 8, ("F", 4): 4, ("G", 2): 2}[(letter, n)]


# |Phi^+| (Bourbaki, Plates I-IX, item (I)).
def n_positive_roots(letter: str, n: int) -> int:
    if letter == "A":
        return n * (n + 1) // 2
    if letter in "BC":
        return n * n
    if letter == "D":
        return n * (n - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(letter, n)]


# |W| (Bourbaki, Plates I-IX, item (X)).
def weyl_order(letter: str, n: int) -> int:
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2**n * math.factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {("E", 6): 51840, ("F", 4): 1152, ("G", 2): 12}[(letter, n)]


# the permutation psi of the simple roots with -w0(alpha_i) = alpha_psi(i)
# (Bourbaki, Plates I-IX, item (XI)); 0-based one-line notation.
def minus_w0_perm(letter: str, n: int) -> tuple[int, ...]:
    ident = tuple(range(n))
    if letter == "A":
        return tuple(reversed(ident))
    if letter == "D" and n % 2 == 1:
        return ident[:-2] + (n - 1, n - 2)
    if (letter, n) == ("E", 6):
        return (5, 1, 4, 3, 2, 0)
    return ident


# ---------------------------------------------------------------------------
# simple roots (Bourbaki, Plates I-IX, item (II)) and the Cartan matrix

def _e(dim: int, *terms) -> tuple:
    v = [Fraction(0)] * dim
    for coef, idx in terms:
        v[idx - 1] += Fraction(coef)
    return tuple(v)


def simple_roots(letter: str, n: int) -> list[tuple]:
    h = Fraction(1, 2)
    if letter == "A":
        return [_e(n + 1, (1, i), (-1, i + 1)) for i in range(1, n + 1)]
    if letter in "BCD":
        roots = [_e(n, (1, i), (-1, i + 1)) for i in range(1, n)]
        last = {"B": _e(n, (1, n)), "C": _e(n, (2, n)), "D": _e(n, (1, n - 1), (1, n))}
        return roots + [last[letter]]
    if letter == "E":
        a1 = _e(8, (h, 1), (h, 8), *((-h, j) for j in range(2, 8)))
        a2 = _e(8, (1, 1), (1, 2))
        rest = [_e(8, (1, j), (-1, j - 1)) for j in range(2, n)]
        return [a1, a2] + rest
    if (letter, n) == ("F", 4):
        return [_e(4, (1, 2), (-1, 3)), _e(4, (1, 3), (-1, 4)), _e(4, (1, 4)),
                _e(4, (h, 1), (-h, 2), (-h, 3), (-h, 4))]
    if (letter, n) == ("G", 2):
        return [_e(3, (1, 1), (-1, 2)), _e(3, (-2, 1), (1, 2), (1, 3))]
    raise ValueError(f"no textbook model for {letter}{n}")


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def cartan_matrix(letter: str, n: int) -> list[list[int]]:
    """a[i][j] = <alpha_i^vee, alpha_j>."""
    roots = simple_roots(letter, n)
    out = []
    for ai in roots:
        row = []
        for aj in roots:
            v = 2 * _dot(ai, aj) / _dot(ai, ai)
            assert v.denominator == 1
            row.append(int(v))
        out.append(row)
    return out


def parse_label(label: str) -> tuple[str, int]:
    return label[0], int(label[1:])


def cartan_automorphisms(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Permutations p of the nodes with a[p(i)][p(j)] = a[i][j] (identity first)."""
    n = len(a)
    return [
        p for p in itertools.permutations(range(n))
        if all(a[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n))
    ]


def coxeter_automorphisms(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Permutations preserving the Coxeter matrix, i.e. the products a_ij a_ji."""
    n = len(a)
    prod = [[a[i][j] * a[j][i] for j in range(n)] for i in range(n)]
    return [
        p for p in itertools.permutations(range(n))
        if all(prod[p[i]][p[j]] == prod[i][j] for i in range(n) for j in range(n))
    ]


def two_rho_check(a: list[list[int]]) -> tuple[int, ...]:
    """2 rho^vee in simple-coroot coordinates: sum_i c_i a[i][j] = 2 for all j."""
    n = len(a)
    # Gaussian elimination on a^T c = 2
    m = [[Fraction(a[i][j]) for i in range(n)] + [Fraction(2)] for j in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    c = [m[i][n] / m[i][i] for i in range(n)]
    assert all(x.denominator == 1 and x > 0 for x in c), c
    return tuple(int(x) for x in c)


def superregular_multiple(letter: str, n: int) -> int:
    """Least c with c * 2 rho^vee superregular.

    <2 rho^vee, alpha_i> = 2 for every simple root, so the depth of
    c * 2 rho^vee is 2c; superregularity asks for depth >= 4 l(w0) + 2, or
    5 l(w0) + 3 for G2.
    """
    npos = n_positive_roots(letter, n)
    bound = 5 * npos + 3 if letter == "G" else 4 * npos + 2
    return -(-bound // 2)


# ---------------------------------------------------------------------------
# the matrix model of W

def _matmul(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def simple_reflection_matrices(a: list[list[int]]) -> list[tuple]:
    n = len(a)
    gens = []
    for i in range(n):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for j in range(n):
            rows[i][j] -= a[i][j]
        gens.append(tuple(tuple(r) for r in rows))
    return gens


def longest_element(gens: list[tuple]) -> tuple:
    n = len(gens)
    w = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    while True:
        # w(alpha_i) is column i; it is positive iff its coordinates are >= 0
        asc = next((i for i in range(n) if all(w[r][i] >= 0 for r in range(n))), None)
        if asc is None:
            return w
        w = _matmul(w, gens[asc])


def reflection_length(w: tuple) -> int:
    """rank(1 - w) by exact elimination."""
    n = len(w)
    m = [[Fraction(int(r == c) - w[r][c]) for c in range(n)] for r in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def twisted_class_lr(a: list[list[int]], perm: tuple[int, ...]) -> int:
    """min l_R over the sigma-twisted class of w0, from the matrix model."""
    gens = simple_reflection_matrices(a)
    w0 = longest_element(gens)
    seen = {w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(gens):
                v = _matmul(_matmul(g, w), gens[perm[i]])
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return min(reflection_length(w) for w in seen)


def class_lr(label: str, perm: tuple[int, ...]) -> tuple[int, str]:
    """l_R(O) for the sigma-twisted class O of w0, with where the value came from.

    For sigma = id, l_R is a class function, so l_R(O) = l_R(w0); for
    sigma = Ad(w0), the twisted class of w0 is {w0}.  Both read Carter's
    table.  Every other sigma uses the matrix model.
    """
    letter, n = parse_label(label)
    if perm == tuple(range(n)) or perm == minus_w0_perm(letter, n):
        return carter_lr_w0(letter, n), "Carter table"
    return twisted_class_lr(cartan_matrix(letter, n), perm), "matrix model"


def a1_admissible_size(m: int) -> int:
    """|Adm(m alpha^vee)| for A1.

    The affine Weyl group of A1 is infinite dihedral: one element of length
    0 and two of each length k >= 1, and u <= w iff l(u) < l(w) or u = w.
    The translations t^{+-m alpha^vee} have length <m alpha^vee, 2 rho> = 2m,
    so Adm holds every element of length < 2m and the two translations:
    1 + 2 (2m - 1) + 2 = 4m + 1.
    """
    return 1 + 2 * (2 * m - 1) + 2


def closed_form_value(mu_coroot: tuple[int, ...], defect: int, npos: int, lr: int) -> Fraction:
    """sum m_i - defect/2 + (|Phi^+| - l_R(O))/2, for basic b (nu = 0).

    <mu, rho> = sum m_i when mu = sum m_i alpha_i^vee, since
    <alpha_i^vee, rho> = 1.
    """
    return sum(mu_coroot) - Fraction(defect, 2) + Fraction(npos - lr, 2)


def main() -> None:
    rows = []
    for label in ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
                  "D4", "D5", "E6", "F4", "G2"]:
        letter, n = parse_label(label)
        a = cartan_matrix(letter, n)
        for perm in coxeter_automorphisms(a):
            lr, source = class_lr(label, perm)
            rows.append(dict(
                type=label, sigma=" ".join(str(p + 1) for p in perm),
                preserves_cartan=perm in cartan_automorphisms(a),
                lR_class=lr, source=source,
                n_pos=n_positive_roots(letter, n), order=weyl_order(letter, n),
                two_rho_check=two_rho_check(a),
                superregular_multiple=superregular_multiple(letter, n),
            ))
    for row in rows:
        print(json.dumps(row))
    for m in (6, 7, 8):
        print(json.dumps(dict(type="A1", mu=[m], adm_size=a1_admissible_size(m),
                              d_adm=str(closed_form_value((m,), 0, 1, 1)))))
    print(json.dumps(dict(type="A2", mu=[14, 14],
                          d_adm=str(closed_form_value((14, 14), 0, 3, carter_lr_w0("A", 2))))))


if __name__ == "__main__":
    main()
