"""Exact finite root systems and cocharacter lattices.

Conventions (Bourbaki labelling throughout):

* Crystallographic factors carry integer root coordinates in the simple-root
  basis and integer coroot coordinates in the simple-coroot basis; the Cartan
  matrix is ``a[i][j] = <alpha_i^vee, alpha_j>``.
* H3/H4 live in the geometric representation over Z[phi], where
  ``s_i(alpha_j) = alpha_j + 2cos(pi/m_ij) alpha_i`` and 2cos(pi/5) = phi.
* I_m factors keep no coordinates at all: their positive roots are labelled
  by the m reflections of the dihedral group and reflections act by exact
  index arithmetic (rotation index mod m).  This sidesteps the cyclotomic
  ring Z[2cos(pi/m)] entirely.

A root system may carry a cocharacter lattice X_* bigger than the coroot
lattice (e.g. the GL_n lattice Z^n over type A_{n-1}).  Only two lattices
are built, and pi_1 = X_*/Z Phi^vee has a closed form on each: it is 0 on
the coroot lattice, and on a product of GL blocks it is one Z per block, the
sum of that block's coordinates (Z^n -> Z is onto and its kernel is spanned
by the coroots e_i - e_{i+1}), so kappa is the block sums in label order.

Coweights are stored in lattice coordinates; simple-coroot and
fundamental-coweight input is converted on construction.  All arithmetic is
exact (ints, Fraction, Golden).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .linalg import solve_rational
from .scalars import PHI, Golden, Rational

# ---------------------------------------------------------------------------
# type labels


class TypeLabelError(ValueError):
    """Unknown or malformed Cartan/Coxeter type label."""


_FACTOR_RE = re.compile(r"^(\d*)(GL|[A-IH])(\d+)$")
# factors in one label, multiplicities included; the largest product the
# package uses is 16A1.  get_group also refuses a label of more than
# coxeter.MAX_POSITIVE_ROOTS positive roots before it builds any
MAX_FACTORS = 64

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
    "H": (3, 4),
    "I": (3, None),
    "GL": (1, None),
}


def parse_type_label(label: str) -> list[tuple[str, int]]:
    """Split a product label like ``"A2"``, ``"B3xA1"`` or ``"2A3"``.

    Returns a list of (letter, rank) pairs; a numeric prefix repeats the
    factor ("2A3" == "A3xA3").  For I_m the number is the dihedral parameter
    m, for GL_n it is n.  A label of more than ``MAX_FACTORS`` factors is
    refused before any is expanded, so a forged multiplicity costs nothing.
    """
    parts = label.replace(" ", "").split("x")
    factors: list[tuple[str, int]] = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise TypeLabelError(f"malformed type label component {part!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        letter, rank = m.group(2), int(m.group(3))
        lo, hi = _RANK_BOUNDS[letter]
        if rank < lo or (hi is not None and rank > hi):
            raise TypeLabelError(f"rank {rank} out of range for type {letter}")
        if mult < 1:
            raise TypeLabelError(f"bad multiplicity in {part!r}")
        if len(factors) + mult > MAX_FACTORS:
            raise TypeLabelError(f"type label has more than {MAX_FACTORS} factors")
        factors.extend([(letter, rank)] * mult)
    if not factors:
        raise TypeLabelError(f"empty type label {label!r}")
    return factors


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif letter == "B":
        # alpha_n short: <alpha_n^vee, alpha_{n-1}> = -2
        for i in range(n - 1):
            edge(i, i + 1)
        a[n - 1][n - 2] = -2
    elif letter == "C":
        for i in range(n - 1):
            edge(i, i + 1)
        a[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif letter == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif letter == "G":
        edge(0, 1, -3, -1)
    else:
        raise TypeLabelError(f"no Cartan matrix for type {letter}{n}")
    return a


def coxeter_type(letter: str, n: int) -> tuple[str, int]:
    """The type of a factor's Weyl group: GL_n has that of A_{n-1}."""
    return ("A", n - 1) if letter == "GL" else (letter, n)


def coxeter_matrix(letter: str, n: int) -> list[list[int]]:
    """The Coxeter matrix of the irreducible type `letter` `n` in Bourbaki
    labels (for I_m, n is m): m_ij is 2, 3, 4 or 6 as a_ij a_ji is 0, 1, 2
    or 3 for a Weyl type; H3 has a 5 between nodes 1 and 2, and H4 extends
    its A-chain tail."""
    if letter == "I":
        return [[1, n], [n, 1]]
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    if letter == "H":
        for i in range(n - 1):
            m[i][i + 1] = m[i + 1][i] = 3
        m[0][1] = m[1][0] = 5
        return m
    a = _cartan_matrix(letter, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i][j] = (2, 3, 4, 6)[a[i][j] * a[j][i]]
    return m


# ---------------------------------------------------------------------------
# irreducible factors


@dataclass
class _CrystFactor:
    letter: str
    n: int
    cartan: list[list[int]]
    sym: list[int]  # symmetrizers d_i with d_i a_ij = d_j a_ji
    roots: list[tuple[int, ...]]  # positive roots, simples first
    coroots: np.ndarray  # int64, a row per root
    highest: int  # index into roots of the highest root

    crystallographic = True
    kind = "crystallographic"

    @property
    def n_pos(self):
        return len(self.roots)

    def pair_simple(self, i: int, coords) -> int:
        """<alpha_i^vee, beta> for beta in root coordinates."""
        return sum(self.cartan[i][j] * coords[j] for j in range(self.n))

    def reflect_simple(self, i: int, coords):
        c = self.pair_simple(i, coords)
        out = list(coords)
        out[i] -= c
        return tuple(out)


@dataclass
class _GoldenFactor:
    letter: str
    n: int
    cartan: list[list[Golden]]  # symmetric: C_ij = -2cos(pi/m_ij)
    roots: list[tuple[Golden, ...]]

    crystallographic = False
    kind = "golden"

    @property
    def n_pos(self):
        return len(self.roots)

    def pair_simple(self, i: int, coords) -> Golden:
        acc = Golden(0, 0)
        for j in range(self.n):
            acc = acc + self.cartan[i][j] * coords[j]
        return acc

    def reflect_simple(self, i: int, coords):
        c = self.pair_simple(i, coords)
        out = list(coords)
        out[i] = out[i] - c
        return tuple(out)


@dataclass
class _DihedralFactor:
    m: int  # I_m; positive roots <-> reflections t_0 .. t_{m-1}

    letter = "I"
    crystallographic = False
    kind = "dihedral"
    n = 2

    @property
    def n_pos(self):
        return self.m

    def __post_init__(self):
        # the generators as signed 1-based local indices (see _close_roots):
        # s_i is t_j, and t_j(beta_k) = +-beta_{(2j - k) mod m}, the sign
        # as in RootSystem.reflect_root
        m = self.m
        self.simple_images = [
            [(1 if (2 * j - k) % (2 * m) >= m else -1) * ((2 * j - k) % m + 1)
             for k in range(m)]
            for j in map(self.simple_reflection_index, range(self.n))
        ]

    # reflections: t_k; s_1 = t_0, s_2 = t_{m-1}
    def simple_reflection_index(self, i: int) -> int:
        return 0 if i == 0 else self.m - 1


def _close_roots(factor) -> None:
    """Generate all positive roots by reflecting simples (fixpoint closure).

    The closure records the generators as it goes: ``simple_images[i][k]``
    is s_i(beta_k) as a signed 1-based local index, +-(j + 1) for +-beta_j.
    s_i negates alpha_i and permutes the other positive roots, so every
    other image is a positive root, either seen already or new.
    """
    n = factor.n
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if factor.kind == "golden":
        simples = [tuple(Golden(int(i == j)) for j in range(n)) for i in range(n)]
    roots = list(simples)
    lookup = {r: k for k, r in enumerate(roots)}
    images: list[list[int]] = [[] for _ in range(n)]
    for pos, beta in enumerate(roots):  # the list grows as it is walked
        for i in range(n):
            if pos == i:  # the simples come first: beta = alpha_i
                images[i].append(-(i + 1))
                continue
            gamma = factor.reflect_simple(i, beta)
            if gamma not in lookup:
                lookup[gamma] = len(roots)
                roots.append(gamma)
            images[i].append(lookup[gamma] + 1)
    factor.roots = roots
    factor.root_lookup = lookup
    factor.simple_images = images


def _nonpos(c) -> bool:
    if isinstance(c, Golden):
        return c.sign() <= 0
    return c <= 0


def _build_cryst_factor(letter: str, n: int) -> _CrystFactor:
    a = _cartan_matrix(letter, n)
    # symmetrizers by diagram traversal: d_i a_ij = d_j a_ji
    frac: list[Optional[Fraction]] = [None] * n
    frac[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and frac[j] is None:
                frac[j] = frac[i] * a[i][j] / a[j][i]
                todo.append(j)
    assert all(f is not None and f > 0 for f in frac)
    denom = 1
    for f in frac:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    sym = [int(f * denom) for f in frac]
    g = 0
    for d in sym:
        g = gcd(g, d)
    sym = [d // g for d in sym]

    fac = _CrystFactor(letter, n, a, sym, [], None, -1)
    _close_roots(fac)

    # coroot coordinates: beta^vee_j = c_j d_j / d_beta, where
    # 2 d_beta = sum_ij c_i c_j d_i a_ij
    roots = np.array(fac.roots, dtype=np.int64)
    num = roots * sym
    d_beta = (num @ np.array(a, dtype=np.int64) * roots).sum(axis=1, keepdims=True)
    assert (d_beta % 2 == 0).all()
    d_beta //= 2
    assert (num % d_beta == 0).all()
    fac.coroots = num // d_beta

    # highest root: dominant and of maximal height
    best, best_h = -1, -1
    for k, beta in enumerate(fac.roots):
        if all(fac.pair_simple(i, beta) >= 0 for i in range(n)):
            h = sum(beta)
            if h > best_h:
                best, best_h = k, h
    fac.highest = best
    return fac


def _build_golden_factor(n: int) -> _GoldenFactor:
    m = coxeter_matrix("H", n)
    two_cos = {2: Golden(0), 3: Golden(1), 5: PHI}
    c = [
        [Golden(2) if i == j else -two_cos[m[i][j]] for j in range(n)]
        for i in range(n)
    ]
    fac = _GoldenFactor("H", n, c, [])
    _close_roots(fac)
    return fac


# ---------------------------------------------------------------------------
# coweights


@dataclass(frozen=True)
class Coweight:
    """A cocharacter, stored in the coordinates of the declared lattice.

    ``coords`` are exact (int or Fraction); ``RootSystem.coweight`` converts
    coroot and fundamental-coweight input to lattice coordinates, so two
    coweights are equal exactly when their lattice coordinates are.
    """

    coords: tuple[Rational, ...]

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coords)

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a - b for a, b in zip(self.coords, other.coords)))


class BasisMismatchError(ValueError):
    """Coweight given in a basis this root system cannot convert."""


# ---------------------------------------------------------------------------
# the root system / root datum


class RootSystem:
    """A finite root system with an optional cocharacter lattice.

    Global positive-root indexing: the ``rank`` simple roots come first (in
    label order across factors), then the remaining roots factor by factor in
    closure order.  Root index arithmetic is what every other module builds
    on; coordinates stay behind this interface.
    """

    def __init__(self, label: str):
        self.label = label
        self.factor_types = parse_type_label(label)
        self._gl_sizes: list[Optional[int]] = []
        self.factors = []
        for letter, n in self.factor_types:
            if letter == "GL":
                if n == 1:
                    self.factors.append(None)  # torus factor: no roots
                    self._gl_sizes.append(1)
                    continue
                self.factors.append(_build_cryst_factor("A", n - 1))
                self._gl_sizes.append(n)
            elif letter in "ABCDEFG":
                self.factors.append(_build_cryst_factor(letter, n))
                self._gl_sizes.append(None)
            elif letter == "H":
                self.factors.append(_build_golden_factor(n))
                self._gl_sizes.append(None)
            elif letter == "I":
                self.factors.append(_DihedralFactor(n))
                self._gl_sizes.append(None)

        # global simple indexing
        self.rank = 0
        self._factor_simple_offset = []
        for fac in self.factors:
            self._factor_simple_offset.append(self.rank)
            if fac is not None:
                self.rank += fac.n
        self.crystallographic = all(
            fac is None or fac.crystallographic for fac in self.factors
        )

        # global root list: simples first, then per-factor tails
        self._roots: list[tuple[int, int]] = []  # (factor idx, local root idx)
        for fi, fac in enumerate(self.factors):
            if fac is None:
                continue
            for i in range(fac.n):
                self._roots.append((fi, self._local_simple_root(fac, i)))
        for fi, fac in enumerate(self.factors):
            if fac is None:
                continue
            for k in range(fac.n_pos):
                if k not in {self._local_simple_root(fac, i) for i in range(fac.n)}:
                    self._roots.append((fi, k))
        self.n_pos_roots = len(self._roots)
        self._root_index = {rec: gi for gi, rec in enumerate(self._roots)}

        # the generators, from the closure's tables: simple_images[i, k] =
        # +-(j + 1) when s_i(beta_k) = +-beta_j, and s_i fixes the roots of
        # every other factor
        self.simple_images = np.tile(np.arange(1, self.n_pos_roots + 1), (self.rank, 1))
        for fi, fac in enumerate(self.factors):
            if fac is not None:
                glob = self._global_roots(fi)
                local = np.array(fac.simple_images)
                off = self._factor_simple_offset[fi]
                self.simple_images[off:off + fac.n, glob] = (
                    np.sign(local) * (glob[np.abs(local) - 1] + 1)
                )

        self.coxeter_matrix = self._build_coxeter_matrix()
        if self.crystallographic:
            self._build_crystallographic_tables()

    # -- local/global index helpers -------------------------------------

    def _local_simple_root(self, fac, i: int) -> int:
        if fac.kind == "dihedral":
            return fac.simple_reflection_index(i)
        return i  # closure lists simples first

    def global_root_index(self, fi: int, local: int) -> int:
        return self._root_index[(fi, local)]

    def _global_roots(self, fi: int) -> np.ndarray:
        """The global index of every local root of factor fi, in local order."""
        return np.array([self._root_index[(fi, k)] for k in range(self.factors[fi].n_pos)])

    def root_record(self, k: int) -> tuple[int, int]:
        return self._roots[k]

    # -- coxeter matrix ---------------------------------------------------

    def _build_coxeter_matrix(self):
        m = [[1 if i == j else 2 for j in range(self.rank)] for i in range(self.rank)]
        for fi, (letter, n) in enumerate(self.factor_types):
            if self.factors[fi] is None:
                continue
            sub = coxeter_matrix(*coxeter_type(letter, n))
            off = self._factor_simple_offset[fi]
            for i, row in enumerate(sub):
                m[off + i][off:off + len(row)] = row
        return m

    # -- crystallographic-only tables -------------------------------------

    def _build_crystallographic_tables(self) -> None:
        n, npos = self.rank, self.n_pos_roots
        self.cartan = [[0] * n for _ in range(n)]
        for fi, fac in enumerate(self.factors):
            if fac is None:
                continue
            off = self._factor_simple_offset[fi]
            for i in range(fac.n):
                for j in range(fac.n):
                    self.cartan[off + i][off + j] = fac.cartan[i][j]

        self.root_matrix = np.zeros((npos, n), dtype=np.int64)
        self.coroot_matrix = np.zeros((npos, n), dtype=np.int64)
        for fi, fac in enumerate(self.factors):
            if fac is not None:
                glob = self._global_roots(fi)
                off = self._factor_simple_offset[fi]
                self.root_matrix[glob, off:off + fac.n] = fac.roots
                self.coroot_matrix[glob, off:off + fac.n] = fac.coroots
        # <beta^vee, 2 rho> = 2 * (height of beta^vee)
        self.coroot_two_rho = 2 * self.coroot_matrix.sum(axis=1)
        # rho^vee, half the sum of the positive coroots, in the coroot basis
        self.rho_check_coroot_coords = tuple(
            Fraction(int(c), 2) for c in self.coroot_matrix.sum(axis=0)
        )

        # the cocharacter lattice: Z^n for GL_n factors, else the coroot
        # lattice; column f of _kappa_blocks sums the coordinates of GL factor f
        if not any(s is not None for s in self._gl_sizes):
            self.lattice_rank = n
            # pairing of lattice generators (= simple coroots) with roots
            self.lattice_pairing = np.array(self.cartan, dtype=np.int64)
            self.coroot_lattice_coords = np.eye(n, dtype=np.int64)
            self._kappa_blocks = np.zeros((n, 0), dtype=np.int64)
        else:
            if not all(s is not None for s in self._gl_sizes):
                raise TypeLabelError("GL factors cannot mix with plain factors")
            self.lattice_rank = sum(self._gl_sizes)
            pair = np.zeros((self.lattice_rank, n), dtype=np.int64)
            cor = np.zeros((n, self.lattice_rank), dtype=np.int64)
            roff, loff = 0, 0
            for size in self._gl_sizes:
                for j in range(size - 1):
                    pair[loff + j, roff + j] = 1
                    pair[loff + j + 1, roff + j] = -1
                    cor[roff + j, loff + j] = 1
                    cor[roff + j, loff + j + 1] = -1
                roff += size - 1
                loff += size
            self.lattice_pairing = pair
            self.coroot_lattice_coords = cor
            self._kappa_blocks = np.repeat(
                np.eye(len(self._gl_sizes), dtype=np.int64), self._gl_sizes, axis=0
            )

        # pairing of lattice generators with all positive roots
        self.lattice_root_pairing = self.lattice_pairing @ self.root_matrix.T
        # <gen_g, rho> = (1/2) sum over positive roots
        tot = self.lattice_root_pairing.sum(axis=1)
        self.lattice_rho_pairing = tuple(Fraction(int(t), 2) for t in tot)

        # 2 rho^vee in lattice coordinates (sum of all positive coroots)
        self.two_rho_check_lattice = tuple(
            int(v) for v in self.coroot_matrix.sum(axis=0) @ self.coroot_lattice_coords
        )

    # -- coweights ---------------------------------------------------------

    def require_crystallographic(self):
        if not self.crystallographic:
            raise BasisMismatchError(
                f"{self.label} is not crystallographic; no coweight lattice"
            )

    def coweight(self, coords: Sequence[Rational], basis: str = "coroot") -> Coweight:
        """Build a coweight from coroot / lattice / fundamental coordinates."""
        self.require_crystallographic()
        coords = [Fraction(c) if not isinstance(c, int) else c for c in coords]
        if basis == "lattice":
            if len(coords) != self.lattice_rank:
                raise BasisMismatchError("wrong length for lattice coordinates")
            return Coweight(tuple(coords))
        if basis == "coroot":
            if len(coords) != self.rank:
                raise BasisMismatchError("wrong length for coroot coordinates")
            vec = [Fraction(0)] * self.lattice_rank
            for j, c in enumerate(coords):
                for g in range(self.lattice_rank):
                    vec[g] += c * int(self.coroot_lattice_coords[j][g])
            return Coweight(tuple(_normalize_frac(v) for v in vec))
        if basis == "fundamental":
            if len(coords) != self.rank:
                raise BasisMismatchError("wrong length for fundamental coordinates")
            # Python ints: a Fraction of numpy ints cannot be hashed
            sol = solve_rational(self.lattice_pairing.T.tolist(), coords)
            if sol is None:
                raise BasisMismatchError("no lattice vector with those pairings")
            return Coweight(tuple(_normalize_frac(v) for v in sol))
        raise BasisMismatchError(f"unknown basis {basis!r}")

    def zero_coweight(self) -> Coweight:
        self.require_crystallographic()
        return Coweight((0,) * self.lattice_rank)

    def pair_root(self, cw: Coweight, k: int) -> Rational:
        """<coweight, beta_k> for a positive root index k."""
        self.require_crystallographic()
        col = self.lattice_root_pairing[:, k]
        return _normalize_frac(sum(c * int(p) for c, p in zip(cw.coords, col)))

    def pair_rho(self, cw: Coweight) -> Fraction:
        self.require_crystallographic()
        return sum(
            (Fraction(c) * p for c, p in zip(cw.coords, self.lattice_rho_pairing)),
            Fraction(0),
        )

    def coroot_combination(self, cw: Coweight):
        """Express a lattice vector as sum c_j alpha_j^vee, or None."""
        self.require_crystallographic()
        a = [
            [int(self.coroot_lattice_coords[j][g]) for j in range(self.rank)]
            for g in range(self.lattice_rank)
        ]
        return solve_rational(a, list(cw.coords))

    def dominance_leq(self, lam: Coweight, mu: Coweight) -> bool:
        """lam <= mu iff mu - lam is a nonnegative rational coroot sum."""
        self.require_crystallographic()
        diff = mu - lam
        combo = self.coroot_combination(diff)
        if combo is None:
            return False
        return all(c >= 0 for c in combo)

    def is_dominant(self, cw: Coweight) -> bool:
        self.require_crystallographic()
        return all(self.pair_root(cw, i) >= 0 for i in range(self.rank))

    def depth(self, cw: Coweight) -> Rational:
        """min over simple roots of <coweight, alpha>; input must be dominant."""
        self.require_crystallographic()
        vals = [self.pair_root(cw, i) for i in range(self.rank)]
        if any(v < 0 for v in vals):
            raise ValueError("depth is only defined for dominant coweights")
        return min(vals)

    def reflect_coweight(self, i: int, cw: Coweight) -> Coweight:
        """s_i acting on a coweight in lattice coordinates."""
        self.require_crystallographic()
        c = self.pair_root(cw, i)
        alpha_vee = self.coroot_lattice_coords[i]
        return Coweight(
            tuple(
                _normalize_frac(x - c * int(a)) for x, a in zip(cw.coords, alpha_vee)
            )
        )

    def dominant_representative(self, cw: Coweight) -> Coweight:
        v = cw
        while True:
            i = next(
                (j for j in range(self.rank) if self.pair_root(v, j) < 0), None
            )
            if i is None:
                return v
            v = self.reflect_coweight(i, v)

    def weyl_orbit(self, cw: Coweight) -> list[Coweight]:
        seen = {cw.coords: cw}
        todo = [cw]
        while todo:
            v = todo.pop()
            for i in range(self.rank):
                w = self.reflect_coweight(i, v)
                if w.coords not in seen:
                    seen[w.coords] = w
                    todo.append(w)
        return list(seen.values())

    # -- kappa / pi1 -------------------------------------------------------

    def kappa(self, cw: Coweight) -> tuple:
        """Class of an integral coweight in pi_1 = X_*/Z Phi^vee: the
        one-row case of ``kappa_rows``, in exact Python integers."""
        self.require_crystallographic()
        if not cw.is_integral():
            raise BasisMismatchError("kappa needs an integral coweight")
        row = np.array([[int(c) for c in cw.coords]], dtype=object)
        return tuple(int(c) for c in self.kappa_rows(row)[0])

    def kappa_rows(self, lam: np.ndarray) -> np.ndarray:
        """kappa of every row of an integer array of lattice coordinates: one
        column per GL factor, in label order, the sum of that factor's
        coordinates; no column on the coroot lattice, where pi_1 = 0.  No
        quotient has torsion, so no column is read modulo anything."""
        self.require_crystallographic()
        return lam @ self._kappa_blocks

    def pi1_presentation(self) -> list[int]:
        """Elementary divisors of pi_1, 0 for a free Z factor: one 0 per GL
        factor, none on the coroot lattice."""
        self.require_crystallographic()
        return [0] * self._kappa_blocks.shape[1]

    # -- reflections on roots ----------------------------------------------

    def reflect_root(self, beta: int, alpha: int) -> tuple[int, int]:
        """s_alpha(beta) as (sign, root index), both positive-root indices.

        The general formula from root coordinates, or the dihedral index
        rule.  No path in the package calls it: the generators are
        ``simple_images``, recorded by the root closure, and the reflections
        and root permutations are built from them.  It stays as the
        independent reference that the tests compare those tables against.
        """
        fi_b, lb = self._roots[beta]
        fi_a, la = self._roots[alpha]
        if fi_a != fi_b:
            return (1, beta)
        fac = self.factors[fi_a]
        if fac.kind == "dihedral":
            # roots beta_k sit at angles k pi/m; reflecting beta_k in the
            # mirror of beta_j lands at angle (2j - k + m) pi/m, which is a
            # positive root exactly when (2j - k) mod 2m >= m
            m = fac.m
            idx = (2 * la - lb) % m
            sign = 1 if (2 * la - lb) % (2 * m) >= m else -1
            return (sign, self._root_index[(fi_a, idx)])
        # coordinates: s_alpha(beta) = beta - <pairing> alpha
        b = fac.roots[lb]
        a = fac.roots[la]
        if fac.kind == "crystallographic":
            # <alpha^vee, beta> = sum_j (alpha^vee)_j <alpha_j^vee, beta>
            avee = fac.coroots[la].tolist()
            c = sum(avee[j] * fac.pair_simple(j, b) for j in range(fac.n))
            new = tuple(b[j] - c * a[j] for j in range(fac.n))
        else:
            # golden: <beta, alpha^vee> = 2 B(alpha,beta)/B(alpha,alpha)
            num = _golden_inner(fac, a, b)
            den = _golden_inner(fac, a, a)
            c = (num + num) / den
            new = tuple(b[j] - c * a[j] for j in range(fac.n))
        sign = 1
        if all(_nonpos(x) for x in new):
            sign = -1
            if fac.kind == "golden":
                new = tuple(Golden(0) - x for x in new)
            else:
                new = tuple(-x for x in new)
        local = fac.root_lookup[new]
        return (sign, self._root_index[(fi_a, local)])


def _golden_inner(fac: _GoldenFactor, x, y) -> Golden:
    acc = Golden(0)
    for i in range(fac.n):
        for j in range(fac.n):
            acc = acc + x[i] * fac.cartan[i][j] * y[j]
    return acc


def _normalize_frac(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def build_root_system(label: str) -> RootSystem:
    """Public constructor; raises TypeLabelError on malformed labels."""
    return RootSystem(label)
