"""Finite Coxeter group elements and the longest-element machinery.

An element is the signed permutation it induces on the positive roots,
stored as a numpy int16 array ``images`` with 1-based signed entries:
``images[k] = +-(j+1)`` means ``w(beta_k) = +-beta_j``.  This makes length an
inversion count, composition a single gather, and right descents an O(1)
lookup (the simple roots sit at indices 0..rank-1).

An element is fixed by its images of the simple roots (Casselman, Invent.
Math. 116, 1994): if u and w agree on them, u^{-1} w fixes every root, so
u = w.  The index of ``ElementTable`` therefore keys a row by its columns
0..rank-1 alone and answers every lookup with one ``np.searchsorted``.

Dihedral factors participate through the same encoding.  The generators
are the rows of ``RootSystem.simple_images``, recorded by the root closure
(by exact rotation-index arithmetic for a dihedral factor, so no dihedral
cosines are ever materialized).

The maximal-length witnesses of ``build_witness`` are built inside the
group they are asked for.  A factor, or a sub-type of the witness table's
induction, is a list of nodes of that group, and its Weyl group is the
parabolic subgroup W_J on those nodes, which has the sub-type's length and
Bruhat order; so no group of a sub-type is ever built.

Bruhat order uses the one-branch descent recursion:

    u <= w  iff  u = e, or for s with ws < w:
                 (us <= ws if us < u else u <= ws)

which costs O(l(w)) steps; ``bruhat_leq_rows`` takes them for arrays of pairs.

Reflection length is the codimension of the fixed space in the reflection
representation.  ``reflection_lengths`` counts that fixed space for a whole
array of rows at once by averaging the integer traces of the powers of each
row.  The independent cross-check, a breadth-first search of the reflection
Cayley graph of an enumerable group, is the ``reflection_bfs`` fixture of the
test suite (``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .cartan import (
    RootSystem, build_root_system, coxeter_matrix, coxeter_type, parse_type_label,
)

DEFAULT_ENUM_BUDGET = 10**6
# positive roots of the largest group built.  On 2 shared cores get_group
# takes 0.6 s on A50 (1275 roots), 1.2 s on A63 (2016), 1.7 s on A70 (2485),
# 1.0 s on 64B8 (4096) and 1.6 s on 64E8 (7680, 174 MB peak)
MAX_POSITIVE_ROOTS = 2048
# rows taken at once by ``ElementTable.inverses``, ``twisted_class`` and
# ``max_length_twisted_coset``
_ROW_BLOCK = 1 << 16

_GROUP_CACHE: dict[str, "CoxeterGroup"] = {}


def get_group(label: str) -> "CoxeterGroup":
    """Shared per-label group instance (root data are immutable)."""
    if label not in _GROUP_CACHE:
        _GROUP_CACHE[label] = CoxeterGroup.from_label(label)
    return _GROUP_CACHE[label]


class BudgetExceeded(RuntimeError):
    """Enumeration or scan refused: group order above the configured budget."""


class WitnessError(RuntimeError):
    """A transcribed witness failed its defining assertions."""


# ---------------------------------------------------------------------------
# elements


class GroupElement:
    __slots__ = ("group", "images", "_hash", "_length")

    def __init__(self, group: "CoxeterGroup", images: np.ndarray):
        self.group = group
        images.setflags(write=False)
        self.images = images
        self._hash = None
        self._length = None

    def __eq__(self, other):
        return isinstance(other, GroupElement) and np.array_equal(
            self.images, other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __repr__(self):
        return f"<{self.group.label} element {self.word() or 'e'}>"

    def key(self) -> bytes:
        return self.images.tobytes()

    def length(self) -> int:
        if self._length is None:
            self._length = int(np.count_nonzero(self.images < 0))
        return self._length

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.group, compose_images(self.images, other.images))

    def inverse(self) -> "GroupElement":
        im = self.images
        inv = np.empty_like(im)
        idx = np.abs(im) - 1
        inv[idx] = np.sign(im) * np.arange(1, len(im) + 1, dtype=im.dtype)
        return GroupElement(self.group, inv)

    def is_identity(self) -> bool:
        return self.length() == 0

    def right_descents(self) -> list[int]:
        return [i for i in range(self.group.rank) if self.images[i] < 0]

    def word(self) -> str:
        """A reduced word, 1-based generators, greedy smallest right descent."""
        return " ".join(str(i + 1) for i in self.word_indices())

    def word_indices(self) -> list[int]:
        w = self
        out: list[int] = []
        while True:
            ds = w.right_descents()
            if not ds:
                return out[::-1]
            i = ds[0]
            out.append(i)
            w = w * w.group.gens[i]


def compose_images(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Images of a*b (apply b first): c[k] = sign(b[k]) * a[|b[k]|-1]."""
    idx = np.abs(b) - 1
    c = a[idx].copy()
    np.negative(c, out=c, where=b < 0)
    return c


def compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``compose_images`` row by row: the images of a[r] * b[r]."""
    return a[np.arange(len(a))[:, None], np.abs(b) - 1] * np.sign(b)


# ---------------------------------------------------------------------------
# the group


# the order of each irreducible factor, as a stream of small integer terms
_ORDER_TERMS = {
    "A": lambda n: range(2, n + 2),  # (n + 1)!
    "B": lambda n: itertools.chain(range(2, n + 1), itertools.repeat(2, n)),  # 2^n n!
    "C": lambda n: itertools.chain(range(2, n + 1), itertools.repeat(2, n)),
    "D": lambda n: itertools.chain(range(2, n + 1), itertools.repeat(2, n - 1)),
    "E": lambda n: ({6: 51840, 7: 2903040, 8: 696729600}[n],),
    "F": lambda n: (1152,),
    "G": lambda n: (12,),
    "H": lambda n: ({3: 120, 4: 14400}[n],),
    "I": lambda m: (2 * m,),
    "GL": lambda n: range(2, n + 1),  # n!
}


def order_of_type(factors, limit: Optional[int] = None) -> int:
    """|W| in closed form from the (letter, rank) factors that
    ``parse_type_label`` returns; no root system is built.

    The product is taken a term at a time.  With `limit`, it stops as soon
    as it passes `limit` and returns that partial product: a number above
    `limit`, which is all a count check needs, after a few dozen terms
    however large the ranks or the number of factors.
    """
    order = 1
    for letter, r in factors:
        for term in _ORDER_TERMS[letter](r):
            order *= term
            if limit is not None and order > limit:
                return order
    return order


# the number of positive roots of each irreducible factor
_N_POS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
    "H": lambda n: {3: 15, 4: 60}[n],
    "I": lambda m: m,
    "GL": lambda n: n * (n - 1) // 2,
}


def n_pos_of_type(factors) -> int:
    """The number of positive roots in closed form from the (letter, rank)
    factors that ``parse_type_label`` returns; no root system is built."""
    return sum(_N_POS[letter](r) for letter, r in factors)


class CoxeterGroup:
    """The finite Coxeter/Weyl group of a root system.

    The group keeps what depends on it and a diagram automorphism sigma
    alone, never on mu or b, in one dict keyed by ``sigma.perm``: the l_R(O)
    of ``lr_class_of_longest`` and the verified witness of
    ``build_witness``, each computed on first use.  Neither reads the
    element table (the orbit and the witness are built from generators), so
    installing a new table keeps them, and they live as long as the group.
    No budget applies to them: the QBG minimum, which needs the graph, is
    kept on the graph instead and reached only through ``qbg.build_qbg``.
    The group also keeps its affine Weyl group, reached only through
    ``affine.affine_group``; it reads no element table either.
    """

    def __init__(self, root_system: RootSystem):
        self.rs = root_system
        self.label = root_system.label
        self.rank = root_system.rank
        self.n_pos = root_system.n_pos_roots
        dtype = np.int16 if self.n_pos < 2**14 else np.int32
        self.identity = GroupElement(
            self, np.arange(1, self.n_pos + 1, dtype=dtype)
        )
        self.gen_images = root_system.simple_images.astype(dtype)
        self.gen_images.setflags(write=False)
        self.gens = [GroupElement(self, g) for g in self.gen_images]
        self._w0: Optional[GroupElement] = None
        self._enum: Optional[ElementTable] = None
        # the quantum Bruhat graph over the rows of _enum (see qbg.build_qbg)
        self._qbg = None
        # the affine Weyl group (see affine.affine_group)
        self._affine = None
        # per sigma.perm: {"lr_class": l_R(O), "witness": x}, filled on first use
        self._twisted: dict[tuple[int, ...], dict] = {}
        self._reflections: Optional[list[GroupElement]] = None
        self._root_search: Optional[tuple] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "CoxeterGroup":
        """The group of `label`; BudgetExceeded, before any root is built,
        when it has more than ``MAX_POSITIVE_ROOTS`` positive roots."""
        n_pos = n_pos_of_type(parse_type_label(label))
        if n_pos > MAX_POSITIVE_ROOTS:
            raise BudgetExceeded(
                f"{label} has {n_pos} positive roots, above the limit of {MAX_POSITIVE_ROOTS}"
            )
        return cls(build_root_system(label))

    def order(self) -> int:
        return order_of_type(self.rs.factor_types)

    # -- words ---------------------------------------------------------------

    def element_from_word(self, word: str | Sequence[int]) -> GroupElement:
        """Parse a 1-based generator word ("1 2 1" or an int sequence)."""
        if isinstance(word, str):
            letters = [int(t) for t in word.replace(",", " ").split()]
        else:
            letters = [int(t) for t in word]
        el = self.identity
        for t in letters:
            if not 1 <= t <= self.rank:
                raise ValueError(f"generator index {t} out of range")
            el = el * self.gens[t - 1]
        return el

    # -- basic ops -----------------------------------------------------------

    def longest_element(self) -> GroupElement:
        if self._w0 is None:
            w = parabolic_longest(self, range(self.rank))
            assert w.length() == self.n_pos
            self._w0 = w
        return self._w0

    def ad_w0_permutation(self) -> "Automorphism":
        """The diagram permutation psi with w0 s_i w0 = s_{psi(i)}: w0 s_i w0
        is the reflection in w0(alpha_i) = -alpha_{psi(i)}."""
        w0 = self.longest_element()
        return Automorphism(self, tuple(-int(w0.images[i]) - 1 for i in range(self.rank)))

    def bruhat_leq(self, u: GroupElement, w: GroupElement) -> bool:
        """u <= w: the one-pair case of ``bruhat_leq_rows``."""
        return bool(bruhat_leq_rows(self, u.images[None], w.images[None])[0])

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, budget: int = DEFAULT_ENUM_BUDGET) -> "ElementTable":
        # The budget is checked before the cache: a table built earlier under
        # a larger budget must not let a smaller one through.
        n = self.order()
        if n > budget:
            raise BudgetExceeded(
                f"|W({self.label})| = {n} exceeds the enumeration budget {budget}"
            )
        if self._enum is not None:
            return self._enum
        gens = [(np.abs(g.images) - 1, np.sign(g.images)) for g in self.gens]
        levels = [self.identity.images[None]]
        # with no generators (rank 0) the identity is the whole group
        while len(levels[-1]) and gens:
            cand = np.concatenate([levels[-1][:, gidx] * gsgn for gidx, gsgn in gens])
            # w s_i is one longer or one shorter than w, and every shorter
            # element sits in an earlier level: new means one longer
            cand = cand[(cand < 0).sum(axis=1) == len(levels)]
            _, first = np.unique(_keys(cand, self.rank, self.n_pos), return_index=True)
            levels.append(cand[np.sort(first)])
        mat = np.concatenate(levels)
        assert len(mat) == n, (len(mat), n)
        return self._cache_enum(ElementTable(self, mat))

    def _cache_enum(self, table: "ElementTable") -> "ElementTable":
        self._enum = table
        self._qbg = None  # its vertices were the rows of the old table
        return self._enum

    # -- reflections ------------------------------------------------------------

    def root_search(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The positive roots, breadth-first from the simple roots.

        Depth 0 is the simple roots.  For each later depth d the search
        holds (beta, j, prev): read-only arrays over the roots first reached
        at depth d, with s_j(beta_prev) = beta and prev at depth d - 1, one
        pair (j, prev) per root.  Every positive root beta that is not
        simple has a simple alpha_j with (beta, alpha_j) > 0, and s_j(beta)
        is then a positive root of smaller height; so a chain of simple
        reflections through positive roots joins beta to a simple root, and
        the search reaches it.  It reads the generators' images alone, the
        same for every kind of factor, and raises RuntimeError after its last
        depth if a root is left unreached.

        The depths are searched once and kept on the group: the reflections,
        the graph build and every diagram automorphism read them.
        """
        if self._root_search is not None:
            return self._root_search
        depth = np.full(self.n_pos, -1)
        depth[:self.rank] = d = 0
        frontier = np.arange(self.rank)
        depths = []
        while len(frontier):
            # s_j(beta') for every generator j and frontier root beta'
            j, f = np.nonzero(self.gen_images[:, frontier] > 0)
            beta = self.gen_images[j, frontier[f]] - 1
            new = np.flatnonzero(depth[beta] < 0)
            # the first pair that reaches a root is kept
            beta, first = np.unique(beta[new], return_index=True)
            new = new[first]
            d += 1
            depth[beta] = d
            if len(beta):
                depths.append((beta, j[new], frontier[f[new]]))
            frontier = beta
        if (depth < 0).any():
            raise RuntimeError(
                f"{self.label}: roots {np.flatnonzero(depth < 0).tolist()} not reached "
                "from the simple roots"
            )
        for arrays in depths:
            for a in arrays:
                a.setflags(write=False)
        self._root_search = tuple(depths)
        return self._root_search

    def reflections(self) -> list[GroupElement]:
        """The reflection t_beta for every positive root index.

        Built by conjugation along ``root_search``, whose simple roots'
        reflections are the generators: the reflection in w(beta) is
        w t_beta w^{-1}, so s_j(beta') = beta gives t_beta = s_j t_beta' s_j.
        It needs integer gathers alone.
        """
        if self._reflections is None:
            gens = self.gen_images
            rows = np.zeros((self.n_pos, self.n_pos), dtype=gens.dtype)
            rows[:self.rank] = gens
            for beta, j, prev in self.root_search():
                rows[beta] = compose_rows(compose_rows(gens[j], rows[prev]), gens[j])
            self._reflections = [GroupElement(self, r) for r in rows]
        return self._reflections

    # -- reflection length --------------------------------------------------------

    def reflection_length(self, w: GroupElement) -> int:
        """dim V - dim V^w: the one-row case of ``reflection_lengths``."""
        return int(reflection_lengths(self, w.images[None])[0])

    @cached_property
    def _root_coefficients(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The tables ``reflection_lengths`` reads, built on first use.

        a[j, i] + b[j, i] phi is the coefficient of alpha_i in beta_j; b is
        zero outside H3/H4, and the columns of I_m simple roots are zero, as
        those roots carry no coordinates.  The list holds the global indices
        of the positive roots of each I_m factor.
        """
        rs = self.rs
        a = np.zeros((self.n_pos, self.rank), dtype=np.int64)
        b = np.zeros_like(a)
        dihedral = []
        for fi, fac in enumerate(rs.factors):
            if fac is None:
                continue
            roots = [rs.global_root_index(fi, k) for k in range(fac.n_pos)]
            if fac.kind == "dihedral":
                dihedral.append(np.array(roots))
                continue
            off = rs._factor_simple_offset[fi]
            for j, coords in zip(roots, fac.roots):
                for i, c in enumerate(coords):
                    if fac.kind == "golden":
                        a[j, off + i], b[j, off + i] = c.a, c.b
                    else:
                        a[j, off + i] = c
        return a, b, dihedral


def reflection_lengths(group: CoxeterGroup, rows: np.ndarray) -> np.ndarray:
    """l_R(w) = dim V - dim V^w for every row w of images (Carter,
    "Conjugacy classes in the Weyl group", Compositio Math. 25, 1972), as
    int64, in exact integer arithmetic.

    Proof.  V is the sum of the factors' reflection representations, and w
    acts on each summand alone, so dim V^w adds up over any split of the
    factors.  Let w have order m and let U be a sum of summands; w^m = 1
    on U.  P = (1/m) sum_{k<m} w^k satisfies w P = P, as w permutes the
    terms cyclically, so P maps U into U^w, and P is the identity on U^w:
    P is a projection onto U^w, and

        dim U^w = tr P = (1/m) sum_{k<m} tr(w^k | U).

    Take for U the factors with root coordinates.  In the simple-root basis
    column i of w^k is w^k(alpha_i) = +-beta_j, so its diagonal entry is
    +- the alpha_i-coefficient of beta_j, and each trace is an integer
    gather on the coefficient table.  On H3/H4 the coefficients are a + b
    phi with integer a, b; the sum is m dim U^w, an integer, and phi is
    irrational, so the phi-parts sum to 0 and m divides the rest: both are
    asserted for every row.  One loop takes the powers w^k = w w^{k-1} on
    the simple-root columns, which fix an element, and a row stops once its
    power is e again, after m terms.

    An I_m factor carries no coordinates.  On its plane the reflections,
    the elements of odd length, fix a line, and every other element but e
    is a rotation, which fixes only 0.  The inversions of w among the
    factor's roots count the length of w's component there, so the factor
    adds 1, 2 or 0 by their parity.  A GL_1 factor has no roots and adds
    nothing.
    """
    a, b, dihedral = group._root_coefficients
    rank = group.rank
    cols = np.arange(rank)
    identity = group.identity.images[:rank]
    n = len(rows)
    sum_a = np.zeros(n, dtype=np.int64)
    sum_b = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    power = np.broadcast_to(identity, (n, rank))  # w^0
    while len(live):
        sgn, j = np.sign(power), np.abs(power) - 1
        sum_a[live] += (sgn * a[j, cols]).sum(axis=1)
        sum_b[live] += (sgn * b[j, cols]).sum(axis=1)
        order[live] += 1
        power = compose_rows(rows[live], power)
        again = (power != identity).any(axis=1)
        live, power = live[again], power[again]
    assert (sum_b == 0).all() and (sum_a % order == 0).all(), "not a trace table"
    lr = (rank - 2 * len(dihedral)) - sum_a // order
    for roots in dihedral:
        neg = (rows[:, roots] < 0).sum(axis=1)
        lr += np.where(neg % 2 == 1, 1, 2 * (neg > 0))
    return lr


def bruhat_leq_rows(group: CoxeterGroup, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u[r] <= w[r] in Bruhat order for every row pair of two arrays of images.

    The lifting property (Deodhar's property Z; Bjorner-Brenti, Combinatorics
    of Coxeter Groups, Prop. 2.2.7): if w s < w, then u <= w iff
    min(u, u s) <= w s.  Every live row takes the smallest right descent s_i
    of its w, so w becomes w s_i and u becomes u s_i when u(alpha_i) < 0,
    all rows at once.  A row stops true once l(u) = 0 (e is below every
    element) and false once l(u) > l(w).
    """
    leq = np.zeros(len(u), dtype=bool)
    live = np.arange(len(u))
    lu, lw = (u < 0).sum(axis=1), (w < 0).sum(axis=1)
    while True:
        keep = (lu > 0) & (lu <= lw)
        if not keep.all():
            leq[live[~keep]] = lu[~keep] == 0
            live, u, w, lu, lw = live[keep], u[keep], w[keep], lu[keep], lw[keep]
            if not len(live):
                return leq
        r = np.arange(len(live))
        i = (w[:, :group.rank] < 0).argmax(axis=1)
        s = group.gen_images[i]
        idx, sgn = np.abs(s) - 1, np.sign(s)
        down = u[r, i] < 0
        w = w[r[:, None], idx] * sgn
        u = np.where(down[:, None], u[r[:, None], idx] * sgn, u)
        lu, lw = lu - down, lw - 1


# ---------------------------------------------------------------------------
# element tables


class ElementTable:
    """All group elements, BFS-by-length order, with dense indexing.

    An element is fixed by its images of the simple roots, so a row's key
    packs only its columns 0..rank-1, digits ``images[i] + n_pos`` in base
    2 n_pos + 1, into uint64 words; the keys are sorted once.  A key of more
    than one word (16A1) is viewed as a structured dtype, which sorts and
    searches lexicographically with the same calls.

    Every caller of ``enumerate`` shares one table, and ``element`` hands out
    views of `mat`, so the table takes `mat` and makes it and its derived
    arrays read-only.
    """

    def __init__(self, group, mat):
        self.group = group
        self.mat = mat
        self.lengths = (mat < 0).sum(axis=1).astype(np.int32)
        keys = _keys(mat, group.rank, group.n_pos)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]
        for a in (self.mat, self.lengths, self._order, self._sorted):
            a.setflags(write=False)
        self._inverses: Optional[np.ndarray] = None
        self._rmul: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.mat)

    def element(self, i: int) -> GroupElement:
        return GroupElement(self.group, self.mat[i])

    def index_of(self, el: GroupElement) -> int:
        return self.lookup(el.images)

    def lookup(self, rows: np.ndarray):
        """Row index of one row of images, or indices of an (m, k) array.

        Only the first `rank` columns, the images of the simple roots, are
        read, so any k >= rank will do: a row may stop after its simple-root
        images.  KeyError if a row's simple-root columns are no element's.
        """
        keys = _keys(np.atleast_2d(rows), self.group.rank, self.group.n_pos)
        # needles in key order walk the sorted keys in one direction, which
        # searchsorted does much faster than in random order
        order = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.intp)
        pos[order] = np.searchsorted(self._sorted, keys[order])
        np.minimum(pos, len(self._sorted) - 1, out=pos)
        if not (self._sorted[pos] == keys).all():
            raise KeyError(f"row not in W({self.group.label})")
        idx = self._order[pos]
        return int(idx[0]) if rows.ndim == 1 else idx

    def words(self) -> list[str]:
        """words()[i] is ``element(i).word()``, the reduced word of every row.

        That word of w is the word of w s_i followed by i, for i the smallest
        right descent of w, and w s_i is the row ``rmul()[w, i]``, one shorter
        than w; so the rows are taken in order of length, and each word is
        one concatenation onto a word already formed.
        """
        words = [""] * len(self.mat)
        if not self.group.rank:  # the identity alone (GL1)
            return words
        descent = np.argmax(self.mat[:, :self.group.rank] < 0, axis=1)
        parent = self.rmul()[np.arange(len(descent)), descent].tolist()
        letter = (descent + 1).tolist()
        # the first row by length is the identity, whose word is empty
        for w in np.argsort(self.lengths, kind="stable")[1:].tolist():
            p = parent[w]
            words[w] = f"{words[p]} {letter[w]}" if words[p] else str(letter[w])
        return words

    def inverses(self) -> np.ndarray:
        """inverses()[i] is the row index of element(i)^{-1}."""
        if self._inverses is None:
            # x(beta_j) = +-alpha_i  <=>  x^{-1}(alpha_i) = +-beta_j.  The
            # lookup reads the simple-root columns alone, so only those are
            # formed, a column at a time: a scatter of every column would
            # index with an n x n_pos intp array (15 MB on E6).  The rows
            # are taken in blocks, so that |images| is never held for all
            cols = np.empty((len(self.mat), self.group.rank), dtype=self.mat.dtype)
            for a in range(0, len(self.mat), _ROW_BLOCK):
                mat = self.mat[a:a + _ROW_BLOCK]
                absolute = np.abs(mat)
                for i in range(self.group.rank):
                    j = np.argmax(absolute == i + 1, axis=1)
                    cols[a:a + len(mat), i] = np.sign(mat[np.arange(len(mat)), j]) * (j + 1)
            self._inverses = self.lookup(cols)
            self._inverses.setflags(write=False)
        return self._inverses

    def rmul(self) -> np.ndarray:
        """The Cayley table: rmul()[w, i] is the row index of element(w) s_i.

        An int32 (n, rank) array, read-only, built on first read with its
        columns contiguous.  Only the simple-root columns that the lookup
        reads are formed: (w s_i)(alpha_k) = w(s_i(alpha_k)).  w -> w s_i
        is an involution, and it maps the w with w(alpha_i) > 0, those with
        w s_i > w, onto the others; so only those rows are looked up, half
        the table, and column i is filled both ways.
        """
        if self._rmul is None:
            mat = self.mat
            rank = self.group.rank
            self._rmul = np.empty((len(mat), rank), dtype=np.int32, order="F")
            for i, s in enumerate(self.group.gen_images[:, :rank]):
                up = np.flatnonzero(mat[:, i] > 0)
                heads = self.lookup(mat[up[:, None], np.abs(s) - 1] * np.sign(s))
                self._rmul[up, i] = heads
                self._rmul[heads, i] = up
            self._rmul.setflags(write=False)
        return self._rmul


def _keys(rows: np.ndarray, rank: int, n_pos: int) -> np.ndarray:
    """The index key of every row of a 2-d array (see ``ElementTable``)."""
    base = 2 * n_pos + 1
    per_word = max(d for d in range(1, 65) if base**d <= 2**64)
    # rank 0 (GL1) keys its one element by a single zero word
    words = np.zeros((len(rows), max(1, -(-rank // per_word))), dtype=np.uint64)
    for i in range(rank):
        # a column at a time: all rank digits as uint64 would be 4 times the rows
        digit = (rows[:, i] + n_pos).astype(np.uint64)
        words[:, i // per_word] = words[:, i // per_word] * np.uint64(base) + digit
    if words.shape[1] == 1:
        return words[:, 0]
    return words.view([(f"w{j}", np.uint64) for j in range(words.shape[1])])[:, 0]


def negative_bits(rows: np.ndarray) -> np.ndarray:
    """The negative entries of every row of a 2-d array, as uint64 words.

    Bit k % 64 of word k // 64 of row r is set when rows[r, k] < 0.  On the
    images of w this is the inversion set N(w^{-1}), where
    N(x) = {beta > 0 : x^{-1} beta < 0}.  Every row gets at least one word,
    so a group without roots (GL1) still has a word per element.

    Inversion sets give lengths of quotients by a popcount:
    l(x^{-1} y) = |N(x) xor N(y)| (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 1.4).  Proof: l(x^{-1} y) counts the beta > 0 with
    x^{-1} y beta < 0; split on the sign of gamma = y beta.  The beta with
    gamma > 0 are in bijection with the gamma > 0 outside N(y), and
    x^{-1} gamma < 0 says gamma is in N(x): they count N(x) - N(y).  The beta
    with gamma < 0 are in bijection with the -gamma > 0 in N(y), as
    y^{-1}(-gamma) = -beta < 0, and x^{-1} gamma < 0 says x^{-1}(-gamma) > 0,
    -gamma outside N(x): they count N(y) - N(x).
    """
    bits = np.packbits(rows < 0, axis=1, bitorder="little")
    words = np.zeros((len(rows), 8 * max(1, -(-rows.shape[1] // 64))), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    return words.view("<u8")


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class Automorphism:
    """A Coxeter-matrix-preserving permutation of the simple reflections."""

    group: CoxeterGroup
    perm: tuple[int, ...]  # 0-based: sigma(s_i) = s_{perm[i]}

    def __post_init__(self):
        m = self.group.rs.coxeter_matrix
        n = self.group.rank
        if sorted(self.perm) != list(range(n)):
            raise ValueError("not a permutation of the simple reflections")
        for i in range(n):
            for j in range(n):
                if m[self.perm[i]][self.perm[j]] != m[i][j]:
                    raise ValueError("permutation does not preserve the Coxeter matrix")
        rp = self._build_root_perm()
        rpi = np.empty_like(rp)
        rpi[rp] = np.arange(len(rp))
        object.__setattr__(self, "_root_perm", rp)
        object.__setattr__(self, "_root_perm_inv", rpi)
        object.__setattr__(self, "_inverse", None)

    def _build_root_perm(self) -> np.ndarray:
        """Induced permutation of the positive roots (sigma is length-preserving).

        sigma(alpha_i) = alpha_{perm[i]}, and along ``root_search``, one
        gather a depth: beta = s_j(beta') gives
        sigma(beta) = s_{perm[j]}(sigma(beta')), read from the generators'
        images, where images[k] = +-(l + 1) says s_i(beta_k) = +-beta_l.
        """
        group = self.group
        # images - 1: the 0-based index of a positive image, < 0 for a negative one
        gens = group.gen_images - 1
        perm = np.array(self.perm)
        rp = np.empty(group.n_pos, dtype=np.int64)
        rp[:group.rank] = perm
        for beta, j, prev in group.root_search():
            rp[beta] = gens[perm[j], rp[prev]]
        assert (rp >= 0).all(), "sigma maps a positive root to a negative one"
        return rp

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def apply(self, el: GroupElement) -> GroupElement:
        """sigma(w) = rho o w o rho^{-1} on signed root permutations."""
        im = el.images[self._root_perm_inv]
        out = np.sign(im) * (self._root_perm[np.abs(im) - 1] + 1)
        return GroupElement(self.group, out.astype(el.images.dtype))

    def apply_many(self, mat: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The images of sigma(w) for every row w of `mat`, in columns `cols`."""
        im = mat[:, self._root_perm_inv[cols]]
        # in the rows' dtype, so that no temporary is wider than the rows
        perm = (self._root_perm + 1).astype(mat.dtype)
        return np.sign(im) * perm[np.abs(im) - 1]

    def inverse(self) -> "Automorphism":
        """sigma^{-1}, built once from the stored root permutations."""
        if self._inverse is None:
            inv = [0] * len(self.perm)
            for i, p in enumerate(self.perm):
                inv[p] = i
            other = object.__new__(Automorphism)
            object.__setattr__(other, "group", self.group)
            object.__setattr__(other, "perm", tuple(inv))
            object.__setattr__(other, "_root_perm", self._root_perm_inv)
            object.__setattr__(other, "_root_perm_inv", self._root_perm)
            object.__setattr__(other, "_inverse", self)
            object.__setattr__(self, "_inverse", other)
        return self._inverse

    def one_line(self) -> str:
        return " ".join(str(p + 1) for p in self.perm)


def identity_automorphism(group: CoxeterGroup) -> Automorphism:
    return Automorphism(group, tuple(range(group.rank)))


def automorphism_from_one_line(group: CoxeterGroup, text: str) -> Automorphism:
    perm = tuple(int(t) - 1 for t in text.replace(",", " ").split())
    return Automorphism(group, perm)


def diagram_maps(ms, ma, nodes) -> Iterator[tuple[int, ...]]:
    """Every map f into `nodes` with ma[f[i]][f[j]] == ms[i][j] for all i, j.

    Backtracking: f[0..i-1] is extended by each unused v of `nodes` in list
    order and dropped at the first j < i with ma[f[j]][v] != ms[j][i] (Coxeter
    matrices are symmetric).  So the maps come out in lexicographic order of
    their positions in `nodes`: the order of ``itertools.permutations(nodes)``.
    """
    def extend(f):
        i = len(f)
        if i == len(ms):
            yield tuple(f)
            return
        for v in nodes:
            if v not in f and all(ma[f[j]][v] == ms[j][i] for j in range(i)):
                yield from extend(f + [v])

    return extend([])


def diagram_automorphisms(group: CoxeterGroup) -> list[Automorphism]:
    """All Coxeter-matrix-preserving permutations (including the identity)."""
    m = group.rs.coxeter_matrix
    return [Automorphism(group, perm) for perm in diagram_maps(m, m, range(group.rank))]


# ---------------------------------------------------------------------------
# twisted conjugacy


def twisted_class(
    group: CoxeterGroup, w: GroupElement, sigma: Automorphism, budget: int = DEFAULT_ENUM_BUDGET
) -> np.ndarray:
    """The orbit of w under x . w = x w sigma(x)^{-1}, as rows of images.

    The moves u -> s_i u s_{sigma(i)} generate the action, so a level search
    from w finds the orbit.  A level's candidates, s_i u_r s_{sigma(i)} at
    position r * rank + i, are formed ``_ROW_BLOCK`` at a time, in order,
    each block by two ``compose_rows``.  A candidate is kept when its key
    (see ``ElementTable``) is not among the sorted keys of the orbit so far,
    earlier blocks of its level included, and it is the first of its key in
    its block; so the rows come in the order of a breadth-first search that
    tries the moves of each row in order of i, and a level of the orbit of
    a large group is never held whole as candidates.  BudgetExceeded once a
    block takes the orbit past `budget` rows.
    """
    rank, n_pos = group.rank, group.n_pos
    levels = [w.images[None]]
    if not rank:  # no generators (GL1): the orbit is {w}
        return levels[0]
    twisted = group.gen_images[list(sigma.perm)]
    seen = _keys(levels[0], rank, n_pos)
    while len(levels[-1]):
        u, level = levels[-1], []
        for a in range(0, len(u) * rank, _ROW_BLOCK):
            r, i = np.divmod(np.arange(a, min(a + _ROW_BLOCK, len(u) * rank)), rank)
            cand = compose_rows(group.gen_images[i], compose_rows(u[r], twisted[i]))
            found, first = np.unique(_keys(cand, rank, n_pos), return_index=True)
            pos = np.searchsorted(seen, found)
            fresh = seen[np.minimum(pos, len(seen) - 1)] != found
            # both sorted: the fresh keys merge into the seen ones in order
            seen = np.insert(seen, pos[fresh], found[fresh])
            level.append(cand[np.sort(first[fresh])])
            if len(seen) > budget:
                raise BudgetExceeded("twisted class orbit exceeds budget")
        levels.append(np.concatenate(level))
    return np.concatenate(levels)


def lr_class_of_longest(group: CoxeterGroup, sigma: Automorphism) -> int:
    """l_R of the twisted class of w0: the least ``reflection_lengths`` over
    the rows of its ``twisted_class``, or l_R(w0) itself when sigma = id.

    Proof of the shortcut.  For sigma = id the class is the conjugacy class
    of w0.  l_R(w) = dim V - dim V^w, and for x in W, V^{x w x^{-1}} =
    x(V^w) has the dimension of V^w, so l_R is constant on the class and its
    least value is l_R(w0): no orbit is needed.  Every other sigma walks the
    orbit (for Ad(w0) it is {w0}, found in one level).

    Computed once per (group, sigma) and kept on the group under
    ``sigma.perm`` (see ``CoxeterGroup``).
    """
    stored = group._twisted.setdefault(sigma.perm, {})
    if "lr_class" not in stored:
        w0 = group.longest_element()
        rows = w0.images[None] if sigma.is_identity() else twisted_class(group, w0, sigma)
        stored["lr_class"] = int(reflection_lengths(group, rows).min())
    return stored["lr_class"]


# ---------------------------------------------------------------------------
# the maximal-length scan


def max_length_twisted_coset(
    group: CoxeterGroup,
    sigma: Automorphism,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[int, GroupElement]:
    """max{l(x) : x <= sigma(x) w0} with an argmax witness, exhaustively.

    x <= y implies l(x) <= l(y), and l(sigma(x) w0) = l(w0) - l(x), so only
    the x with l(x) <= l(w0)/2, a prefix of the table, can pass; they are
    tested by ``bruhat_leq_rows``, a ``_ROW_BLOCK`` of rows at a time.  The
    witness is the first x in table order of the largest passing length
    (x = e always passes).
    """
    table = group.enumerate(budget)
    w0 = group.longest_element()
    n = int(np.searchsorted(table.lengths, w0.length() // 2, side="right"))
    ok = np.flatnonzero(np.concatenate([
        bruhat_leq_rows(group, rows, compose_rows(sigma.apply_many(rows), w0.images[None]))
        for rows in (table.mat[a:min(a + _ROW_BLOCK, n)] for a in range(0, n, _ROW_BLOCK))
    ]))
    best = ok[np.searchsorted(table.lengths[ok], table.lengths[ok[-1]])]
    return int(table.lengths[best]), table.element(best)


# ---------------------------------------------------------------------------
# witness construction (explicit elements, verified after construction)


def _srange(b: int, a: int) -> list[int]:
    """s_{[b,a]} = s_b s_{b-1} ... s_a (1-based letters, empty if a > b)."""
    return list(range(b, a - 1, -1))


def _srange_inv(b: int, a: int) -> list[int]:
    return list(range(a, b + 1))


def _alt(first: int, other: int, length: int) -> list[int]:
    return [first if i % 2 == 0 else other for i in range(length)]


def _witness_table_row(letter: str, n: int):
    """Induction data: (J, sub-letter, sub-rank, y-word, z-word, sharp, diff).

    Words are in the ambient type's own 1-based Bourbaki labels; J is the
    sub-diagram generating the parabolic used for the inductive step.
    """
    if letter == "A":
        sharp = (n * n) // 4
        diff = n // 2
        return dict(
            J=list(range(2, n + 1)), sub=("A", n - 1),
            y=_srange_inv(n // 2, 1), z=_srange_inv(n, 1),
            sharp=sharp, diff=diff,
        )
    if letter in ("B", "C"):
        sharp = (n * n - n) // 2
        sub = ("A", 1) if n == 2 else (letter, n - 1)
        return dict(
            J=list(range(2, n + 1)), sub=sub,
            y=_srange_inv(n - 1, 1), z=_srange_inv(n, 1) + _srange(n - 1, 1),
            sharp=sharp, diff=n - 1,
        )
    if letter == "D":
        sharp = -(-(n * (n - 2)) // 2)  # ceil
        diff = n - 1 if n % 2 else n - 2
        sub = ("D", n - 1) if n - 1 >= 4 else ("A", 3)
        y = _srange_inv(n - 1, 1) if n % 2 else _srange_inv(n - 2, 1)
        return dict(
            J=list(range(2, n + 1)), sub=sub,
            y=y, z=_srange_inv(n, 1) + _srange(n - 2, 1),
            sharp=sharp, diff=diff,
        )
    if letter == "E" and n == 6:
        z = _srange(6, 1) + [4, 3, 5, 4, 2] + _srange(6, 3) + [1]
        return dict(J=[1, 2, 3, 4, 5], sub=("D", 5),
                    y=_srange(6, 1) + [4, 5], z=z, sharp=16, diff=8)
    if letter == "E" and n == 7:
        z = (_srange(7, 1) + [4, 3, 5, 4, 2] + _srange(6, 3) + [1]
             + _srange(7, 2) + _srange_inv(7, 4))
        return dict(J=[1, 2, 3, 4, 5, 6], sub=("E", 6),
                    y=_srange(7, 1) + [4, 3, 5, 4, 6], z=z, sharp=28, diff=12)
    if letter == "E" and n == 8:
        block = (_srange(8, 1) + [4, 3, 5, 4, 2] + _srange(6, 3) + [1]
                 + _srange(7, 2) + _srange_inv(7, 4))
        y = (_srange(8, 1) + [4, 3, 5, 4, 2] + _srange(6, 3)
             + _srange(7, 4) + [2] + _srange(8, 3))
        return dict(J=[1, 2, 3, 4, 5, 6, 7], sub=("E", 7),
                    y=y, z=block + block + [8], sharp=56, diff=28)
    if letter == "F":
        z = _srange(4, 1) + [3, 2, 3, 4, 3, 2, 3] + _srange_inv(4, 1)
        return dict(J=[1, 2, 3], sub=("B", 3),
                    y=_srange(4, 1) + [3, 2, 4], z=z, sharp=10, diff=7)
    if letter == "H" and n == 3:
        return dict(J=[2, 3], sub=("A", 2),
                    y=[1, 2, 3, 1, 2], z=[1, 2, 1, 2, 3, 2, 1, 2, 1, 3, 2, 1],
                    sharp=6, diff=5)
    if letter == "H" and n == 4:
        inner = _srange(4, 1) + [2, 1] + _srange(3, 1) + [2, 3]
        y = _srange(4, 1) + [2, 3, 1, 2, 1, 4, 2, 3, 2, 1, 2, 4, 3, 1, 2, 1, 2, 3]
        return dict(J=[1, 2, 3], sub=("H", 3),
                    y=y, z=inner * 4 + [4], sharp=28, diff=22)
    if letter in ("G", "I"):
        m = 6 if letter == "G" else n
        sharp = -(-m // 2) - 1  # ceil(m/2) - 1
        return dict(J=[2], sub=("A", 1),
                    y=_alt(1, 2, sharp), z=_alt(1, 2, m - 1),
                    sharp=sharp, diff=sharp)
    raise WitnessError(f"no witness table row for {letter}{n}")


def _on(group: CoxeterGroup, nodes: Sequence[int], word: Sequence[int]) -> GroupElement:
    """The element of a word in a sub-type's 1-based labels, on the
    generators `nodes` of `group` (0-based) that carry those labels."""
    return group.element_from_word([nodes[j - 1] + 1 for j in word])


def _longest_on(group: CoxeterGroup, nodes: Sequence[int]) -> GroupElement:
    """w0_J for J = `nodes`: the group's kept w0 when they are all its generators."""
    return group.longest_element() if len(nodes) == group.rank else parabolic_longest(group, nodes)


def _witness_id_irreducible(
    group: CoxeterGroup, letter: str, n: int, nodes: Sequence[int]
) -> GroupElement:
    """x in W_J, J = `nodes`, with x <= x w0_J and l(x) = (l(w0_J) -
    l_R(w0_J))/2, by the table induction.  `nodes` are the generators of
    `group` that carry the Bourbaki labels 1, 2, ... of the irreducible type
    `letter` `n`: m(nodes[i], nodes[j]) = m_ij.

    Proof that W_J stands in for the group of that type.  s_i ->
    s_{nodes[i]} keeps the Coxeter matrix, so it extends to an isomorphism
    phi onto W_J, which is a Coxeter group on J with that matrix.  A reduced
    word of w in W_J uses only letters of J (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.2), so the reduced words of phi(w) are the images
    of those of w: l(phi(w)) = l(w), phi(w0) = w0_J, and by the subword
    property (ibid., Thm. 2.2.2) u <= w iff phi(u) <= phi(w).  Each test of
    the induction therefore reads the same in W_J as in the type's own group.

    The sub-witness is built once, on the nodes of the first embedding of
    the sub-type, and relabelled through each embedding in turn, lazily.
    """
    if letter == "A" and n == 1:
        return group.identity
    row = _witness_table_row(letter, n)
    sub_letter, sub_rank = row["sub"]
    y = _on(group, nodes, row["y"])
    w0 = _longest_on(group, nodes)
    if sub_letter == "A" and sub_rank == 1:
        candidates = [group.identity]
    else:
        maps = diagram_maps(coxeter_matrix(sub_letter, sub_rank), coxeter_matrix(letter, n),
                            [j - 1 for j in row["J"]])
        first = next(maps)
        sub_nodes = [nodes[i] for i in first]
        x_sub = _witness_id_irreducible(group, sub_letter, sub_rank, sub_nodes)
        # the sub-witness's word in the sub-type's 0-based labels
        word = [sub_nodes.index(a) for a in x_sub.word_indices()]
        candidates = itertools.chain(
            [x_sub], (_on(group, nodes, [f[i] + 1 for i in word]) for f in maps))
    for x_sub_emb in candidates:
        x = x_sub_emb * y
        if x.length() == row["sharp"] and group.bruhat_leq(x, x * w0):
            return x
    raise WitnessError(f"witness construction failed for {letter}{n}")


def parabolic_longest(group: CoxeterGroup, J: Sequence[int]) -> GroupElement:
    """Longest element of the standard parabolic W_J (J is 0-based), by
    ascents: w s_i > w exactly when w(alpha_i) > 0."""
    w = group.identity
    while True:
        asc = next((i for i in J if w.images[i] > 0), None)
        if asc is None:
            return w
        w = w * group.gens[asc]


def check_witness_table_row(label: str) -> dict:
    """Verify the four induction-step conditions for one witness-table row.

    Conditions: y is minimal in W'_0 y; z (w0^{-1} y w0) is minimal in its
    W'_0 coset; y <= z (w0^{-1} y w0) in Bruhat order; l(y) equals the sharp
    difference.  The z column itself is verified against w0 = w'_0 z, and the
    sharp value against Carter's formula.
    """
    group = get_group(label)
    if len(group.rs.factor_types) != 1:
        raise WitnessError("irreducible construction on a reducible group")
    letter, n = group.rs.factor_types[0]
    row = _witness_table_row(letter, n)
    w0 = group.longest_element()
    y = group.element_from_word(row["y"])
    z = group.element_from_word(row["z"])
    w0p = parabolic_longest(group, [j - 1 for j in row["J"]])

    def minimal_in_left_coset(v: GroupElement) -> bool:
        # s_j v > v exactly when v^{-1}(alpha_j) > 0
        inv = v.inverse()
        return all(inv.images[j - 1] > 0 for j in row["J"])

    target = z * (w0 * y * w0)  # w0^{-1} = w0
    sub_letter, sub_rank = row["sub"]
    sharp_sub = 0 if (sub_letter, sub_rank) == ("A", 1) else _witness_table_row(
        sub_letter, sub_rank
    )["sharp"]
    checks = {
        "z_factorization": w0p * z == w0
        and z.length() == w0.length() - w0p.length(),
        "sharp_is_carter": 2 * row["sharp"]
        == w0.length() - group.reflection_length(w0),
        "diff_consistent": row["diff"] == row["sharp"] - sharp_sub,
        "y_length": y.length() == row["diff"],
        "y_minimal": minimal_in_left_coset(y),
        "target_minimal": minimal_in_left_coset(target),
        "bruhat": group.bruhat_leq(y, target),
    }
    return dict(type=label, checks=checks, ok=all(checks.values()))


def build_witness(group: CoxeterGroup, sigma: Automorphism) -> GroupElement:
    """The explicit x with x <= sigma(x) w0 and l(w0) - 2 l(x) = l_R(O).

    x is the product over the sigma-orbits of irreducible factors of one
    recipe each (``_build_witness_unchecked``): on a factor that sigma maps
    onto itself, the published tables for the identity case, the inversion
    trick for Ad(w0) and closed forms for the genuinely twisted cases; on a
    longer orbit, the alternating component patterns.  Every recipe works on
    the generators of `group` that carry its factor's, or sub-type's, labels
    (see ``_witness_id_irreducible``), so no other group is built.  x is
    then checked for the two defining conditions; a failure raises
    WitnessError rather than returning a guess.

    The verified x is kept on the group under ``sigma.perm`` (see
    ``CoxeterGroup``), so the two checks run once per (group, sigma) and
    every later call returns that same element.  Its images are read-only,
    as every element's are, so no caller can alter what the next one gets.
    A witness that fails a check is not kept.
    """
    stored = group._twisted.setdefault(sigma.perm, {})
    if "witness" not in stored:
        x = _build_witness_unchecked(group, sigma)
        w0 = group.longest_element()
        if not group.bruhat_leq(x, sigma.apply(x) * w0):
            raise WitnessError(f"witness for {group.label} fails x <= sigma(x) w0")
        lr = lr_class_of_longest(group, sigma)
        if w0.length() - 2 * x.length() != lr:
            raise WitnessError(
                f"witness for {group.label} has the wrong length "
                f"({w0.length()} - 2*{x.length()} != {lr})"
            )
        stored["witness"] = x
    return stored["witness"]


def _build_witness_unchecked(group: CoxeterGroup, sigma: Automorphism) -> GroupElement:
    """The product over the sigma-orbits of irreducible factors of each
    orbit's witness (``_witness_orbit``); an irreducible type is one orbit
    of length 1, and GL_1 factors, which carry no generators, none."""
    blocks = _factor_blocks(group)
    x = group.identity
    for orbit in _sigma_factor_orbits(sigma, blocks):
        x = x * _witness_orbit(group, sigma, blocks, orbit)
    return x


def _witness_block(group, sigma, letter, n, nodes) -> GroupElement:
    """x in W_F with x <= sigma(x) w0_F, for an irreducible factor block F =
    `nodes` of type `letter` `n` (labels as in ``_witness_id_irreducible``)
    that sigma maps onto itself: the table induction for sigma = id, its
    inverse for Ad(w0_F), closed forms for the other twisted cases.

    Proof that the block may be tested alone.  W is the direct product of
    its factors' groups, which commute, and w0 is the product of the
    factors' longest elements; Bruhat order on a direct product is the
    product order.  For x in W_F, sigma(x) is in W_F, so sigma(x) w0 is
    sigma(x) w0_F times the w0 of the other factors, and x <= sigma(x) w0 in
    W iff x <= sigma(x) w0_F in W_F.
    """
    tau = [nodes.index(sigma.perm[v]) for v in nodes]  # sigma in the block's labels
    ident = list(range(len(nodes)))
    if tau == ident:
        return _witness_id_irreducible(group, letter, n, nodes)
    w0 = _longest_on(group, nodes)
    if all(w0.images[v] == -nodes[t] - 1 for v, t in zip(nodes, tau)):
        # sigma is Ad(w0_F): w0_F(alpha_v) = -alpha_{sigma(v)}.  x <= w0 x
        # iff x^{-1} <= x^{-1} w0: invert the identity witness
        return _witness_id_irreducible(group, letter, n, nodes).inverse()

    # genuinely twisted irreducible cases
    if letter == "D" and n == 4 and [tau[t] for t in tau] != ident:  # triality
        return _on(group, nodes, [4, 3, 1, 2, 1])
    if letter == "D" and n % 2 == 0:
        return _witness_2d_even(group, sigma, n, nodes)
    if letter == "F":
        return _on(group, nodes, [2, 1, 3, 2, 4, 3, 2, 1, 3, 2, 4, 3])
    if letter in ("I", "G"):
        m = 6 if letter == "G" else n
        if m % 2 == 0:
            for first in (1, 2):
                cand = _on(group, nodes, _alt(first, 3 - first, m // 2))
                if group.bruhat_leq(cand, sigma.apply(cand) * w0):
                    return cand
    raise WitnessError(
        f"no explicit witness recipe for type {letter}{n} with sigma "
        + " ".join(str(t + 1) for t in tau)
    )


def _witness_2d_even(group, sigma, n, nodes) -> GroupElement:
    """Type D_{2k} with the flip swapping the fork nodes (2k-1, 2k)."""
    if n == 4:
        # the flip may swap nodes other than (3,4) for D4; relabel through
        # each diagram automorphism
        m = coxeter_matrix("D", 4)
        w0 = _longest_on(group, nodes)
        for f in diagram_maps(m, m, range(4)):
            cand = _on(group, nodes, [f[i - 1] + 1 for i in (1, 3, 2, 1, 3)])
            if group.bruhat_leq(cand, sigma.apply(cand) * w0):
                return cand
        raise WitnessError("no D4 flip witness found")
    # W0' = <s_2 .. s_2k> of type D_{2k-1}, sigma restricted = Ad(w0'),
    # x = x' y with y = s_1 s_2 ... s_{2k-1}
    x_sub = _witness_id_irreducible(group, "D", n - 1, nodes[1:]).inverse()
    return x_sub * _on(group, nodes, range(1, n))


def _factor_blocks(group: CoxeterGroup) -> list[list[int]]:
    """0-based simple indices of each irreducible factor (none for GL_1)."""
    rs = group.rs
    return [[] if fac is None else list(range(off, off + fac.n))
            for fac, off in zip(rs.factors, rs._factor_simple_offset)]


def _sigma_factor_orbits(sigma: Automorphism, blocks: list[list[int]]) -> list[list[int]]:
    """The orbits of sigma on the factors with generators, each from its
    first factor in label order.  A Coxeter automorphism maps each factor,
    a connected component of the diagram, onto one factor, so the image of
    one node of a block names the block's image."""
    block_of = {i: b for b, block in enumerate(blocks) for i in block}
    orbits, seen = [], set()
    for b, block in enumerate(blocks):
        if not block or b in seen:
            continue
        orbit = [b]
        while (image := block_of[sigma.perm[blocks[orbit[-1]][0]]]) != b:
            orbit.append(image)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _witness_orbit(group, sigma, blocks, orbit) -> GroupElement:
    """The alternating pattern along one sigma-orbit of components.

    An orbit of length 1 is a block that sigma maps onto itself
    (``_witness_block``).  On a longer orbit the per-component elements are
    built in the first component and transported to the j-th by applying
    sigma^j, which matches the paper's identification of the cyclic
    components; an odd orbit of length l takes its element from the
    recipe for sigma^l, which maps the first component onto itself.  Both
    phase choices of the alternating pattern are tried; the verified one is
    returned.
    """
    l = len(orbit)
    nodes = blocks[orbit[0]]
    letter, n = coxeter_type(*group.rs.factor_types[orbit[0]])
    if l == 1:
        return _witness_block(group, sigma, letter, n, nodes)

    w0_block = parabolic_longest(group, nodes)
    if l % 2 == 0:
        patterns = [
            [w0_block if j % 2 == phase else group.identity for j in range(l)]
            for phase in (0, 1)
        ]
    else:
        power = list(range(group.rank))
        for _ in range(l):
            power = [sigma.perm[p] for p in power]
        wprime = _witness_block(group, Automorphism(group, tuple(power)), letter, n, nodes)
        patterns = [
            [wprime if (j + phase) % 2 == 0 else wprime * w0_block for j in range(l)]
            for phase in (0, 1)
        ]

    w0 = group.longest_element()
    for pattern in patterns:
        x = group.identity
        for j, placed in enumerate(pattern):
            for _ in range(j):
                placed = sigma.apply(placed)
            x = x * placed
        if group.bruhat_leq(x, sigma.apply(x) * w0):
            return x
    raise WitnessError("no component pattern verified for the orbit")
