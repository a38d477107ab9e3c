"""Extended affine Weyl group arithmetic and the admissible-set oracle.

An element is a pair t^lambda u with lambda in the declared cocharacter
lattice and u in the finite group; multiplication is
t^lambda u . t^nu v = t^{lambda + u(nu)} uv.  Length is the
Iwahori-Matsumoto count

    l(t^lambda u) = sum_{beta > 0, u^{-1} beta > 0} |<lambda, beta>|
                  + sum_{beta > 0, u^{-1} beta < 0} |<lambda, beta> - 1|.

The admissible set Adm(mu) is the downward closure of the translations
t^{x(mu)} under Bruhat covers.

Covers come from the right inversion set (strong exchange, Bjorner-Brenti,
Combinatorics of Coxeter Groups, Ch. 1-2): the elements w covers are the
w r, r one of the l(w) reflections with l(w r) < l(w), that have length
l(w) - 1.  For w = t^lam u the right inversions are the t^{k beta^vee} s_beta
whose hyperplane <x, beta> = k separates the base alcove from w^{-1} of it.
Grouped by g with u^{-1} beta_g = +-beta, they are w r = t^{lam + m beta_g^vee}
(u s_beta) for m in one interval whose size is the Iwahori-Matsumoto term of
beta_g, so the sizes add up to l(w).  All l(w) candidates are scored in one
vectorized length computation.

The oracle works on rows: an element t^lam u is the int64 row lam with the
signed images of u and of u^{-1}.  Every cover of a length-L element has
length L - 1, and the tops t^{x(mu)} share one length, so the breadth-first
levels of the closure are its length levels; each level's covers come from
one array pass over the whole frontier (``_cover_level``), and ``covers`` is
its one-row case.  The minimal coset decomposition likewise runs in
lockstep over rows (``decompose_rows``), with ``decompose_minimal_coset`` as
its one-row case.  Lattice coordinates enter these kernels only through
``AffineWeylGroup._int64_rows``, which refuses those whose values there
could leave int64.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cartan import Coweight, RootSystem
from .coxeter import CoxeterGroup, GroupElement, compose_rows
from . import qbg as qbg_mod

DEFAULT_ORACLE_BUDGET = 60


class OracleBudgetExceeded(RuntimeError):
    pass


class StarHypothesisError(RuntimeError):
    """Proposition hypothesis (*) could not be certified for the input."""


class AffineElement:
    """t^lam u, lam in lattice coordinates, u a finite group element."""

    __slots__ = ("aw", "lam", "u", "_length", "_key", "_pair", "_uinv", "_row")

    def __init__(self, aw: "AffineWeylGroup", lam: tuple[int, ...], u: GroupElement):
        self.aw = aw
        self.lam = lam
        self.u = u
        self._length = None
        self._key = None
        self._pair = None
        self._uinv = None
        self._row = None

    def key(self):
        if self._key is None:
            self._key = (self.lam, self.u.key())
        return self._key

    def __eq__(self, other):
        return isinstance(other, AffineElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<t[{','.join(map(str, self.lam))}] {self.u.word() or 'e'}>"

    def pair_vector(self) -> np.ndarray:
        """<lam, beta> for all positive roots beta."""
        if self._pair is None:
            self._pair = self.rows()[0][0] @ self.aw.rs.lattice_root_pairing
        return self._pair

    def uinv(self) -> GroupElement:
        if self._uinv is None:
            self._uinv = self.u.inverse()
        return self._uinv

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This element as the one-row input of the row kernels: lam, checked
        once by ``AffineWeylGroup._int64_rows``, and the images of u and of
        u^{-1}."""
        if self._row is None:
            self._row = self.aw._int64_rows([self.lam])
            self._row.setflags(write=False)
        return self._row, self.u.images[None], self.uinv().images[None]

    def length(self) -> int:
        if self._length is None:
            pair = self.pair_vector()
            neg = self.uinv().images < 0
            vals = np.abs(pair - neg)
            self._length = int(vals.sum())
        return self._length

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        lam = self.aw.act_lattice(self.u, other.lam)
        lam = tuple(a + b for a, b in zip(self.lam, lam))
        return AffineElement(self.aw, lam, self.u * other.u)


def affine_group(group: CoxeterGroup) -> "AffineWeylGroup":
    """The affine Weyl group of `group`, built on first use.

    The group keeps it and every later call returns that same object, with
    its cover tables and its last admissible set; every caller in the package
    reaches it here.  ``AffineWeylGroup(group)`` still builds a fresh,
    independent one.
    """
    if group._affine is None:
        group._affine = AffineWeylGroup(group)
    return group._affine


class AffineWeylGroup:
    """Wrapper owning the finite group and the row kernels' tables.

    It also keeps the last set ``admissible_oracle`` built, under the
    lattice coordinates of its mu: one entry, so at most one set is held.
    """

    def __init__(self, group: CoxeterGroup):
        if not group.rs.crystallographic:
            raise ValueError("affine arithmetic needs a crystallographic root system")
        self.group = group
        self.rs = group.rs
        self._adm: Optional[tuple[tuple[int, ...], "AdmissibleSet"]] = None
        self._coroot_lattice_is_identity = bool(
            self.rs.lattice_rank == self.rs.rank
            and (self.rs.coroot_lattice_coords == np.eye(self.rs.rank, dtype=np.int64)).all()
        )

    # -- construction helpers ------------------------------------------------

    def translation(self, cw: Coweight) -> AffineElement:
        if not cw.is_integral():
            raise ValueError("translations need integral coweights")
        return AffineElement(self, tuple(int(c) for c in cw.coords), self.group.identity)

    def from_parts(self, x: GroupElement, lam: Coweight, y: GroupElement) -> AffineElement:
        """x t^lam y = t^{x(lam)} x y."""
        return AffineElement(self, self.act_lattice(x, self.translation(lam).lam), x * y)

    # -- lattice action --------------------------------------------------------

    def act_lattice(self, u: GroupElement, lam: tuple[int, ...]) -> tuple[int, ...]:
        """u(lam), in exact Python ints."""
        if u.is_identity():
            return lam
        rows = self.action_matrix(u).tolist()
        return tuple(sum(a * b for a, b in zip(row, lam)) for row in rows)

    def action_matrix(self, u: GroupElement) -> np.ndarray:
        """The matrix of u on lattice coordinates: u(lam) = M @ lam."""
        n, L = self.rs.rank, self.rs.lattice_rank
        if self._coroot_lattice_is_identity:
            # column j = signed coroot coordinates of u(alpha_j)
            im = u.images[:n]
            return (self.rs.coroot_matrix[np.abs(im) - 1] * np.sign(im)[:, None]).T
        # general lattice: apply the word letterwise to the basis vectors
        mat = np.eye(L, dtype=np.int64)
        word = u.word_indices()
        for col in range(L):
            v = mat[:, col].copy()
            for i in reversed(word):
                c = int(v @ self.rs.lattice_root_pairing[:, i])
                v = v - c * self.rs.coroot_lattice_coords[i]
            mat[:, col] = v
        return mat

    # -- rows ----------------------------------------------------------------------

    def _int64_rows(self, lams: Sequence[Sequence[int]]) -> np.ndarray:
        """Integral lattice coordinates as the int64 rows the kernels take.

        Each row lam is checked first, in exact Python ints: ValueError
        unless B = a + K (S + 2n + 1) < 2^63, where a = max_j |lam_j|,
        S = sum_{beta > 0} |<lam, beta>|, n is the number of positive roots,
        K = R + h + 3, R = max(1, sum_{beta > 0} ht(beta)), and h is the
        largest |entry| of a positive coroot in lattice coordinates.

        Proof that no kernel value exceeds B in absolute value.  A kernel
        starts from rows t^lam u, of length at most S + n, and meets only
        shorter t^lam' u' with lam' - lam in the coroot lattice: s_a lam' =
        lam' - <lam', alpha_a> alpha_a^vee strips a left descent in
        ``decompose_rows``, ``_cover_level`` forms the w r with
        l(w r) < l(w), and the oracle's levels go down from the t^{x(mu)}.
        (1) l(t^lam' u') = sum_beta |<lam', beta> - e_beta|, e_beta in
            {0, 1}, so sum_beta |<lam', beta>| <= S + 2n =: P.
        (2) |lam'_j| <= a + R P.  On the coroot lattice lam'_j =
            <lam', varpi_j>, and varpi_j is a nonnegative combination of
            simple roots, at most rho = sum_j varpi_j coefficientwise
            (Humphreys, Lie Algebras, 13.1 and 13.3): |lam'_j| <= ht(rho) P.
            On Z^n of GL_n the coroots e_i - e_k sum to 0, so a block of lam'
            has the mean of lam's, at most a, and each lam'_i is within
            |<lam', e_i - e_k>| <= P of that mean.
        (3) Lengths and running inversion counts are at most S + n; a right
            inversion's |m| <= |<lam', beta_g>| + 1 <= P + 1; with
            |<beta^vee, gamma>| <= 3, the steps m <beta_g^vee, beta_k> and
            <lam', alpha_a> <alpha_a^vee, beta_k> are at most 3 (P + 1), and
            m beta_g^vee and <lam', alpha_a> alpha_a^vee at most h (P + 1) a
            coordinate; ``_right_inversion_rows``'s lo - first is at most
            P + 1 + S + n.  int64 sums of such terms are exact when their
            value is in range, as int64 arithmetic is exact modulo 2^64.
        """
        rs = self.rs
        h = int(np.abs(rs.coroot_matrix @ rs.coroot_lattice_coords).max(initial=0))
        K = max(1, int(rs.root_matrix.sum())) + h + 3
        rows = np.array(lams, dtype=object).reshape(len(lams), rs.lattice_rank)
        pairs = rows @ rs.lattice_root_pairing.astype(object)
        for lam, pair in zip(lams, pairs.tolist()):
            if max(map(abs, lam)) + K * (sum(map(abs, pair)) + 2 * rs.n_pos_roots + 1) >= 2**63:
                raise ValueError(
                    f"lattice coordinates {list(lam)} are too large: the affine "
                    "row kernels could leave int64"
                )
        return rows.astype(np.int64)

    # -- minimal coset decomposition ------------------------------------------------

    def decompose_minimal_coset(
        self, w: AffineElement
    ) -> tuple[GroupElement, Coweight, GroupElement]:
        """w = x t^lam y with t^lam y minimal in W0 w and lam dominant: the
        one-row case of ``decompose_rows``."""
        x, lam, y = self.decompose_rows(*w.rows())
        return (GroupElement(self.group, x[0]), Coweight(tuple(lam[0].tolist())),
                GroupElement(self.group, y[0]))

    def decompose_rows(
        self, lam: np.ndarray, u: np.ndarray, uinv: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, lam', y) with t^lam u = x t^lam' y per row, t^lam' y minimal in
        its left W0 coset and lam' dominant; x and y as images.

        Every row that still has a finite left descent strips its first one
        s_a, as one step in lockstep: t^lam u becomes t^{s_a lam} s_a u.  A
        finite a is a left descent of t^lam u when <lam, alpha_a> < 0, or
        when it is 0 and u^{-1} alpha_a < 0.  The steps track lam, its
        pairings and v = u^{-1} x, where x is the product of the stripped
        s_a; at the end y = v^{-1} and x = u v.
        """
        rank = self.rs.rank
        _, coroot_pair, refl = self._cover_tables
        coroot_lat = self.rs.coroot_lattice_coords
        refl_idx, refl_sgn = np.abs(refl) - 1, np.sign(refl)
        # the steps build new arrays; rows are written back when they finish
        pair = lam @ self.rs.lattice_root_pairing
        lam_out, pair_out, v_out = lam.copy(), pair.copy(), uinv.copy()
        act, v = np.arange(len(lam)), uinv
        while len(act):
            p = pair[:, :rank]
            desc = (p < 0) | ((p == 0) & (v[:, :rank] < 0))
            has = desc.any(axis=1)
            if not has.all():
                done = ~has
                lam_out[act[done]], pair_out[act[done]], v_out[act[done]] = (
                    lam[done], pair[done], v[done])
                act, lam, pair, v, desc = act[has], lam[has], pair[has], v[has], desc[has]
                if not len(act):
                    break
            # simple roots are the first positive roots, so s_a is refl[a]
            a = desc.argmax(axis=1)
            rows = np.arange(len(a))
            c = pair[rows, a][:, None]
            lam = lam - c * coroot_lat[a]
            pair = pair - c * coroot_pair[a]
            v = v[rows[:, None], refl_idx[a]] * refl_sgn[a]
        if not (pair_out[:, :rank] >= 0).all():
            raise AssertionError("minimal coset representative has non-dominant part")
        y = np.empty_like(v_out)
        y[np.arange(len(y))[:, None], np.abs(v_out) - 1] = (
            np.sign(v_out) * np.arange(1, v_out.shape[1] + 1, dtype=y.dtype))
        return compose_rows(u, v_out), lam_out, y

    # -- covers ------------------------------------------------------------------

    @cached_property
    def _cover_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per positive root g: beta_g^vee in lattice coordinates,
        <beta_g^vee, beta_k> over all k, and the signed images under s_beta_g."""
        rs = self.rs
        coroot_lat = rs.coroot_matrix @ rs.coroot_lattice_coords
        coroot_pair = coroot_lat @ rs.lattice_root_pairing
        reflections = self.group.reflections()
        # typed and shaped, so that a group without roots (GL1) gets no rows
        refl = np.array([r.images for r in reflections], dtype=self.group.identity.images.dtype)
        refl = refl.reshape(len(reflections), self.group.n_pos)
        return coroot_lat, coroot_pair, refl

    def covers(self, w: AffineElement) -> list[AffineElement]:
        """All w' with w' <= w and l(w') = l(w) - 1: the w r, r a right
        inversion of w, of length l(w) - 1.  The one-row case of
        ``_cover_level``."""
        lw = w.length()
        lam, u, uinv = self._cover_level(*w.rows(), lw)
        out = []
        for lam_c, u_c, uinv_c in zip(lam.tolist(), u, uinv):
            el = AffineElement(self, tuple(lam_c), GroupElement(self.group, u_c))
            el._length = lw - 1
            el._uinv = GroupElement(self.group, uinv_c)
            out.append(el)
        return out

    def _cover_level(
        self, lam: np.ndarray, u: np.ndarray, uinv: np.ndarray, lw: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The covers of rows t^lam u (uinv = u^{-1}), every row of length lw,
        as rows (lam, u, uinv): row by row, and within a row in the order
        of ``_right_inversion_rows``.

        Each row's l(w) right inversions w r = t^{lam + m beta_g^vee} (u s_beta)
        are scored in one length computation, <lam + m beta_g^vee, beta_k>
        against (u s_beta)^{-1} = s_beta u^{-1}; those of length lw - 1 are
        kept.  Two checks hold every row: the inversion count is lw, and
        every inversion shortens w.  Rows go in blocks whose candidate
        arrays stay near ``qbg._CHUNK`` entries.
        """
        coroot_lat, coroot_pair, refl = self._cover_tables
        block = max(1, qbg_mod._CHUNK // max(1, lw * refl.shape[0]))
        parts = []
        for r0 in range(0, len(lam) or 1, block):
            lam_b, u_b, uinv_b = lam[r0:r0 + block], u[r0:r0 + block], uinv[r0:r0 + block]
            pair = lam_b @ self.rs.lattice_root_pairing
            g, m = _right_inversion_rows(pair, uinv_b < 0, lw)
            row = np.repeat(np.arange(len(lam_b)), lw)
            beta = np.abs(uinv_b[row, g]) - 1
            cand_pair = pair[row] + m[:, None] * coroot_pair[g]
            cand_inv = compose_rows(refl[beta], uinv_b[row])
            lengths = np.abs(cand_pair - (cand_inv < 0)).sum(axis=1)
            assert (lengths < lw).all(), "a right inversion does not shorten w"
            keep = lengths == lw - 1
            row, g, m, s = row[keep], g[keep], m[keep], refl[beta[keep]]
            parts.append((
                lam_b[row] + m[:, None] * coroot_lat[g],
                compose_rows(u_b[row], s),
                cand_inv[keep],
            ))
        return tuple(np.concatenate(a) for a in zip(*parts))

    # -- the admissible set -----------------------------------------------------------

    def admissible_oracle(
        self, mu: Coweight, budget: int = DEFAULT_ORACLE_BUDGET
    ) -> "AdmissibleSet":
        """Adm(mu): downward Bruhat closure of the translations t^{x(mu)}.

        Built one length level at a time: the next level is the covers of
        the whole current one (``_cover_level``), first occurrences kept in
        order, so the rows come in the order of a breadth-first search that
        visits each element's covers in ``covers`` order.

        The budget caps l(t^mu) only above rank 2.  Rank 1 and 2 run
        whatever the budget: their closures stay small enough to build
        (B2 at mu = (36, 27) has 18,253 elements), and the proposition
        checks need such mu, which clear the superregularity bound.

        The set depends on mu alone, and it is read-only, so the last one
        built is kept and a repeat mu gets that same object back, once the
        dominance, integrality and budget checks have passed for this call.
        """
        if not self.rs.is_dominant(mu):
            raise ValueError("mu must be dominant")
        if not mu.is_integral():
            raise ValueError("translations need integral coweights")
        key = tuple(int(c) for c in mu.coords)
        # l(t^mu) is the length of every t^{x(mu)}
        lmax = int(np.abs(self._int64_rows([key]) @ self.rs.lattice_root_pairing).sum())
        if self.rs.rank > 2 and lmax > budget:
            raise OracleBudgetExceeded(
                f"l(t^mu) = {lmax} exceeds the oracle budget {budget}"
            )
        if self._adm is not None and self._adm[0] == key:
            return self._adm[1]
        lam = np.array(
            [[int(c) for c in nu.coords] for nu in self.rs.weyl_orbit(mu)], dtype=np.int64
        )
        u = uinv = np.tile(self.group.identity.images, (len(lam), 1))
        levels = [(lam, u, uinv)]
        for lw in range(lmax, 0, -1):
            lam, u, uinv = self._cover_level(lam, u, uinv, lw)
            _, first = np.unique(_row_keys(lam, u, self.rs.rank), return_index=True)
            first.sort()
            lam, u, uinv = lam[first], u[first], uinv[first]
            levels.append((lam, u, uinv))
        length = np.concatenate(
            [np.full(len(lv[0]), lmax - k, dtype=np.int64) for k, lv in enumerate(levels)]
        )
        adm = AdmissibleSet(self, *(np.concatenate(a) for a in zip(*levels)), length)
        self._adm = key, adm
        return adm


def _right_inversion_rows(
    pair: np.ndarray, neg: np.ndarray, lw: int
) -> tuple[np.ndarray, np.ndarray]:
    """(g, m) of the right inversions of rows t^lam u of length lw, lw per
    row, row after row: w r = t^{lam + m beta_g^vee} (u s_beta) with
    u^{-1} beta_g = +-beta, from pair = <lam, beta_g> and neg = u^{-1} beta_g < 0.

    With P = <lam, beta_g> and e = 1 if u^{-1} beta_g < 0 else 0, the
    hyperplanes <x, beta> = k separating the base alcove from w^{-1} of it
    give m in [1 - P, -e] when P > e and m in [1 - e, -P] otherwise: |P - e|
    values, the Iwahori-Matsumoto term of beta_g.
    """
    d = pair - neg
    size = np.abs(d)
    assert (size.sum(axis=1) == lw).all(), "right inversion count differs from the length"
    lo = np.where(d > 0, 1 - pair, 1 - neg)
    first = np.cumsum(size, axis=1) - size
    rows, n_pos = pair.shape
    g = np.repeat(np.tile(np.arange(n_pos), rows), size.ravel())
    m = np.repeat((lo - first).ravel(), size.ravel()) + np.tile(np.arange(lw), rows)
    return g, m


def _row_keys(lam: np.ndarray, u: np.ndarray, rank: int) -> np.ndarray:
    """One opaque key per row t^lam u: the bytes of lam and of the images of
    the simple roots under u, which fix u, as int64."""
    rows = np.concatenate([lam, u[:, :rank].astype(np.int64)], axis=1)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


class AdmissibleSet(Mapping):
    """Adm(mu) as arrays, in the order the oracle found it: row i is
    t^lam[i] u[i] of length length[i], with uinv[i] the images of u[i]^{-1}.

    A read-only Mapping from ``AffineElement.key()`` to the element: ``in``
    and lookups search the sorted row keys, and ``values()`` builds the
    elements, in row order, as a tuple on its first call.  ``index`` looks
    up many rows at once.
    """

    def __init__(self, aw: AffineWeylGroup, lam, u, uinv, length):
        self.aw = aw
        self.lam, self.u, self.uinv, self.length = lam, u, uinv, length
        keys = _row_keys(lam, u, aw.rs.rank)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]
        for a in (lam, u, uinv, length, self._order, self._sorted):
            a.setflags(write=False)
        self._values: Optional[tuple[AffineElement, ...]] = None

    def __len__(self) -> int:
        return len(self.lam)

    def __iter__(self):
        for lam, u in zip(self.lam.tolist(), self.u):
            yield tuple(lam), u.tobytes()

    def index(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The row of each t^lam u (rows of lam and of images; only the
        simple-root columns of u are read), or -1 where it is no member."""
        keys = _row_keys(lam, u, self.aw.rs.rank)
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._order[pos], -1)

    def _row_of(self, key) -> int:
        try:
            lam, images = key
            lam = np.array([lam], dtype=np.int64)
            u = np.frombuffer(images, dtype=self.u.dtype)[None]
        except (TypeError, ValueError, OverflowError):
            return -1
        if lam.shape[1] != self.lam.shape[1] or u.shape[1] != self.u.shape[1]:
            return -1
        i = int(self.index(lam, u)[0])
        # the key holds every image of u, the index only the simple ones
        return i if i >= 0 and (self.u[i] == u[0]).all() else -1

    def __contains__(self, key) -> bool:
        return self._row_of(key) >= 0

    def __getitem__(self, key) -> AffineElement:
        i = self._row_of(key)
        if i < 0:
            raise KeyError(key)
        return self.element(i)

    def element(self, i: int) -> AffineElement:
        """Row i as an element, with its length and u^{-1} filled in."""
        el = AffineElement(self.aw, tuple(self.lam[i].tolist()),
                           GroupElement(self.aw.group, self.u[i].copy()))
        el._length = int(self.length[i])
        el._uinv = GroupElement(self.aw.group, self.uinv[i].copy())
        return el

    def values(self) -> tuple[AffineElement, ...]:
        if self._values is None:
            self._values = tuple(self.element(i) for i in range(len(self)))
        return self._values


# ---------------------------------------------------------------------------
# superregularity and the proposition bounds


def _factor_bounds(rs: RootSystem, kind: str) -> list[tuple[list[int], int]]:
    """Per irreducible factor: (global simple indices, depth bound)."""
    out = []
    for fi, fac in enumerate(rs.factors):
        if fac is None:
            continue
        off = rs._factor_simple_offset[fi]
        simples = list(range(off, off + fac.n))
        lw0 = fac.n_pos
        g2 = fac.letter == "G"
        if kind == "cover":
            bound = 3 * lw0 + 3 if g2 else 2 * lw0 + 2
        elif kind == "superregular":
            bound = 5 * lw0 + 3 if g2 else 4 * lw0 + 2
        else:
            raise ValueError(kind)
        out.append((simples, bound))
    return out


def superregular_check(rs: RootSystem, mu: Coweight) -> bool:
    """Per-component depth(mu_i) >= 4 l(w0_i) + 2, or 5 l(w0_i) + 3 for G2."""
    if not rs.is_dominant(mu):
        raise ValueError("mu must be dominant")
    for simples, bound in _factor_bounds(rs, "superregular"):
        if min(rs.pair_root(mu, i) for i in simples) < bound:
            return False
    return True


def cover_depth_check(rs: RootSystem, lam: Coweight) -> bool:
    """Per-component depth(lam_i) >= 2 l(w0_i) + 2, or 3 l(w0_i) + 3 for G2."""
    for simples, bound in _factor_bounds(rs, "cover"):
        if min(rs.pair_root(lam, i) for i in simples) < bound:
            return False
    return True


def explicit_bound_check(rs: RootSystem, mu: Coweight, lam: Coweight) -> bool:
    """The sufficient condition: mu superregular and per-component
    <mu_i - lam_i, rho_i> <= l(w0_i)."""
    if not superregular_check(rs, mu):
        return False
    diff = mu - lam
    for fi, fac in enumerate(rs.factors):
        if fac is None:
            continue
        off = rs._factor_simple_offset[fi]
        acc = Fraction(0)
        # <diff, rho_i> = sum over the factor's positive roots / 2
        for k in range(rs.n_pos_roots):
            if rs.root_record(k)[0] == fi:
                acc += Fraction(rs.pair_root(diff, k))
        if acc / 2 > fac.n_pos:
            return False
    return True


def star_hypothesis_table(rs: RootSystem, mu: Coweight, box: Sequence[int]) -> np.ndarray:
    """(*) at every lam(m) = mu - sum m_j alpha_j^vee with 0 <= m <= box.

    Returns a bool array of shape box + 1: entry m is
    ``star_hypothesis_holds(rs, lam(m), mu)``, in the same two steps.

    - fast[m] is ``explicit_bound_check``: mu superregular, and per factor
      i, <mu - lam(m), rho_i> = sum of m_j over the simple j of factor i
      (<alpha_j^vee, rho_i> is 1 there and 0 elsewhere) is at most l(w0_i).
    - clear[m] says that no m' <= m is bad: lam(m') dominant and below the
      cover depth.  <lam(m), alpha_i> = <mu, alpha_i> - (m C)_i with the
      integer C_ji = <alpha_j^vee, alpha_i>, and since (m C)_i is an
      integer, comparing it with floor(<mu, alpha_i>) decides each bound
      exactly.  bad ORed along every axis in turn marks each m with a bad
      m' <= m.

    The table is fast | clear, the early return of the one-point test.
    """
    dims = tuple(int(b) + 1 for b in box)
    ms = np.indices(dims).reshape(len(dims), math.prod(dims)).T
    pair_mu = np.array([math.floor(rs.pair_root(mu, i)) for i in range(rs.rank)], dtype=np.int64)
    cartan = rs.coroot_lattice_coords @ rs.lattice_root_pairing[:, :rs.rank]
    pair = pair_mu - ms @ cartan
    depth = np.zeros(rs.rank, dtype=np.int64)
    fast = np.full(len(ms), superregular_check(rs, mu))
    factors = [fac for fac in rs.factors if fac is not None]
    for (simples, bound), fac in zip(_factor_bounds(rs, "cover"), factors):
        depth[simples] = bound
        fast &= ms[:, simples].sum(axis=1) <= fac.n_pos
    bad = ((pair >= 0).all(axis=1) & (pair < depth).any(axis=1)).reshape(dims)
    for axis in range(len(dims)):
        bad = np.logical_or.accumulate(bad, axis=axis)
    return fast.reshape(dims) | ~bad


def star_hypothesis_holds(rs: RootSystem, lam: Coweight, mu: Coweight) -> bool:
    """(*): every dominant lam' with lam <= lam' <= mu clears the cover bound.

    Read at the far corner of ``star_hypothesis_table`` over the box of
    mu - lam.  A lam with no such box (mu - lam not a nonnegative integral
    sum of coroots) passes exactly when ``explicit_bound_check`` does.

    The table takes up to 24 * rank + 10 bytes a point of the box: three
    int64 arrays of rank coordinates, and bools.  When that is more than
    ``qbg.ALL_PAIRS_LIMIT`` bytes, nothing is allocated and the answer is
    ``explicit_bound_check``'s, the table's own fast path at this point: a
    True still proves (*), and a False means "not certified", on which
    ``is_admissible_superregular(require_certificate=True)`` raises
    StarHypothesisError (exit 3).
    """
    combo = rs.coroot_combination(mu - lam)
    if combo is None or any(c < 0 or Fraction(c).denominator != 1 for c in combo):
        return explicit_bound_check(rs, mu, lam)
    box = tuple(int(c) for c in combo)
    if math.prod(b + 1 for b in box) * (24 * rs.rank + 10) > qbg_mod.ALL_PAIRS_LIMIT:
        return explicit_bound_check(rs, mu, lam)
    return bool(star_hypothesis_table(rs, mu, box)[box])


# ---------------------------------------------------------------------------
# QBG membership criterion


@dataclass
class AdmissibleAnswer:
    answer: bool
    certified: bool


def admissible_via_qbg(
    graph: "qbg_mod.QuantumBruhatGraph",
    x: GroupElement,
    lam: Coweight,
    y: GroupElement,
    mu: Coweight,
) -> bool:
    """The raw path criterion: a path x -> y^{-1} of weight mu - lam."""
    rs = graph.group.rs
    combo = rs.coroot_combination(mu - lam)
    if combo is None or any(Fraction(c).denominator != 1 for c in combo):
        return False
    if any(c < 0 for c in combo):
        return False
    table = graph.table
    xi = table.index_of(x)
    yi = table.index_of(y.inverse())
    return qbg_mod.exists_path_with_weight(graph, xi, yi, tuple(int(c) for c in combo))


def is_admissible_superregular(
    graph: "qbg_mod.QuantumBruhatGraph",
    x: GroupElement,
    lam: Coweight,
    y: GroupElement,
    mu: Coweight,
    require_certificate: bool = True,
) -> AdmissibleAnswer:
    """Membership of x t^lam y in Adm(mu) through the path criterion.

    When the hypothesis (*) cannot be certified for (lam, mu) the raw answer
    is still computed, but `certified` is False; with require_certificate a
    StarHypothesisError is raised instead, keeping hypothesis violations
    distinct from negative answers.
    """
    rs = graph.group.rs
    certified = star_hypothesis_holds(rs, lam, mu)
    if not certified and require_certificate:
        raise StarHypothesisError(
            "hypothesis (*) not certified for this (lam, mu); "
            "pass require_certificate=False for the raw criterion"
        )
    return AdmissibleAnswer(admissible_via_qbg(graph, x, lam, y, mu), certified)


# ---------------------------------------------------------------------------
# covering families (the four-case description)


def covering_families(
    aw: AffineWeylGroup,
    x: GroupElement,
    lam: Coweight,
    y: GroupElement,
) -> list[AffineElement]:
    """The union of the four predicted cover families of w = x t^lam y."""
    group = aw.group
    two_rho = group.rs.coroot_two_rho
    refl = group.reflections()
    out = {}

    xi = x.length()
    yinv = y.inverse()
    lyi = yinv.length()
    for k in range(group.n_pos):
        alpha_vee = group.rs.coroot_matrix[k]
        lam_minus = Coweight(
            tuple(
                int(c)
                - sum(
                    int(alpha_vee[j]) * int(group.rs.coroot_lattice_coords[j][g])
                    for j in range(group.rs.rank)
                )
                for g, c in enumerate(lam.coords)
            )
        )
        xs = x * refl[k]
        lxs = xs.length()
        if lxs == xi - 1:
            # upward edge x s_alpha -> x
            el = aw.from_parts(xs, lam, y)
            out.setdefault(el.key(), el)
        if lxs == xi + two_rho[k] - 1:
            # downward edge x s_alpha -> x
            el = aw.from_parts(xs, lam_minus, y)
            out.setdefault(el.key(), el)
        ys = yinv * refl[k]
        lys = ys.length()
        if lys == lyi + 1:
            el = aw.from_parts(x, lam, refl[k] * y)
            out.setdefault(el.key(), el)
        if lys == lyi - two_rho[k] + 1:
            el = aw.from_parts(x, lam_minus, refl[k] * y)
            out.setdefault(el.key(), el)
    return list(out.values())


def check_covering_families(
    aw: AffineWeylGroup,
    x: GroupElement,
    lam: Coweight,
    y: GroupElement,
) -> dict:
    """Brute-force covers vs the four families; returns a comparison report."""
    if not cover_depth_check(aw.rs, lam):
        raise ValueError("depth(lam) below the covering-proposition bound")
    w = aw.from_parts(x, lam, y)
    brute = {c.key(): c for c in aw.covers(w)}
    families = {c.key(): c for c in covering_families(aw, x, lam, y)}
    missing = [c for k, c in brute.items() if k not in families]
    extra = [c for k, c in families.items() if k not in brute]
    return dict(
        element=w,
        n_brute=len(brute),
        n_families=len(families),
        missing_from_families=missing,
        extra_in_families=extra,
        agree=not missing and not extra,
    )
