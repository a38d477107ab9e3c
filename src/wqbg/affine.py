"""Extended affine Weyl group arithmetic and the admissible-set oracle.

An element is a pair t^lambda u with lambda in the declared cocharacter
lattice and u in the finite group; multiplication is
t^lambda u . t^nu v = t^{lambda + u(nu)} uv.  Length is the
Iwahori-Matsumoto count

    l(t^lambda u) = sum_{beta > 0, u^{-1} beta > 0} |<lambda, beta>|
                  + sum_{beta > 0, u^{-1} beta < 0} |<lambda, beta> - 1|.

Affine simple reflections are the finite ones plus, per irreducible factor,
s_0 = t^{theta^vee} s_theta through the factor's highest root.  Left-descent
tests come from the sign of w^{-1} applied to the affine simple roots and
are O(1) given the cached pairing vector.

Bruhat order on the extended group uses the one-branch descent recursion;
elements whose length-zero parts differ can never meet and compare as
incomparable.  The admissible set Adm(mu) is the downward closure of the
translations t^{x(mu)} under Bruhat covers.

Covers come from the right inversion set (strong exchange, Bjorner-Brenti,
Combinatorics of Coxeter Groups, Ch. 1-2): the elements w covers are the
w r, r one of the l(w) reflections with l(w r) < l(w), that have length
l(w) - 1.  For w = t^lam u the right inversions are the t^{k beta^vee} s_beta
whose hyperplane <x, beta> = k separates the base alcove from w^{-1} of it.
Grouped by g with u^{-1} beta_g = +-beta, they are w r = t^{lam + m beta_g^vee}
(u s_beta) for m in one interval whose size is the Iwahori-Matsumoto term of
beta_g, so the sizes add up to l(w).  All l(w) candidates are scored in one
vectorized length computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cartan import Coweight, RootSystem
from .coxeter import CoxeterGroup, GroupElement, get_group
from . import qbg as qbg_mod

DEFAULT_ORACLE_BUDGET = 60


class OracleBudgetExceeded(RuntimeError):
    pass


class StarHypothesisError(RuntimeError):
    """Proposition hypothesis (*) could not be certified for the input."""


class AffineElement:
    """t^lam u, lam in lattice coordinates, u a finite group element."""

    __slots__ = ("aw", "lam", "u", "_length", "_key", "_pair", "_uinv")

    def __init__(self, aw: "AffineWeylGroup", lam: tuple[int, ...], u: GroupElement):
        self.aw = aw
        self.lam = lam
        self.u = u
        self._length = None
        self._key = None
        self._pair = None
        self._uinv = None

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
            v = np.array(self.lam, dtype=np.int64)
            self._pair = v @ self.aw.rs.lattice_root_pairing
        return self._pair

    def uinv(self) -> GroupElement:
        if self._uinv is None:
            self._uinv = self.u.inverse()
        return self._uinv

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

    def inverse(self) -> "AffineElement":
        ui = self.uinv()
        lam = self.aw.act_lattice(ui, self.lam)
        return AffineElement(self.aw, tuple(-a for a in lam), ui)


class AffineWeylGroup:
    """Wrapper owning the finite group, factor data, and memo tables."""

    def __init__(self, group: CoxeterGroup):
        if not group.rs.crystallographic:
            raise ValueError("affine arithmetic needs a crystallographic root system")
        self.group = group
        self.rs = group.rs
        self._action_cache: dict[bytes, tuple] = {}
        self._bruhat_memo: dict[tuple, bool] = {}
        self._coroot_lattice_is_identity = bool(
            self.rs.lattice_rank == self.rs.rank
            and (self.rs.coroot_lattice_coords == np.eye(self.rs.rank, dtype=np.int64)).all()
        )
        # per-factor affine data: highest root index, s_theta, theta^vee
        self.factor_affine = []
        for fi, fac in enumerate(self.rs.factors):
            if fac is None:
                continue
            theta_global = self.rs.global_root_index(fi, fac.highest)
            s_theta = self.group.reflections()[theta_global]
            tv = self.rs.coroot_matrix[theta_global]
            theta_vee = np.zeros(self.rs.lattice_rank, dtype=np.int64)
            for j in range(self.rs.rank):
                theta_vee += int(tv[j]) * self.rs.coroot_lattice_coords[j]
            self.factor_affine.append(
                dict(theta=theta_global, s_theta=s_theta, theta_vee=tuple(int(c) for c in theta_vee))
            )
        self.n_affine_simples = self.rs.rank + len(self.factor_affine)

    @classmethod
    def from_label(cls, label: str) -> "AffineWeylGroup":
        return cls(get_group(label))

    # -- construction helpers ------------------------------------------------

    def element(self, lam: Sequence[int], word: str | Sequence[int] = "") -> AffineElement:
        u = self.group.element_from_word(word) if word else self.group.identity
        return AffineElement(self, tuple(int(c) for c in lam), u)

    def translation(self, cw: Coweight) -> AffineElement:
        if not cw.is_integral():
            raise ValueError("translations need integral coweights")
        return AffineElement(self, tuple(int(c) for c in cw.coords), self.group.identity)

    def identity_element(self) -> AffineElement:
        return AffineElement(self, (0,) * self.rs.lattice_rank, self.group.identity)

    def from_parts(self, x: GroupElement, lam: Coweight, y: GroupElement) -> AffineElement:
        """x t^lam y."""
        mid = self.translation(lam)
        return AffineElement(self, (0,) * self.rs.lattice_rank, x) * mid * AffineElement(
            self, (0,) * self.rs.lattice_rank, y
        )

    # -- lattice action --------------------------------------------------------

    def act_lattice(self, u: GroupElement, lam: tuple[int, ...]) -> tuple[int, ...]:
        if u.is_identity():
            return lam
        rows = self._action_cache.get(u.key())
        if rows is None:
            rows = tuple(map(tuple, self._action_matrix(u).tolist()))
            self._action_cache[u.key()] = rows
        return tuple(sum(a * b for a, b in zip(row, lam)) for row in rows)

    def _action_matrix(self, u: GroupElement) -> np.ndarray:
        n, L = self.rs.rank, self.rs.lattice_rank
        if self._coroot_lattice_is_identity:
            # column j = signed coroot coordinates of u(alpha_j)
            mat = np.zeros((n, n), dtype=np.int64)
            for j in range(n):
                v = int(u.images[j])
                sign = 1 if v > 0 else -1
                mat[:, j] = sign * self.rs.coroot_matrix[abs(v) - 1]
            return mat
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

    # -- affine simple reflections ---------------------------------------------

    def left_mul_simple(self, a: int, w: AffineElement) -> AffineElement:
        """Left-multiply by the a-th affine simple (finite first, then s_0s)."""
        n = self.rs.rank
        if a < n:
            s = self.group.gens[a]
            lam = self.act_lattice(s, w.lam)
            return AffineElement(self, lam, s * w.u)
        fa = self.factor_affine[a - n]
        s = fa["s_theta"]
        lam = self.act_lattice(s, w.lam)
        lam = tuple(x + t for x, t in zip(lam, fa["theta_vee"]))
        return AffineElement(self, lam, s * w.u)

    def simple_affine_element(self, a: int) -> AffineElement:
        return self.left_mul_simple(a, self.identity_element())

    def left_descent(self, w: AffineElement, a: int) -> bool:
        """l(s_a w) < l(w), via the sign of w^{-1} on the affine simple root."""
        n = self.rs.rank
        pair = w.pair_vector()
        if a < n:
            c = int(pair[a])
            if c != 0:
                return c < 0
            return w.uinv().images[a] < 0
        fa = self.factor_affine[a - n]
        c = int(pair[fa["theta"]])
        if c != 1:
            return c > 1
        return w.uinv().images[fa["theta"]] > 0

    def first_left_descent(self, w: AffineElement) -> Optional[int]:
        for a in range(self.n_affine_simples):
            if self.left_descent(w, a):
                return a
        return None

    def reduced_word(self, w: AffineElement) -> tuple[list[int], AffineElement]:
        """Greedy left-descent word; the remainder has length zero."""
        word = []
        cur = w
        while True:
            a = self.first_left_descent(cur)
            if a is None:
                break
            word.append(a)
            cur = self.left_mul_simple(a, cur)
        assert cur.length() == 0
        return word, cur

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, u: AffineElement, w: AffineElement) -> bool:
        if u.length() > w.length():
            return False
        if self.kappa(u) != self.kappa(w):
            return False
        # one-branch descent chain: every intermediate pair shares the answer,
        # so the whole chain is memoized with the final result
        stack = []
        while True:
            lu, lw = u.length(), w.length()
            if lu > lw:
                res = False
                break
            if lw == 0:
                res = u.key() == w.key()
                break
            key = (u.key(), w.key())
            hit = self._bruhat_memo.get(key)
            if hit is not None:
                res = hit
                break
            stack.append(key)
            a = self.first_left_descent(w)
            w = self.left_mul_simple(a, w)
            if self.left_descent(u, a):
                u = self.left_mul_simple(a, u)
        for key in stack:
            self._bruhat_memo[key] = res
        return res

    # -- kappa --------------------------------------------------------------------

    def kappa(self, w: AffineElement) -> tuple:
        return self.rs.kappa(Coweight(w.lam))

    # -- minimal coset decomposition ------------------------------------------------

    def decompose_minimal_coset(
        self, w: AffineElement
    ) -> tuple[GroupElement, Coweight, GroupElement]:
        """w = x t^lam y with t^lam y minimal in W0 w and lam dominant."""
        cur = w
        x = self.group.identity
        while True:
            a = next(
                (
                    i
                    for i in range(self.rs.rank)
                    if self.left_descent(cur, i)
                ),
                None,
            )
            if a is None:
                break
            cur = self.left_mul_simple(a, cur)
            x = x * self.group.gens[a]
        lam = Coweight(cur.lam)
        if not self.rs.is_dominant(lam):
            raise AssertionError("minimal coset representative has non-dominant part")
        return x, lam, cur.u

    # -- covers ------------------------------------------------------------------

    @cached_property
    def _cover_tables(self) -> tuple:
        """Per positive root g: beta_g^vee in lattice coordinates (tuples),
        <beta_g^vee, beta_k> over all k, and the signed images under s_beta_g."""
        rs = self.rs
        coroot_lat = rs.coroot_matrix @ rs.coroot_lattice_coords
        coroot_pair = coroot_lat @ rs.lattice_root_pairing
        refl = np.stack([r.images for r in self.group.reflections()])
        return tuple(map(tuple, coroot_lat.tolist())), coroot_pair, refl

    def right_inversions(self, w: AffineElement) -> tuple[np.ndarray, np.ndarray]:
        """(g, m) with w r = t^{lam + m beta_g^vee} (u s_beta), one row per
        right inversion r = t^{k beta^vee} s_beta of w = t^lam u, where
        u^{-1} beta_g = +-beta.

        With P = <lam, beta_g> and e = 1 if u^{-1} beta_g < 0 else 0, the
        hyperplanes <x, beta> = k separating the base alcove from w^{-1} of it
        give m in [1 - P, -e] when P > e and m in [1 - e, -P] otherwise: |P - e|
        values, the Iwahori-Matsumoto term of beta_g.
        """
        pair = w.pair_vector()
        e = (w.uinv().images < 0).astype(np.int64)
        d = pair - e
        size = np.abs(d)
        lo = np.where(d > 0, 1 - pair, 1 - e)
        g = np.repeat(np.arange(len(pair)), size)
        first = np.cumsum(size) - size
        m = np.repeat(lo - first, size) + np.arange(len(g))
        return g, m

    def covers(self, w: AffineElement) -> list[AffineElement]:
        """All w' with w' <= w and l(w') = l(w) - 1: the w r, r a right
        inversion of w, of length l(w) - 1."""
        lw = w.length()
        g, m = self.right_inversions(w)
        assert len(g) == lw, "right inversion count differs from the length"
        if lw == 0:
            return []
        coroot_lat, coroot_pair, refl = self._cover_tables
        uinv = w.uinv().images
        beta = np.abs(uinv[g]) - 1
        # <lam + m beta_g^vee, beta_k>, and (u s_beta)^{-1} = s_beta u^{-1}
        pair = w.pair_vector() + m[:, None] * coroot_pair[g]
        inv = refl[beta][:, np.abs(uinv) - 1] * np.sign(uinv)
        lengths = np.abs(pair - (inv < 0)).sum(axis=1)
        assert (lengths < lw).all(), "a right inversion does not shorten w"
        keep = lengths == lw - 1
        pair, inv, s = pair[keep], inv[keep], refl[beta[keep]]
        images = w.u.images[np.abs(s) - 1] * np.sign(s)  # u s_beta
        out = []
        for i, (gc, mc) in enumerate(zip(g[keep].tolist(), m[keep].tolist())):
            lam = tuple(a + mc * b for a, b in zip(w.lam, coroot_lat[gc]))
            # own copies: a row view would keep the whole block alive
            el = AffineElement(self, lam, GroupElement(self.group, images[i].copy()))
            el._length = lw - 1
            el._pair = pair[i].copy()
            el._uinv = GroupElement(self.group, inv[i].copy())
            out.append(el)
        return out

    # -- the admissible set -----------------------------------------------------------

    def admissible_oracle(
        self, mu: Coweight, budget: int = DEFAULT_ORACLE_BUDGET
    ) -> dict[tuple, AffineElement]:
        """Adm(mu): downward Bruhat closure of the translations t^{x(mu)}."""
        if not self.rs.is_dominant(mu):
            raise ValueError("mu must be dominant")
        tops = [self.translation(nu) for nu in self.rs.weyl_orbit(mu)]
        lmax = max(t.length() for t in tops)
        if self.rs.rank > 2 and lmax > budget:
            raise OracleBudgetExceeded(
                f"l(t^mu) = {lmax} exceeds the oracle budget {budget}"
            )
        seen: dict[tuple, AffineElement] = {}
        frontier = []
        for t in tops:
            if t.key() not in seen:
                seen[t.key()] = t
                frontier.append(t)
        while frontier:
            nxt = []
            for w in frontier:
                for c in self.covers(w):
                    if c.key() not in seen:
                        seen[c.key()] = c
                        nxt.append(c)
            frontier = nxt
        return seen


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


def star_hypothesis_holds(rs: RootSystem, lam: Coweight, mu: Coweight) -> bool:
    """(*): every dominant lam' with lam <= lam' <= mu clears the cover bound.

    The superregular fast path is tried first; otherwise the (finite) set of
    intermediate dominant coweights lam' = mu - sum m_j alpha_j^vee is
    enumerated over its coefficient box.
    """
    if explicit_bound_check(rs, mu, lam):
        return True
    combo = rs.coroot_combination(mu - lam)
    if combo is None or any(c < 0 or Fraction(c).denominator != 1 for c in combo):
        return False
    box = [int(c) for c in combo]

    from itertools import product as iproduct

    for ms in iproduct(*(range(b + 1) for b in box)):
        vec = list(mu.coords)
        for j, m in enumerate(ms):
            if m == 0:
                continue
            for g in range(rs.lattice_rank):
                vec[g] -= m * int(rs.coroot_lattice_coords[j][g])
        cw = Coweight(tuple(vec))
        if rs.is_dominant(cw) and not cover_depth_check(rs, cw):
            return False
    return True


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
    table = graph.group.enumerate()
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
