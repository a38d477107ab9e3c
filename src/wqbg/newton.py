"""Frobenius-twisted conjugacy class records and the type-A Newton helper.

A class record carries the two classifying invariants: the kappa class in
pi_1 (computed from the declared cocharacter lattice) and the dominant
rational Newton point, plus the defect as a stored integer.  The defect has
no uniform computation rule; only the GL_n helper derives it, from the
slope multiplicities of the Newton polygon (rank of the sigma-centralizer:
a slope p/q in lowest terms occurring with multiplicity m*q contributes m).

Coweight averages over a diagram-automorphism orbit (`mu_diamond`) are only
supported for lattices equal to the coroot lattice, where the automorphism
acts by permuting coordinates; constructions needing Galois coinvariants
with torsion are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cartan import Coweight, RootSystem
from .coxeter import Automorphism
from .scalars import frac_str


@dataclass(frozen=True)
class SigmaConjClass:
    """kappa class, dominant rational Newton point, and stored defect."""

    kappa: tuple
    newton: tuple[Fraction, ...]  # lattice coordinates, dominant
    defect: int

    def newton_coweight(self) -> Coweight:
        return Coweight(self.newton)

    def to_json_dict(self) -> dict:
        return {
            "kappa": list(self.kappa),
            "nu": [frac_str(Fraction(c)) for c in self.newton],
            "defect": self.defect,
        }


def make_class(rs: RootSystem, nu, defect: int, kappa=None) -> SigmaConjClass:
    """Build a class record; kappa defaults to the class of nu when integral."""
    cw = Coweight(tuple(Fraction(c) for c in nu))
    if not rs.is_dominant(cw):
        raise ValueError("Newton point must be dominant")
    if defect < 0:
        raise ValueError("defect must be nonnegative")
    if kappa is None:
        if not cw.is_integral():
            raise ValueError("kappa must be supplied for non-integral Newton points")
        kappa = rs.kappa(cw)
    return SigmaConjClass(tuple(kappa), cw.coords, defect)


def basic_class(rs: RootSystem, mu: Coweight, defect: int = 0) -> SigmaConjClass:
    """The class with Newton point 0 and the kappa class of mu."""
    zero = tuple(Fraction(0) for _ in range(rs.lattice_rank))
    return SigmaConjClass(rs.kappa(mu), zero, defect)


def sigma_on_coweight(rs: RootSystem, sigma: Automorphism, cw: Coweight) -> Coweight:
    """Diagram automorphism acting on a coweight (coroot-lattice data only)."""
    if rs.lattice_rank != rs.rank:
        if sigma.is_identity():
            return cw
        raise ValueError("sigma action on enlarged lattices is not supported")
    out = [0] * rs.rank
    for i, c in enumerate(cw.coords):
        out[sigma.perm[i]] = c
    return Coweight(tuple(out))


def mu_diamond(rs: RootSystem, mu: Coweight, sigma: Automorphism) -> Coweight:
    """Average of the sigma-orbit of the dominant representative of mu."""
    mu_plus = rs.dominant_representative(mu)
    orbit = [mu_plus]
    cur = sigma_on_coweight(rs, sigma, mu_plus)
    while cur.coords != mu_plus.coords:
        orbit.append(cur)
        cur = sigma_on_coweight(rs, sigma, cur)
    n = len(orbit)
    acc = [Fraction(0)] * len(mu_plus.coords)
    for v in orbit:
        for i, c in enumerate(v.coords):
            acc[i] += Fraction(c)
    return Coweight(tuple(a / n for a in acc))


def is_neutrally_acceptable(
    rs: RootSystem, b: SigmaConjClass, mu: Coweight, sigma: Automorphism
) -> bool:
    """kappa(b) = kappa(mu) and nu_b <= mu_diamond in dominance order."""
    if b.kappa != rs.kappa(mu):
        return False
    md = mu_diamond(rs, mu, sigma)
    return rs.dominance_leq(b.newton_coweight(), md)


def mazur_margin(
    rs: RootSystem, b: SigmaConjClass, mu: Coweight, sigma: Automorphism
) -> bool:
    """mu_diamond >= nu_b + 2 rho^vee in dominance order."""
    md = mu_diamond(rs, mu, sigma)
    shifted = b.newton_coweight() + Coweight(rs.two_rho_check_lattice)
    return rs.dominance_leq(shifted, md)


# ---------------------------------------------------------------------------
# GL_n Newton polygons


def gln_classes(mu: tuple[int, ...] | list[int]) -> list[SigmaConjClass]:
    """All of B(GL_n, mu): lattice Newton points nu <= mu with equal sum.

    Newton points are concave slope sequences (dominant) whose polygon has
    integral breakpoints where the slope changes; the defect is
    n - sum of multiplicities m_i over slope blocks (slope p_i/q_i in lowest
    terms filling m_i q_i slots).
    """
    mu = tuple(int(c) for c in mu)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("mu must be dominant (weakly decreasing)")
    n = len(mu)
    total = sum(mu)
    hodge = [sum(mu[:i]) for i in range(n + 1)]

    points: list[list[tuple[int, int]]] = []

    def extend(chain: list[tuple[int, int]]):
        i, h = chain[-1]
        if i == n:
            if h == total:
                points.append(list(chain))
            return
        # next lattice vertex (j, h2), slope strictly below the previous one
        prev_slope = None
        if len(chain) >= 2:
            (i0, h0) = chain[-2]
            prev_slope = Fraction(h - h0, i - i0)
        bound = max(abs(c) for c in mu) + 1
        for j in range(i + 1, n + 1):
            for h2 in range(h - (j - i) * bound, h + (j - i) * bound + 1):
                slope = Fraction(h2 - h, j - i)
                if prev_slope is not None and slope >= prev_slope:
                    continue
                # stay on or below the Hodge polygon at every integer abscissa
                ok = all(
                    Fraction(h) + slope * (t - i) <= hodge[t]
                    for t in range(i + 1, j + 1)
                )
                if ok:
                    extend(chain + [(j, h2)])

    extend([(0, 0)])

    out = []
    seen = set()
    for chain in points:
        nu: list[Fraction] = []
        defect_rank = 0
        for (i0, h0), (i1, h1) in zip(chain, chain[1:]):
            q = i1 - i0
            p = h1 - h0
            g = gcd(abs(p), q) if p else q
            defect_rank += g  # m = q / (q/g) blocks ... m = g when slope p/q reduced
            nu.extend([Fraction(p, q)] * q)
        key = tuple(nu)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            SigmaConjClass(kappa=(total,), newton=key, defect=n - defect_rank)
        )
    out.sort(key=lambda c: c.newton, reverse=True)
    return out


def gln_classes_bruteforce(mu) -> list[tuple[Fraction, ...]]:
    """Independent enumeration of the same Newton points, slope-block first.

    Chooses slope blocks directly: slopes p/q in lowest terms taken in
    strictly decreasing order, each block filling a multiple of q slots,
    total length n, total sum |mu|, prefix sums dominated by mu's.  Serves
    as the cross-check oracle for gln_classes.
    """
    mu = tuple(int(c) for c in mu)
    n = len(mu)
    total = sum(mu)
    hodge = [sum(mu[:i]) for i in range(n + 1)]
    bound = max(abs(c) for c in mu) + 1

    slopes = set()
    for q in range(1, n + 1):
        for p in range(-bound * q, bound * q + 1):
            if q == 1 or gcd(abs(p), q) == 1:
                slopes.add(Fraction(p, q))
    slopes = sorted(slopes, reverse=True)

    out = []

    def rec(idx: int, used: int, acc: Fraction, chain: list[Fraction]):
        if used == n:
            if acc == total:
                out.append(tuple(chain))
            return
        if idx >= len(slopes):
            return
        # skip this slope entirely
        rec(idx + 1, used, acc, chain)
        s = slopes[idx]
        q = s.denominator
        length = q
        while used + length <= n:
            new_chain = chain + [s] * length
            ok = all(
                sum(new_chain[:t], Fraction(0)) <= hodge[t]
                for t in range(used + 1, used + length + 1)
            )
            if ok:
                rec(idx + 1, used + length, acc + s * length, new_chain)
            length += q

    rec(0, 0, Fraction(0), [])
    return sorted(set(out), reverse=True)
