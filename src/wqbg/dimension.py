"""Virtual dimensions and the closed-form dimension value.

The virtual dimension of w = x t^lam y (minimal-coset decomposition) against
a class record b is

    d_w(b) = (l(w) + l(eta(w)) - defect)/2 - <nu_b, rho>,
    eta(w) = sigma^{-1}(y) x.

Over the admissible set this is maximized either by brute force (rank <= 2)
or in closed form for superregular mu:

    <mu - nu_b, rho> - defect/2 + l(w0)/2 - min_x d_Gamma(x, sigma(x) w0)/2,

and the twisted-class theorem identifies the last minimum with l_R(O), the
minimal reflection length on the twisted class of w0.  The final value
function refuses to produce a number when any hypothesis (superregularity,
kappa equality, the dominance margin) fails: there is no best-effort mode.

The geometric statement that these combinatorial values equal dimensions of
the corresponding varieties is imported from the literature, not computed;
reports carry a note saying so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .affine import AffineElement, AffineWeylGroup, affine_group, superregular_check
from .cartan import Coweight
from .coxeter import (
    DEFAULT_ENUM_BUDGET,
    Automorphism,
    CoxeterGroup,
    GroupElement,
    build_witness,
    compose_rows,
    get_group,
    identity_automorphism,
    lr_class_of_longest,
    max_length_twisted_coset,
)
from .newton import SigmaConjClass, mazur_margin
from .scalars import frac_str
from . import qbg as qbg_mod

GEOMETRIC_NOTE = (
    "combinatorial value; equality with the variety dimension is cited, not computed"
)


def eta_sigma(aw: AffineWeylGroup, w: AffineElement, sigma: Automorphism) -> GroupElement:
    """eta(w) = sigma^{-1}(y) x: the one-row case of ``eta_rows``."""
    return GroupElement(aw.group, eta_rows(aw, *w.rows(), sigma)[0])


def eta_rows(
    aw: AffineWeylGroup, lam: np.ndarray, u: np.ndarray, uinv: np.ndarray, sigma: Automorphism
) -> np.ndarray:
    """The images of eta(w) = sigma^{-1}(y) x for every row w = t^lam u, with
    x t^lam' y = w from the lockstep decomposition ``decompose_rows``."""
    x, _, y = aw.decompose_rows(lam, u, uinv)
    return compose_rows(sigma.inverse().apply_many(y), x)


def virtual_dimension(
    aw: AffineWeylGroup, w: AffineElement, b: SigmaConjClass, sigma: Automorphism
) -> Fraction:
    eta = eta_sigma(aw, w, sigma)
    nu_rho = aw.rs.pair_rho(b.newton_coweight())
    return Fraction(w.length() + eta.length() - b.defect, 2) - nu_rho


class SuperregularityError(ValueError):
    pass


class NotFrobeniusError(ValueError):
    """sigma permutes the simple reflections without preserving the Cartan
    matrix (the B2, F4 and G2 flips), so it is no Frobenius action on the
    root datum and the dimension formula does not apply."""


def _require_cartan_automorphism(rs, sigma: Automorphism) -> None:
    p, n = sigma.perm, rs.rank
    if any(rs.cartan[p[i]][p[j]] != rs.cartan[i][j] for i in range(n) for j in range(n)):
        raise NotFrobeniusError(
            f"sigma {sigma.one_line()} preserves the Coxeter matrix of {rs.label} "
            "but not its Cartan matrix"
        )


def d_adm_formula(
    aw: AffineWeylGroup,
    graph: "qbg_mod.QuantumBruhatGraph",
    mu: Coweight,
    b: SigmaConjClass,
    sigma: Automorphism,
    hint: Optional[GroupElement] = None,
) -> tuple[Fraction, GroupElement]:
    """The closed-form maximum of d_w(b) over Adm(mu), with the argmin x of
    ``qbg.min_twisted_distance``, to which `hint` is passed as a vertex."""
    rs = aw.rs
    if not superregular_check(rs, mu):
        raise SuperregularityError("mu is not superregular")
    table = aw.group.enumerate()
    dmin, arg = qbg_mod.min_twisted_distance(
        graph, sigma, None if hint is None else table.index_of(hint))
    lw0 = aw.group.longest_element().length()
    val = (
        rs.pair_rho(mu - b.newton_coweight())
        - Fraction(b.defect, 2)
        + Fraction(lw0 - dmin, 2)
    )
    return val, table.element(arg)


def d_adm_bruteforce(
    aw: AffineWeylGroup,
    mu: Coweight,
    b: SigmaConjClass,
    sigma: Automorphism,
    budget: int = 60,
) -> tuple[Fraction, AffineElement]:
    """max of d_w(b) over the brute-force admissible set, with an argmax:
    the first maximum of l(w) + l(eta(w)) in the oracle's row order."""
    adm = aw.admissible_oracle(mu, budget)
    total = adm.length + (eta_rows(aw, adm.lam, adm.u, adm.uinv, sigma) < 0).sum(axis=1)
    best = int(np.argmax(total))
    nu_rho = aw.rs.pair_rho(b.newton_coweight())
    return Fraction(int(total[best]) - b.defect, 2) - nu_rho, adm.element(best)


@dataclass
class DimensionReport:
    label: str
    mu: tuple
    b: SigmaConjClass
    sigma: str
    preconditions: dict
    value: Optional[Fraction]
    intermediates: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    note: str = GEOMETRIC_NOTE

    def to_json_dict(self) -> dict:
        return {
            "type": self.label,
            "mu": [str(c) for c in self.mu],
            "b": self.b.to_json_dict(),
            "sigma": self.sigma,
            "preconditions": self.preconditions,
            "value": frac_str(self.value),
            "intermediates": {k: frac_str(v) for k, v in self.intermediates.items()},
            "witnesses": self.witnesses,
            "note": self.note,
        }


def dim_x(
    group: CoxeterGroup,
    mu: Coweight,
    b: SigmaConjClass,
    sigma: Automorphism,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DimensionReport:
    """The dimension value for X(mu, b), gated on every hypothesis.

    The value is withheld (None) with the failing flags named whenever a
    hypothesis fails.  Otherwise x is ``build_witness``'s element, which that
    constructor has checked, once per (group, sigma), to satisfy
    x <= sigma(x) w0 and l(w0) - 2 l(x) = l_R(O); the value is read off
    l(x), and the explicit maximizer x t^mu w0 sigma(x)^{-1} must have it as
    virtual dimension.  The value is also recomputed through the
    quantum-Bruhat-graph minimum (the graph is built within ``budget``, and
    keeps the minimum per sigma); the twisted-class theorem makes the two
    equal, and the equality is asserted on every call, not assumed.  That
    minimum is searched first from x as a hint: one BFS settles it when it
    reaches sigma(x) w0 within the sigma'-class bound, which reads neither
    the witness nor the theorem (see ``qbg.min_twisted_distance``), and
    ``min_dgamma_x`` is then x.  A sigma that is not a Frobenius action
    raises NotFrobeniusError.
    """
    rs = group.rs
    aw = affine_group(group)
    _require_cartan_automorphism(rs, sigma)
    pre = {
        "superregular": superregular_check(rs, mu),
        "kappa_match": b.kappa == rs.kappa(mu),
        "mazur_margin": mazur_margin(rs, b, mu, sigma),
    }
    report = DimensionReport(
        label=group.label,
        mu=mu.coords,
        b=b,
        sigma=sigma.one_line(),
        preconditions=pre,
        value=None,
    )
    if not all(pre.values()):
        report.witnesses["failed"] = [k for k, v in pre.items() if not v]
        return report

    w0 = group.longest_element()
    x = build_witness(group, sigma)
    lr_o = w0.length() - 2 * x.length()
    pair = rs.pair_rho(mu - b.newton_coweight())
    value = pair - Fraction(b.defect, 2) + Fraction(w0.length() - lr_o, 2)
    assert (2 * value).denominator == 1, "dimension must be a half-integer"
    report.value = value
    report.intermediates = {
        "l_w0": w0.length(),
        "lR_class": lr_o,
        "pair_mu_minus_nu_rho": pair,
        "defect": b.defect,
    }

    # the explicit maximizer w = x t^mu w0 sigma(x)^{-1}
    maximizer = aw.from_parts(x, mu, w0 * sigma.apply(x).inverse())
    try:
        # the int64 bound is met here, at x(mu): the refusal names the mu given
        maximizer.rows()
    except ValueError as exc:
        raise ValueError(
            f"mu {[int(c) for c in mu.coords]} is too large: the affine row "
            "kernels could leave int64"
        ) from exc
    report.witnesses["max_x"] = x.word() or "e"
    report.witnesses["maximizer"] = repr(maximizer)
    vd = virtual_dimension(aw, maximizer, b, sigma)
    report.intermediates["maximizer_virtual_dimension"] = vd
    assert vd == value, "maximizer virtual dimension disagrees with the formula"

    if rs.crystallographic:
        graph = qbg_mod.build_qbg(group, budget)
        formula_val, arg = d_adm_formula(aw, graph, mu, b, sigma, hint=x)
        report.intermediates["d_adm_formula"] = formula_val
        report.witnesses["min_dgamma_x"] = arg.word() or "e"
        assert formula_val == value, "QBG formula disagrees with the class formula"
    return report


# ---------------------------------------------------------------------------
# the three-way theorem check


def verify_theorem_52(
    label: str,
    sigma_perm: Optional[tuple[int, ...]] = None,
    enum_budget: int = 52000,
) -> dict:
    """Check l(w0) - 2 max{l(x); x <= sigma(x) w0} = l_R(O) (= min d_Gamma).

    Small groups compute all quantities independently and compare (the
    graph minimum is searched from the scan's x first, a hint that only
    chooses where the search starts; see ``qbg.min_twisted_distance``); above
    `enum_budget` the witness sandwich is used: the explicit x gives the
    upper bound for max and l(w0) - 2 l(x) bounds the graph distance, while
    the reflection-length potential (every graph edge multiplies by one
    reflection) gives the lower bound.

    Proof of the distance bound d_Gamma(x, sigma(x) w0) <= l(w0) - 2 l(x).
    ``build_witness`` asserts x <= y = sigma(x) w0.  Bruhat intervals are
    graded (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm. 2.2.6), so
    a chain x = u_0 < u_1 < ... < u_m = y of covers exists, with
    m = l(y) - l(x).  Each cover is u < u t for a reflection t with
    l(u t) = l(u) + 1, an upward edge of the quantum Bruhat graph; so the
    chain is a path of m edges.  sigma preserves length and
    l(sigma(x) w0) = l(w0) - l(sigma(x)), so m = l(w0) - 2 l(x).
    """
    group = get_group(label)
    sigma = (
        identity_automorphism(group)
        if sigma_perm is None
        else Automorphism(group, tuple(sigma_perm))
    )
    w0 = group.longest_element()
    lr_o = lr_class_of_longest(group, sigma)
    out = {
        "type": label,
        "sigma": sigma.one_line(),
        "lR_class": lr_o,
        "l_w0": w0.length(),
    }
    if group.order() <= enum_budget:
        ml, x = max_length_twisted_coset(group, sigma)
        out["method"] = "enumeration"
        out["max_length"] = ml
        out["lhs"] = w0.length() - 2 * ml
        out["witness"] = x.word() or "e"
        if group.rs.crystallographic:
            graph = qbg_mod.build_qbg(group)
            table = group.enumerate()
            dmin, arg = qbg_mod.min_twisted_distance(graph, sigma, table.index_of(x))
            out["min_dgamma"] = dmin
            out["dgamma_witness"] = table.element(arg).word() or "e"
            out["equal"] = out["lhs"] == lr_o == dmin
        else:
            out["min_dgamma"] = None
            out["equal"] = out["lhs"] == lr_o
        return out

    # witness path (above the budget): Bruhat test + Carter rank, no enumeration
    x = build_witness(group, sigma)  # asserts x <= sigma(x) w0 and the length
    out["method"] = "witness-sandwich"
    out["witness"] = x.word() or "e"
    out["max_length_lower_bound"] = x.length()
    out["lhs"] = w0.length() - 2 * x.length()
    if group.rs.crystallographic:
        out["min_dgamma_upper_bound"] = out["lhs"]  # see the proof above
    out["equal"] = out["lhs"] == lr_o
    return out
