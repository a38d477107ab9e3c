"""Virtual dimension, the closed-form maximum, and the theorem checks."""

from fractions import Fraction

import pytest

from wqbg.affine import AffineWeylGroup
from wqbg.cartan import Coweight
from wqbg import coxeter, dimension
from wqbg.coxeter import (
    Automorphism,
    diagram_automorphisms,
    get_group,
    identity_automorphism,
    lr_class_of_longest,
)
from wqbg.dimension import (
    NotFrobeniusError,
    SuperregularityError,
    d_adm_bruteforce,
    d_adm_formula,
    dim_x,
    eta_sigma,
    verify_theorem_52,
    virtual_dimension,
)
from wqbg.newton import basic_class, make_class
from wqbg import qbg as qbg_mod


@pytest.fixture(scope="module")
def a1():
    return AffineWeylGroup(get_group("A1"))


def test_eta_sigma(a1):
    sid = identity_automorphism(a1.group)
    assert eta_sigma(a1, a1.translation(Coweight((6,))), sid).is_identity()
    s1t6 = a1.from_parts(a1.group.gens[0], Coweight((6,)), a1.group.identity)
    assert eta_sigma(a1, s1t6, sid) == a1.group.gens[0]

    a2 = AffineWeylGroup(get_group("A2"))
    w = a2.from_parts(
        a2.group.element_from_word("1"), a2.rs.coweight([9, 9]),
        a2.group.element_from_word("2"),
    )
    assert eta_sigma(a2, w, identity_automorphism(a2.group)) == a2.group.element_from_word("2 1")


def test_virtual_dimension(a1):
    sid = identity_automorphism(a1.group)
    b = basic_class(a1.rs, a1.rs.coweight([6]))
    assert virtual_dimension(a1, a1.translation(Coweight((6,))), b, sid) == 6
    s1t6 = a1.from_parts(a1.group.gens[0], Coweight((6,)), a1.group.identity)
    assert virtual_dimension(a1, s1t6, b, sid) == 7
    # with nu = 0, def = 0 the value is (l(w) + l(eta))/2 for any w
    w = a1.from_parts(a1.group.identity, Coweight((4,)), a1.group.gens[0])
    assert virtual_dimension(a1, w, b, sid) == Fraction(
        w.length() + eta_sigma(a1, w, sid).length(), 2
    )


def _virtual_dimension_decomposed(aw, graph, w, b, sigma):
    """The path-identity form of d_w(b), for cross-checking:

    (l(sigma^{-1}(y) x) - d_Gamma(x, y^{-1}))/2 + <wt(x, y^{-1}) + lam, rho>
    - defect/2 - <nu_b, rho>.
    """
    x, lam, y = aw.decompose_minimal_coset(w)
    eta = sigma.inverse().apply(y) * x
    table = aw.group.enumerate()
    xi = table.index_of(x)
    yi = table.index_of(y.inverse())
    d = qbg_mod.qbg_distance(graph, xi, yi)
    wt = qbg_mod.qbg_weight(graph, xi, yi)
    wt_rho = Fraction(sum(wt))  # <sum c_i alpha_i^vee, rho> = sum c_i
    lam_rho = aw.rs.pair_rho(lam)
    nu_rho = aw.rs.pair_rho(b.newton_coweight())
    return (
        Fraction(eta.length() - d, 2)
        + wt_rho
        + lam_rho
        - Fraction(b.defect, 2)
        - nu_rho
    )


def test_virtual_dimension_decomposition_identity(graph_of):
    # the path-identity form agrees with the definition on regular elements
    a2 = AffineWeylGroup(get_group("A2"))
    q = graph_of("A2")
    sid = identity_automorphism(a2.group)
    b = make_class(a2.rs, (0, 0), 0)
    mu = a2.rs.coweight([14, 14])
    adm = a2.admissible_oracle(mu)
    checked = 0
    for w in adm.values():
        _, lam, _ = a2.decompose_minimal_coset(w)
        if any(a2.rs.pair_root(lam, i) < 1 for i in range(a2.rs.rank)):
            continue  # the identity needs a regular translation part
        assert virtual_dimension(a2, w, b, sid) == _virtual_dimension_decomposed(
            a2, q, w, b, sid
        )
        checked += 1
    assert checked > 1000


def test_d_adm_formula_vs_bruteforce(a1, graph_of):
    sid = identity_automorphism(a1.group)
    q = graph_of("A1")
    for m in (6, 7, 8):
        mu = a1.rs.coweight([m])
        b = basic_class(a1.rs, mu)
        fval, _ = d_adm_formula(a1, q, mu, b, sid)
        bval, argmax = d_adm_bruteforce(a1, mu, b, sid)
        assert fval == bval == m
        assert argmax == a1.translation(Coweight((m,)))


def test_d_adm_formula_requires_superregular(a1, graph_of):
    b = basic_class(a1.rs, a1.rs.coweight([1]))
    with pytest.raises(SuperregularityError):
        d_adm_formula(a1, graph_of("A1"), a1.rs.coweight([1]), b, identity_automorphism(a1.group))


def test_dim_x_reports(a1):
    sid = identity_automorphism(a1.group)
    mu = a1.rs.coweight([6])
    rep = dim_x(a1.group, mu, basic_class(a1.rs, mu), sid)
    assert rep.value == 6
    assert all(rep.preconditions.values())
    assert rep.intermediates["lR_class"] == 1
    assert rep.intermediates["d_adm_formula"] == 6
    doc = rep.to_json_dict()
    assert doc["value"] == "6"
    assert "cited" in doc["note"]

    # monotone with slope one in <mu, rho>
    vals = []
    for m in (6, 7, 8):
        mu = a1.rs.coweight([m])
        vals.append(dim_x(a1.group, mu, basic_class(a1.rs, mu), sid).value)
    assert vals == [6, 7, 8]


def test_dim_x_withholds_on_failed_gates(a1):
    sid = identity_automorphism(a1.group)
    mu = a1.rs.coweight([1])
    rep = dim_x(a1.group, mu, basic_class(a1.rs, mu), sid)
    assert rep.value is None
    assert "superregular" in rep.witnesses["failed"]

    # Mazur margin failure: nu = mu leaves no room for 2 rho^vee
    mu = a1.rs.coweight([6])
    b_top = make_class(a1.rs, (6,), 0)
    rep = dim_x(a1.group, mu, b_top, sid)
    assert rep.value is None
    assert rep.witnesses["failed"] == ["mazur_margin"]


def test_dim_x_half_integer_defect(a1):
    sid = identity_automorphism(a1.group)
    mu = a1.rs.coweight([6])
    rep = dim_x(a1.group, mu, basic_class(a1.rs, mu, defect=1), sid)
    assert rep.value == Fraction(11, 2)
    assert rep.to_json_dict()["value"] == "11/2"


@pytest.mark.parametrize("label", ["B2", "F4", "G2"])
def test_dim_x_refuses_a_flip_that_is_not_frobenius(label):
    # the flip swaps a long and a short simple root: it preserves the Coxeter
    # matrix, not the Cartan matrix
    g = get_group(label)
    (flip,) = [a for a in diagram_automorphisms(g) if not a.is_identity()]
    mu = Coweight(g.rs.two_rho_check_lattice)
    with pytest.raises(NotFrobeniusError):
        dim_x(g, mu, basic_class(g.rs, mu), flip)
    # Theorem 5.2 is a statement about Coxeter automorphisms and keeps them
    assert verify_theorem_52(label, flip.perm)["equal"]


def test_dim_x_accepts_a_cartan_flip():
    g = get_group("A2")
    mu = g.rs.coweight([14, 14])
    # the A2 flip is Ad(w0), whose twisted class of w0 is {w0} = {s_theta}
    rep = dim_x(g, mu, basic_class(g.rs, mu), Automorphism(g, (1, 0)))
    assert rep.intermediates["lR_class"] == 1 and rep.value == 28 + 1


def test_dim_x_takes_its_maximizer_from_the_witness(monkeypatch):
    # neither the exhaustive scan nor a second l_R computation runs in dim_x
    def fail(*args, **kwargs):
        pytest.fail("dim_x ran the exhaustive scan or recomputed l_R(O)")

    cases = [("D4", (2, 1, 3, 0)), ("A3", (2, 1, 0)), ("2A2", (2, 3, 0, 1)), ("GL3", (0, 1))]
    for label, perm in cases:
        g = get_group(label)
        sigma = Automorphism(g, perm)
        lr_o = lr_class_of_longest(g, sigma)
        # depth 2 (2 l(w0) + 1) of mu = (2 l(w0) + 1) 2 rho^vee: superregular
        mu = Coweight(tuple((2 * g.n_pos + 1) * c for c in g.rs.two_rho_check_lattice))
        b = basic_class(g.rs, mu)
        with monkeypatch.context() as m:
            m.setattr(coxeter, "max_length_twisted_coset", fail)
            m.setattr(dimension, "max_length_twisted_coset", fail)
            m.setattr(dimension, "lr_class_of_longest", fail)
            rep = dim_x(g, mu, b, sigma)
        x = g.element_from_word(rep.witnesses["max_x"].replace("e", ""))
        assert rep.intermediates["lR_class"] == lr_o == g.n_pos - 2 * x.length()
        assert rep.value == rep.intermediates["d_adm_formula"] == (
            g.rs.pair_rho(mu) + Fraction(g.n_pos - lr_o, 2)
        ), label


def test_dim_x_settles_the_graph_minimum_with_one_search(monkeypatch):
    # the witness x is the hint of the graph minimum: one BFS from x (the
    # search without a hint makes 574 here)
    calls = {"_bfs": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qbg_mod, name, counted(name, getattr(qbg_mod, name)))
    g = coxeter.CoxeterGroup.from_label("A6")
    mu = Coweight(tuple((2 * g.n_pos + 1) * c for c in g.rs.two_rho_check_lattice))
    rep = dim_x(g, mu, basic_class(g.rs, mu), identity_automorphism(g))
    assert calls == {"_bfs": 1}
    assert rep.witnesses["min_dgamma_x"] == rep.witnesses["max_x"]
    assert rep.value == rep.intermediates["d_adm_formula"]


def saturated_chain_up(group, lo, hi):
    """A chain lo = u_0 < u_1 < ... < hi of covers, each a right reflection.

    Existence follows from the lifting property of Bruhat intervals; the
    chain certifies d_Gamma(lo, hi) <= l(hi) - l(lo) since every step
    u -> u s_beta with l + 1 is an upward graph edge.  The reference for the
    bound that ``verify_theorem_52`` reports on its witness path.
    """
    if not group.bruhat_leq(lo, hi):
        raise ValueError("saturated_chain_up needs lo <= hi in Bruhat order")
    chain = [lo]
    cur = lo
    refl = group.reflections()
    while cur.length() < hi.length():
        found = False
        for t in refl:
            cand = cur * t
            if cand.length() == cur.length() + 1 and group.bruhat_leq(cand, hi):
                chain.append(cand)
                cur = cand
                found = True
                break
        if not found:
            raise AssertionError("no cover step found; lo is not below hi")
    if cur != hi:
        raise AssertionError("chain did not terminate at the top element")
    return chain


def test_saturated_chain(graph_of):
    from wqbg.coxeter import build_witness

    g = get_group("A3")
    w0 = g.longest_element()
    x = build_witness(g, identity_automorphism(g))
    chain = saturated_chain_up(g, x, x * w0)
    assert len(chain) - 1 == (x * w0).length() - x.length()
    # the witness path reports this chain's length as its bound, unwalked
    assert verify_theorem_52("A3", enum_budget=1)["min_dgamma_upper_bound"] == len(chain) - 1
    q = graph_of("A3")
    table = g.enumerate()
    # every chain step is an upward graph edge
    for a, b in zip(chain, chain[1:]):
        ia, ib = table.index_of(a), table.index_of(b)
        dsts, kinds, _ = q.out_edges(ia)
        assert any(int(d) == ib and k == 0 for d, k in zip(dsts, kinds))


def test_verify_theorem_52_samples():
    for label, perm, expect in [
        ("A2", None, 1), ("B2", None, 2), ("H3", None, 3), ("H4", None, 4),
        ("D4", (2, 1, 3, 0), 2), ("F4", (3, 2, 1, 0), 0), ("I8", (1, 0), 0),
        ("A1xA1", (1, 0), 0),
    ]:
        rep = verify_theorem_52(label, perm)
        assert rep["equal"], rep
        assert rep["lR_class"] == expect, (label, rep)


def test_verify_theorem_52_witness_path():
    for label, expect in [("E7", 7), ("E8", 8)]:
        rep = verify_theorem_52(label)
        assert rep["method"] == "witness-sandwich"
        assert rep["lhs"] == rep["lR_class"] == expect
        assert rep["min_dgamma_upper_bound"] == expect
        assert rep["equal"]


def test_witness_path_computes_the_class_once(monkeypatch):
    # a budget of 1 sends A6 down the witness path; a fresh group cache
    # makes sure nothing is stored for it yet
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    calls = []
    orbit = coxeter.twisted_class
    monkeypatch.setattr(coxeter, "twisted_class", lambda *a: calls.append(a) or orbit(*a))
    # sigma = id walks no orbit; the flip Ad(w0) walks its one-row orbit once
    rep = verify_theorem_52("A6", enum_budget=1)
    assert rep["method"] == "witness-sandwich" and rep["equal"]
    assert rep["lhs"] == rep["lR_class"] == 3
    assert not calls
    flip = tuple(range(5, -1, -1))
    rep = verify_theorem_52("A6", flip, enum_budget=1)
    assert rep["method"] == "witness-sandwich" and rep["equal"]
    assert rep["lhs"] == rep["lR_class"] == 3
    assert len(calls) == 1
    assert verify_theorem_52("A6", flip, enum_budget=1) == rep and len(calls) == 1
