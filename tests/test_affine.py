"""Affine Weyl group arithmetic, Bruhat covers, and the admissible oracle."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqbg import qbg as qbg_mod
from wqbg.affine import (
    AffineElement,
    AffineWeylGroup,
    OracleBudgetExceeded,
    StarHypothesisError,
    _right_inversion_rows,
    admissible_via_qbg,
    affine_group,
    check_covering_families,
    cover_depth_check,
    explicit_bound_check,
    is_admissible_superregular,
    star_hypothesis_holds,
    star_hypothesis_table,
    superregular_check,
)
from wqbg.cartan import Coweight
from wqbg.coxeter import CoxeterGroup, get_group, identity_automorphism
from wqbg.dimension import d_adm_bruteforce, virtual_dimension
from wqbg.newton import basic_class, make_class
from wqbg.qbg import build_qbg
from wqbg.verify import suite_prop_adm


@pytest.fixture(scope="module")
def a1():
    return AffineWeylGroup(get_group("A1"))


@pytest.fixture(scope="module")
def a2():
    return AffineWeylGroup(get_group("A2"))


def test_affine_lengths(a1):
    e, s = a1.group.identity, a1.group.gens[0]
    # l(t^{alpha^vee}) = <alpha^vee, 2rho>
    assert a1.translation(Coweight((1,))).length() == 2
    assert a1.translation(Coweight((6,))).length() == 12
    assert a1.from_parts(e, Coweight((6,)), s).length() == 11
    assert a1.from_parts(s, Coweight((6,)), e).length() == 13
    assert a1.translation(Coweight((0,))).length() == 0


def test_translation_length_formula(a2):
    # l(t^lam) = <lam, 2 rho> for dominant lam
    for coords in [(1, 0), (0, 1), (3, 2), (14, 14)]:
        lam = a2.rs.coweight(list(coords))
        if not a2.rs.is_dominant(lam):
            continue
        assert a2.translation(lam).length() == 2 * a2.rs.pair_rho(lam)


def test_multiplication_law(a2):
    # t^lam u . t^nu v = t^{lam + u(nu)} uv, checked against word products
    g = a2.group
    w1 = a2.from_parts(g.element_from_word("1"), Coweight((2, 1)), g.element_from_word("2"))
    w2 = a2.from_parts(g.element_from_word("2 1"), Coweight((0, 3)), g.identity)
    prod = w1 * w2
    assert prod.u == g.element_from_word("1") * g.element_from_word("2") * g.element_from_word("2 1")
    # associativity, and (x t^lam y)^{-1} = y^{-1} t^{-lam} x^{-1}
    assert (w1 * w2) * w1 == w1 * (w2 * w1)
    w1_inv = a2.from_parts(g.element_from_word("2"), Coweight((-2, -1)), g.element_from_word("1"))
    e = a2.translation(Coweight((0, 0)))
    assert w1 * w1_inv == w1_inv * w1 == e and e.length() == 0


def test_decompose_minimal_coset(a2):
    g = a2.group
    lam = a2.rs.coweight([5, 7])  # dominant regular
    for xw, yw in [("", ""), ("1", ""), ("1 2 1", "1 2 1"), ("2", "1")]:
        w = a2.from_parts(g.element_from_word(xw), lam, g.element_from_word(yw))
        x, lam2, y = a2.decompose_minimal_coset(w)
        assert a2.rs.is_dominant(lam2)
        assert a2.from_parts(x, lam2, y) == w
        # minimality: no finite left descent on t^lam2 y, l(s_a t^lam2 y) > l(t^lam2 y)
        tl = a2.from_parts(g.identity, lam2, y)
        assert all((s * tl).length() > tl.length() for s in _finite_simples(a2))
        if xw == "1 2 1" and yw == "1 2 1":
            assert x == g.longest_element() and y == g.longest_element()


def test_int64_rows_refuse_past_the_bound(a1):
    # A1: K = 1 + 1 + 3 and n = 1, so t^c passes while c + 5 (2c + 3) < 2^63
    top = (2**63 - 16) // 11
    assert a1._int64_rows([(top,), (-top,)]).tolist() == [[top], [-top]]
    for c in (top + 1, -top - 1, 2**70):
        with pytest.raises(ValueError, match="int64"):
            a1._int64_rows([(c,)])
    # at the bound the kernels stay exact: l(t^c) = 2c, and t^{-c} = s t^c s
    assert a1.translation(Coweight((top,))).length() == 2 * top
    s = a1.group.gens[0]
    assert a1.decompose_minimal_coset(a1.translation(Coweight((-top,)))) == (
        s, Coweight((top,)), s)


@pytest.mark.parametrize("label", ["A2", "G2", "C3", "GL3", "A1xA1", "D4"])
def test_kernels_stay_exact_up_to_the_bound(label):
    # the largest accepted multiple of a few directions, against Python ints:
    # the Iwahori-Matsumoto length, and x t^lam y multiplied back to w
    aw = AffineWeylGroup(get_group(label))
    rs, table = aw.rs, aw.group.enumerate()
    pairing = rs.lattice_root_pairing.tolist()
    for k in range(4):
        d = [(3 * k + 2 * j) % 7 - 3 for j in range(rs.lattice_rank)]
        lo, hi = 0, 2**63
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                aw._int64_rows([[mid * c for c in d]])
                lo = mid
            except ValueError:
                hi = mid - 1
        w = AffineElement(aw, tuple(lo * c for c in d), table.element(len(table) * k // 4))
        neg = w.uinv().images < 0
        assert w.length() == sum(
            abs(sum(c * p[b] for c, p in zip(w.lam, pairing)) - int(neg[b]))
            for b in range(rs.n_pos_roots)), (label, d)
        assert aw.from_parts(*aw.decompose_minimal_coset(w)) == w, (label, d)


def test_admissible_oracle_a1_count(a1):
    # dihedral-affine rule: the interval below both length-12 translations is
    # everything of length < 12 plus the two tops: 1 + 2*11 + 2 = 4m + 1
    adm = a1.admissible_oracle(Coweight((6,)))
    assert len(adm) == 4 * 6 + 1
    for m in (7, 8):
        assert len(a1.admissible_oracle(Coweight((m,)))) == 4 * m + 1
    # t^mu itself and the reflected translation are members
    assert a1.translation(Coweight((6,))).key() in adm
    assert a1.translation(Coweight((-6,))).key() in adm
    assert a1.from_parts(a1.group.identity, Coweight((6,)), a1.group.gens[0]).key() in adm


def test_admissible_oracle_invariants(a1):
    mu = Coweight((6,))
    adm = a1.admissible_oracle(mu)
    for w in adm.values():
        x, lam, y = a1.decompose_minimal_coset(w)
        assert a1.rs.dominance_leq(lam, mu)
        assert a1.rs.kappa(Coweight(w.lam)) == a1.rs.kappa(mu)


def test_is_admissible_superregular_a1(a1, graph_of):
    q = graph_of("A1")
    e = a1.group.identity
    s = a1.group.gens[0]
    mu = Coweight((6,))
    assert admissible_via_qbg(q, e, Coweight((6,)), e, mu)
    assert admissible_via_qbg(q, e, Coweight((5,)), e, mu)
    assert admissible_via_qbg(q, s, Coweight((6,)), s, mu)
    assert not admissible_via_qbg(q, s, Coweight((6,)), e, mu)
    ans = is_admissible_superregular(q, e, Coweight((5,)), e, mu)
    assert ans.answer and ans.certified
    # lam = 0 violates (*) in A1 at mu = 6
    with pytest.raises(StarHypothesisError):
        is_admissible_superregular(q, e, Coweight((0,)), e, mu)
    raw = is_admissible_superregular(q, e, Coweight((0,)), e, mu, require_certificate=False)
    assert raw.answer and not raw.certified


def test_superregular_bounds():
    a2 = get_group("A2").rs
    assert superregular_check(a2, a2.coweight([14, 14], basis="fundamental"))
    assert not superregular_check(a2, a2.coweight([13, 14], basis="fundamental"))
    g2 = get_group("G2").rs
    assert not superregular_check(g2, g2.coweight([32, 32], basis="fundamental"))
    assert superregular_check(g2, g2.coweight([33, 33], basis="fundamental"))
    a1 = get_group("A1").rs
    assert superregular_check(a1, a1.coweight([3]))  # depth 6 = 4*1 + 2
    assert not superregular_check(a1, a1.coweight([2]))


def test_explicit_bound_check():
    a1 = get_group("A1").rs
    mu = a1.coweight([6])
    assert explicit_bound_check(a1, mu, a1.coweight([6]))
    assert explicit_bound_check(a1, mu, a1.coweight([5]))  # <mu-lam, rho> = 1 <= 1
    assert not explicit_bound_check(a1, mu, a1.coweight([4]))
    # star still holds below the fast path when depths stay high
    assert star_hypothesis_holds(a1, a1.coweight([4]), mu)
    assert not star_hypothesis_holds(a1, a1.coweight([0]), mu)


def _star_by_points(rs, lam, mu):
    """(*) before the box table, kept as the reference: the fast path, then
    a Python loop over the box of mu - lam with a Fraction dominance test
    and the cover depth per point."""
    if explicit_bound_check(rs, mu, lam):
        return True
    combo = rs.coroot_combination(mu - lam)
    if combo is None or any(c < 0 or Fraction(c).denominator != 1 for c in combo):
        return False
    box = [int(c) for c in combo]
    for ms in itertools.product(*(range(b + 1) for b in box)):
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


# the prop-adm boxes of the acceptance checks and the benchmark, and A2 (3, 3),
# which is not superregular: there the box loop decides every point
@pytest.mark.parametrize("label, mu", [
    ("A1", [6]), ("A1", [7]), ("A1", [8]), ("A2", [14, 14]), ("G2", [6, 10]),
    ("B2", [36, 27]), ("A2", [3, 3]),
])
def test_star_table_matches_the_point_loop(label, mu):
    rs = get_group(label).rs
    mu = rs.coweight(mu)
    box = [int(c) for c in rs.coroot_combination(mu - rs.zero_coweight())]
    table = star_hypothesis_table(rs, mu, box)
    assert table.shape == tuple(b + 1 for b in box)
    for m in itertools.product(*(range(b + 1) for b in box)):
        lam = mu - rs.coweight(list(m))
        ref = _star_by_points(rs, lam, mu)
        assert table[m] == ref, (label, m)
        assert star_hypothesis_holds(rs, lam, mu) == ref, (label, m)
    if not superregular_check(rs, mu):
        assert not table.all()


def test_star_outside_the_box_is_the_fast_path():
    # mu - lam with a negative coroot coefficient has no box: (*) is the
    # fast path's verdict, as before the table
    rs = get_group("A1").rs
    mu = rs.coweight([6])
    for c in (7, 8, 20):
        lam = rs.coweight([c])
        assert star_hypothesis_holds(rs, lam, mu) == explicit_bound_check(rs, mu, lam)
        assert star_hypothesis_holds(rs, lam, mu) == _star_by_points(rs, lam, mu)


def test_star_past_the_memory_limit_is_the_fast_path(monkeypatch, graph_of):
    # A3 with mu = 13 * 2 rho^vee, superregular.  The box of mu - lam = (2, 2, 2)
    # is 27 points and passes the fast path; that of (100, 100, 100) is
    # 1,030,301 points, whose table takes 83 MB, and fails it.  Past the
    # limit no table is built and the fast path answers: True is still a
    # proof, and False is "not certified", refused with StarHypothesisError.
    monkeypatch.setattr(qbg_mod, "ALL_PAIRS_LIMIT", 1000)
    rs = get_group("A3").rs
    mu = rs.coweight([39, 52, 39])
    for m, expect in (((2, 2, 2), True), ((100, 100, 100), False)):
        lam = mu - rs.coweight(list(m))
        tracemalloc.start()
        try:
            got = star_hypothesis_holds(rs, lam, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == explicit_bound_check(rs, mu, lam) == expect, m
    # under 1% of the 83 MB table, 81 bytes a point
    assert peak < 101 ** 3 * 81 // 100, peak
    q = graph_of("A3")
    e = q.group.identity
    with pytest.raises(StarHypothesisError):
        is_admissible_superregular(q, e, lam, e, mu)


def test_covering_families_a2(a2):
    g = a2.group
    mu = a2.rs.coweight([14, 14])
    rep = check_covering_families(a2, g.identity, mu, g.identity)
    assert rep["agree"]
    assert rep["n_brute"] == 5  # 3 quantum descents + 2 simple ascents
    # family (1) is empty at x = e (no upward edge into the identity) and
    # family (4) is empty at y = e, so the brute count splits 3 + 2
    with pytest.raises(ValueError):
        check_covering_families(a2, g.identity, a2.rs.coweight([1, 1]), g.identity)


def test_length_parity_subadditive_sampled(a2):
    import random

    rng = random.Random(1)
    els = []
    for _ in range(12):
        lam = tuple(rng.randrange(-3, 4) for _ in range(2))
        word = " ".join(str(rng.randrange(1, 3)) for _ in range(rng.randrange(4)))
        els.append(a2.from_parts(
            a2.group.element_from_word(word), Coweight(lam), a2.group.identity
        ))
    for u in els:
        for v in els:
            l = (u * v).length()
            assert l <= u.length() + v.length()
            assert (l - u.length() - v.length()) % 2 == 0


def _right_inversion_products(aw, w):
    """{key: w r} over the affine reflections r = t^{k beta^vee} s_beta with
    l(w r) < l(w), by trying every k up to a bound on the separating
    hyperplanes <x, beta> = k."""
    refls = aw.group.reflections()
    bound = int(abs(w.pair_vector()).max()) + 2
    out = {}
    for b in range(aw.group.n_pos):
        coroot = aw.rs.coroot_matrix[b] @ aw.rs.coroot_lattice_coords
        for k in range(-bound, bound + 1):
            r = AffineElement(aw, tuple(int(k * c) for c in coroot), refls[b])
            wr = w * r
            if wr.length() < w.length():
                out[wr.key()] = wr
    return out


@pytest.mark.parametrize("label, mu", [("A2", [5, 4]), ("B2", [6, 5]), ("G2", [3, 5])])
def test_covers_are_the_bruhat_covers(label, mu):
    # the covers of w are the w r, r a reflection, with l(w r) = l(w) - 1
    aw = AffineWeylGroup(get_group(label))
    adm = aw.admissible_oracle(aw.rs.coweight(mu))
    refls = aw.group.reflections()
    for w in adm.values():
        lw = w.length()
        below = _right_inversion_products(aw, w)
        expect = {k for k, wr in below.items() if wr.length() == lw - 1}
        covers = aw.covers(w)
        assert len(covers) == len(expect) and {c.key() for c in covers} == expect, w
        for c in covers:  # lengths and pairings set by covers match fresh ones
            fresh = AffineElement(aw, c.lam, c.u)
            assert c.length() == fresh.length() == lw - 1
            assert (c.pair_vector() == fresh.pair_vector()).all() and c.uinv() == fresh.uinv()
        g, m = _right_inversion_rows(w.pair_vector()[None], (w.uinv().images < 0)[None], lw)
        assert len(g) == lw
        products = set()
        for gi, mi in zip(g.tolist(), m.tolist()):
            coroot = aw.rs.coroot_matrix[gi] @ aw.rs.coroot_lattice_coords
            beta = abs(int(w.uinv().images[gi])) - 1
            lam = tuple(a + int(mi * c) for a, c in zip(w.lam, coroot))
            products.add(AffineElement(aw, lam, w.u * refls[beta]).key())
        assert len(products) == lw and products == set(below), w


# ---------------------------------------------------------------------------
# the array oracle against the per-element loops it replaced


def _reference_oracle(aw, mu):
    """Adm(mu) by one ``covers`` call per element: a breadth-first search
    from the translations t^{x(mu)}, keeping first occurrences."""
    seen = {}
    frontier = []
    for nu in aw.rs.weyl_orbit(mu):
        t = aw.translation(nu)
        if t.key() not in seen:
            seen[t.key()] = t
            frontier.append(t)
    while frontier:
        nxt = []
        for w in frontier:
            for c in aw.covers(w):
                if c.key() not in seen:
                    seen[c.key()] = c
                    nxt.append(c)
        frontier = nxt
    return seen


def _finite_simples(aw):
    """The finite simple reflections s_a as affine elements."""
    zero = Coweight((0,) * aw.rs.lattice_rank)
    return [aw.from_parts(s, zero, aw.group.identity) for s in aw.group.gens]


def _reference_decomposition(aw, w):
    """x t^lam y by stripping the first finite left descent, one element at
    a time: the first s_a with l(s_a w) < l(w), from products."""
    cur, x = w, aw.group.identity
    simples = _finite_simples(aw)
    while True:
        a = next((a for a, s in enumerate(simples) if (s * cur).length() < cur.length()), None)
        if a is None:
            return x, Coweight(cur.lam), cur.u
        cur = simples[a] * cur
        x = x * aw.group.gens[a]


ORACLE_CASES = (
    [("A1", [m], "coroot") for m in range(1, 9)]
    + [("A2", [2, 2], "coroot"), ("A2", [5, 4], "coroot"), ("B2", [6, 5], "coroot"),
       ("G2", [3, 5], "coroot"), ("C3", [1, 1, 1], "coroot"), ("A3", [1, 2, 1], "coroot"),
       ("A1xA1", [3, 2], "coroot"), ("GL2", [3, -1], "lattice"),
       ("GL3", [2, 1, 0], "lattice"), ("GL3", [1, 0, -1], "lattice")]
)


@pytest.mark.parametrize("label, mu, basis", ORACLE_CASES)
def test_oracle_matches_the_per_element_search(label, mu, basis):
    aw = AffineWeylGroup(get_group(label))
    mu = aw.rs.coweight(mu, basis=basis)
    adm = aw.admissible_oracle(mu)
    ref = _reference_oracle(aw, mu)
    assert list(adm.keys()) == list(ref.keys())
    assert adm.length.tolist() == [w.length() for w in ref.values()]
    assert [w.key() for w in adm.values()] == list(ref.keys())
    x, lam, y = aw.decompose_rows(adm.lam, adm.u, adm.uinv)
    for i, w in enumerate(ref.values()):
        rx, rlam, ry = _reference_decomposition(aw, w)
        assert (x[i] == rx.images).all() and (y[i] == ry.images).all(), w
        assert tuple(lam[i].tolist()) == rlam.coords, w
        assert aw.decompose_minimal_coset(w) == (rx, rlam, ry)


def test_admissible_set_mapping():
    aw = AffineWeylGroup(get_group("A2"))
    adm = aw.admissible_oracle(aw.rs.coweight([2, 2]))
    ref = _reference_oracle(aw, aw.rs.coweight([2, 2]))
    assert len(adm) == len(ref) == 85
    for key, w in ref.items():
        assert key in adm and adm[key] == w and adm[key].length() == w.length()
    outside = aw.translation(Coweight((9, 9)))
    assert outside.key() not in adm
    # a key whose simple-root images match a member but whose other images do not
    lam, images = next(iter(ref))
    forged = np.frombuffer(images, dtype=aw.group.identity.images.dtype).copy()
    forged[-1] = -forged[-1]
    for key in [(lam, forged.tobytes()), (lam, images[:-1]), (lam + (0,), images),
                ((2**70, 0), images), "t[1,1]", None]:
        assert key not in adm, key
    with pytest.raises(KeyError):
        adm[outside.key()]
    assert not adm.lam.flags.writeable and not adm.u.flags.writeable


@pytest.mark.parametrize("label, mu, classes, expect", [
    ("A1", [6], None, [("6", "<t[6] e>")]),
    ("A1", [7], None, [("7", "<t[7] e>")]),
    ("A1", [8], None, [("8", "<t[8] e>")]),
    ("A2", [14, 14], "criterion 9", [("1", "<t[-13,-13] 1 2 1>"),
                                     ("29", "<t[-13,-13] 1 2 1>"),
                                     ("28", "<t[-13,-13] 1 2 1>")]),
])
def test_d_adm_bruteforce_values_and_argmax(label, mu, classes, expect):
    """The array maximum keeps the value and the first argmax in oracle
    order, which the per-element loop over ``virtual_dimension`` found."""
    aw = AffineWeylGroup(get_group(label))
    rs = aw.rs
    mu = rs.coweight(mu)
    sid = identity_automorphism(aw.group)
    if classes is None:
        classes = [basic_class(rs, mu)]
    else:
        classes = [make_class(rs, mu.coords, 0), basic_class(rs, mu, defect=0),
                   basic_class(rs, mu, defect=2)]
    adm = aw.admissible_oracle(mu)
    for b, (value, argmax) in zip(classes, expect):
        got, arg = d_adm_bruteforce(aw, mu, b, sid)
        assert (str(got), repr(arg)) == (value, argmax)
        best = None
        for w in adm.values():
            v = virtual_dimension(aw, w, b, sid)
            if best is None or v > best[0]:
                best = (v, w)
        assert best == (got, arg)


def test_forged_cover_tables_trip_the_kernel_checks():
    aw = AffineWeylGroup(get_group("A2"))
    mu = aw.rs.coweight([2, 2])
    coroot_lat, coroot_pair, refl = aw._cover_tables
    for g in range(aw.group.n_pos):
        forged = coroot_pair.copy()
        forged[g] += 1
        aw._cover_tables = (coroot_lat, forged, refl)
        with pytest.raises(AssertionError):
            aw.admissible_oracle(mu)
    aw._cover_tables = (coroot_lat, coroot_pair, refl)
    assert len(aw.admissible_oracle(mu)) == 85


def test_the_group_keeps_one_affine_group():
    g = CoxeterGroup.from_label("A2")
    aw = affine_group(g)
    assert affine_group(g) is aw and aw.group is g
    # the constructor still builds fresh, independent instances
    assert AffineWeylGroup(g) is not aw and affine_group(g) is aw
    h3 = CoxeterGroup.from_label("H3")
    with pytest.raises(ValueError):
        affine_group(h3)
    assert h3._affine is None


def test_a_repeat_mu_gets_the_kept_set():
    aw = AffineWeylGroup(get_group("A2"))
    adm = aw.admissible_oracle(aw.rs.coweight([2, 2]))
    # an equal coweight built anew finds the same set
    assert aw.admissible_oracle(aw.rs.coweight([2, 2])) is adm
    other = aw.admissible_oracle(aw.rs.coweight([1, 1]))
    assert other is not adm and aw.admissible_oracle(aw.rs.coweight([1, 1])) is other
    # one entry: the first mu is built again, equal to what it was
    again = aw.admissible_oracle(aw.rs.coweight([2, 2]))
    assert again is not adm and len(again) == len(adm) == 85
    assert (again.lam == adm.lam).all() and (again.u == adm.u).all()
    assert isinstance(again.values(), tuple)


def test_the_gates_run_before_the_kept_set_is_returned():
    aw = AffineWeylGroup(get_group("A3"))
    mu = aw.rs.coweight([1, 1, 1])  # l(t^mu) = 6
    adm = aw.admissible_oracle(mu, 60)
    assert len(adm) == 105 and int(adm.length.max()) == 6
    with pytest.raises(OracleBudgetExceeded):
        aw.admissible_oracle(mu, 5)
    assert aw.admissible_oracle(mu, 6) is adm
    with pytest.raises(ValueError, match="dominant"):
        aw.admissible_oracle(Coweight((-1, 1, 1)))
    with pytest.raises(ValueError, match="integral"):
        aw.admissible_oracle(Coweight((Fraction(1, 2),) * 3))
    assert aw.admissible_oracle(mu) is adm


def test_a_fresh_affine_group_does_not_see_the_kept_set():
    g = get_group("A2")
    mu = g.rs.coweight([2, 2])
    kept = affine_group(g).admissible_oracle(mu)
    fresh = AffineWeylGroup(g)
    assert fresh._adm is None
    adm = fresh.admissible_oracle(mu)
    assert adm is not kept and len(adm) == len(kept)
    assert affine_group(g).admissible_oracle(mu) is kept


def test_forged_cover_tables_trip_the_kernel_checks_after_a_suite():
    # the suite keeps A2's set on the shared affine group; the forged
    # tables go on an instance of the test's own, which must still build
    assert suite_prop_adm("A2", [2, 2])["ok"]
    test_forged_cover_tables_trip_the_kernel_checks()
