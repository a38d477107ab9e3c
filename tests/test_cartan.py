"""Root system construction, pairings, dominance, depth, reflections."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqbg.cartan import (
    MAX_FACTORS,
    BasisMismatchError,
    Coweight,
    TypeLabelError,
    build_root_system,
    parse_type_label,
)
from wqbg.scalars import PHI, Golden

# |Phi+| = l(w0) for every type
ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
    "H3": 15, "H4": 60, "I5": 5, "I9": 9, "GL3": 3, "A1xA1": 2, "2A3": 12,
    "A2xB2": 7,
}


@pytest.mark.parametrize("label,count", sorted(ROOT_COUNTS.items()))
def test_positive_root_counts(label, count):
    rs = build_root_system(label)
    assert rs.n_pos_roots == count


def test_bad_labels_rejected():
    for bad in ["Z4", "E9", "A0", "B1", "H5", "", "A2xx", "0A2", "Axq"]:
        with pytest.raises(TypeLabelError):
            build_root_system(bad)


def test_factor_count_capped_before_expansion():
    assert len(parse_type_label(f"{MAX_FACTORS}A1")) == MAX_FACTORS
    assert len(parse_type_label(f"{MAX_FACTORS - 2}GL1xA2xG2")) == MAX_FACTORS
    # the cap counts every factor of the label; a huge multiplicity is
    # refused before any list of that many factors exists
    for bad in [f"{MAX_FACTORS + 1}A1", f"A1x{MAX_FACTORS}GL1", "99999999999A1"]:
        with pytest.raises(TypeLabelError, match="more than"):
            parse_type_label(bad)


def test_reflections_permute_roots():
    # exhaustive: each simple reflection induces a signed permutation of Phi+
    for label in ["A3", "B3", "G2", "H3", "I7", "D4"]:
        rs = build_root_system(label)
        for i in range(rs.rank):
            seen = set()
            for k in range(rs.n_pos_roots):
                sign, j = rs.reflect_root(k, i)
                seen.add(j)
                # s_i negates exactly alpha_i among the positive roots
                assert (sign < 0) == (k == i)
            assert seen == set(range(rs.n_pos_roots))


# the smaller labels are covered through CoxeterGroup.reflections()[:rank]
@pytest.mark.parametrize("label", ["A20", "D8", "E8", "GL2xGL3"])
def test_simple_images_match_reflect_root(label):
    rs = build_root_system(label)
    want = [
        [sign * (j + 1) for sign, j in (rs.reflect_root(k, i) for k in range(rs.n_pos_roots))]
        for i in range(rs.rank)
    ]
    assert rs.simple_images.tolist() == want


def test_pairing_examples():
    a2 = build_root_system("A2")
    assert a2.pair_root(a2.coweight([1, 0]), 1) == -1  # <alpha1^vee, alpha2>
    # <rho^vee, alpha> = 1 and <alpha^vee, rho> = 1 on simples, any type
    for label in ["A2", "B3", "F4", "G2", "D4", "C3", "GL3", "2A2", "A2xB2"]:
        rs = build_root_system(label)
        rc = rs.coweight(rs.rho_check_coroot_coords)
        for i in range(rs.rank):
            assert rs.pair_root(rc, i) == 1
            assert rs.pair_rho(rs.coweight([int(j == i) for j in range(rs.rank)])) == 1
        # <beta^vee, beta> = 2 for every positive root
        for k, coroot in enumerate(rs.coroot_matrix.tolist()):
            assert rs.pair_root(rs.coweight(coroot), k) == 2
    # <theta^vee, 2 rho> = 4 in A2 (theta^vee has height 2)
    assert 2 * a2.pair_rho(a2.coweight([1, 1])) == 4


def test_pairing_invariance_under_weyl_action():
    # <w(lambda), w(alpha)> = <lambda, alpha>, via s_i on both sides
    for label in ["A2", "B2", "G2", "B3"]:
        rs = build_root_system(label)
        lam = rs.coweight(list(range(1, rs.rank + 1)))
        for i in range(rs.rank):
            for k in range(rs.n_pos_roots):
                sign, j = rs.reflect_root(k, i)
                lhs = rs.pair_root(rs.reflect_coweight(i, lam), j) * sign
                assert lhs == rs.pair_root(lam, k)


def test_dominance_gl2_partial_sums():
    g = build_root_system("GL2")
    leq = lambda a, b: g.dominance_leq(
        g.coweight(a, basis="lattice"), g.coweight(b, basis="lattice")
    )
    assert leq([1, 1], [2, 0])
    assert leq([1, 1], [1, 1])
    assert not leq([2, 0], [1, 1])
    assert not leq([1, 0], [2, 0])  # totals differ


def test_dominance_rational():
    g = build_root_system("GL2")
    half = g.coweight([Fraction(1, 2), Fraction(1, 2)], basis="lattice")
    assert g.dominance_leq(half, g.coweight([1, 0], basis="lattice"))


def test_depth():
    a2 = build_root_system("A2")
    lam = a2.coweight([14, 14], basis="fundamental")
    assert a2.depth(lam) == 14
    assert a2.depth(a2.zero_coweight()) == 0
    b2 = build_root_system("B2")
    assert b2.depth(b2.coweight([3, 5], basis="fundamental")) == 3
    with pytest.raises(ValueError):
        a2.depth(a2.coweight([1, -1]))


def test_reflect_root_examples():
    a2 = build_root_system("A2")
    sign, j = a2.reflect_root(1, 0)  # s_{alpha1}(alpha2)
    fi, local = a2.root_record(j)
    assert sign == 1 and tuple(a2.factors[fi].roots[local]) == (1, 1)
    sign, j = a2.reflect_root(0, 0)
    assert sign == -1 and j == 0
    h3 = build_root_system("H3")
    sign, j = h3.reflect_root(1, 0)
    fi, local = h3.root_record(j)
    assert sign == 1
    assert h3.factors[fi].roots[local] == (PHI, Golden(1), Golden(0))


def test_pi1_is_one_free_factor_per_gl_block():
    # coroot lattice: trivial pi1; GL_n lattice: one free factor
    for label in ["A2", "B3", "F4", "E6"]:
        assert build_root_system(label).pi1_presentation() == []
    for n in (2, 3, 4):
        g = build_root_system(f"GL{n}")
        assert g.pi1_presentation() == [0]
        # kappa is the total coordinate sum
        v = list(range(n))
        assert g.kappa(g.coweight(v, basis="lattice")) == (sum(v),)


@pytest.mark.parametrize("label, sizes", [
    ("GL3xGL1xGL2", [3, 1, 2]), ("GL2xGL2xGL2", [2, 2, 2]), ("5GL3", [3] * 5),
    ("GL1", [1]), ("GL4", [4]), ("GL2xGL1", [2, 1]),
    ("A2", []), ("E6", []), ("2A2", []),
])
def test_kappa_is_the_block_sums_in_label_order(label, sizes):
    # column f sums the coordinates of GL factor f; none on the coroot lattice
    rs = build_root_system(label)
    rows = np.random.default_rng(11).integers(-60, 61, size=(8, rs.lattice_rank))
    ends = np.cumsum([0] + sizes)
    sums = [tuple(int(r[a:b].sum()) for a, b in zip(ends, ends[1:])) for r in rows]
    assert rs.pi1_presentation() == [0] * len(sizes)
    assert [tuple(int(c) for c in k) for k in rs.kappa_rows(rows)] == sums
    assert [rs.kappa(rs.coweight(r.tolist(), basis="lattice")) for r in rows] == sums


def test_kappa_additive():
    g = build_root_system("GL3")
    a = g.coweight([2, 1, 0], basis="lattice")
    b = g.coweight([0, 1, 1], basis="lattice")
    ka, kb, kab = g.kappa(a), g.kappa(b), g.kappa(a + b)
    assert tuple(x + y for x, y in zip(ka, kb)) == kab


def test_coweight_basis_conversions():
    b2 = build_root_system("B2")
    # fundamental (1,1) = rho^vee = (2, 3/2) in coroot coordinates
    rc = b2.coweight([1, 1], basis="fundamental")
    assert rc.coords == (2, Fraction(3, 2))
    with pytest.raises(BasisMismatchError):
        b2.coweight([1], basis="coroot")


def test_coweight_equality_ignores_the_input_basis():
    a2 = build_root_system("A2")
    # alpha_1^vee + alpha_2^vee pairs to 1 with both simple roots
    mu = a2.coweight([1, 1])
    same = [Coweight((1, 1)), a2.coweight([1, 1], basis="lattice"),
            a2.coweight([1, 1], basis="fundamental"), mu + a2.zero_coweight()]
    for other in same:
        assert other == mu and hash(other) == hash(mu)
    b2 = build_root_system("B2")
    rc = b2.coweight([1, 1], basis="fundamental")
    assert rc == b2.coweight([2, Fraction(3, 2)]) == rc + b2.zero_coweight()
    assert len({rc, b2.coweight(rc.coords, basis="lattice"), Coweight(rc.coords)}) == 1


golden = st.builds(Golden, st.integers(-30, 30), st.integers(-30, 30))


@given(golden, golden, golden)
@settings(max_examples=200, deadline=None)
def test_golden_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if b != Golden(0):
        assert (a * b) / b == a


@given(golden, golden)
@settings(max_examples=200, deadline=None)
def test_golden_order_total_and_compatible(a, b):
    assert (a < b) + (a == b) + (b < a) == 1
    if a < b:
        assert a + Golden(1) <= b + Golden(1)
        # positive scaling preserves order: multiply by phi (> 0)
        assert a * PHI < b * PHI
