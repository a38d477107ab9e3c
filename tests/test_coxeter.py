"""Group arithmetic, Bruhat order, reflection length, twisted classes,
and the explicit witness table."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqbg import coxeter, qbg
from wqbg.cache import load_cache, save_cache
from wqbg.cartan import parse_type_label
from wqbg.coxeter import (
    Automorphism,
    BudgetExceeded,
    CoxeterGroup,
    GroupElement,
    bruhat_leq_rows,
    build_witness,
    diagram_automorphisms,
    diagram_maps,
    get_group,
    identity_automorphism,
    lr_class_of_longest,
    max_length_twisted_coset,
    reflection_lengths,
    twisted_class,
)
from wqbg.verify import SMALL_WEYL_TYPES, THEOREM_TYPES

ORDERS = {"A2": 6, "A3": 24, "B3": 48, "H3": 120, "F4": 1152, "G2": 12, "I7": 14,
          "A1xA1": 4, "2A2": 36, "D4": 192}


@pytest.mark.parametrize("label,order", sorted(ORDERS.items()))
def test_enumeration_counts(label, order):
    table = get_group(label).enumerate()
    assert len(table) == order
    # BFS by length: lengths are nondecreasing along the table
    assert (np.diff(table.lengths) >= 0).all()


def _enumerate_by_dict(g):
    """The rows of W in first-found order of a breadth-first search that
    keeps a dict of every row's bytes: the reference for the table order."""
    rows = [g.identity.images]
    seen = {rows[0].tobytes()}
    frontier = rows[:]
    while frontier:
        found = []
        for s in g.gens:
            for r in frontier:
                v = (GroupElement(g, r.copy()) * s).images
                if v.tobytes() not in seen:
                    seen.add(v.tobytes())
                    found.append(v)
        rows += found
        frontier = found
    return np.array(rows)


# 16A1 needs a two-word key, and I300 has 300 positive roots
@pytest.mark.parametrize(
    "label", ["A2", "B3", "G2", "H3", "I10", "2A2", "A2xB2", "16A1", "I300"]
)
def test_element_index(label):
    g = get_group(label)
    table = g.enumerate()
    mat = table.mat
    if len(table) <= 1000:
        assert np.array_equal(mat, _enumerate_by_dict(g))
    assert np.array_equal(table.lookup(mat), np.arange(len(table)))
    assert table.index_of(table.element(len(table) - 1)) == len(table) - 1
    for s in g.gens:
        moved = mat[:, np.abs(s.images) - 1] * np.sign(s.images).astype(mat.dtype)
        assert np.array_equal(mat[table.lookup(moved)], moved)
    # two simple roots with one image: the row of no element of W
    bad = mat[0].copy()
    bad[1] = bad[0]
    with pytest.raises(KeyError):
        table.lookup(bad)
    with pytest.raises(KeyError):
        table.lookup(np.vstack([mat, bad]))


def test_element_table_is_read_only():
    # every caller of enumerate() shares the table, and element(i) is a view
    # of its mat: a write would change an element handed out earlier
    table = get_group("A2").enumerate()
    el = table.element(1)
    images, length = el.images.copy(), el.length()
    with pytest.raises(ValueError):
        table.mat[1, 0] = -table.mat[1, 0]
    for a in (table.mat, table.lengths, table._order, table._sorted):
        with pytest.raises(ValueError):
            a[0] = a[-1]
    assert np.array_equal(el.images, images) and el.length() == length
    assert (el.images < 0).sum() == table.lengths[1] == length
    assert table.index_of(el) == 1


def test_enumeration_budget_refused():
    with pytest.raises(BudgetExceeded):
        get_group("E7").enumerate()


def test_budget_holds_for_a_cached_table():
    # enumerate A3 first, so every call below finds the table already cached
    g = get_group("A3")
    table = g.enumerate()
    assert len(table) == 24
    sigma = identity_automorphism(g)
    with pytest.raises(BudgetExceeded):
        g.enumerate(10)
    with pytest.raises(BudgetExceeded):
        list(g.elements(10))
    with pytest.raises(BudgetExceeded):
        qbg.build_qbg(g, 10)
    with pytest.raises(BudgetExceeded):
        g.reflection_lengths_all(10)
    with pytest.raises(BudgetExceeded):
        max_length_twisted_coset(g, sigma, 10)
    # a budget the group fits in still gets the cached table itself
    assert g.enumerate() is table
    assert g.enumerate(24) is table


def test_compose_invert_length():
    g = get_group("A2")
    s1, s2 = g.gens
    assert s1 * s1 == g.identity
    assert (s1 * s2).inverse() == s2 * s1
    assert (s1 * s2).length() == 2
    assert g.element_from_word("1 2 1").length() == 3
    assert g.identity.length() == 0
    assert get_group("F4").longest_element().length() == 24


def test_word_round_trip():
    g = get_group("B3")
    for i, el in enumerate(g.elements()):
        assert g.element_from_word(el.word()) == el
        if i > 60:
            break


def test_bruhat_order_basics():
    g = get_group("A2")
    s1, s2 = g.gens
    w0 = g.longest_element()
    for el in g.elements():
        assert g.bruhat_leq(g.identity, el)
        assert g.bruhat_leq(el, w0)
    assert g.bruhat_leq(s1, s1 * s2)
    assert not g.bruhat_leq(s1, s2)


def _subword_below(g):
    """below[w, u] is u <= w in Bruhat order, by the subword property
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm. 2.2.2): u <= w
    iff some reduced subword of a fixed reduced word of w multiplies to u.
    A closure over the letters of w's word, through the Cayley table: each
    letter s extends every reduced subword v found so far to v s when that
    is longer."""
    table = g.enumerate()
    rmul, lengths = table.rmul(), table.lengths
    below = np.zeros((len(table), len(table)), dtype=bool)
    for w in range(len(table)):
        below[w, 0] = True  # row 0 is e
        for letter in table.element(w).word_indices():
            v = np.flatnonzero(below[w])
            heads = rmul[v, letter]
            below[w, heads[lengths[heads] > lengths[v]]] = True
    return below


# H3 is not crystallographic; A1xA1 and GL3 hold rows that stop at other steps
@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2", "I5", "H3", "A1xA1", "GL3"])
def test_bruhat_matches_subword_characterization(label):
    g = get_group(label)
    table = g.enumerate()
    below = _subword_below(g)
    for w in range(len(table)):
        for u in range(len(table)):
            got = g.bruhat_leq(table.element(u), table.element(w))
            assert got == below[w, u], (label, table.element(u).word(), table.element(w).word())
    # every pair in one call, rows stopping at different steps
    u, w = np.divmod(np.arange(len(table) ** 2), len(table))
    assert np.array_equal(bruhat_leq_rows(g, table.mat[u], table.mat[w]), below[w, u])


def test_longest_element_and_ad_w0():
    for label, flip in [("A2", (1, 0)), ("B2", (0, 1)), ("E6", None)]:
        g = get_group(label)
        w0 = g.longest_element()
        assert w0.length() == g.n_pos
        assert w0 * w0 == g.identity
        psi = g.ad_w0_permutation()
        if flip is not None:
            assert psi.perm == flip
        else:
            # E6: the nontrivial diagram involution 1<->6, 3<->5
            assert psi.perm == (5, 1, 4, 3, 2, 0)


REFLECTION_TABLE = {
    **{f"A{n}": -(-n // 2) for n in range(1, 8)},
    **{f"B{n}": n for n in range(2, 5)},
    "C3": 3,
    **{f"D{n}": 2 * (n // 2) for n in range(4, 7)},
    "E6": 4, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "H3": 3, "H4": 4,
    **{f"I{m}": (2 if m % 2 == 0 else 1) for m in range(3, 13)},
}


def test_reflection_length_identity_and_table():
    for label, expected in REFLECTION_TABLE.items():
        g = get_group(label)
        assert g.reflection_length(g.identity) == 0
        assert g.reflection_length(g.longest_element()) == expected, label


# H3 takes the Z[phi] coefficients, B2xI5 the dihedral parity rule next to
def _reflections_by_reflect_root(group):
    """The reflections before the conjugation search, kept as the reference:
    n_pos Python ``reflect_root`` calls per reflection."""
    out = []
    for k in range(group.n_pos):
        im = np.empty(group.n_pos, dtype=group.gen_images.dtype)
        for j in range(group.n_pos):
            sign, idx = group.rs.reflect_root(j, k)
            im[j] = sign * (idx + 1)
        out.append(im)
    return out


# crystallographic, golden (H3, H4) and dihedral (I5) factors, the GL_n
# lattice and products
@pytest.mark.parametrize("label", SMALL_WEYL_TYPES + ["H3", "H4", "I5", "GL3", "2A2", "B2xI5"])
def test_reflections_match_reflect_root(label):
    group = CoxeterGroup.from_label(label)
    got = group.reflections()
    ref = _reflections_by_reflect_root(group)
    assert len(got) == len(ref) == group.n_pos
    for t, im in zip(got, ref):
        assert t.images.dtype == im.dtype and np.array_equal(t.images, im)
    assert group.reflections() is got


def test_reflections_refuse_an_unreached_root(monkeypatch):
    # generators that fix every root reach no root beyond the simple ones
    group = CoxeterGroup.from_label("A2")
    monkeypatch.setattr(group, "gen_images", np.tile(group.identity.images, (2, 1)))
    with pytest.raises(RuntimeError, match=r"roots \[2\] not reached"):
        group.reflections()


# a coordinate factor, GL3 the GL_n lattice, GL1 a group without reflections
@pytest.mark.parametrize("label", ["A3", "A4", "B3", "D4", "G2", "I8", "H3", "B2xI5", "GL3", "GL1"])
def test_reflection_length_matches_bfs(label):
    g = get_group(label)
    table = g.enumerate()
    got = reflection_lengths(g, table.mat)
    assert got.dtype == np.int64
    assert np.array_equal(got, g.reflection_lengths_all())
    for i in (0, len(table) // 2, len(table) - 1):
        assert g.reflection_length(table.element(i)) == got[i]


@pytest.mark.slow
def test_reflection_length_matches_bfs_f4():
    g = get_group("F4")
    assert np.array_equal(reflection_lengths(g, g.enumerate().mat), g.reflection_lengths_all())


def test_reflection_lengths_rejects_a_forged_table():
    g = CoxeterGroup.from_label("A2")
    a, b, dihedral = g._root_coefficients
    forged = b.copy()
    forged[0, 0] = 1  # alpha_1 = alpha_1 + phi alpha_1
    g._root_coefficients = (a, forged, dihedral)
    # the k = 0 term alone leaves a phi-part of 1 on the identity row
    with pytest.raises(AssertionError):
        reflection_lengths(g, g.identity.images[None])
    # an odd integer part on a reflection, of order 2, is no trace sum
    odd = a.copy()
    odd[0, 0] = 2
    g._root_coefficients = (odd, b, dihedral)
    with pytest.raises(AssertionError):
        reflection_lengths(g, g.gens[1].images[None])


def test_twisted_classes():
    g = get_group("A2")
    orbit = twisted_class(g, g.longest_element(), identity_automorphism(g))
    assert len(orbit) == 3  # w0 is a reflection in A2
    assert reflection_lengths(g, orbit).min() == 1

    d4 = get_group("D4")
    tri = Automorphism(d4, (2, 1, 3, 0))
    assert lr_class_of_longest(d4, tri) == 2

    f4 = get_group("F4")
    flip = Automorphism(f4, (3, 2, 1, 0))
    orbit = twisted_class(f4, f4.longest_element(), flip)
    assert reflection_lengths(f4, orbit).min() == 0
    assert (orbit == f4.identity.images).all(axis=1).any()


@pytest.mark.parametrize("label", THEOREM_TYPES + ["A8", "A9", "A10", "A11"])
def test_lr_class_for_sigma_id_is_the_orbit_minimum(label, monkeypatch):
    # l_R is a class function, so sigma = id reads l_R(w0) and walks no orbit
    g = get_group(label)
    sid = identity_automorphism(g)
    w0 = g.longest_element()
    want = int(reflection_lengths(g, twisted_class(g, w0, sid)).min())
    monkeypatch.setattr(coxeter, "twisted_class", lambda *a: pytest.fail("orbit walked"))
    assert lr_class_of_longest(CoxeterGroup.from_label(label), sid) == want


def _reference_orbit(group, w, sigma):
    """The twisted class by a breadth-first search over group elements."""
    seen = {w.key(): w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(group.rank):
                v = group.gens[i] * u * group.gens[sigma.perm[i]]
                if v.key() not in seen:
                    seen[v.key()] = v
                    nxt.append(v)
        frontier = nxt
    return list(seen.values())


@pytest.mark.parametrize("label", sorted(set(THEOREM_TYPES + ["2A2", "A1xA1", "GL3xGL2", "B2xI5"])))
def test_twisted_class_rows_match_the_element_search(label):
    g = get_group(label)
    w0 = g.longest_element()
    for sigma in diagram_automorphisms(g):
        want = _reference_orbit(g, w0, sigma)
        got = twisted_class(g, w0, sigma)
        # the same members in the same breadth-first order
        assert np.array_equal(got, np.array([u.images for u in want])), sigma.perm
        assert lr_class_of_longest(g, sigma) == min(g.reflection_length(u) for u in want)


def test_twisted_class_with_two_word_keys():
    # 16A1 keys a row by two uint64 words; swap two factors, cycle three
    g = get_group("16A1")
    perm = list(range(16))
    perm[:5] = [1, 0, 3, 4, 2]
    sigma = Automorphism(g, tuple(perm))
    for w in (g.longest_element(), g.identity, g.element_from_word("1 3 6")):
        want = np.array([u.images for u in _reference_orbit(g, w, sigma)])
        assert np.array_equal(twisted_class(g, w, sigma), want)


def test_twisted_class_budget():
    g = get_group("A4")
    sigma = identity_automorphism(g)
    size = len(twisted_class(g, g.longest_element(), sigma))  # 15 involutions
    assert len(twisted_class(g, g.longest_element(), sigma, budget=size)) == size
    for budget in (1, size - 1):
        with pytest.raises(BudgetExceeded):
            twisted_class(g, g.longest_element(), sigma, budget=budget)


def test_twisted_class_2d2k_reading():
    # adopted reading: l_R(O) = 2k - 2 for D_{2k} with the fork flip
    d4 = get_group("D4")
    assert lr_class_of_longest(d4, Automorphism(d4, (0, 1, 3, 2))) == 2
    d6 = get_group("D6")
    assert lr_class_of_longest(d6, Automorphism(d6, (0, 1, 2, 3, 5, 4))) == 4


def test_max_length_twisted_coset():
    for label, expect in [("A2", 1), ("A1", 0), ("I6", 2), ("G2", 2), ("B2", 1)]:
        g = get_group(label)
        ml, x = max_length_twisted_coset(g, identity_automorphism(g))
        assert ml == expect, label
        assert g.bruhat_leq(x, x * g.longest_element())


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3", "I6", "A1xA1", "GL1"])
def test_max_length_twisted_coset_argmax_is_the_first_in_table_order(label):
    # the plain reference: every x of the table against the subword sets,
    # the first x of maximal length among those with x <= sigma(x) w0
    g = get_group(label)
    table = g.enumerate()
    below = _subword_below(g)
    w0 = g.longest_element()
    for sigma in diagram_automorphisms(g):
        passing = [
            x for x in range(len(table))
            if below[table.index_of(sigma.apply(table.element(x)) * w0), x]
        ]
        best = max(passing, key=lambda x: (table.lengths[x], -x))
        ml, x = max_length_twisted_coset(g, sigma)
        assert (ml, table.index_of(x)) == (table.lengths[best], best), (label, sigma.perm)


def test_length_subadditive_and_parity():
    for label in ["A3", "B3", "G2"]:
        g = get_group(label)
        els = list(g.elements())
        for u in els:
            for v in els:
                l = (u * v).length()
                assert l <= u.length() + v.length()
                assert (l - u.length() - v.length()) % 2 == 0


@pytest.mark.slow
def test_length_subadditive_parity_f4():
    g = get_group("F4")
    table = g.enumerate()
    mat = table.mat
    lengths = table.lengths.astype(np.int64)
    for i in range(len(table)):
        u = table.element(i)
        idx = np.abs(mat) - 1
        # rows of u * v over all v: c[k] = sign(v[k]) * u[|v[k]|-1]
        prod = np.where(mat > 0, 1, -1) * u.images[idx]
        pl = (prod < 0).sum(axis=1)
        assert (pl <= u.length() + lengths).all()
        assert ((pl - u.length() - lengths) % 2 == 0).all()


def test_inequality_52_exhaustive_small():
    # every x with x <= sigma(x) w0 satisfies l_R(x w0 sigma(x)^{-1}) <= l(w0) - 2 l(x)
    for label in ["A2", "A3", "B2", "B3"]:
        g = get_group(label)
        w0 = g.longest_element()
        sigma = identity_automorphism(g)
        for x in g.elements():
            if g.bruhat_leq(x, sigma.apply(x) * w0):
                tw = x * w0 * sigma.apply(x).inverse()
                assert g.reflection_length(tw) <= w0.length() - 2 * x.length()


def test_reducible_swap_components():
    # W' x W' with the swap: 1 in O, l_R(O) = 0, max = l(w0)/2
    for label, n in [("A1xA1", 2), ("2A2", 6)]:
        g = get_group(label)
        half = g.rank // 2
        swap = Automorphism(g, tuple(list(range(half, 2 * half)) + list(range(half))))
        assert lr_class_of_longest(g, swap) == 0
        ml, _ = max_length_twisted_coset(g, swap)
        assert ml == g.n_pos // 2
        x = build_witness(g, swap)
        assert 2 * x.length() == g.n_pos


def test_ad_w0_reduces_to_id():
    # max over {x <= sigma(x) w0} with sigma = Ad(w0) equals the sigma = id max
    for label in ["A2", "A3", "A4", "D4", "I5"]:
        g = get_group(label)
        m_id, _ = max_length_twisted_coset(g, identity_automorphism(g))
        m_ad, _ = max_length_twisted_coset(g, g.ad_w0_permutation())
        assert m_id == m_ad


def test_diagram_automorphism_counts():
    assert len(diagram_automorphisms(get_group("A3"))) == 2
    assert len(diagram_automorphisms(get_group("D4"))) == 6
    assert len(diagram_automorphisms(get_group("F4"))) == 2
    assert len(diagram_automorphisms(get_group("B3"))) == 1
    assert len(diagram_automorphisms(get_group("I9"))) == 2
    assert [a.perm for a in diagram_automorphisms(get_group("A12"))] == [
        tuple(range(12)), tuple(range(11, -1, -1))]


def _permutation_maps(ms, ma, nodes):
    """The reference for ``diagram_maps``: every permutation of `nodes`, in
    ``itertools.permutations`` order, that preserves the Coxeter matrix."""
    n = len(nodes)
    return [perm for perm in itertools.permutations(nodes)
            if all(ma[perm[i]][perm[j]] == ms[i][j] for i in range(n) for j in range(n))]


@pytest.mark.parametrize("label", THEOREM_TYPES + [
    "A8", "E7", "E8", "2A2", "D4xA1", "3A1", "GL1", "GL2xGL2", "B2xI5"])
def test_diagram_automorphisms_match_the_permutation_search(label):
    g = get_group(label)
    m = g.rs.coxeter_matrix
    ref = _permutation_maps(m, m, range(g.rank))
    assert list(diagram_maps(m, m, range(g.rank))) == ref
    assert [a.perm for a in diagram_automorphisms(g)] == ref


@pytest.mark.parametrize("label", [t for t in THEOREM_TYPES if t != "A1"] + [
    "A8", "B5", "C5", "D7", "D8", "E7", "E8"])
def test_witness_embeddings_match_the_permutation_search(label):
    g = get_group(label)
    letter, n = g.rs.factor_types[0]
    row = coxeter._witness_table_row(letter, n)
    ms = get_group("".join(map(str, row["sub"]))).rs.coxeter_matrix
    nodes = [j - 1 for j in row["J"]]
    ref = _permutation_maps(ms, g.rs.coxeter_matrix, nodes)
    assert ref and list(diagram_maps(ms, g.rs.coxeter_matrix, nodes)) == ref
    # D4's centre and E6's branch node are not where the sub-type's
    # standard labels put them: the identity label map is no embedding
    assert (tuple(nodes) in ref) == (label not in ("D4", "E6"))


@pytest.mark.parametrize("label,letter,n", [("A8", "A", 8), ("D8", "D", 8), ("E8", "E", 8)])
def test_witness_recursion_is_linear(monkeypatch, label, letter, n):
    # each sub-witness is built once: one call per rank down to A2
    calls = []
    inner = coxeter._witness_id_irreducible
    monkeypatch.setattr(coxeter, "_witness_id_irreducible",
                        lambda *a: calls.append(a[1:]) or inner(*a))
    g = get_group(label)
    x = coxeter._witness_id_irreducible(g, letter, n)
    assert len(calls) == 7
    assert x == build_witness(g, identity_automorphism(g))


def test_automorphism_validation():
    g = get_group("B3")
    with pytest.raises(ValueError):
        Automorphism(g, (2, 1, 0))  # does not preserve the Coxeter matrix
    with pytest.raises(ValueError):
        Automorphism(g, (0, 0, 1))


def test_witnesses_irreducible_id():
    # length = (l(w0) - l_R(w0))/2 and x <= x w0, re-verified by construction
    for label in ["A2", "A5", "B4", "C3", "D4", "D5", "E6", "F4", "G2", "H3", "H4", "I7", "I10"]:
        g = get_group(label)
        x = build_witness(g, identity_automorphism(g))
        lw0 = g.n_pos
        assert 2 * x.length() == lw0 - g.reflection_length(g.longest_element())


def test_witnesses_twisted():
    d4 = get_group("D4")
    x = build_witness(d4, Automorphism(d4, (2, 1, 3, 0)))
    assert x.length() == 5  # the published 3D4 element s_{43121}
    assert x == d4.element_from_word("4 3 1 2 1")
    f4 = get_group("F4")
    x = build_witness(f4, Automorphism(f4, (3, 2, 1, 0)))
    assert x.length() == 12
    d6 = get_group("D6")
    x = build_witness(d6, Automorphism(d6, (0, 1, 2, 3, 5, 4)))
    assert x.length() == 13  # 2k(k-1) + 1 for k = 3
    i8 = get_group("I8")
    x = build_witness(i8, Automorphism(i8, (1, 0)))
    assert x.length() == 4


WITNESS_VS_SCAN_TYPES = (
    ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "C3", "C4"]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
    + ["A1xA1", "2A2", "3A1", "3A2", "A2xB2", "A3xA3", "B2xB2", "D4xA1", "G2xG2"]
    + ["GL2", "GL3", "GL4", "GL2xGL2", "GL3xGL2"]
)


@pytest.mark.parametrize("label", WITNESS_VS_SCAN_TYPES)
def test_witness_length_is_the_scan_maximum(label):
    # dim_x takes its maximizer from build_witness alone; the exhaustive scan
    # is the independent side: the two agree on every Cartan-preserving sigma
    g = get_group(label)
    c = g.rs.cartan
    n = g.rank
    for sigma in diagram_automorphisms(g):
        p = sigma.perm
        if any(c[p[i]][p[j]] != c[i][j] for i in range(n) for j in range(n)):
            continue
        ml, _ = max_length_twisted_coset(g, sigma)
        assert build_witness(g, sigma).length() == ml, (label, p)


def test_inverse_automorphism():
    d4 = get_group("D4")
    tri = Automorphism(d4, (2, 1, 3, 0))
    inv = tri.inverse()
    assert inv is tri.inverse() and inv.inverse() is tri
    assert inv == Automorphism(d4, (3, 1, 0, 2))
    for x in list(d4.elements())[::7]:
        assert inv.apply(tri.apply(x)) == x == tri.apply(inv.apply(x))


def _root_perm_by_reflect_root(sigma):
    """sigma on the positive roots by closing over rs.reflect_root, from the
    simple roots: beta = s_i(gamma) > 0 gives sigma(beta) = s_{sigma(i)}(sigma(gamma))."""
    rs, perm = sigma.group.rs, sigma.perm
    rp = {i: perm[i] for i in range(rs.rank)}
    todo = list(rp)
    while todo:
        k = todo.pop()
        for i in range(rs.rank):
            sign, j = rs.reflect_root(k, i)
            if sign > 0 and j not in rp:
                sign2, rp[j] = rs.reflect_root(rp[k], perm[i])
                assert sign2 > 0
                todo.append(j)
    return np.array([rp[k] for k in range(rs.n_pos_roots)], dtype=np.int64)


@pytest.mark.parametrize("label", sorted(set(
    THEOREM_TYPES + ["A1xA1", "2A2", "A2xB2", "GL3", "GL1", "H3", "I5"])))
def test_root_permutation_matches_reflect_root(label):
    g = get_group(label)
    for sigma in diagram_automorphisms(g):
        want = _root_perm_by_reflect_root(sigma)
        got = sigma._root_perm
        assert got.dtype == want.dtype and np.array_equal(got, want), sigma.perm
        assert np.array_equal(sigma._root_perm_inv[got], np.arange(g.n_pos))


# -- hypothesis: random-word group laws ------------------------------------

labels = st.sampled_from(["A2", "B2", "A3", "G2", "I5", "H3"])
words = st.lists(st.integers(1, 3), max_size=12)


@given(labels, words, words)
@settings(max_examples=120, deadline=None)
def test_random_word_laws(label, wa, wb):
    g = get_group(label)
    wa = [t for t in wa if t <= g.rank]
    wb = [t for t in wb if t <= g.rank]
    a = g.element_from_word(wa)
    b = g.element_from_word(wb)
    assert (a * b).length() % 2 == (len(wa) + len(wb)) % 2
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a.length() <= len(wa)
    assert g.bruhat_leq(a, a)


def _inverses_by_scatter(table):
    """``ElementTable.inverses`` before its column form: every image of every
    inverse by one scatter, kept as the reference."""
    inv = np.empty_like(table.mat)
    ks = np.arange(1, table.group.n_pos + 1, dtype=inv.dtype)
    np.put_along_axis(inv, np.abs(table.mat) - 1, np.sign(table.mat) * ks, axis=1)
    return table.lookup(inv)


@pytest.mark.parametrize("label", ["A3", "D4", "H3", "I5", "GL3", "GL1", "16A1", "B2xI5"])
def test_inverses_match_the_scatter(label):
    table = get_group(label).enumerate()
    assert np.array_equal(table.inverses(), _inverses_by_scatter(table))
    assert (table.inverses()[table.inverses()] == np.arange(len(table))).all()


def test_inverses_need_no_table_sized_index():
    # the scatter indexed with an n x n_pos intp array: 14.3 MB on E6
    g = get_group("E6")
    table = coxeter.ElementTable(g, g.enumerate().mat)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table.inverses()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3 * table.mat.nbytes, (peak, table.mat.nbytes)


def _check_cayley_table(table):
    """``rmul`` of a table: its form, and each column against the full
    product w s_i of every row."""
    group = table.group
    rmul = table.rmul()
    n = len(table)
    assert rmul.dtype == np.int32 and rmul.shape == (n, group.rank)
    assert not rmul.flags.writeable and table.rmul() is rmul
    every = np.arange(n)
    for i, s in enumerate(group.gens):
        moved = table.mat[:, np.abs(s.images) - 1] * np.sign(s.images)
        assert np.array_equal(rmul[:, i], table.lookup(moved)), i
        assert np.array_equal(table.mat[rmul[:, i]], moved), i
        # a fixed-point-free involution that moves the length by exactly 1
        col = rmul[:, i]
        assert (col[col] == every).all() and (col != every).all(), i
        assert (np.abs(table.lengths[col] - table.lengths) == 1).all(), i


# 16A1 keys a row by two words, GL1 (rank 0) has no columns
@pytest.mark.parametrize("label", THEOREM_TYPES + ["A1xA1", "2A2", "A2xB2", "GL1", "GL3", "16A1"])
def test_cayley_table_is_the_lookup_of_the_products(label):
    _check_cayley_table(get_group(label).enumerate())


def test_cayley_table_of_a_loaded_table(tmp_path, monkeypatch):
    save_cache(tmp_path / "D4.wqbg", get_group("D4"))
    # a process that has not built D4: the file's rows become the table
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    _, table, _ = load_cache(tmp_path / "D4.wqbg")
    assert table._rmul is None
    _check_cayley_table(table)


@pytest.mark.parametrize("label,order", sorted(ORDERS.items()))
def test_order_stops_once_past_the_limit(label, order):
    factors = parse_type_label(label)
    assert coxeter.order_of_type(factors) == order
    assert coxeter.order_of_type(factors, limit=order) == order
    assert order - 1 < coxeter.order_of_type(factors, limit=order - 1) <= order
    # a factor of rank 10^6 costs a few terms, not (10^6 + 1)!
    huge = factors + parse_type_label("A1000000")
    assert order < coxeter.order_of_type(huge, limit=order) < order * 10**3


def _unsorted_lookup(table, rows):
    """``ElementTable.lookup`` with the needles searched in input order."""
    keys = coxeter._keys(np.atleast_2d(rows), table.group.rank, table.group.n_pos)
    pos = np.minimum(np.searchsorted(table._sorted, keys), len(table._sorted) - 1)
    if not (table._sorted[pos] == keys).all():
        raise KeyError(f"row not in W({table.group.label})")
    idx = table._order[pos]
    return int(idx[0]) if rows.ndim == 1 else idx


# 16A1 keys a row by two words, GL1 (rank 0) by one zero word
@pytest.mark.parametrize("label", ["A3", "D4", "E6", "GL3", "GL1", "16A1", "A1xA1", "B3"])
def test_sorted_lookup_matches_the_unsorted_search(label):
    table = get_group(label).enumerate()
    mat = table.mat
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(table), size=3 * len(table))
    for rows in (mat, mat[::-1], mat[picks], mat[picks, :table.group.rank], mat[:0]):
        got, want = table.lookup(rows), _unsorted_lookup(table, rows)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for i in (0, len(table) - 1):
        got = table.lookup(mat[i])
        assert type(got) is int and got == _unsorted_lookup(table, mat[i]) == i
    # forged rows: one that sorts past every key, and for rank > 1 one that
    # maps two simple roots to one root
    top = np.full(mat.shape[1], table.group.n_pos, dtype=mat.dtype)
    forged = [top] if table.group.rank else []
    if table.group.rank > 1:
        twin = mat[-1].copy()
        twin[1] = twin[0]
        forged.append(twin)
    for bad in forged:
        for rows in (bad, np.vstack([mat[picks], bad]), np.vstack([bad, mat])):
            with pytest.raises(KeyError):
                table.lookup(rows)


def test_twisted_data_is_computed_once_and_kept(monkeypatch):
    # a group of its own, so that nothing is stored yet
    g = CoxeterGroup.from_label("D4")
    calls = []
    orbit = coxeter.twisted_class
    monkeypatch.setattr(coxeter, "twisted_class", lambda *a: calls.append(a) or orbit(*a))
    sigmas = diagram_automorphisms(g)
    first = [(build_witness(g, s), lr_class_of_longest(g, s)) for s in sigmas]
    # sigma = id reads l_R(w0) and walks no orbit
    twisted = [s.perm for s in sigmas if not s.is_identity()]
    assert [a[2].perm for a in calls] == twisted
    assert set(g._twisted) == {s.perm for s in sigmas}

    def fail(*args):
        pytest.fail("a stored witness was built or checked again")

    monkeypatch.setattr(coxeter, "_build_witness_unchecked", fail)
    monkeypatch.setattr(g, "bruhat_leq", fail)
    for s, (x, lr) in zip(sigmas, first):
        # an equal automorphism built anew finds the same entry
        again = Automorphism(g, s.perm)
        assert build_witness(g, again) is x and lr_class_of_longest(g, again) == lr
        assert g.n_pos - 2 * x.length() == lr
        assert not x.images.flags.writeable
        with pytest.raises(ValueError):
            x.images[0] = x.images[1]
    assert len(calls) == len(twisted)
    # the stored data do not depend on the element table
    g._cache_enum(coxeter.ElementTable(g, g.enumerate().mat[:]))
    assert build_witness(g, sigmas[0]) is first[0][0]
