"""Quantum Bruhat graph structure, distances, weights, and path search."""

import dataclasses

import numpy as np
import pytest

from wqbg.coxeter import BudgetExceeded, CoxeterGroup, diagram_automorphisms, get_group
from wqbg.qbg import (
    NotCrystallographic,
    _reflection_length_bounds,
    all_pairs,
    build_qbg,
    distances_from,
    exists_path_with_weight,
    min_twisted_distance,
    qbg_distance,
    qbg_weight,
    reachable_weight_table,
    shortest_weights_from,
)


def test_a1_structure(graph_of):
    q = graph_of("A1")
    g = q.group
    table = g.enumerate()
    e = table.index_of(g.identity)
    s = table.index_of(g.gens[0])
    assert q.n_edges() == 2
    dsts, kinds, roots = q.out_edges(e)
    assert list(dsts) == [s] and list(kinds) == [0]  # upward, weight 0
    dsts, kinds, roots = q.out_edges(s)
    assert list(dsts) == [e] and list(kinds) == [1]  # downward, weight alpha^vee
    assert q.decode_weight(int(q.weight_enc[roots[0]])) == (1,)


def test_a2_examples(graph_of):
    q = graph_of("A2")
    g = q.group
    t = g.enumerate()
    e = t.index_of(g.identity)
    w0 = t.index_of(g.longest_element())
    assert qbg_distance(q, e, e) == 0
    assert qbg_distance(q, e, w0) == 3
    assert qbg_distance(q, w0, e) == 1
    assert qbg_weight(q, w0, e) == (1, 1)  # theta^vee
    assert qbg_weight(q, e, w0) == (0, 0)
    assert qbg_weight(q, e, e) == (0, 0)


def test_edge_conditions_brute_force(graph_of):
    # every (w, alpha) pair either matches the up/down length rule or no edge
    q = graph_of("B2")
    g = q.group
    table = g.enumerate()
    refl = g.reflections()
    expected = set()
    for i in range(len(table)):
        w = table.element(i)
        for k, t in enumerate(refl):
            ws = w * t
            j = table.index_of(ws)
            if ws.length() == w.length() + 1:
                expected.add((i, j, 0, k))
            drop = int(g.rs.coroot_two_rho[k]) - 1
            if ws.length() == w.length() - drop:
                expected.add((i, j, 1, k))
    got = set()
    for v in range(q.n):
        dsts, kinds, roots = q.out_edges(v)
        for d, kk, r in zip(dsts, kinds, roots):
            got.add((v, int(d), int(kk), int(r)))
    assert got == expected


def test_invariants_outdegree_connectivity(graph_of):
    for label in ["A2", "B2", "G2", "A3", "B3", "D4"]:
        q = graph_of(label)
        deg = np.diff(q.out_ptr)
        assert deg.min() >= q.group.rank  # every simple reflection contributes
        assert (distances_from(q, 0) >= 0).all()  # strong connectivity


def test_exists_path_with_weight(graph_of):
    q = graph_of("A2")
    g = q.group
    t = g.enumerate()
    e = t.index_of(g.identity)
    w0 = t.index_of(g.longest_element())
    assert exists_path_with_weight(q, e, e, (0, 0))
    assert exists_path_with_weight(q, e, e, (1, 0))
    assert not exists_path_with_weight(q, w0, e, (1, 0))
    assert exists_path_with_weight(q, w0, e, (1, 1))
    assert not exists_path_with_weight(q, e, e, (-1, 0))


def test_exists_path_matches_bruteforce_walks(graph_of):
    # oracle: enumerate all paths of bounded weight by DFS over the graph
    q = graph_of("B2")
    budget = (2, 2)

    def brute(x, y, c):
        # DFS over states (vertex, spent), spent componentwise <= c
        seen = set()
        stack = [(x, (0, 0))]
        while stack:
            v, spent = stack.pop()
            if (v, spent) in seen:
                continue
            seen.add((v, spent))
            dsts, kinds, roots = q.out_edges(v)
            for d, kk, r in zip(dsts, kinds, roots):
                if kk == 0:
                    ns = spent
                else:
                    w = q.decode_weight(int(q.weight_enc[r]))
                    ns = tuple(s + ww for s, ww in zip(spent, w))
                    if any(a > b for a, b in zip(ns, c)):
                        continue
                if (int(d), ns) not in seen:
                    stack.append((int(d), ns))
        return (y, c) in seen

    for x in range(q.n):
        for y in range(q.n):
            for c in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
                assert exists_path_with_weight(q, x, y, c) == brute(x, y, c), (x, y, c)


# every Coxeter automorphism of each, the Cartan-breaking B2, G2, F4 flips too
TWISTED_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


def _twisted_pairs(q):
    """All-pairs BFS distances, and per sigma the index of sigma(x) w0 for
    every x, built from group elements rather than from the table rows."""
    g = q.group
    table = g.enumerate()
    w0 = g.longest_element()
    dist = np.array([distances_from(q, x) for x in range(q.n)])
    for sigma in diagram_automorphisms(g):
        targets = np.array(
            [table.index_of(sigma.apply(table.element(x)) * w0) for x in range(q.n)]
        )
        yield sigma, targets, dist[np.arange(q.n), targets]


def test_min_twisted_distance_small(graph_of):
    # oracle: the BFS distance from every source; the argmin is the first
    # source, in stable order of |l(w0) - 2 l(x)|, that attains the minimum
    for label in TWISTED_TYPES:
        q = graph_of(label)
        lengths = q.group.enumerate().lengths.astype(np.int64)
        order = np.argsort(np.abs(q.group.n_pos - 2 * lengths), kind="stable")
        for sigma, targets, d in _twisted_pairs(q):
            best = int(d.min())
            first = next(int(x) for x in order if d[x] == best)
            assert min_twisted_distance(q, sigma) == (best, first), (label, sigma.perm)


def test_prune_bounds_hold_pair_by_pair(graph_of):
    # the l_R bound is the reflection-Cayley BFS distance of x^{-1} t, and
    # both bounds are at most the QBG distance from x to t
    for label in TWISTED_TYPES:
        q = graph_of(label)
        g = q.group
        table = g.enumerate()
        lr_bfs = g.reflection_lengths_all()
        gap = g.n_pos - 2 * table.lengths.astype(np.int64)
        for sigma, targets, d in _twisted_pairs(q):
            bound = _reflection_length_bounds(q, targets)
            expect = [
                lr_bfs[table.index_of(table.element(x).inverse() * table.element(t))]
                for x, t in enumerate(targets)
            ]
            assert list(bound) == expect, (label, sigma.perm)
            assert (bound <= d).all() and (gap <= d).all(), (label, sigma.perm)


def _reference_bfs(q, x):
    """Plain-Python BFS over out_edges: the distance from x of every vertex
    it reaches, and the set of packed weights of all shortest paths to it."""
    dist, wts = {x: 0}, {x: {0}}
    level = [x]
    while level:
        nxt = []
        for u in level:
            for v, kind, root in zip(*q.out_edges(u)):
                v = int(v)
                if v not in dist:
                    dist[v], wts[v] = dist[u] + 1, set()
                    nxt.append(v)
                if dist[v] == dist[u] + 1:
                    step = int(q.weight_enc[root]) * int(kind)
                    wts[v].update(w + step for w in wts[u])
        level = nxt
    return dist, wts


def _check_against_reference(q):
    """Compare every search from every source, and ``all_pairs``, with
    ``_reference_bfs``; return whether some vertex had shortest paths of
    different weights."""
    all_dist = all_pairs(q)[0]
    all_d, all_wt, all_unique = all_pairs(q, weights=True)
    any_split = False
    for x in range(q.n):
        dist, wts = _reference_bfs(q, x)
        ref = np.array([dist.get(v, -1) for v in range(q.n)])
        assert np.array_equal(distances_from(q, x), ref), x
        assert np.array_equal(all_dist[x], ref), x
        d, wt, unique = shortest_weights_from(q, x)
        assert np.array_equal(d, ref), x
        split = any(len(s) > 1 for s in wts.values())
        assert unique == (not split), x
        assert all(int(wt[v]) in wts[v] for v in dist), x
        assert all_unique[x] == (not split), x
        assert all(int(all_wt[x, v]) in wts[v] for v in dist), x
        assert all_d[x].tobytes() == d.tobytes(), x
        assert all_wt[x].tobytes() == wt.tobytes(), x
        any_split |= split
        if split:
            continue
        diameter = int(ref.max())
        for y in range(q.n):
            assert qbg_weight(q, x, y) == q.decode_weight(next(iter(wts[y]))), (x, y)
            assert qbg_distance(q, x, y) == ref[y], (x, y)
            for cap in range(diameter + 1):
                got = qbg_distance(q, x, y, cap)
                assert got == (None if ref[y] > cap else ref[y]), (x, y, cap)
    return any_split


def test_searches_match_reference_bfs(graph_of):
    for label in ["A2", "B2", "G2", "A3", "B3", "C3"]:
        q = graph_of(label)
        assert not _check_against_reference(q), label
        # the same edges with made-up root weights: shortest paths to some
        # vertex then differ in weight, and the flag must say so
        fake = dataclasses.replace(
            q, weight_enc=np.arange(1, q.group.n_pos + 1, dtype=np.int64) ** 3
        )
        assert _check_against_reference(fake), label


def _without_out_edges(q, v):
    """q with the out-edges of vertex v removed."""
    lo, hi = q.out_ptr[v], q.out_ptr[v + 1]
    keep = np.r_[0:lo, hi:q.n_edges()]
    ptr = q.out_ptr.copy()
    ptr[v + 1:] -= hi - lo
    return dataclasses.replace(q, out_ptr=ptr, out_dst=q.out_dst[keep],
                               out_kind=q.out_kind[keep], out_root=q.out_root[keep])


def test_all_pairs_unreachable_pairs(graph_of):
    # a vertex without out-edges reaches only itself, and in A1 its one
    # out-neighbour is left with no in-edge; the first and the last vertex
    # test the ends of the edge list
    for label in ["A1", "A2", "B2", "A3"]:
        q = graph_of(label)
        for v in sorted({0, q.n // 2, q.n - 1}):
            fake = _without_out_edges(q, v)
            all_dist = all_pairs(fake)[0]
            all_d, all_wt, all_unique = all_pairs(fake, weights=True)
            assert (all_dist < 0).any(), (label, v)
            for x in range(q.n):
                dist, _ = _reference_bfs(fake, x)
                ref = np.array([dist.get(y, -1) for y in range(q.n)])
                assert np.array_equal(all_dist[x], ref), (label, v, x)
                d, wt, unique = shortest_weights_from(fake, x)
                assert all_d[x].tobytes() == d.tobytes(), (label, v, x)
                assert all_wt[x].tobytes() == wt.tobytes(), (label, v, x)
                assert all_unique[x] == unique, (label, v, x)


def test_shortest_weights_unique_small(graph_of):
    for label in ["A2", "B2", "G2"]:
        q = graph_of(label)
        for x in range(q.n):
            dist, wt, unique = shortest_weights_from(q, x)
            assert unique
            assert (dist >= 0).all()


def test_non_crystallographic_rejected():
    for label in ["H3", "H4", "I5", "I7"]:
        with pytest.raises(NotCrystallographic):
            build_qbg(get_group(label))


def test_weight_encoding_round_trip(graph_of):
    q = graph_of("B3")
    for k in range(q.group.n_pos):
        coords = tuple(int(c) for c in q.group.rs.coroot_matrix[k])
        assert q.decode_weight(q.encode_weight(coords)) == coords


def test_weight_table_lists_belong_to_their_graph():
    # each graph is freed right after its call, so CPython may hand the next
    # graph (of the other group) the same id; the table must still come from
    # the edges of the graph it was given
    expect = {}
    for i in range(100):
        group = get_group("A2" if i % 2 else "A1")
        table = reachable_weight_table(build_qbg(group), 0, (2,) * group.rank)
        assert table == expect.setdefault(group.label, table)


def test_build_qbg_returns_the_groups_graph():
    g = get_group("A3")
    q = build_qbg(g)
    assert build_qbg(g) is q
    # the budget holds although the graph is already built
    with pytest.raises(BudgetExceeded):
        build_qbg(g, 10)
    assert build_qbg(g) is q
    for name in ("out_ptr", "out_dst", "out_kind", "out_root",
                 "in_ptr", "in_src", "in_kind", "in_root", "weight_enc"):
        with pytest.raises(ValueError):
            getattr(q, name)[0] = 0


# the types of the benchmark's qbg-allpairs workload
ALLPAIRS_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2", "D5"]


@pytest.mark.parametrize("label", ALLPAIRS_TYPES)
def test_reverse_csr_is_derived_on_first_read(label):
    q = build_qbg(CoxeterGroup.from_label(label))
    # a fresh graph holds only the forward CSR and the weights
    held = {k for k, v in vars(q).items() if isinstance(v, np.ndarray)}
    assert held == {"out_ptr", "out_dst", "out_kind", "out_root", "weight_enc"}
    tail = np.repeat(np.arange(q.n), np.diff(q.out_ptr))
    head, kind, root = q.out_dst, q.out_kind, q.out_root
    order = np.lexsort((root, tail, head))
    expect = dict(
        in_ptr=np.concatenate(([0], np.cumsum(np.bincount(head, minlength=q.n)))),
        in_src=tail[order], in_kind=kind[order], in_root=root[order],
    )
    for name, want in expect.items():
        got = getattr(q, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable, name
        assert getattr(q, name) is got, name  # derived once
