"""Quantum Bruhat graph structure, distances, weights, and path search."""

import numpy as np
import pytest

from wqbg.coxeter import Automorphism, get_group, identity_automorphism
from wqbg.qbg import (
    NotCrystallographic,
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


def test_min_twisted_distance_small(graph_of):
    # oracle: direct per-source BFS minimum
    for label, perm in [("A2", None), ("B2", None), ("G2", None), ("A3", None),
                        ("D4", None), ("D4", (2, 1, 3, 0)), ("D4", (0, 1, 3, 2)),
                        ("F4", (3, 2, 1, 0))]:
        q = graph_of(label)
        g = q.group
        sigma = identity_automorphism(g) if perm is None else Automorphism(g, perm)
        got, arg = min_twisted_distance(q, sigma)
        table = g.enumerate()
        w0 = g.longest_element()
        best = None
        for i in range(q.n):
            t = table.index_of(sigma.apply(table.element(i)) * w0)
            d = qbg_distance(q, i, t)
            best = d if best is None else min(best, d)
        assert got == best, (label, perm)
        targ = table.index_of(sigma.apply(table.element(arg)) * w0)
        assert qbg_distance(q, arg, targ) == got


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
    # graph (of the other group) the same id; its adjacency lists must still
    # be its own
    expect = {}
    for i in range(100):
        group = get_group("A2" if i % 2 else "A1")
        table = reachable_weight_table(build_qbg(group), 0, (2,) * group.rank)
        assert table == expect.setdefault(group.label, table)
