"""Quantum Bruhat graph structure, distances, weights, and path search."""

import dataclasses
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from wqbg import coxeter
from wqbg import qbg as qbg_mod
from wqbg.cache import load_cache, save_cache
from wqbg.coxeter import (
    Automorphism, BudgetExceeded, CoxeterGroup, diagram_automorphisms, get_group,
    lr_class_of_longest,
)
from wqbg.qbg import (
    NotCrystallographic,
    _twisted_targets,
    all_pairs,
    build_qbg,
    distances_from,
    exists_path_with_weight,
    min_twisted_distance,
    qbg_distance,
    qbg_weight,
    reachable_weight_table,
    shortest_weights_from,
    weight_blocks,
    weight_encoding,
)
from wqbg.verify import THEOREM_TYPES


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


def test_prune_bounds_hold_pair_by_pair(graph_of, reflection_bfs):
    # l_R(x^{-1} t), the reflection-Cayley BFS distance, and the length gap
    # are at most the QBG distance from x to t; the trace count of the test
    # reference agrees with the BFS
    for label in TWISTED_TYPES:
        q = graph_of(label)
        g = q.group
        table = g.enumerate()
        lr_bfs = reflection_bfs(g)
        gap = g.n_pos - 2 * table.lengths.astype(np.int64)
        for sigma, targets, d in _twisted_pairs(q):
            bound = np.array([
                lr_bfs[table.index_of(table.element(x).inverse() * table.element(t))]
                for x, t in enumerate(targets)
            ])
            assert list(_full_reflection_length_bounds(q, targets)) == list(bound), (label, sigma.perm)
            assert (bound <= d).all() and (gap <= d).all(), (label, sigma.perm)


def test_the_twisted_class_bound_is_the_least_prune_bound():
    # the search's bound L, l_R of the sigma'-twisted class of w0 with
    # sigma' = Ad(w0) o sigma, is min_x l_R(x^{-1} sigma(x) w0), each l_R
    # taken from the full rows of x^{-1} sigma(x) w0
    for label in THEOREM_TYPES:
        g = get_group(label)
        if not g.rs.crystallographic:
            continue
        q = build_qbg(g)
        psi = g.ad_w0_permutation().perm
        for sigma in diagram_automorphisms(g):
            bound = lr_class_of_longest(g, Automorphism(g, tuple(psi[i] for i in sigma.perm)))
            targets = _twisted_targets(q, sigma, slice(None))
            assert bound == _full_reflection_length_bounds(q, targets).min(), (label, sigma.perm)
            # a fact of these types that no code relies on: the sigma-class
            # of w0 has the same least l_R as the sigma'-class
            assert bound == lr_class_of_longest(g, sigma), (label, sigma.perm)


def test_a_hint_that_misses_gets_the_exhaustive_answer():
    # d_Gamma(e, w0) = 6 on A3, above l_R(w0) = 2: the hinted search misses
    g = CoxeterGroup.from_label("A3")
    q = build_qbg(g)
    sigma = Automorphism(g, (0, 1, 2))
    e = g.enumerate().index_of(g.identity)
    cold = build_qbg(CoxeterGroup.from_label("A3"))
    expect = min_twisted_distance(cold, Automorphism(cold.group, sigma.perm))
    assert expect[1] != e
    assert min_twisted_distance(q, sigma, hint=e) == expect
    assert q._twisted == {sigma.perm: expect, (sigma.perm, e): expect}


def test_a_forged_bound_breaks_the_search_without_a_hint(monkeypatch):
    # L + 1 is above the distance the first pass finds, on every sigma
    real = qbg_mod.lr_class_of_longest
    monkeypatch.setattr(qbg_mod, "lr_class_of_longest", lambda group, sigma: real(group, sigma) + 1)
    for label in ("A3", "D4", "B3"):
        g = CoxeterGroup.from_label(label)
        for sigma in diagram_automorphisms(g):
            with pytest.raises(AssertionError, match="below the twisted-class bound"):
                min_twisted_distance(build_qbg(g), sigma)


def test_a_hint_that_attains_the_bound_is_the_argmin(monkeypatch):
    g = CoxeterGroup.from_label("A3")
    q = build_qbg(g)
    sigma = Automorphism(g, (0, 1, 2))
    x = g.enumerate().index_of(g.element_from_word("2 1"))
    assert min_twisted_distance(q, sigma, hint=x) == (2, x)
    assert min_twisted_distance(q, sigma)[0] == 2
    # a bound one too high is broken by the distance the search finds
    monkeypatch.setattr(qbg_mod, "lr_class_of_longest", lambda group, sigma: 3)
    with pytest.raises(AssertionError, match="below the twisted-class bound 3"):
        min_twisted_distance(build_qbg(CoxeterGroup.from_label("A3")), sigma, hint=x)


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


def _check_against_reference(q, all_weights):
    """Compare every search from every source, and ``all_pairs`` with its
    weight blocks, with ``_reference_bfs``; return whether some vertex had
    shortest paths of different weights."""
    all_dist = all_pairs(q)
    all_d, all_wt, all_unique, _ = all_weights(q)
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


def _fake_weights(q):
    """q with made-up root weights, under which shortest paths differ."""
    return dataclasses.replace(
        q, weight_enc=np.arange(1, q.group.n_pos + 1, dtype=np.int64) ** 3
    )


def test_searches_match_reference_bfs(graph_of, all_weights):
    for label in ["A2", "B2", "G2", "A3", "B3", "C3"]:
        q = graph_of(label)
        assert not _check_against_reference(q, all_weights), label
        # the same edges with made-up root weights: shortest paths to some
        # vertex then differ in weight, and the flag must say so
        assert _check_against_reference(_fake_weights(q), all_weights), label


def _edge_dominance(q, D, wt):
    """Per source s, whether wt(s, u) + w(u -> v) >= wt(s, v) digitwise on
    every edge whose tail s reaches, one edge at a time."""
    ok = np.ones(q.n, dtype=bool)
    for u in range(q.n):
        for v, kind, root in zip(*q.out_edges(u)):
            step = int(q.weight_enc[root]) * int(kind)
            for s in np.flatnonzero(D[:, u] >= 0).tolist():
                got = q.decode_weight(int(wt[s, u]) + step)
                ok[s] &= all(a >= b for a, b in zip(got, q.decode_weight(int(wt[s, v]))))
    return ok


def _lighter_detour(q):
    """q with the first downward edge out of w0 made upward, of weight 0."""
    group = q.group
    w0 = group.enumerate().index_of(group.longest_element())
    kind = q.out_kind.copy()
    kind[q.out_ptr[w0] + int(np.argmax(q.out_edges(w0)[1]))] = 0
    return dataclasses.replace(q, out_kind=kind)


def _without_in_edges(q, v):
    """q with the in-edges of vertex v removed: no other source reaches v,
    and v's out-edges lead from a tail they do not reach."""
    keep = q.out_dst != v
    tails = np.repeat(np.arange(q.n), np.diff(q.out_ptr))[keep]
    return dataclasses.replace(q, out_ptr=np.searchsorted(tails, np.arange(q.n + 1)),
                               out_dst=q.out_dst[keep], out_kind=q.out_kind[keep],
                               out_root=q.out_root[keep])


def test_dominance_certificate_matches_an_edge_loop(graph_of, all_weights):
    # made-up weights have digits up to 216 here: the packed comparison is
    # then exact, or not made and None, never a pass it did not check
    for label in ["A2", "B2", "G2", "A3", "B3"]:
        q = graph_of(label)
        for g in (q, _fake_weights(q), _lighter_detour(q), _without_out_edges(q, q.n // 2),
                  _without_in_edges(q, q.n // 2)):
            D, wt, unique, dominated = all_weights(g)
            if dominated is not None:
                assert np.array_equal(dominated, _edge_dominance(g, D, wt)), label
        assert all_weights(q)[3].all(), label
        # where every tight edge agrees, an edge that fails the test is not
        # on a shortest path: a path that is not shortest undercuts wt(s, .)
        unique, dominated = all_weights(_lighter_detour(q))[2:]
        assert (unique & ~dominated).any(), label
    assert all_weights(_fake_weights(graph_of("A2")))[3] is not None
    assert all_weights(_fake_weights(graph_of("G2")))[3] is None


def _without_out_edges(q, v):
    """q with the out-edges of vertex v removed."""
    lo, hi = q.out_ptr[v], q.out_ptr[v + 1]
    keep = np.r_[0:lo, hi:q.n_edges()]
    ptr = q.out_ptr.copy()
    ptr[v + 1:] -= hi - lo
    return dataclasses.replace(q, out_ptr=ptr, out_dst=q.out_dst[keep],
                               out_kind=q.out_kind[keep], out_root=q.out_root[keep])


def test_all_pairs_unreachable_pairs(graph_of, all_weights):
    # a vertex without out-edges reaches only itself, and in A1 its one
    # out-neighbour is left with no in-edge; the first and the last vertex
    # test the ends of the edge list
    for label in ["A1", "A2", "B2", "A3"]:
        q = graph_of(label)
        for v in sorted({0, q.n // 2, q.n - 1}):
            fake = _without_out_edges(q, v)
            all_dist = all_pairs(fake)
            all_d, all_wt, all_unique, _ = all_weights(fake)
            assert (all_dist < 0).any(), (label, v)
            for x in range(q.n):
                dist, _ = _reference_bfs(fake, x)
                ref = np.array([dist.get(y, -1) for y in range(q.n)])
                assert np.array_equal(all_dist[x], ref), (label, v, x)
                d, wt, unique = shortest_weights_from(fake, x)
                assert all_d[x].tobytes() == d.tobytes(), (label, v, x)
                assert all_wt[x].tobytes() == wt.tobytes(), (label, v, x)
                assert all_unique[x] == unique, (label, v, x)


@pytest.mark.parametrize("label,diameter,sources", [
    ("B4", 16, None), ("F4", 24, range(0, 1152, 29)), ("D5", 20, range(0, 1920, 47)),
])
def test_all_pairs_distances_by_bit_planes(graph_of, label, diameter, sources):
    # B4's diameter, 16, needs a fifth plane for its last level alone; F4
    # and D5 have the largest diameters of the all-pairs benchmark types
    q = graph_of(label)
    D = all_pairs(q)
    assert D.max() == diameter
    for x in range(q.n) if sources is None else sources:
        assert D[x].tobytes() == distances_from(q, x).tobytes(), x


def _all_pairs_rows_match(q, sources, all_weights):
    """``all_pairs(q)`` and its weight blocks are, row for row on `sources`,
    what ``shortest_weights_from`` returns; returns the unique flags."""
    all_d, all_wt, all_unique, _ = all_weights(q)
    for x in sources:
        d, wt, unique = shortest_weights_from(q, x)
        assert all_d[x].tobytes() == d.tobytes(), x
        assert all_wt[x].tobytes() == wt.tobytes(), x
        assert all_unique[x] == unique, x
    return all_unique


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
@pytest.mark.parametrize("block", [1, 5])
def test_all_pairs_weights_in_small_blocks(graph_of, monkeypatch, all_weights, label, block):
    # blocks of one source, and of five, which divides neither 24 nor 48,
    # so the last block is narrower than the others
    q = graph_of(label)
    assert q.n % 5
    monkeypatch.setattr(qbg_mod, "_CHUNK", block * q.n)
    fake = _fake_weights(q)
    assert _all_pairs_rows_match(q, range(q.n), all_weights).all(), label
    assert not _all_pairs_rows_match(fake, range(q.n), all_weights).all(), label
    for g in (q, fake):
        for v in sorted({0, q.n // 2, q.n - 1}):
            _all_pairs_rows_match(_without_out_edges(g, v), range(q.n), all_weights)


def test_weight_blocks_take_each_source_once_in_order(graph_of, monkeypatch, all_weights):
    # blocks of seven sources on A4's 120: the last block holds one source
    q = graph_of("A4")
    monkeypatch.setattr(qbg_mod, "_CHUNK", 7 * q.n)
    slices = [(s.start, s.stop) for s, *_ in weight_blocks(q, all_pairs(q))]
    assert slices == [(a, min(q.n, a + 7)) for a in range(0, q.n, 7)]
    assert slices[-1] == (119, 120)
    assert _all_pairs_rows_match(q, range(q.n), all_weights).all()


def test_weight_blocks_refuse_past_the_limit(graph_of, monkeypatch):
    # the weight pass keeps its gate of 10 bytes a pair, checked before the
    # first block allocates anything: a fresh copy of the graph has no
    # reverse CSR, which the pass derives first
    q = graph_of("A3")
    D = all_pairs(q)
    need = 10 * q.n * q.n
    monkeypatch.setattr(qbg_mod, "ALL_PAIRS_LIMIT", need - 1)
    fresh = dataclasses.replace(q)
    with pytest.raises(BudgetExceeded, match="all-pairs search on A3"):
        next(weight_blocks(fresh, D))
    assert "_reverse" not in vars(fresh)
    monkeypatch.setattr(qbg_mod, "ALL_PAIRS_LIMIT", need)
    assert [s for b in weight_blocks(fresh, D) for s in range(q.n)[b[0]]] == list(range(q.n))


@pytest.mark.parametrize("label", ["F4", "D5"])
def test_all_pairs_weights_on_uneven_in_degrees(graph_of, all_weights, label):
    # in-degrees run from 4 to 15 on F4 and from 5 to 20 on D5, so many
    # in-edge slots cover only a part of the vertices
    q = graph_of(label)
    indeg = np.diff(q.in_ptr)
    assert indeg.max() - indeg.min() > 10, label
    sources = np.random.default_rng(31).choice(q.n, 32, replace=False)
    assert _all_pairs_rows_match(q, sources.tolist(), all_weights).all(), label


# temporaries all_pairs and weight_blocks may hold beside D and one block of
# weights, in units of _CHUNK int64; D5 holds about 7.2 of them (6.6 in the
# distance phase)
ALL_PAIRS_SCRATCH_CHUNKS = 8


def test_all_pairs_memory_stays_near_its_result():
    # no n x n weight matrix: D5's would be 29.5 MB on its own
    q = build_qbg(get_group("D5"))
    q.in_ptr  # the reverse CSR is kept on the graph: derive it before counting
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        D = all_pairs(q)
        block = 0
        for _, wt, _, _ in weight_blocks(q, D):
            block = max(block, wt.nbytes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    # a block of _CHUNK // n sources is one chunk of int64 at most
    assert block <= qbg_mod._CHUNK * 8
    assert peak <= D.nbytes + block + ALL_PAIRS_SCRATCH_CHUNKS * qbg_mod._CHUNK * 8, (
        peak, D.nbytes, block)


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
        assert q.decode_weight(qbg_mod._pack(coords)) == coords


def _dict_dp(qbg, x, budget):
    """The exact-weight DP before the array form: dicts of Python sets over
    (remaining budget, vertex) from (x, budget), kept as the reference.

    Upward edges keep the budget, a downward edge through alpha consumes
    alpha^vee; states with a negative coordinate are dropped.  Layers are
    processed in decreasing coordinate-sum order, which each downward edge
    strictly decreases, so every layer is complete when processed.
    """
    budget = tuple(int(c) for c in budget)
    ptr, dst, kind, root = (
        a.tolist() for a in (qbg.out_ptr, qbg.out_dst, qbg.out_kind, qbg.out_root)
    )
    coroots = [tuple(int(c) for c in row) for row in qbg.group.rs.coroot_matrix]
    heights = [sum(c) for c in coroots]

    def up_closure(seed):
        out = set(seed)
        todo = list(seed)
        while todo:
            v = todo.pop()
            for i in range(ptr[v], ptr[v + 1]):
                w = dst[i]
                if kind[i] == 0 and w not in out:
                    out.add(w)
                    todo.append(w)
        return out

    layers = {budget: {x}}
    pending = {sum(budget): {budget}}
    for total in range(sum(budget), -1, -1):
        for b in pending.pop(total, ()):
            cur = layers[b] = up_closure(layers[b])
            for v in cur:
                for i in range(ptr[v], ptr[v + 1]):
                    if kind[i] == 0:
                        continue
                    nb = tuple(c - d for c, d in zip(b, coroots[root[i]]))
                    if any(c < 0 for c in nb):
                        continue
                    tgt = layers.setdefault(nb, set())
                    if dst[i] not in tgt:
                        tgt.add(dst[i])
                        pending.setdefault(total - heights[root[i]], set()).add(nb)
    return layers


# a 2-box and a (1..rank)-box from every vertex, and criterion 5's B2 box
_DP_INPUTS = [(label, box) for label in ("A1", "A2", "B2", "G2", "A3", "B3", "C3")
              for box in ((2,) * get_group(label).rank,
                          tuple(range(1, get_group(label).rank + 1)))] + [("B2", (36, 27))]
# the boxes of the adm-oracle benchmark workload
_ADM_ORACLE_INPUTS = [("A1", (6,)), ("A1", (7,)), ("A1", (8,)), ("A2", (14, 14)), ("G2", (6, 10))]


@pytest.fixture
def weight_once(monkeypatch):
    """qbg_weight computed once per (graph, x, y), so that the tests below
    can ask exists_path_with_weight at every point of a box: it is then one
    comparison with the weight the real search found."""
    weights = {}
    search = qbg_mod.qbg_weight

    def once(q, x, y):
        key = q.group.label, x, y
        if key not in weights:
            weights[key] = search(q, x, y)
        return weights[key]

    monkeypatch.setattr(qbg_mod, "qbg_weight", once)


def _check_the_cone(q, x, box):
    """Source x against the dict DP: the dict view, and the path search at
    every vertex y and every remaining budget b of the box; the vertex sets
    of the view, summed over its points."""
    ref = _dict_dp(q, x, box)
    table = reachable_weight_table(q, x, box)
    assert table == ref, (q.group.label, box, x)
    for b in itertools.product(*(range(c + 1) for c in box)):
        spent = tuple(c - d for c, d in zip(box, b))
        for y in range(q.n):
            assert exists_path_with_weight(q, x, y, spent) == (y in ref.get(b, ())), (
                q.group.label, box, x, y, b)
    return sum(len(v) for v in table.values())


def test_reachable_weights_match_the_dict_dp(graph_of, weight_once):
    calls = 0
    for label, box in _DP_INPUTS:
        q = graph_of(label)
        for x in range(q.n):
            _check_the_cone(q, x, box)
            calls += 1
    assert calls == 304


def test_reachable_weights_on_the_adm_oracle_boxes(graph_of, weight_once):
    # 17,717 states: what the benchmark's tracer counted over the dict DP
    cells = 0
    for label, box in _ADM_ORACLE_INPUTS:
        q = graph_of(label)
        for x in range(q.n):
            cells += _check_the_cone(q, x, box)
    assert cells == 17_717


def test_reachable_weights_sources_and_layout(graph_of):
    # the one-source view keys its points by remaining budget inside the box:
    # the whole budget holds the source, a vertex held at b is held at every
    # b' <= b, and the zero point holds the vertices reached at the full budget
    q = graph_of("B2")
    box = (3, 2)
    for x in range(q.n):
        table = reachable_weight_table(q, x, box)
        assert x in table[box]
        for b, verts in table.items():
            assert all(0 <= c <= m for c, m in zip(b, box)), (x, b)
            for lower in itertools.product(*(range(c + 1) for c in b)):
                assert verts <= table[lower], (x, b, lower)
        ref = _dict_dp(q, x, box).get((0, 0), set())
        for y in range(q.n):
            assert exists_path_with_weight(q, x, y, box) == (y in ref), (x, y)
            assert (y in table.get((0, 0), set())) == (y in ref), (x, y)


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


def _reference_build(group, table):
    """The edges by the full product w s_beta of every vertex and root: each
    head in all n_pos columns, its length by counting negative entries, and
    one lexsort by (tail, head, root)."""
    mat = table.mat
    n = len(table)
    lengths = table.lengths
    two_rho = group.rs.coroot_two_rho
    srcs, dsts = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    kinds, roots = [np.zeros(0, np.int8)], [np.zeros(0, np.int32)]
    for k, t in enumerate(group.reflections()):
        cand = mat[:, np.abs(t.images) - 1] * np.sign(t.images)
        lt = (cand < 0).sum(axis=1)
        up = lt == lengths + 1
        down = lt == lengths - two_rho[k] + 1
        for mask, kind in ((up, 0), (down, 1)):
            idx = np.nonzero(mask)[0]
            if len(idx):
                srcs.append(idx)
                dsts.append(table.lookup(cand[idx]))
                kinds.append(np.full(len(idx), kind, dtype=np.int8))
                roots.append(np.full(len(idx), k, dtype=np.int32))
    src, dst, kind, root = (np.concatenate(a) for a in (srcs, dsts, kinds, roots))
    order = np.lexsort((root, dst, src))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return dict(out_ptr=ptr, out_dst=dst[order], out_kind=kind[order],
                out_root=root[order], weight_enc=weight_encoding(group))


@pytest.mark.parametrize("label", [
    label for label in THEOREM_TYPES + ["A1xA1", "2A2", "A2xB2", "GL3", "GL1"]
    if get_group(label).rs.crystallographic
])
def test_build_matches_the_full_product_build(label):
    g = get_group(label)
    q = build_qbg(g)
    for name, want in _reference_build(g, g.enumerate()).items():
        got = getattr(q, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("label", ["D5", "E6"])
def test_build_reads_heads_from_the_cayley_table(label, monkeypatch):
    g = get_group(label)
    table = g.enumerate()
    want = build_qbg(g)
    table.rmul()

    def no_lookup(*args):
        pytest.fail("the build looked a row up")

    monkeypatch.setattr(coxeter.ElementTable, "lookup", no_lookup)
    got = qbg_mod._build(g, table)
    assert got is not want
    for name in qbg_mod._ARRAYS:
        _assert_same(getattr(got, name), getattr(want, name))


def test_build_refuses_edge_keys_past_int64():
    # a table of n rows packs keys up to n^2 n_pos; D4 has n_pos = 12
    g = get_group("D4")
    largest = math.isqrt((2**63 - 1) // 12)

    class Rows:
        """A length and nothing else: past the gate, the build fails at once."""

        def __init__(self, n):
            self.n = n

        def __len__(self):
            return self.n

    with pytest.raises(BudgetExceeded, match="int64"):
        qbg_mod._build(g, Rows(largest + 1))
    with pytest.raises(AttributeError):
        qbg_mod._build(g, Rows(largest))
    # about 3.8 * 10^8 rows at 64 positive roots
    assert 3.7e8 < math.isqrt((2**63 - 1) // 64) < 3.9e8


def _full_twisted_targets(q, sigma):
    """``_twisted_targets`` on every column: sigma(x) w0 as a full product."""
    table = q.group.enumerate()
    w0 = q.group.longest_element()
    return table.lookup(sigma.apply_many(table.mat)[:, np.abs(w0.images) - 1]
                        * np.sign(w0.images))


def _full_reflection_length_bounds(q, targets):
    """l_R(x^{-1} targets[x]) for every vertex x, from the full rows of
    x^{-1} t and ``reflection_length``, the trace count of one element."""
    group = q.group
    table = group.enumerate()
    inv = table.mat[table.inverses()]
    t = table.mat[targets]
    rows = np.take_along_axis(inv, np.abs(t) - 1, axis=1) * np.sign(t)
    distinct, which = np.unique(table.lookup(rows), return_inverse=True)
    lr = np.array([group.reflection_length(table.element(i)) for i in distinct])
    return lr[which]


# the types of the benchmark's dim-sweep workload
DIM_SWEEP_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
                   "D4", "D5", "G2", "F4", "E6"]


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("label", sorted(set(DIM_SWEEP_TYPES + TWISTED_TYPES)) + ["GL3", "GL1"])
def test_twisted_kernels_match_the_full_matrix_kernels(label):
    q = build_qbg(get_group(label))
    # every row through a view, and some rows in another order by index
    rows = np.arange(q.n)[::-3].copy()
    for sigma in diagram_automorphisms(q.group):
        full = _full_twisted_targets(q, sigma)
        _assert_same(_twisted_targets(q, sigma, slice(None)), full)
        _assert_same(_twisted_targets(q, sigma, rows), full[rows])


def test_twisted_kernels_on_two_word_keys():
    # 16A1 has no graph (rank 16), but its keys take two words; the kernels
    # read only the group of the graph they are given
    g = get_group("16A1")
    q = types.SimpleNamespace(group=g)
    swap = tuple(range(15, -1, -1))
    shift = tuple((i + 1) % 16 for i in range(16))
    for perm in (tuple(range(16)), swap, shift):
        sigma = Automorphism(g, perm)
        _assert_same(_twisted_targets(q, sigma, slice(None)), _full_twisted_targets(q, sigma))


def test_min_twisted_distance_is_kept_on_its_graph(monkeypatch):
    q = build_qbg(CoxeterGroup.from_label("D4"))
    assert q._twisted == {}
    sigmas = diagram_automorphisms(q.group)
    first = {s.perm: min_twisted_distance(q, s) for s in sigmas}
    assert q._twisted == first

    def fail(*args, **kwargs):
        pytest.fail("a stored minimum was searched again")

    monkeypatch.setattr(qbg_mod, "_bfs", fail)
    for s in sigmas:
        assert min_twisted_distance(q, Automorphism(q.group, s.perm)) == first[s.perm]


def test_a_new_table_gets_a_graph_without_stored_minima():
    g = CoxeterGroup.from_label("A3")
    q = build_qbg(g)
    sigmas = diagram_automorphisms(g)
    for s in sigmas:
        min_twisted_distance(q, s)
    # the rows reversed, the identity first: every vertex index changes
    mat = g.enumerate().mat[::-1].copy()
    mat[[0, -1]] = mat[[-1, 0]]
    g._cache_enum(coxeter.ElementTable(g, mat))
    new = build_qbg(g)
    assert new is not q and new._twisted == {}
    fresh = CoxeterGroup.from_label("A3")
    fresh._cache_enum(coxeter.ElementTable(fresh, mat.copy()))
    cold = build_qbg(fresh)
    for s in sigmas:
        assert min_twisted_distance(new, s) == min_twisted_distance(
            cold, Automorphism(fresh, s.perm))


def test_a_loaded_graph_starts_without_stored_minima(tmp_path, monkeypatch):
    g = get_group("D5")
    q = build_qbg(g)
    sigmas = diagram_automorphisms(g)
    warm = {s.perm: min_twisted_distance(q, s) for s in sigmas}
    save_cache(tmp_path / "D5.wqbg", g, q)
    # a process that has not built D5: the loaded graph is the group's own
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    group, _, loaded = load_cache(tmp_path / "D5.wqbg")
    assert group is not g and loaded is not q and loaded._twisted == {}
    for s in sigmas:
        assert min_twisted_distance(loaded, Automorphism(group, s.perm)) == warm[s.perm]
    # and keeps the minima it stored for every later build_qbg
    assert build_qbg(group) is loaded and loaded._twisted.keys() == warm.keys()
