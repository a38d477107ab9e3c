"""The quantum Bruhat graph of a finite Weyl group.

Vertices are the group elements (dense indices in enumeration order).  For
w and a positive root alpha there is an upward edge w -> w s_alpha when
l(w s_alpha) = l(w) + 1 (weight 0) and a downward edge when
l(w s_alpha) = l(w) - <alpha^vee, 2 rho> + 1 (weight alpha^vee).

The graph stores one adjacency form, the forward CSR arrays, and every
search reads them.  The reverse CSR, the same edges grouped by head, is
derived from the forward one on first read; only the weight phase of
``all_pairs`` reads it.  Single-source distances, shortest-path weights and
capped or targeted searches come from one breadth-first kernel, ``_bfs``;
the exhaustive suites get the same answers from every source at once from
``all_pairs``, a bit-parallel search.  The exact-weight path search walks
the same arrays.

Path weights live in the coroot lattice; along a breadth-first search they
are packed into a single int64 (base-256 digits per simple coroot), which
keeps the all-pairs suites in numpy.  Digits stay far below 256: a path has
at most `n_pos` edges and coroot coordinates are single digits.

Non-crystallographic groups are rejected: downward edges need coroots.  So
are groups of rank above 8, whose weights do not fit the packing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coxeter import Automorphism, BudgetExceeded, CoxeterGroup, DEFAULT_ENUM_BUDGET

_BASE = 256
# base-256 digits that fit an int64
_MAX_RANK = 8
# all_pairs refuses a result larger than this many bytes
ALL_PAIRS_LIMIT = 1 << 30
# elements in one temporary of all_pairs: 512 KB of int64
_CHUNK = 1 << 16
# the stored arrays; the reverse CSR is derived from them
_ARRAYS = ("out_ptr", "out_dst", "out_kind", "out_root", "weight_enc")


class NotCrystallographic(ValueError):
    """QBG requested for a group without coroots."""


class RankTooLarge(ValueError):
    """QBG requested for a group of rank above 8.

    A path weight is packed as one base-256 digit per simple coroot into an
    int64, which holds 8 digits; a ninth coordinate overflows it.
    """


@dataclass
class QuantumBruhatGraph:
    group: CoxeterGroup
    n: int
    # forward CSR, edges sorted by (tail, head, root)
    out_ptr: np.ndarray
    out_dst: np.ndarray
    out_kind: np.ndarray  # 0 upward, 1 downward
    out_root: np.ndarray  # positive-root index of the edge reflection
    weight_enc: np.ndarray  # per-root packed coroot vector (0 for upward use)

    def __post_init__(self):
        # one graph is shared by every caller of build_qbg for its group
        for name in _ARRAYS:
            getattr(self, name).setflags(write=False)

    @functools.cached_property
    def _reverse(self):
        # a stable sort by head keeps the forward (tail, root) order within
        # each head: the edges come out sorted by (head, tail, root)
        order = np.argsort(self.out_dst, kind="stable")
        tail = np.repeat(np.arange(self.n), np.diff(self.out_ptr))
        arrays = (_pointers(self.out_dst, self.n), tail[order],
                  self.out_kind[order], self.out_root[order])
        for a in arrays:
            a.setflags(write=False)
        return arrays

    # the reverse CSR, derived on first read
    in_ptr = property(lambda self: self._reverse[0])
    in_src = property(lambda self: self._reverse[1])
    in_kind = property(lambda self: self._reverse[2])
    in_root = property(lambda self: self._reverse[3])

    def out_edges(self, v: int):
        sl = slice(self.out_ptr[v], self.out_ptr[v + 1])
        return self.out_dst[sl], self.out_kind[sl], self.out_root[sl]

    def n_edges(self) -> int:
        return len(self.out_dst)

    def decode_weight(self, enc: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.group.rank):
            coords.append(int(enc % _BASE))
            enc //= _BASE
        return tuple(coords)

    def encode_weight(self, coords) -> int:
        return _pack(coords)


def build_qbg(group: CoxeterGroup, budget: int = DEFAULT_ENUM_BUDGET) -> QuantumBruhatGraph:
    """The quantum Bruhat graph of `group`, built on first use.

    The group keeps the graph and every later call returns that same object,
    once the budget has been checked against the group order.  Installing a
    new element table drops the graph, whose vertices are the table's rows.
    """
    check_graph_defined(group)
    table = group.enumerate(budget)
    if group._qbg is None:
        group._qbg = _build(group, table)
    return group._qbg


def check_graph_defined(group: CoxeterGroup) -> None:
    """NotCrystallographic or RankTooLarge if `group` has no graph here."""
    if not group.rs.crystallographic:
        raise NotCrystallographic(
            f"{group.label} is not crystallographic; the quantum Bruhat graph "
            "is only defined for Weyl groups"
        )
    if group.rank > _MAX_RANK:
        raise RankTooLarge(
            f"{group.label} has rank {group.rank}; the quantum Bruhat graph "
            f"packs path weights for rank at most {_MAX_RANK}"
        )


def _build(group: CoxeterGroup, table) -> QuantumBruhatGraph:
    mat = table.mat
    n = len(table)
    lengths = table.lengths
    refl = group.reflections()
    two_rho = group.rs.coroot_two_rho  # <beta^vee, 2 rho> per root

    # an empty piece each, so that a group without roots (GL1) has no edges
    srcs, dsts = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    kinds, roots = [np.zeros(0, np.int8)], [np.zeros(0, np.int32)]
    for k in range(group.n_pos):
        t = refl[k]
        t_idx = np.abs(t.images) - 1
        t_sgn = np.sign(t.images)
        cand = mat[:, t_idx] * t_sgn
        lt = (cand < 0).sum(axis=1)
        up = lt == lengths + 1
        down = lt == lengths - two_rho[k] + 1
        for mask, kind in ((up, 0), (down, 1)):
            idx = np.nonzero(mask)[0]
            if not len(idx):
                continue
            srcs.append(idx)
            dsts.append(table.lookup(cand[idx]))
            kinds.append(np.full(len(idx), kind, dtype=np.int8))
            roots.append(np.full(len(idx), k, dtype=np.int32))

    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    kind = np.concatenate(kinds)
    root = np.concatenate(roots)
    # the pieces are as large as the edge list; free them before the sort
    del srcs, dsts, kinds, roots
    order = np.lexsort((root, dst, src))
    return QuantumBruhatGraph(
        group, n, _pointers(src, n), dst[order], kind[order], root[order],
        weight_encoding(group),
    )


def _pointers(tails: np.ndarray, n: int) -> np.ndarray:
    """The CSR pointers of edges sorted by `tails`, on n vertices."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=ptr[1:])
    return ptr


def _pack(coords) -> int:
    """Coroot coordinates as one integer, a base-256 digit each."""
    enc = 0
    for c in reversed(list(coords)):
        enc = enc * _BASE + int(c)
    return enc


def weight_encoding(group: CoxeterGroup) -> np.ndarray:
    """The packed coroot vector of every positive root."""
    return np.array([_pack(row) for row in group.rs.coroot_matrix], dtype=np.int64)


# ---------------------------------------------------------------------------
# distances


def _bfs(qbg: QuantumBruhatGraph, x: int, y: Optional[int] = None,
         cap: Optional[int] = None, weights: bool = False):
    """Breadth-first search from x along the forward CSR, level by level.

    Returns (dist, wt, unique).  dist[v] is d_Gamma(x, v), or -1 for a vertex
    not reached.  The search stops after the level that reaches y, or after
    level `cap`.  With `weights`, wt[v] is the packed weight of a shortest
    path x -> v and unique is False if two shortest paths to some vertex were
    found with different weights; otherwise wt is None and unique is True.
    """
    ptr, dst = qbg.out_ptr, qbg.out_dst
    dist = np.full(qbg.n, -1, dtype=np.int16)
    dist[x] = 0
    wt = np.zeros(qbg.n, dtype=np.int64) if weights else None
    unique = True
    frontier = np.array([x], dtype=np.int64)
    level = 0
    while len(frontier) and (y is None or dist[y] < 0) and (cap is None or level < cap):
        level += 1
        counts = ptr[frontier + 1] - ptr[frontier]
        # the positions ptr[f], ..., ptr[f + 1] - 1 of every frontier vertex f
        pos = np.repeat(ptr[frontier] + counts - np.cumsum(counts), counts)
        pos += np.arange(len(pos))
        nbrs = dst[pos]
        fresh = dist[nbrs] < 0
        nbrs = nbrs[fresh]
        if weights:
            pos = pos[fresh]
            cand = np.repeat(wt[frontier], counts)[fresh]
            cand += qbg.weight_enc[qbg.out_root[pos]] * qbg.out_kind[pos]
            order = np.argsort(nbrs, kind="stable")
            nbrs, cand = nbrs[order], cand[order]
            first = np.ones(len(nbrs), dtype=bool)
            first[1:] = nbrs[1:] != nbrs[:-1]
            if (cand[1:] != cand[:-1])[~first[1:]].any():
                unique = False
            nbrs = nbrs[first]
            wt[nbrs] = cand[first]
        else:
            nbrs = np.unique(nbrs)
        dist[nbrs] = level
        frontier = nbrs
    return dist, wt, unique


def qbg_distance(qbg: QuantumBruhatGraph, x: int, y: int, cap: Optional[int] = None) -> Optional[int]:
    """BFS distance d_Gamma(x, y); None if a cap is given and exceeded."""
    d = int(_bfs(qbg, x, y, cap)[0][y])
    if d >= 0:
        return d
    if cap is not None:
        return None
    return _unreachable(x, y)


def _unreachable(x, y):
    raise AssertionError(f"quantum Bruhat graph not strongly connected: {x} -> {y}")


def distances_from(qbg: QuantumBruhatGraph, x: int) -> np.ndarray:
    return _bfs(qbg, x)[0]


def shortest_weights_from(qbg: QuantumBruhatGraph, x: int):
    """Single-source shortest distances, path weights, and a uniqueness flag.

    Returns (dist, wt, unique) as ``_bfs`` does.  The Postnikov lemma rules
    out two shortest paths with different weights; the flag exists so the
    suite verifies rather than assumes it.
    """
    return _bfs(qbg, x, weights=True)


def qbg_weight(qbg: QuantumBruhatGraph, x: int, y: int) -> tuple[int, ...]:
    """wt(x, y): the common weight of all shortest paths from x to y."""
    dist, wt, _ = _bfs(qbg, x, y, weights=True)
    if dist[y] < 0:
        _unreachable(x, y)
    return qbg.decode_weight(int(wt[y]))


def check_all_pairs_budget(group: CoxeterGroup, weights: bool = False) -> None:
    """BudgetExceeded if ``all_pairs`` on the graph of `group` is over the
    limit; the graph has a vertex per element, so this needs no graph."""
    n = group.order()
    need = n * n * (10 if weights else 2)
    if need > ALL_PAIRS_LIMIT:
        raise BudgetExceeded(
            f"all-pairs search on {group.label} needs {need} bytes for "
            f"{n} vertices, above the limit of {ALL_PAIRS_LIMIT}"
        )


def all_pairs(qbg: QuantumBruhatGraph, weights: bool = False):
    """Distances from every source at once, and with `weights` the path weights.

    Returns (D, wt, unique).  D[s, v] is d_Gamma(s, v), or -1 when no path
    joins s to v (int16).  With `weights`, row s of D and wt and unique[s]
    are byte for byte what ``shortest_weights_from(qbg, s)`` returns;
    otherwise wt and unique are None.  Before it allocates anything n x n,
    it raises BudgetExceeded when the result would take more than
    ALL_PAIRS_LIMIT = 2^30 bytes (1 GiB): 2 bytes a pair for D, 8 more for wt.

    Distances are a bit-parallel breadth-first search from all sources
    (Akiba, Iwata, Yoshida, SIGMOD 2013), pulled level by level along the
    forward CSR (Beamer, Asanovic, Patterson, SC 2012).  Row s of the
    frontier holds, as bits of uint64 words, the vertices at distance exactly
    k from s.  A vertex at distance k from s is at distance k - 1 from some
    out-neighbour of s, and every vertex at distance k - 1 from an
    out-neighbour is within k of s; so level k of s is the union of level
    k - 1 over the out-neighbours of s, minus what s has already reached.

    For the weights, an edge u -> v is tight for s when D[s, u] >= 0 and
    D[s, v] = D[s, u] + 1.  Every reached v != s takes its tight in-edge
    with the smallest u, the edge ``_bfs`` keeps; the edge weights are
    summed along these parent chains by pointer doubling, and unique[s]
    says whether every tight edge agrees with the sums.  Sources go in
    blocks, so that each temporary stays near _CHUNK elements.
    """
    check_all_pairs_budget(qbg.group, weights)
    n = qbg.n
    ptr, dst = qbg.out_ptr, qbg.out_dst
    n_edges = len(dst)
    words = (n + 63) // 64
    own = np.arange(n)
    D = np.full((n, n), -1, dtype=np.int16)
    D[own, own] = 0
    front = np.zeros((n, words), dtype="<u8")
    front[own, own // 64] = np.uint64(1) << (own % 64).astype(np.uint64)
    seen = front.copy()
    rows = max(1, _CHUNK * n // max(1, n_edges * words))
    level = 0
    while front.any():
        level += 1
        nxt = np.zeros_like(front)
        for s0 in range(0, n, rows):
            s1 = min(n, s0 + rows)
            starts = ptr[s0:s1] - ptr[s0]
            # reduceat gives an empty segment the next row, and fails on an
            # empty last one: a source without out-edges gets nothing
            has = ptr[s0 + 1:s1 + 1] > ptr[s0:s1]
            new = np.zeros((s1 - s0, words), dtype="<u8")
            new[has] = np.bitwise_or.reduceat(
                front[dst[ptr[s0]:ptr[s1]]], starts[has], axis=0
            )
            new &= ~seen[s0:s1]
            seen[s0:s1] |= new
            nxt[s0:s1] = new
            bits = np.unpackbits(new.view(np.uint8), axis=1, bitorder="little")
            D[s0:s1][bits[:, :n].view(bool)] = level
        front = nxt
    if not weights:
        return D, None, None

    # the edges grouped by head, tails ascending within each group
    indeg = np.diff(qbg.in_ptr)
    tail, head = qbg.in_src, np.repeat(own, indeg)
    step = qbg.weight_enc[qbg.in_root] * qbg.in_kind
    has_in = indeg > 0
    in_start = qbg.in_ptr[:-1][has_in]
    # position n_edges stands for "no tight in-edge": parent itself, weight 0
    tail_or_self = np.append(tail, 0)
    step_or_zero = np.append(step, 0)
    # edge positions fit int32, since ALL_PAIRS_LIMIT keeps n_edges far
    # below 2^31; this halves the traffic of the reduction and the gathers
    pos = np.arange(n_edges, dtype=np.int32)
    wt = np.zeros((n, n), dtype=np.int64)
    unique = np.ones(n, dtype=bool)
    block = max(1, _CHUNK // max(1, n_edges))
    for b0 in range(0, n, block):
        Db = D[b0:b0 + block]
        # np.take is much faster than fancy indexing along axis 1
        du = np.take(Db, tail, axis=1)
        tight = (du >= 0) & (np.take(Db, head, axis=1) == du + 1)
        first = np.full(Db.shape, n_edges, dtype=np.int32)
        first[:, has_in] = np.minimum.reduceat(
            np.where(tight, pos, n_edges), in_start, axis=1
        )
        par = np.where(first < n_edges, np.take(tail_or_self, first), own)
        # flat indices into the block, which np.take follows fastest
        par += n * np.arange(len(Db))[:, None]
        w = np.take(step_or_zero, first)
        # after j rounds w[v] sums the first 2^j edges of v's parent chain
        # and par[v] is its 2^j-th ancestor; a chain ends at its source
        span = 1
        while span < Db.max():
            w += np.take(w, par)
            par = np.take(par, par)
            span *= 2
        wt[b0:b0 + block] = w
        agree = np.take(w, tail, axis=1) + step == np.take(w, head, axis=1)
        unique[b0:b0 + block] = (agree | ~tight).all(axis=1)
    return D, wt, unique


# ---------------------------------------------------------------------------
# exact-weight path search


def reachable_weight_table(
    qbg: QuantumBruhatGraph, x: int, budget: tuple[int, ...]
) -> dict[tuple[int, ...], set[int]]:
    """Dynamic program over (vertex, remaining budget) from (x, budget).

    Upward edges keep the budget, a downward edge through alpha consumes
    alpha^vee; states with a negative coordinate are dropped.  Layers are
    processed in decreasing coordinate-sum order, which each downward edge
    strictly decreases, so the search terminates and every layer is complete
    when processed.  The returned dict maps the remaining budget b to the
    vertex set reachable with weight exactly budget - b; since prefix
    weights of a path are monotone, a path of weight c <= budget is never
    cut off by the box, so one table answers every sub-budget of `budget`.
    """
    budget = tuple(int(c) for c in budget)
    # the forward CSR as Python lists, which the loops below index cheaply
    ptr, dst, kind, root = (
        a.tolist() for a in (qbg.out_ptr, qbg.out_dst, qbg.out_kind, qbg.out_root)
    )
    coroots = [tuple(int(c) for c in row) for row in qbg.group.rs.coroot_matrix]

    def up_closure(seed: set[int]) -> set[int]:
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

    layers: dict[tuple[int, ...], set[int]] = {budget: {x}}
    pending = {budget}
    while pending:
        b = max(pending, key=sum)
        pending.discard(b)
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
                    pending.add(nb)
    return layers


def exists_path_with_weight(
    qbg: QuantumBruhatGraph, x: int, y: int, budget
) -> bool:
    """Is there a directed path x -> y whose weight is exactly `budget`?"""
    budget = tuple(int(c) for c in budget)
    if any(c < 0 for c in budget):
        return False
    layers = reachable_weight_table(qbg, x, budget)
    zero = (0,) * len(budget)
    return y in layers.get(zero, set())


# ---------------------------------------------------------------------------
# the twisted minimum


def _twisted_targets(qbg: QuantumBruhatGraph, sigma: Automorphism) -> np.ndarray:
    """targets[x] = index of sigma(x) w0."""
    group = qbg.group
    table = group.enumerate()
    w0 = group.longest_element()
    w0_idx = np.abs(w0.images) - 1
    w0_sgn = np.sign(w0.images)
    return table.lookup(sigma.apply_many(table.mat)[:, w0_idx] * w0_sgn)


def _reflection_length_bounds(qbg: QuantumBruhatGraph, targets: np.ndarray) -> np.ndarray:
    """l_R(x^{-1} targets[x]) for every vertex x, by exact rank.

    The rows of all x^{-1} t are gathers on the table through its inverse
    indices; the exact rank runs once per distinct element (one for
    sigma = id, where every x^{-1} t is w0).
    """
    group = qbg.group
    table = group.enumerate()
    inv = table.mat[table.inverses()]
    t = table.mat[targets]
    rows = np.take_along_axis(inv, np.abs(t) - 1, axis=1) * np.sign(t)
    distinct, which = np.unique(table.lookup(rows), return_inverse=True)
    lr = np.array([group.reflection_length(table.element(i)) for i in distinct])
    return lr[which]


def min_twisted_distance(
    qbg: QuantumBruhatGraph, sigma: Automorphism
) -> tuple[int, int]:
    """min over x of d_Gamma(x, sigma(x) w0), with an argmin vertex.

    Exhaustive over all sources, taken in ascending order of the length gap
    |l(w0) - 2 l(x)| (a stable sort); the argmin is the first source in that
    order that attains the minimum.  With t = sigma(x) w0, every source has
    d_Gamma(x, t) >= LB(x) = max(l(t) - l(x), l_R(x^{-1} t)).  The search
    runs in passes v = min_x LB(x), v + 1, ...: pass v takes, in that order,
    the sources with LB(x) <= v, searches each by a BFS capped at v, and
    returns v and the first source whose target it reaches.  No source has
    d_Gamma < v (none has d_Gamma < min LB, and the earlier passes found
    none), so v is the minimum, and a source skipped by pass v has
    d_Gamma > v.  Theorem 5.2 predicts that the first pass succeeds, but
    nothing here assumes it: a larger minimum would be found by a later pass.
    Both bounds hold for every pair x, y:

    - d_Gamma(x, y) >= l(y) - l(x).  An upward edge w -> w s_alpha adds 1 to
      the length, and a downward edge lowers it by <alpha^vee, 2 rho> - 1 >= 1,
      so a path of d edges ends at length at most l(x) + d.  Here
      l(t) = l(w0) - l(x), since sigma preserves length.
    - d_Gamma(x, y) >= l_R(x^{-1} y).  Every edge is w -> w s_alpha, right
      multiplication by a reflection, so a path x = w_0 -> ... -> w_d = y
      writes x^{-1} y = s_{alpha_1} ... s_{alpha_d} as d reflections, and
      l_R is the least number of reflections with that product.

    Neither proof uses Theorem 5.2 or ``lr_class_of_longest``; l_R is the
    exact-rank ``reflection_length`` of each element x^{-1} t.
    """
    targets = _twisted_targets(qbg, sigma)
    lengths = qbg.group.enumerate().lengths.astype(np.int64)
    gap = qbg.group.n_pos - 2 * lengths  # l(t) - l(x)
    bound = np.maximum(gap, _reflection_length_bounds(qbg, targets))
    order = np.argsort(np.abs(gap), kind="stable")

    for v in itertools.count(int(bound.min())):
        for x in order[bound[order] <= v]:
            if qbg_distance(qbg, int(x), int(targets[x]), cap=v) is not None:
                return v, int(x)
