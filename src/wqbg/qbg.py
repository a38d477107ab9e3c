"""The quantum Bruhat graph of a finite Weyl group.

Vertices are the group elements (dense indices in enumeration order).  For
w and a positive root alpha there is an upward edge w -> w s_alpha when
l(w s_alpha) = l(w) + 1 (weight 0) and a downward edge when
l(w s_alpha) = l(w) - <alpha^vee, 2 rho> + 1 (weight alpha^vee).

The build takes one root at a time and every vertex at once, and looks no
row up.  The heads w s_alpha of all w are an index permutation: a column of
the element table's Cayley table ``rmul`` for a simple root, and for any
other root two more gathers on it from the permutation of a root one step
closer to the simple ones.  l(w s_alpha) is the table's length of the head,
so a candidate edge costs a few gathers and no product w s_alpha.  Every
edge is one packed int64 key (tail, head, root), sorted once in place.

The graph stores one adjacency form, the forward CSR arrays, and every
search reads them.  The reverse CSR, the same edges grouped by head, is
derived from the forward one on first read; only the all-pairs weight pass,
``weight_blocks``, reads it.  That pass reads nothing else but the distance
matrix and ``weight_enc``: it puts the j-th smallest tail of every head in
in-edge slot j, and finds each vertex's parent edge and checks every tight
edge one slot at a time.  Single-source distances, shortest-path weights and
capped or targeted searches come from one breadth-first kernel, ``_bfs``;
the exhaustive suites get the same answers from every source at once: the
distances from ``all_pairs``, a bit-parallel search, and the weights from
``weight_blocks``, a block of sources at a time, so that nothing n x n is
held beside the distances.  The exact-weight path search is one
comparison with these weights: the weights of the paths x -> y are wt(x, y)
plus every nonnegative integer sum of simple coroots (proof at
``exists_path_with_weight``), so the graph keeps nothing for it.

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
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coxeter import (
    Automorphism, BudgetExceeded, CoxeterGroup, DEFAULT_ENUM_BUDGET, lr_class_of_longest,
)

_BASE = 256
# base-256 digits that fit an int64
_MAX_RANK = 8
# all_pairs refuses a result larger than this many bytes
ALL_PAIRS_LIMIT = 1 << 30
# elements in one temporary of all_pairs and weight_blocks: 512 KB of int64
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
    # min_twisted_distance's (v, argmin) per sigma.perm, or (sigma.perm, hint)
    _twisted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """One packed weight as coroot coordinates (see ``unpack_weights``)."""
        return tuple(unpack_weights(np.int64(enc), self.group.rank).tolist())


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
    """The edges of every vertex w, one positive root beta at a time.

    The heads w s_beta of every w form an index permutation perm_beta,
    read off the table's Cayley table ``rmul`` with no row lookup.  For
    simple alpha_i it is column i.  Every other root is reached by
    ``root_search`` as beta = s_j(beta'), with beta' one depth closer to the
    simple roots, and the reflection in s_j(beta') is s_j t_beta' s_j, so
    w s_beta = ((w s_j) t_beta') s_j and perm_beta = rmul[perm_beta'[rmul[:, j]], j].
    Only one depth's permutations are held, and the one being built.
    l(w s_beta) is the table's length of the head.

    Each edge is one packed int64 key, (tail * n + head) * n_pos + root,
    and the keys are sorted in place.  A key is unique, and so is its
    tail * n + head part: w s_beta = w s_gamma gives s_beta = s_gamma, so
    beta = gamma.  The order is therefore the (tail, head, root) order.
    The largest key is n^2 n_pos - 1, and the CSR pointers search for
    multiples of n n_pos up to n^2 n_pos, so the build needs
    n^2 n_pos < 2^63, n below about 3.8 * 10^8 at n_pos <= 64, and raises
    BudgetExceeded above it.  The root is the key modulo n_pos.  The kind
    is read back as l(head) < l(tail): an upward edge adds 1 to the length,
    and a downward edge lowers it by <beta^vee, 2 rho> - 1 >= 1.
    """
    n = len(table)
    n_pos = group.n_pos
    if n * n * n_pos >= 2**63:
        raise BudgetExceeded(
            f"{group.label}: {n}^2 x {n_pos} edge keys do not fit an int64"
        )
    lengths = table.lengths
    two_rho = group.rs.coroot_two_rho  # <beta^vee, 2 rho> per root

    def edge_keys(k, perm):
        # l(w s_beta) - l(w): 1 on an upward edge, 1 - <beta^vee, 2 rho> downward
        rise = lengths[perm] - lengths
        tails = np.flatnonzero((rise == 1) | (rise == 1 - two_rho[k]))
        return (tails * n + perm[tails]) * n_pos + k

    # an empty piece, so that a group without roots (GL1) has no edges
    keys = [np.zeros(0, np.int64)]
    keys += [edge_keys(k, perm) for k, perm in _head_permutations(group, table.rmul())]
    key = np.concatenate(keys)
    # the pieces are as large as the edge list; free them before the sort
    del keys
    key.sort()
    ptr = np.searchsorted(key, np.arange(n + 1) * (n * n_pos))
    root = np.empty(len(key), dtype=np.int32)
    np.remainder(key, n_pos, out=root, casting="unsafe")
    np.floor_divide(key, n_pos, out=key)
    np.remainder(key, n, out=key)
    kind = np.empty(len(key), dtype=np.int8)
    # a block of tails at a time, so that no temporary is as long as the edges
    step = max(1, _CHUNK // max(1, n_pos))
    for a in range(0, n, step):
        sl = slice(ptr[a], ptr[min(a + step, n)])
        tail_lengths = np.repeat(lengths[a:a + step], np.diff(ptr[a:a + step + 1]))
        np.less(lengths[key[sl]], tail_lengths, out=kind[sl], casting="unsafe")
    return QuantumBruhatGraph(group, n, ptr, key, kind, root, weight_encoding(group))


def _head_permutations(group: CoxeterGroup, rmul: np.ndarray):
    """(beta, perm_beta) for every positive root, perm_beta[w] the row of
    w s_beta, one depth of ``root_search`` at a time (see ``_build``)."""
    perms = {i: rmul[:, i] for i in range(group.rank)}
    yield from perms.items()
    for beta, j, prev in group.root_search():
        perms = {int(b): rmul[perms[p][rmul[:, i]], i] for b, i, p in zip(beta, j, prev)}
        yield from perms.items()


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


def unpack_weights(wt: np.ndarray, rank: int) -> np.ndarray:
    """Packed weights as coroot coordinates, along a new last axis."""
    return (wt[..., None] >> (8 * np.arange(rank))) & (_BASE - 1)


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
            dist[nbrs] = level
        else:
            # stamped and read back: the level sorted, each vertex once
            dist[nbrs] = level
            nbrs = np.flatnonzero(dist == level)
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
    """BudgetExceeded if ``all_pairs`` on the graph of `group`, or with
    `weights` its weight pass ``weight_blocks``, is over the limit; the graph
    has a vertex per element, so this needs no graph.

    ``all_pairs`` holds 2 bytes a pair.  The weight pass holds one block of
    sources at a time, but it makes n * E edge tests; its gate of 10 bytes a
    pair is kept unchanged as a bound on that pass (at 2 bytes a pair, D6,
    with n = 23,040, would pass)."""
    n = group.order()
    need = n * n * (10 if weights else 2)
    if need > ALL_PAIRS_LIMIT:
        raise BudgetExceeded(
            f"all-pairs search on {group.label} needs {need} bytes for "
            f"{n} vertices, above the limit of {ALL_PAIRS_LIMIT}"
        )


def all_pairs(qbg: QuantumBruhatGraph) -> np.ndarray:
    """Distances from every source at once.

    Returns D, where D[s, v] is d_Gamma(s, v), or -1 when no path joins s to
    v (int16); row s is byte for byte the distances of
    ``shortest_weights_from(qbg, s)``.  The path weights come from
    ``weight_blocks(qbg, D)``, a block of sources at a time.  Before it
    allocates anything n x n, it raises BudgetExceeded when D would take
    more than ALL_PAIRS_LIMIT = 2^30 bytes (1 GiB), at 2 bytes a pair.

    Distances are a bit-parallel breadth-first search from all sources
    (Akiba, Iwata, Yoshida, SIGMOD 2013), pulled level by level along the
    forward CSR (Beamer, Asanovic, Patterson, SC 2012).  Row s of the
    frontier holds, as bits of uint64 words, the vertices at distance exactly
    k from s.  A vertex at distance k from s is at distance k - 1 from some
    out-neighbour of s, and every vertex at distance k - 1 from an
    out-neighbour is within k of s; so level k of s is the union of level
    k - 1 over the out-neighbours of s, minus what s has already reached.

    Each level's frontier is ORed into the bit planes of the level number:
    plane i holds the pairs whose distance has bit i set.  The planes, and
    ``seen`` for the pairs never reached, are unpacked once at the end, a
    block of sources at a time, so no level touches an n x n array.
    """
    check_all_pairs_budget(qbg.group)
    n = qbg.n
    ptr, dst = qbg.out_ptr, qbg.out_dst
    n_edges = len(dst)
    words = (n + 63) // 64
    own = np.arange(n)
    front = np.zeros((n, words), dtype="<u8")
    front[own, own // 64] = np.uint64(1) << (own % 64).astype(np.uint64)
    seen = front.copy()
    planes = []
    rows = max(1, _CHUNK * n // max(1, n_edges * words))
    level = 0
    while front.any():
        level += 1
        if level >> len(planes):
            planes.append(np.zeros_like(front))
        lit = [p for i, p in enumerate(planes) if level >> i & 1]
        nxt = np.zeros_like(front)
        for s0 in range(0, n, rows):
            s1 = min(n, s0 + rows)
            starts = ptr[s0:s1] - ptr[s0]
            # reduceat gives an empty segment the next row, and fails on an
            # empty last one: a source without out-edges gets nothing
            has = ptr[s0 + 1:s1 + 1] > ptr[s0:s1]
            new = nxt[s0:s1]
            new[has] = np.bitwise_or.reduceat(
                front[dst[ptr[s0]:ptr[s1]]], starts[has], axis=0
            )
            new &= ~seen[s0:s1]
            seen[s0:s1] |= new
            for p in lit:
                p[s0:s1] |= new
        front = nxt
    del front, nxt

    def unpack(bits):
        return np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little")

    D = np.empty((n, n), dtype=np.int16)
    block = max(1, _CHUNK // n)
    for s0 in range(0, n, block):
        sl = slice(s0, s0 + block)
        # a pair not seen has no plane bit set: it becomes 0 - 1 = -1
        np.subtract(unpack(seen[sl]), 1, out=D[sl], dtype=np.int16)
        for i, p in enumerate(planes):
            D[sl] += np.left_shift(unpack(p[sl]), i, dtype=np.int16)
    return D


def weight_blocks(qbg: QuantumBruhatGraph, D: np.ndarray):
    """The shortest-path weights and flags of every source, from the
    distances D = ``all_pairs(qbg)``, one block of sources at a time.

    Yields (sources, wt, unique, dominated) in source order; `sources` is a
    slice, and the slices cover every source once.  For s = sources.start + i,
    row i of wt (int64) and unique[i] are byte for byte what
    ``shortest_weights_from(qbg, s)`` returns, and dominated[i] is True when
    every path from s has weight >= wt(s, .) in every coordinate, proved by
    a test of every edge (below).  dominated is None, in every block, when
    the digit bound of that test fails and nothing was tested.  A block is
    m = max(1, _CHUNK // n) sources, and nothing n x n is allocated: the
    caller reads each block and drops it.  Before its first allocation the pass
    raises BudgetExceeded as ``check_all_pairs_budget(group, weights=True)``
    says.

    An edge u -> v is tight for s when D[s, u] >= 0 and D[s, v] = D[s, u] +
    1.  A block is held vertex-major: a vertex is a row and a source a
    column, so that every gather copies whole rows and each temporary stays
    near _CHUNK elements.  The rows are the vertices sorted by in-degree,
    largest first, so in-edge slot j, the j-th smallest tail of every head in
    the reverse CSR, covers a prefix of the rows, and each slot's tight mask
    is a comparison of two row blocks.  Every reached v != s takes its first
    tight slot, the tight in-edge with the smallest u, which is the edge
    ``_bfs`` keeps; the edge weights are summed along these parent chains by
    pointer doubling, and unique[s] says whether every tight edge, slot by
    slot, agrees with the sums.

    The certificate.  Fix a source s.  Every path from s has weight >=
    wt(s, .) in every coordinate if and only if every edge u -> v whose
    tail s reaches has wt(s, u) + w(u -> v) >= wt(s, v).  Only if: a
    shortest path to u, followed by the edge, is a path to v.  If: along a
    path s = v_0 -> ... -> v_k, the weight of the first i edges is >=
    wt(s, v_i), by induction from wt(s, s) = 0, since the edge test carries
    the bound from v_i to v_(i+1).  The slot loop that checks the tight edges
    already forms wt(s, u) + w(e) for every in-edge, so the test is one more
    comparison there, over all n * E (source, edge) pairs: a proof over
    every path, where a sample of walks is not.

    The packed weights are compared without unpacking.  Let H (``high``)
    hold 0x80 in each of the rank digits.  When every digit of a and b is
    below 128, each digit of (a | H) - b is a_i + 128 - b_i, in [1, 255],
    so nothing borrows across digits, and its bit 7 is set exactly when
    a_i >= b_i: ((a | H) - b) & H == H holds exactly when a >= b
    digitwise.  A shortest path has at most `longest` = max D edges, so
    with c_max the largest digit of an edge weight (the largest coroot
    coefficient), wt(s, u) + w(e) and wt(s, v) have digits <=
    (longest + 1) * c_max, and no sum carries.  The certificate runs only
    when that is below 128: 100 on F4, 52 on B5 and 42 on D5, so on every
    type inside the all-pairs budget.  A made-up weight table may fail the
    bound; dominated is then None, never a pass.  A tail s does not reach
    gets weight 127 - c_max in every digit (``far``): no path from s runs
    through it, and its tests pass without a carry, as
    127 - c_max >= longest * c_max bounds every digit of wt(s, v).
    """
    check_all_pairs_budget(qbg.group, weights=True)
    n = qbg.n
    own = np.arange(n)
    longest = int(D.max(initial=0))
    c_max = max(((int(e) >> 8 * i) & 255 for e in qbg.weight_enc for i in range(8)), default=0)
    certify = (longest + 1) * c_max < 128
    digits = [8 * i for i in range(qbg.group.rank)]
    high = np.array(sum(0x80 << i for i in digits), dtype=np.uint64).view(np.int64)
    far = sum((127 - c_max) << i for i in digits)
    # rows are the vertices by in-degree, largest first; v is row rank[v]
    indeg = np.diff(qbg.in_ptr)
    order = np.argsort(-indeg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = own
    maxdeg = int(indeg.max(initial=0))
    # in-edge slot j covers the first k[j] rows
    k = np.count_nonzero(indeg[:, None] > np.arange(maxdeg), axis=0)
    # par_of[c, r] and step_of[c, r]: the tail's row and the step of in-edge
    # slot maxdeg - c of row r, so the smallest tight slot is the largest
    # tight c; c = 0, "no tight in-edge", is row r itself with weight 0
    slot = np.arange(len(qbg.in_src)) - np.repeat(qbg.in_ptr[:-1], indeg)
    at = (maxdeg - slot) * n + np.repeat(rank, indeg)
    par_of = np.tile(own, (maxdeg + 1, 1))
    par_of.flat[at] = rank[qbg.in_src]
    step_of = np.zeros((maxdeg + 1, n), dtype=np.int64)
    step_of.flat[at] = qbg.weight_enc[qbg.in_root] * qbg.in_kind
    # a generator keeps its frame between blocks: drop the per-edge indices
    del slot, at
    # (column, rows covered) of slots 0, 1, ..., maxdeg - 1
    slots = list(zip(range(maxdeg, 0, -1), k.tolist()))
    col_type = np.min_scalar_type(maxdeg)

    # a function, so that a block's temporaries are freed before it is yielded
    def weigh(sources: slice):
        # a copy, rows in the order of the slots
        Ds = D[sources].T[order]
        m = Ds.shape[1]
        # an unreached -1 becomes -2, which no distance + 1 equals: u -> v is
        # then tight exactly when Ds[v] == Ds[u] + 1
        Ds -= Ds < 0
        col = np.zeros((n, m), dtype=col_type)
        tight = []
        for c, rows in slots:
            du = np.take(Ds, par_of[c, :rows], axis=0)
            du += 1
            tight.append(Ds[:rows] == du)
            np.maximum(col[:rows], tight[-1].view(col_type) * col_type.type(c), out=col[:rows])
        at = col.astype(np.int64)
        at *= n
        at += own[:, None]
        w = np.take(step_of, at)
        par = np.take(par_of, at)
        # every n x m int64 temporary is freed once done with: beside the
        # tight masks, at most three of them are held at once
        del at
        # flat indices into the block, which np.take follows fastest
        par *= m
        par += np.arange(m)
        # after j rounds w[v] sums the first 2^j edges of v's parent chain
        # and par[v] is its 2^j-th ancestor; a chain ends at its source
        span = 1
        while span < longest:
            w += np.take(w, par)
            par = np.take(par, par)
            span *= 2
        del par
        wt = np.take(w, rank, axis=0).T.copy()
        if certify:
            w[Ds < 0] = far
            # a bool per pair, not an int64: this loop sets the peak memory
            below = np.zeros((n, m), dtype=bool)
        split = np.zeros((n, m), dtype=bool)
        for (c, rows), t in zip(slots, tight):
            wu = np.take(w, par_of[c, :rows], axis=0)
            wu += step_of[c, :rows, None]
            split[:rows] |= (wu != w[:rows]) & t
            if certify:
                wu |= high
                wu -= w[:rows]
                wu &= high
                below[:rows] |= wu != high
        return wt, ~split.any(axis=0), ~below.any(axis=0) if certify else None

    block = max(1, _CHUNK // n)
    for s0 in range(0, n, block):
        sources = slice(s0, min(n, s0 + block))
        yield (sources, *weigh(sources))


# ---------------------------------------------------------------------------
# exact-weight path search


def exists_path_with_weight(
    qbg: QuantumBruhatGraph, x: int, y: int, budget
) -> bool:
    """Is there a directed path x -> y whose weight is exactly `budget`?

    Exactly when budget - wt(x, y) >= 0 in every coordinate: the weights of
    the paths x -> y are wt(x, y) + Q^vee_+, where Q^vee_+ is the set of
    nonnegative integer sums of simple coroots.

    - Every path x -> y weighs at least wt(x, y) in every coordinate
      (Lemma 3.1; Postnikov, "Quantum Bruhat graph and Schubert
      polynomials", Proc. AMS 133 (2005)).  ``weight_blocks`` certifies it
      per type by a test of every edge.
    - A shortest path x -> y weighs wt(x, y).
    - Every vertex w has, for each simple alpha_i, the 2-cycle
      w -> w s_i -> w of weight alpha_i^vee (Brenti, Fomin, Postnikov, IMRN
      1999).  l(w s_i) = l(w) +- 1: the edge that adds 1 to the length is an
      up edge of weight 0, and the one that lowers it by 1 =
      <alpha_i^vee, 2 rho> - 1 is a down edge of weight alpha_i^vee.  A
      shortest path followed by c_i such cycles at y, for each i, weighs
      wt(x, y) + sum c_i alpha_i^vee.

    A budget with a negative coordinate is below every weight.  wt(x, y)
    comes from one breadth-first search from x, ``qbg_weight``.
    """
    return all(int(c) >= w for c, w in zip(budget, qbg_weight(qbg, x, y), strict=True))


def reachable_weight_table(
    qbg: QuantumBruhatGraph, x: int, budget: tuple[int, ...]
) -> dict[tuple[int, ...], set[int]]:
    """The one-source view of ``exists_path_with_weight`` over a box.

    Maps the remaining budget b of every point 0 <= b <= budget that x
    reaches to the set of vertices v with a path x -> v of weight exactly
    budget - b: those with wt(x, v) <= budget - b in every coordinate.
    """
    dims = tuple(int(c) + 1 for c in budget)
    dist, wt, _ = shortest_weights_from(qbg, x)
    # the largest remaining budget of each vertex; one x does not reach has none
    room = np.array(dims) - 1 - unpack_weights(wt, qbg.group.rank)
    room[dist < 0] = -1
    points = np.indices(dims).reshape(len(dims), math.prod(dims)).T
    reach = (points[:, None] <= room).all(axis=2)
    return {tuple(b): set(np.flatnonzero(r).tolist())
            for b, r in zip(points.tolist(), reach) if r.any()}


# ---------------------------------------------------------------------------
# the twisted minimum


def _twisted_targets(qbg: QuantumBruhatGraph, sigma: Automorphism, rows) -> np.ndarray:
    """targets[k] = index of sigma(x) w0, for x the k-th row of
    ``table.mat[rows]``; `rows` is an index array or a slice.

    Only the simple-root columns that ``lookup`` reads are formed:
    w0(alpha_i) = -alpha_psi(i), so (sigma(x) w0)(alpha_i) is
    -sigma(x)(alpha_psi(i)), column psi(i) of sigma(x) negated.  A slice
    of the table is a view, so every row at once copies no full row.
    """
    group = qbg.group
    table = group.enumerate()
    psi = -group.longest_element().images[:group.rank] - 1
    images = sigma.apply_many(table.mat[rows], psi)
    return table.lookup(np.negative(images, out=images))


def min_twisted_distance(
    qbg: QuantumBruhatGraph, sigma: Automorphism, hint: Optional[int] = None
) -> tuple[int, int]:
    """min over x of d_Gamma(x, sigma(x) w0), with an argmin vertex.

    One lower bound, L = l_R of the sigma'-twisted class of w0
    (``lr_class_of_longest(group, sigma')``, sigma' = Ad(w0) o sigma), and
    one search loop, ``_first_reached``.  Pass v = L, L + 1, ... takes the
    sources in order, skips those with l(w0) - 2 l(x) > v, searches each
    other one by a BFS capped at v, and returns v and the first source whose
    target it reaches.  No source is below L and the earlier passes found
    none below v, so v is the minimum; a distance below L contradicts the
    bound and raises AssertionError.  With a hint x_h the sources are [x_h]
    and the one pass is L, so a hit returns (L, x_h) after one BFS; a miss
    returns the answer without a hint.  Without a hint the sources are every
    vertex in ascending order of |l(w0) - 2 l(x)| (a stable sort), and the
    argmin is the first in that order that attains the minimum.  Theorem 5.2
    predicts that the first pass succeeds, but nothing assumes it.  Both
    searches read ``lr_class_of_longest``: ``dim_x`` and
    ``verify_theorem_52`` pass a hint and ``suite_prop44`` does not, so every
    caller depends on that bound, and the tests compare it with an
    independent l_R of every x^{-1} sigma(x) w0.

    The bounds hold for every pair x, y.  d_Gamma(x, y) >= l(y) - l(x): an
    upward edge w -> w s_alpha adds 1 to the length, and a downward edge
    lowers it by <alpha^vee, 2 rho> - 1 >= 1; here l(t) = l(w0) - l(x), as
    sigma preserves length, so a skipped source has d_Gamma > v.
    d_Gamma(x, y) >= l_R(x^{-1} y): a path x = w_0 -> ... -> w_d = y writes
    x^{-1} y = s_{alpha_1} ... s_{alpha_d} as d reflections.  Put y = x^{-1},
    so sigma(x) = sigma(y)^{-1} and x^{-1} sigma(x) w0 = y w0 sigma'(y)^{-1},
    with sigma'(s_i) = s_{psi(sigma(i))} for psi = ``ad_w0_permutation``:
    as x runs over W, x^{-1} sigma(x) w0 runs over the sigma'-twisted class
    of w0, so every source is >= L.  (For sigma = id the class is {w0}, and
    for sigma = Ad(w0) the conjugacy class of w0, so neither walks an orbit
    of the size of the group.)  The answer is that of a search that also
    skipped each source with l_R(x^{-1} sigma(x) w0) > v: that source has
    d_Gamma > v, so its capped BFS reaches nothing, and each pass returns
    the same first source.  No proof reads the Bruhat order, the witness
    constructions or Theorem 5.2.

    The answer depends on the graph, sigma and the hint alone, so the graph
    keeps it under ``sigma.perm``, or (``sigma.perm``, hint) for a hinted
    search, and each search runs once per graph; a hint that misses reads
    the stored answer without a hint.  The graph drops them with itself: a
    new element table drops the group's graph, and the next ``build_qbg``
    builds one that starts empty.  Callers get the graph from
    ``build_qbg(group, budget)``, which checks the budget against the group
    order before it returns the graph, so a stored answer is never given
    past the budget.
    """
    key = sigma.perm if hint is None else (sigma.perm, hint)
    if key not in qbg._twisted:
        group = qbg.group
        psi = group.ad_w0_permutation().perm
        low = lr_class_of_longest(group, Automorphism(group, tuple(psi[i] for i in sigma.perm)))
        if hint is None:
            gap = group.n_pos - 2 * group.enumerate().lengths.astype(np.int64)
            order = np.argsort(np.abs(gap), kind="stable")
            targets = _twisted_targets(qbg, sigma, slice(None))[order]
            found = _first_reached(qbg, order, targets, itertools.count(low), low)
        else:
            sources = np.array([hint])
            found = (_first_reached(qbg, sources, _twisted_targets(qbg, sigma, sources), [low], low)
                     or min_twisted_distance(qbg, sigma))
        qbg._twisted[key] = found
    return qbg._twisted[key]


def _first_reached(qbg: QuantumBruhatGraph, sources: np.ndarray, targets: np.ndarray,
                   passes, low: int):
    """(v, x) for the first pass v and the first source x in `sources` whose
    BFS capped at v reaches its target, else None when the passes run out
    (see ``min_twisted_distance``)."""
    gap = qbg.group.n_pos - 2 * qbg.group.enumerate().lengths[sources].astype(np.int64)
    for v in passes:
        live = gap <= v
        for x, t in zip(sources[live].tolist(), targets[live].tolist()):
            d = qbg_distance(qbg, x, t, cap=v)
            if d is not None:
                if d < low:
                    raise AssertionError(f"d_Gamma = {d} is below the twisted-class bound {low}")
                return v, x
    return None
