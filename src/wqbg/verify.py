"""Machine checks for the published statements, shared by CLI and tests.

Each suite returns a plain dict with an ``ok`` flag and counterexample
payloads on failure; nothing is ever reported as passing when it was
skipped (skips carry ``skipped: reason`` instead of ``ok: True``).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from .affine import (
    affine_group,
    check_covering_families,
    star_hypothesis_table,
)
from .cartan import Coweight
from .coxeter import (
    Automorphism,
    get_group,
    identity_automorphism,
    negative_bits,
)
from .dimension import (
    d_adm_bruteforce,
    d_adm_formula,
    dim_x,
    verify_theorem_52,
)
from .newton import basic_class
from . import qbg as qbg_mod

# the type universe of the exhaustive Theorem 5.2 check (orders <= 52000)
THEOREM_TYPES = (
    ["A1", "A2", "A3", "A4", "A5", "A6", "A7"]
    + ["B2", "B3", "B4", "C3"]
    + ["D4", "D5", "D6"]
    + ["E6", "F4", "G2", "H3", "H4"]
    + [f"I{m}" for m in range(3, 13)]
)

SMALL_WEYL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2"]


def _digit_sums(wt: np.ndarray, rank: int) -> np.ndarray:
    """Coordinate sums of packed weights (= <wt, rho>), elementwise, one
    coordinate at a time (``qbg.weight_digits``)."""
    shifts, mask = qbg_mod.weight_digits(rank)
    s = np.zeros_like(wt)
    for shift in shifts.tolist():
        s += wt >> shift & mask
    return s


def _inversion_sets(table) -> np.ndarray:
    """N(w) = {beta > 0 : w^{-1} beta < 0} of every row, packed in uint64 words.

    Bit k of row w is set when beta_k is in N(w): the images of w^{-1} are
    negative there (``negative_bits``).  Then l(x^{-1} y) = |N(x) xor N(y)|,
    which ``_quotient_lengths`` counts; the proof is at ``negative_bits``.
    """
    return negative_bits(table.mat[table.inverses()])


def _quotient_lengths(nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """l(x^{-1} y) from the inversion sets of x and y, broadcast like nx ^ ny."""
    return np.bitwise_count(nx ^ ny).sum(axis=-1, dtype=np.int64)


def _source_blocks(n: int, words: int):
    """Slices of sources whose (sources x n x words) temporaries stay near
    the all-pairs search's chunk."""
    rows = max(1, qbg_mod._CHUNK // (n * words))
    return (slice(x0, min(n, x0 + rows)) for x0 in range(0, n, rows))


def _sampled_walks(graph, all_dist, lw0: int, samples: int, seed: int):
    """Random walks that are not shortest paths.

    Returns (x, v, acc) of the accepted walks, in order: each walk's start,
    end and weight in coroot coordinates.  A walk from x of `steps` edges
    to v is accepted when steps > d(x, v); walks are taken in order until
    `samples` are accepted or samples * 50 were tried.  The walks of a batch
    go in lockstep, one edge at a time, and their weights are summed per
    coroot coordinate, where no digit can carry.  A graph with a vertex
    without out-edges (GL1) has no walk.

    Each walk reads one row of 2 l(w0) + 3 random 32-bit words: word 0
    picks the start, word 1 the number of edges in [1, 2 l(w0) + 1] and
    word 2 + j the j-th edge, each by the multiply-shift (word * m) >> 32
    in [0, m).  The rows come from ``randbytes``, walk after walk, so
    drawing them one walk at a time gives the same walks.
    """
    ptr, dst = graph.out_ptr, graph.out_dst
    deg = np.diff(ptr).astype(np.uint64)
    rank = graph.group.rank
    none = np.zeros(0, dtype=np.int64)
    xs, vs, accs = [none], [none], [none.reshape(0, rank)]
    if not deg.all():
        return xs[0], vs[0], accs[0]
    coords = graph.group.rs.coroot_matrix[graph.out_root] * graph.out_kind[:, None]
    rng = random.Random(seed)
    width = 2 * lw0 + 3
    accepted, tries = 0, 0
    while accepted < samples and tries < samples * 50:
        walks = min(samples * 50 - tries, 2 * (samples - accepted))
        raw = rng.randbytes(4 * walks * width)
        words = np.frombuffer(raw, dtype="<u4").reshape(walks, width).astype(np.uint64)
        x = ((words[:, 0] * graph.n) >> 32).astype(np.int64)
        steps = 1 + ((words[:, 1] * (2 * lw0 + 1)) >> 32).astype(np.int64)
        v = x.copy()
        acc = np.zeros((walks, rank), dtype=np.int64)
        for j in range(int(steps.max())):
            go = np.flatnonzero(steps > j)
            e = ptr[v[go]] + ((words[go, 2 + j] * deg[v[go]]) >> 32).astype(np.int64)
            acc[go] += coords[e]
            v[go] = dst[e]
        took = np.flatnonzero(steps > all_dist[x, v])[:samples - accepted]
        tries += walks if accepted + len(took) < samples else int(took[-1]) + 1
        accepted += len(took)
        xs.append(x[took])
        vs.append(v[took])
        accs.append(acc[took])
    return np.concatenate(xs), np.concatenate(vs), np.concatenate(accs)


def _walks_below(x, v, acc, wt) -> list:
    """The failures among walks x -> v of weight acc (``_sampled_walks``):
    those below wt = wt(x, v), packed, in some coordinate, in walk order."""
    wmin = qbg_mod.unpack_weights(wt, acc.shape[1])
    return [("path weight below wt(x,y)", int(x[i]), int(v[i]),
             tuple(acc[i].tolist()), tuple(wmin[i].tolist()))
            for i in np.flatnonzero((acc < wmin).any(axis=1)).tolist()]


def suite_lemma31(label: str, samples: int = 1000, seed: int = 0) -> dict:
    """Shortest-path weight uniqueness and dominance, over all pairs.

    Dominance, every path x -> y has weight >= wt(x, y) componentwise, is
    proved by ``weight_blocks``' certificate, a test of every edge from
    every source (``edges_checked`` = n * E); `samples` random walks that
    are not shortest paths, drawn from `seed`, check it again
    (``sampled_paths``).  Also carries the two length identities tied to the
    same data: l(y) = l(x) - <wt(x,y), 2 rho> + d(x,y),
    <wt(x,y), rho> <= l(w0), and d(x, y) <= l(x^{-1} y), with l(x^{-1} y)
    from the inversion sets (``_inversion_sets``).

    One pass: the walks are drawn first, since whether a walk is accepted
    depends on the distances alone.  Then each block of weights is read
    once, for the checks of its sources and the wt(x, v) of the walks that
    start there, and dropped, so no n x n weight array is held.  The
    failures come in source order, and stop at the first source that does
    not reach every vertex; the walks' failures follow.
    """
    t0 = time.perf_counter()
    group = get_group(label)
    qbg_mod.check_all_pairs_budget(group, weights=True)
    graph = qbg_mod.build_qbg(group)
    all_dist = qbg_mod.all_pairs(graph)
    table = group.enumerate()
    inv_sets = _inversion_sets(table)
    lengths = table.lengths.astype(np.int64)
    lw0 = group.longest_element().length()
    n = graph.n

    walk_x, walk_v, walk_acc = _sampled_walks(graph, all_dist, lw0, samples, seed)
    walk_wt = np.zeros(len(walk_x), dtype=np.int64)
    checks = ("length identity fails from", "<wt, rho> exceeds l(w0) from",
              "d exceeds l(x^-1 y) from", "an edge undercuts wt(x, .) from")
    fails = np.zeros((n, len(checks)), dtype=bool)
    unique = np.ones(n, dtype=bool)
    reached = np.ones(n, dtype=bool)
    certified = True
    # a block is _CHUNK // n sources, like _source_blocks: every type inside
    # the weight pass's budget has at most 64 positive roots, one word
    for xs, wt, block_unique, dominated in qbg_mod.weight_blocks(graph, all_dist):
        unique[xs] = block_unique
        dist = all_dist[xs]
        ds = _digit_sums(wt, group.rank)
        fails[xs, 0] = (lengths != lengths[xs, None] - 2 * ds + dist).any(axis=1)
        fails[xs, 1] = (ds > lw0).any(axis=1)
        fails[xs, 2] = (dist > _quotient_lengths(inv_sets[xs, None], inv_sets)).any(axis=1)
        certified = dominated is not None
        if certified:
            fails[xs, 3] = ~dominated
        reached[xs] = (dist >= 0).all(axis=1)
        here = np.flatnonzero((walk_x >= xs.start) & (walk_x < xs.stop))
        walk_wt[here] = wt[walk_x[here] - xs.start, walk_v[here]]
    stop = n if reached.all() else int(np.argmin(reached))
    bad = []
    if not certified:
        bad.append(("dominance not certified: digit bound",))
    for x in np.flatnonzero(~unique[:stop] | fails[:stop].any(axis=1)).tolist():
        if not unique[x]:
            bad.append(("non-unique shortest weight from", x))
        bad.extend((check, x) for check, f in zip(checks, fails[x]) if f)
    if stop < n:
        bad.append(("not strongly connected", stop))
    identities_ok = not fails[:stop, :3].any()

    below = _walks_below(walk_x, walk_v, walk_acc, walk_wt)
    bad.extend(below)
    return dict(
        suite="lemma31",
        type=label,
        pairs=n * n,
        edges_checked=n * graph.n_edges() if certified else 0,
        sampled_paths=len(walk_x),
        identities_ok=identities_ok,
        dominance_ok=certified and not fails[:stop, 3].any() and not below,
        ok=not bad,
        failures=bad[:10],
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_lemma43(label: str, sigma_perm=None) -> dict:
    """max over (x, y) of l(sigma^{-1}(y) x) - d(x, y^{-1}) sits at w0.

    Exhaustive: compares the global maximum with the maximum restricted to
    pairs with sigma^{-1}(y) x = w0.  With z = y^{-1}, sigma^{-1}(y) x is
    sigma^{-1}(z)^{-1} x, so the value at (x, z) is
    |N(sigma^{-1}(z)) xor N(x)| - d(x, z) (``_inversion_sets``), taken over
    blocks of sources; the pairs at w0 are the n pairs x = sigma^{-1}(z) w0.
    """
    t0 = time.perf_counter()
    group = get_group(label)
    sigma = (
        identity_automorphism(group)
        if sigma_perm is None
        else Automorphism(group, tuple(sigma_perm))
    )
    qbg_mod.check_all_pairs_budget(group)
    graph = qbg_mod.build_qbg(group)
    all_dist = qbg_mod.all_pairs(graph)
    table = group.enumerate()
    n = graph.n
    w0 = group.longest_element()

    inv_sets = _inversion_sets(table)
    siginv_mat = sigma.inverse().apply_many(table.mat)
    # N(sigma^{-1}(z)) for every z
    sig_sets = inv_sets[table.lookup(siginv_mat)]
    overall = max(
        int((_quotient_lengths(inv_sets[xs, None], sig_sets) - all_dist[xs]).max())
        for xs in _source_blocks(n, inv_sets.shape[1])
    )
    # x = sigma^{-1}(z) w0 for every z
    at_w0 = table.lookup(siginv_mat[:, np.abs(w0.images) - 1] * np.sign(w0.images))
    restricted = int(
        (_quotient_lengths(inv_sets[at_w0], sig_sets) - all_dist[at_w0, np.arange(n)]).max()
    )
    ok = overall == restricted
    return dict(
        suite="lemma43",
        type=label,
        sigma=sigma.one_line(),
        overall_max=overall,
        max_at_w0=restricted,
        ok=ok,
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_prop_cover(label: str) -> dict:
    """Brute-force covers equal the four families, exhaustively over (x, y)."""
    t0 = time.perf_counter()
    group = get_group(label)
    if group.rank != 2:
        return dict(suite="prop-cover", type=label, skipped="rank-2 only")
    aw = affine_group(group)
    rs = group.rs
    bound = (3 if label == "G2" else 2) * group.n_pos + (3 if label == "G2" else 2)
    rho_check = rs.rho_check_coroot_coords
    # b * rho_check has depth exactly b; scale keeps coordinates integral
    scale = 1
    for c in rho_check:
        scale = scale * Fraction(c).denominator // 1
    scale = max(int(scale), 1)
    base = rs.coweight([int(Fraction(c) * bound * scale) for c in rho_check])
    theta_global = rs.global_root_index(0, rs.factors[0].highest)
    theta_vee = Coweight(tuple(int(v) for v in (
        np.array([int(c) for c in rs.coroot_matrix[theta_global]])
        @ rs.coroot_lattice_coords
    )))
    lams = [base, base + theta_vee]
    table = group.enumerate()
    checked = 0
    failures = []
    for lam in lams:
        assert rs.depth(lam) >= (3 if label == "G2" else 2) * group.n_pos + (3 if label == "G2" else 2)
        for xi in range(len(table)):
            for yi in range(len(table)):
                rep = check_covering_families(
                    aw, table.element(xi), lam, table.element(yi)
                )
                checked += 1
                if not rep["agree"]:
                    failures.append(
                        dict(x=table.element(xi).word(), y=table.element(yi).word(),
                             lam=lam.coords, n_brute=rep["n_brute"],
                             n_families=rep["n_families"])
                    )
    return dict(
        suite="prop-cover",
        type=label,
        elements_checked=checked,
        ok=not failures,
        failures=failures[:5],
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


def _coweight(rs, mu) -> Coweight:
    """The suites' mu: a Coweight as it is, a sequence as coroot coordinates."""
    return mu if isinstance(mu, Coweight) else rs.coweight(list(mu))


def suite_prop_adm(label: str, mu, budget: int = 60) -> dict:
    """QBG path criterion vs the brute-force admissible set, every triple.

    mu is a Coweight, or its coroot coordinates; it must be an integral sum
    of coroots, whose coefficients bound the box of lam = mu - sum m_j
    alpha_j^vee.  For each dominant lam of the box, every x and every y with
    t^lam y minimal in its coset give w = x t^lam y = t^{x(lam)} (x y), and
    all of them are looked up in the oracle's row keys at once.
    """
    t0 = time.perf_counter()
    group = get_group(label)
    aw = affine_group(group)
    rs = group.rs
    rank = rs.rank
    mu = _coweight(rs, mu)
    mu_box = rs.coroot_combination(mu - rs.zero_coweight())
    if mu_box is None or any(Fraction(c).denominator != 1 for c in mu_box):
        raise ValueError(
            f"prop-adm needs mu in the coroot lattice; {list(mu.coords)} is not an "
            "integral sum of coroots"
        )
    box = [int(c) for c in mu_box]
    adm = aw.admissible_oracle(mu, budget)
    graph = qbg_mod.build_qbg(group)
    table = group.enumerate()
    n = len(table)

    # wt(x, v) for every pair answers every (lambda, y): a path x -> v of
    # weight exactly c exists when c >= wt(x, v) in every coordinate
    # (``exists_path_with_weight``); one table answers every (*) test, and
    # numbers the box in C order
    blocks = qbg_mod.weight_blocks(graph, qbg_mod.all_pairs(graph))
    wt = qbg_mod.unpack_weights(np.concatenate([w for _, w, _, _ in blocks]), rank)
    star_at = star_hypothesis_table(rs, mu, box).ravel()

    # the dominant lam of the box, in box order
    grid = list(product(*(range(b + 1) for b in box)))
    ms = np.array(grid, dtype=np.int64).reshape(len(grid), rank)
    lams = np.array(mu.coords, dtype=np.int64) - ms @ rs.coroot_lattice_coords
    dominant = (lams @ rs.lattice_root_pairing[:, :rank] >= 0).all(axis=1)

    # every oracle member must decompose inside the lambda box
    member_lams = aw.decompose_rows(adm.lam, adm.u, adm.uinv)[1]
    assert set(map(tuple, member_lams.tolist())) <= set(
        map(tuple, lams[dominant].tolist())
    ), "oracle member with translation part not below mu"
    assert (rs.kappa_rows(adm.lam) == np.array(rs.kappa(mu), dtype=np.int64)).all()

    total = agree = certified = certified_agree = members = 0
    failures = []
    mat = table.mat
    inv = table.inverses()
    yinv_neg = mat[inv][:, :rank] < 0
    actions = np.stack([aw.action_matrix(table.element(x)) for x in range(n)])
    for k in np.flatnonzero(dominant).tolist():
        star = bool(star_at[k])
        # t^lam y is minimal in its coset: no simple alpha_i with
        # <lam, alpha_i> = 0 and y^{-1} alpha_i < 0
        at_wall = lams[k] @ rs.lattice_root_pairing[:, :rank] == 0
        ys = np.flatnonzero(~(at_wall & yinv_neg).any(axis=1))
        # w = t^{x(lam)} (x y) for every (y, x), y outer: the simple-root
        # images of x y are x applied to those of y
        ysimple = mat[ys, :rank]
        xy = mat[:, np.abs(ysimple) - 1].transpose(1, 0, 2) * np.sign(ysimple)[:, None]
        lam_w = np.tile(actions @ lams[k], (len(ys), 1))
        oracle_ans = (adm.index(lam_w, xy.reshape(len(ys) * n, rank)) >= 0).reshape(len(ys), n)
        qbg_ans = (wt[:, inv[ys]] <= ms[k]).all(axis=2).T
        same = int((oracle_ans == qbg_ans).sum())
        total += oracle_ans.size
        members += int(oracle_ans.sum())
        agree += same
        if star:
            certified += oracle_ans.size
            certified_agree += same
        for yi, x in np.argwhere(oracle_ans != qbg_ans)[: 10 - len(failures)].tolist():
            failures.append(
                dict(x=table.element(x).word(), lam=tuple(lams[k].tolist()),
                     y=table.element(int(ys[yi])).word(), oracle=bool(oracle_ans[yi, x]),
                     qbg=bool(qbg_ans[yi, x]), star=star)
            )
    return dict(
        suite="prop-adm",
        type=label,
        mu=list(mu.coords),
        triples=total,
        members=members,
        oracle_size=len(adm),
        agreements=agree,
        certified=certified,
        certified_agreements=certified_agree,
        ok=agree == total and members == len(adm),
        failures=failures,
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_prop44(label: str, mu, classes=None, budget: int = 60) -> dict:
    """d_adm closed formula vs brute-force maximum over the admissible set;
    mu is a Coweight, or its coroot coordinates."""
    t0 = time.perf_counter()
    group = get_group(label)
    aw = affine_group(group)
    rs = group.rs
    mu = _coweight(rs, mu)
    sigma = identity_automorphism(group)
    graph = qbg_mod.build_qbg(group)
    if classes is None:
        classes = [basic_class(rs, mu)]
    rows = []
    ok = True
    for b in classes:
        fval, _ = d_adm_formula(aw, graph, mu, b, sigma)
        bval, argmax = d_adm_bruteforce(aw, mu, b, sigma, budget)
        rows.append(
            dict(nu=[str(c) for c in b.newton], defect=b.defect,
                 formula=str(fval), bruteforce=str(bval),
                 argmax=repr(argmax), equal=fval == bval)
        )
        ok = ok and fval == bval
    return dict(
        suite="prop44",
        type=label,
        mu=list(mu.coords),
        rows=rows,
        ok=ok,
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_thm52(label: str, sigma_perm=None) -> dict:
    rep = verify_theorem_52(label, sigma_perm)
    rep["suite"] = "thm52"
    rep["ok"] = rep["equal"]
    return rep


def suite_thm61(label: str, mu, classes=None) -> dict:
    """Main-theorem consistency: dim_x = d_adm formula = maximizer's d_w;
    mu is a Coweight, or its coroot coordinates."""
    t0 = time.perf_counter()
    group = get_group(label)
    rs = group.rs
    mu = _coweight(rs, mu)
    sigma = identity_automorphism(group)
    if classes is None:
        classes = [basic_class(rs, mu)]
    rows = []
    ok = True
    for b in classes:
        rep = dim_x(group, mu, b, sigma)  # asserts the equalities internally
        gates = all(rep.preconditions.values())
        rows.append(
            dict(nu=[str(c) for c in b.newton], defect=b.defect,
                 preconditions=rep.preconditions,
                 value=str(rep.value) if rep.value is not None else None)
        )
        if gates and rep.value is None:
            ok = False
    return dict(
        suite="thm61-consistency",
        type=label,
        mu=list(mu.coords),
        rows=rows,
        ok=ok,
        elapsed_ms=int(1000 * (time.perf_counter() - t0)),
    )


SUITES = {
    "lemma31": suite_lemma31,
    "prop-cover": suite_prop_cover,
    "prop-adm": suite_prop_adm,
    "lemma43": suite_lemma43,
    "prop44": suite_prop44,
    "thm52": suite_thm52,
    "thm61-consistency": suite_thm61,
}
