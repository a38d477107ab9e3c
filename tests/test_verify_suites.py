"""Remaining published-statement suites and recorded open-question probes."""

import dataclasses
import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wqbg import qbg as qbg_mod
from wqbg import verify
from wqbg.cartan import Coweight
from wqbg.cli import main
from wqbg.coxeter import Automorphism, get_group, identity_automorphism
from wqbg.qbg import exists_path_with_weight, shortest_weights_from
from wqbg.verify import SMALL_WEYL_TYPES, suite_lemma43, suite_lemma31, suite_prop_adm

# the types of the all-pairs benchmark workload
ALL_PAIRS_TYPES = SMALL_WEYL_TYPES + ["D5"]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_reach_w_maximum_at_w0(label):
    rep = suite_lemma43(label)
    assert rep["ok"], rep


def test_reach_w_twisted():
    rep = suite_lemma43("A3", (2, 1, 0))
    assert rep["ok"], rep
    rep = suite_lemma43("D4", (2, 1, 3, 0))
    assert rep["ok"], rep


def test_lemma31_suite_shape():
    rep = suite_lemma31("G2", samples=200)
    assert rep["ok"] and rep["identities_ok"] and rep["dominance_ok"]
    assert rep["sampled_paths"] == 200
    assert rep["edges_checked"] == 12 * 38


def _randrange_walk(graph, all_dist, all_wt, lw0, samples, seed):
    """The walk of suite_lemma31 before its array walk, one randrange a step:
    returns (accepted, failures) as ``verify._sampled_walks`` and
    ``verify._walks_below`` give them."""
    rng = random.Random(seed)
    accepted = tries = 0
    failures = []
    while accepted < samples and tries < samples * 50:
        tries += 1
        x = rng.randrange(graph.n)
        steps = rng.randrange(1, 2 * lw0 + 2)
        v = x
        wacc = 0
        for _ in range(steps):
            dsts, kinds, roots = graph.out_edges(v)
            j = rng.randrange(len(dsts))
            wacc += int(graph.weight_enc[roots[j]]) * int(kinds[j])
            v = int(dsts[j])
        if steps <= all_dist[x, v]:
            continue
        accepted += 1
        wmin = graph.decode_weight(int(all_wt[x, v]))
        wgot = graph.decode_weight(wacc)
        if not all(a >= b for a, b in zip(wgot, wmin)):
            failures.append(("path weight below wt(x,y)", x, v, wgot, wmin))
    return accepted, failures


@pytest.mark.slow
@pytest.mark.parametrize("label", ALL_PAIRS_TYPES)
def test_lemma31_certificate_checks_every_edge(all_weights, label):
    rep = suite_lemma31(label, samples=1000, seed=3)
    graph = qbg_mod.build_qbg(get_group(label))
    assert rep["ok"] and rep["dominance_ok"], rep
    assert rep["edges_checked"] == graph.n * graph.n_edges()
    assert rep["sampled_paths"] == 1000
    # the walk the certificate replaced as the proof agrees
    all_dist, all_wt, _, _ = all_weights(graph)
    lw0 = get_group(label).longest_element().length()
    assert _randrange_walk(graph, all_dist, all_wt, lw0, 1000, 3) == (1000, [])


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_lemma31_catches_a_lighter_path_that_is_not_shortest(monkeypatch, all_weights, label):
    # the first downward edge out of w0 made upward, of weight 0: some paths
    # through it that are not shortest are lighter than the shortest ones
    # (tests/test_qbg.py checks the certificate edge by edge on this graph)
    group = get_group(label)
    graph = qbg_mod.build_qbg(group)
    w0 = group.enumerate().index_of(group.longest_element())
    kind = graph.out_kind.copy()
    kind[graph.out_ptr[w0] + int(np.argmax(graph.out_edges(w0)[1]))] = 0
    forged = dataclasses.replace(graph, out_kind=kind)
    dominated = all_weights(forged)[3]
    monkeypatch.setattr(verify.qbg_mod, "build_qbg", lambda group: forged)
    rep = suite_lemma31(label, samples=300)
    assert not rep["dominance_ok"] and not rep["ok"]
    first = [f[1] for f in rep["failures"] if f[0] == "an edge undercuts wt(x, .) from"]
    assert first
    assert first == np.flatnonzero(~dominated).tolist()[:len(first)]


def test_lemma31_reports_a_certificate_it_could_not_run(monkeypatch):
    # made-up weights with digits up to 216 break the packed comparison's
    # digit bound: the suite reports no edge checked and no dominance
    graph = qbg_mod.build_qbg(get_group("G2"))
    fake = dataclasses.replace(graph)
    fake.weight_enc = np.arange(1, 7, dtype=np.int64) ** 3
    monkeypatch.setattr(verify.qbg_mod, "build_qbg", lambda group: fake)
    rep = suite_lemma31("G2", samples=100)
    assert rep["edges_checked"] == 0
    assert not rep["dominance_ok"] and not rep["ok"]
    assert rep["failures"][0] == ("dominance not certified: digit bound",)


def test_lemma31_refuses_rank_ten_before_the_graph(monkeypatch):
    # 5A2's weights do not pack: the suite refuses before it builds the
    # graph and runs the all-pairs search
    monkeypatch.setattr(verify.qbg_mod, "build_qbg", lambda group: pytest.fail("graph built"))
    with pytest.raises(qbg_mod.RankTooLarge, match="rank 10"):
        suite_lemma31("5A2")


def test_lemma31_holds_no_weight_matrix():
    # the weights come a block of sources at a time: the suite peaks below
    # one n x n int64 array, 10.6 MB on F4 (it peaked at 16.1 MB holding one)
    label = "F4"
    assert suite_lemma31(label)["ok"]  # the group's tables and graph, built once
    n = len(get_group(label).enumerate())
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        suite_lemma31(label)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < n * n * 8, peak


def _run_with_src(code):
    """Run `code` in a fresh interpreter with this checkout's src/ on the path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_lemma31_does_not_import_numpy_random():
    # numpy.random alone adds about 6 MB to every process that imports it
    code = ("import sys; from wqbg.verify import suite_lemma31; "
            "assert suite_lemma31('B3')['ok']; print('numpy.random' in sys.modules)")
    assert _run_with_src(code) == "False"


def test_runs_do_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma on first use, 15-35 ms a process
    code = ("import sys; from wqbg.cli import main; "
            "from wqbg.verify import suite_lemma31, suite_prop_adm; "
            "assert main(['dim', 'xmub', '--type', 'A2', '--mu', '14,14', "
            "'--b', 'nu=0', 'def=0']) == 0; "
            "assert suite_prop_adm('A1', [6])['ok']; assert suite_lemma31('B3')['ok']; "
            "print('numpy.ma' in sys.modules)")
    assert _run_with_src(code).splitlines()[-1] == "False"


def test_bench_tracer_still_wraps_the_weight_table():
    # the benchmark's tracer wraps qbg.reachable_weight_table by name; the
    # suite reads reachable_weights and leaves the wrapper's count at 0, and
    # a direct call through the wrapper still counts its states.  A
    # subprocess, so that no other test sees the patched modules.
    code = """
import sys
sys.path.insert(0, 'bench')
import tracer
from wqbg import qbg, verify
from wqbg.coxeter import get_group
rec = tracer.Recorder()
tracer.install(rec)
assert verify.suite_prop_adm('A1', [6])['ok']
graph = qbg.build_qbg(get_group('A2'))
assert qbg.exists_path_with_weight(graph, 0, 0, (1, 0))
layer = tracer.per_layer(rec)
print(layer['qbg.reachable_weight_table.s'], layer['qbg.reachable_weight_table.states'])
table = qbg.reachable_weight_table(graph, 0, (1, 1))
print(tracer.per_layer(rec)['qbg.reachable_weight_table.states'],
      sum(len(v) for v in table.values()))
"""
    first, second = _run_with_src(code).splitlines()[-2:]
    assert first == "0.0 0"
    states, cells = second.split()
    assert states == cells and int(cells) > 0


def test_prop_adm_records_uncertified_probes():
    # boundary-depth probe: the suite reports how many triples carried a
    # certified hypothesis; the uncertified remainder agreed empirically here
    rep = suite_prop_adm("A1", [6])
    assert rep["ok"]
    assert rep["certified"] < rep["triples"]
    assert rep["certified_agreements"] == rep["certified"]


def test_prop_adm_reports_disagreements_in_triple_order(monkeypatch):
    # a QBG side whose weights wt(x, v) are all 3 alpha^vee too heavy
    # disagrees with the oracle; the report counts it and lists the first ten
    # failures in (lam, y, x) order, as the per-triple loop did.  On A1 the
    # pair x = s, y = e has wt 1 and the other three wt 0, and lam = mu - m
    # alpha^vee; the forged side answers m >= wt + 3 where the oracle answers
    # m >= wt (it lacks only x = s, y = e at m = 0).  So the failures are
    # the pairs with wt <= m < wt + 3: 3 at m = 0, 4 at m = 1 and m = 2, and
    # x = s, y = e at m = 3, all of them certified; lam = 0 at m = 6 takes
    # y = e alone, and (*) is certified for m <= 4, 20 triples.
    orig = qbg_mod.weight_blocks

    def too_heavy(graph, D):
        for sources, wt, unique, dominated in orig(graph, D):
            yield sources, wt + 3, unique, dominated

    monkeypatch.setattr(qbg_mod, "weight_blocks", too_heavy)
    rep = suite_prop_adm("A1", [6])
    assert not rep["ok"]
    assert (rep["triples"], rep["members"], rep["agreements"]) == (26, 25, 14)
    assert (rep["certified"], rep["certified_agreements"]) == (20, 8)
    failures = [(f["x"], f["lam"], f["y"], f["oracle"], f["qbg"], f["star"])
                for f in rep["failures"]]
    assert failures == [
        ("", (6,), "", True, False, True), ("", (6,), "1", True, False, True),
        ("1", (6,), "1", True, False, True), ("", (5,), "", True, False, True),
        ("1", (5,), "", True, False, True), ("", (5,), "1", True, False, True),
        ("1", (5,), "1", True, False, True), ("", (4,), "", True, False, True),
        ("1", (4,), "", True, False, True), ("", (4,), "1", True, False, True),
    ]


def _report(suite, label, mu):
    """The suite's report without its timing, or the error it raised."""
    try:
        rep = suite(label, mu)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return {k: v for k, v in rep.items() if k != "elapsed_ms"}


@pytest.mark.parametrize("label, mu", [
    ("A1", [6]), ("A1", [7]), ("A1", [8]), ("A2", [14, 14]), ("G2", [6, 10]), ("B2", [36, 27]),
])
def test_kept_admissible_set_leaves_the_reports_unchanged(label, mu):
    g = get_group(label)
    g._affine = None
    kept = [_report(verify.suite_prop_adm, label, mu)]
    adm = g._affine._adm[1]
    kept.append(_report(verify.suite_prop44, label, mu))
    # prop44 read the set prop-adm built (G2's mu fails superregularity first)
    assert g._affine._adm[1] is adm
    fresh = []
    for suite in (verify.suite_prop_adm, verify.suite_prop44):
        g._affine = None  # each call builds its own affine group and set
        fresh.append(_report(suite, label, mu))
    assert kept == fresh


def test_exact_path_search_vs_weight_dominance(graph_of):
    """Open-question probe: is the achievable-weight set upward closed?

    The implication 'a path of weight exactly c exists => wt(x,y) <= c' is a
    theorem (all path weights dominate the shortest-path weight) and is
    asserted.  The converse is only recorded: the probe counts disagreements
    instead of assuming the equivalence.
    """
    for label in ("A2", "B2"):
        q = graph_of(label)
        wt_table = {x: shortest_weights_from(q, x)[1] for x in range(q.n)}
        converse_failures = 0
        checked = 0
        budgets = [(a, b) for a in range(3) for b in range(3)]
        for x in range(q.n):
            for y in range(q.n):
                wmin = q.decode_weight(int(wt_table[x][y]))
                for c in budgets:
                    has_path = exists_path_with_weight(q, x, y, c)
                    dominated = all(a <= b for a, b in zip(wmin, c))
                    if has_path:
                        assert dominated  # proven direction
                    elif dominated:
                        converse_failures += 1
                    checked += 1
        # recorded, not asserted: zero failures here would support (but not
        # prove) upward closedness; a positive count is a genuine phenomenon
        print(f"{label}: {converse_failures}/{checked} converse gaps")


@pytest.mark.parametrize("label", ALL_PAIRS_TYPES)
def test_every_vertex_has_a_two_cycle_of_each_simple_coroot(label):
    # the half of the cone that exists_path_with_weight adds to Lemma 3.1:
    # for every w and simple i, w -> w s_i and w s_i -> w are both edges, one
    # up of weight 0, the other down of weight alpha_i^vee
    graph = qbg_mod.build_qbg(get_group(label))
    group = graph.group
    table = group.enumerate()
    n = graph.n
    own = np.arange(n)
    tails = np.repeat(own, np.diff(graph.out_ptr))
    # the edges are sorted by the unique key tail * n + head
    key = tails * n + graph.out_dst
    weight = graph.weight_enc[graph.out_root] * graph.out_kind
    for i, s in enumerate(group.gens):
        ws = table.lookup(table.mat[:, np.abs(s.images) - 1] * np.sign(s.images))
        there, back = (np.searchsorted(key, t * n + h) for t, h in ((own, ws), (ws, own)))
        for e, t, h in ((there, own, ws), (back, ws, own)):
            assert (e < len(key)).all() and (key[e] == t * n + h).all(), (label, i)
        up = np.where(graph.out_kind[there] == 0, there, back)
        down = np.where(graph.out_kind[there] == 0, back, there)
        assert (graph.out_kind[up] == 0).all() and (graph.out_kind[down] == 1).all()
        assert (table.lengths[graph.out_dst[up]] == table.lengths[tails[up]] + 1).all()
        assert (graph.out_root[up] == i).all() and (graph.out_root[down] == i).all()
        assert (weight[up] == 0).all()
        coroot = tuple(int(j == i) for j in range(group.rank))
        assert {graph.decode_weight(int(w)) for w in weight[down]} == {coroot}, (label, i)


def test_exact_weight_search_holds_nothing_n_by_n():
    # the path criterion reads weights; the graph keeps no n x n closure
    graph = qbg_mod.build_qbg(get_group("B2"))
    assert suite_prop_adm("B2", [5, 4])["ok"]
    for x, y, budget in ((0, 7, (0, 0)), (7, 0, (1, 1)), (3, 5, (2, 1))):
        exists_path_with_weight(graph, x, y, budget)
    held = [(name, a) for name, v in vars(graph).items()
            for a in (v if isinstance(v, tuple) else (v,))]
    assert not [name for name, a in held if isinstance(a, np.ndarray) and a.size == graph.n ** 2]


def test_cli_verify_reports_deterministic(capsys):
    def run(argv):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("elapsed_ms")
        if isinstance(doc["result"], dict):
            doc["result"].pop("elapsed_ms", None)
        return doc

    argv = ["verify", "prop-adm", "--type", "A1", "--mu", "7"]
    assert run(argv) == run(argv)
    argv = ["qbg", "export", "--type", "A2"]
    assert run(argv) == run(argv)


def test_cli_qbg_export_tsv(capsys):
    assert main(["--format", "tsv", "qbg", "export", "--type", "A1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert sorted(out) == sorted(["e\t1\tup\t0", "1\te\tdown\t1"])


# ---------------------------------------------------------------------------
# the whole-array suites against per-source reference loops


def _reference_lemma31(label, samples, seed, all_weights):
    """suite_lemma31 as it was written one source at a time, over whole
    arrays."""
    group = get_group(label)
    graph = qbg_mod.build_qbg(group)
    all_dist, all_wt, unique, dominated = all_weights(graph)
    table = group.enumerate()
    inv = table.inverses()
    lengths = table.lengths.astype(np.int64)
    lw0 = group.longest_element().length()
    n, rank = graph.n, group.rank
    signs = np.where(table.mat > 0, 1, -1)
    cols = np.abs(table.mat) - 1

    def digit_sums(wt):
        v, s = wt.copy(), np.zeros_like(wt)
        for _ in range(rank):
            s += v % 256
            v //= 256
        return s

    bad = []
    identities_ok = dominance_ok = True
    for x in range(n):
        dist, wt = all_dist[x], all_wt[x]
        if (dist < 0).any():
            bad.append(("not strongly connected", x))
            break
        if not unique[x]:
            bad.append(("non-unique shortest weight from", x))
        ds = digit_sums(wt)
        if not (lengths == lengths[x] - 2 * ds + dist).all():
            identities_ok = False
            bad.append(("length identity fails from", x))
        if not (ds <= lw0).all():
            identities_ok = False
            bad.append(("<wt, rho> exceeds l(w0) from", x))
        linv = (signs * table.mat[inv[x]][cols] < 0).sum(axis=1)
        if not (dist <= linv).all():
            identities_ok = False
            bad.append(("d exceeds l(x^-1 y) from", x))
        if not dominated[x]:
            dominance_ok = False
            bad.append(("an edge undercuts wt(x, .) from", x))

    accepted, below = _reference_walk(graph, all_dist, all_wt, lw0, samples, seed)
    bad.extend(below)
    dominance_ok = dominance_ok and not below
    return dict(suite="lemma31", type=label, pairs=n * n,
                edges_checked=n * graph.n_edges(), sampled_paths=accepted,
                identities_ok=identities_ok, dominance_ok=dominance_ok,
                ok=not bad, failures=bad[:10])


def _reference_walk(graph, all_dist, all_wt, lw0, samples, seed):
    """``verify._sampled_walks`` and ``verify._walks_below`` one walk at a
    time, each from its own row of the randbytes stream: returns (accepted,
    failures)."""
    rng = random.Random(seed)
    width = 2 * lw0 + 3
    coroots = graph.group.rs.coroot_matrix.tolist()
    accepted = tries = 0
    failures = []
    while accepted < samples and tries < samples * 50:
        tries += 1
        words = struct.unpack(f"<{width}I", rng.randbytes(4 * width))
        x = words[0] * graph.n >> 32
        steps = 1 + (words[1] * (2 * lw0 + 1) >> 32)
        v = x
        wacc = [0] * graph.group.rank
        for j in range(steps):
            dsts, kinds, roots = graph.out_edges(v)
            k = words[2 + j] * len(dsts) >> 32
            if kinds[k]:
                wacc = [a + c for a, c in zip(wacc, coroots[roots[k]])]
            v = int(dsts[k])
        if steps <= all_dist[x, v]:
            continue
        accepted += 1
        wmin = graph.decode_weight(int(all_wt[x, v]))
        if not all(a >= b for a, b in zip(wacc, wmin)):
            failures.append(("path weight below wt(x,y)", x, v, tuple(wacc), wmin))
    return accepted, failures


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_array_walk_draws_the_reference_walks(all_weights, label):
    # every target made 100 heavier in its first coordinate: each accepted
    # walk fails, and the failures list every walk the suite took
    graph = qbg_mod.build_qbg(get_group(label))
    all_dist, all_wt, _, _ = all_weights(graph)
    lw0 = get_group(label).longest_element().length()
    for seed in (1, 7):
        x, v, acc = verify._sampled_walks(graph, all_dist, lw0, 300, seed)
        walks = len(x), verify._walks_below(x, v, acc, all_wt[x, v] + 100)
        assert walks[0] == len(walks[1]) == 300
        assert walks == _reference_walk(graph, all_dist, all_wt + 100, lw0, 300, seed)


def _reference_lemma43(label, sigma_perm):
    """suite_lemma43 as it was written one source at a time."""
    group = get_group(label)
    sigma = (identity_automorphism(group) if sigma_perm is None
             else Automorphism(group, tuple(sigma_perm)))
    graph = qbg_mod.build_qbg(group)
    all_dist = qbg_mod.all_pairs(graph)
    table = group.enumerate()
    inv = table.inverses()
    siginv_mat = sigma.inverse().apply_many(table.mat)
    w0img = group.longest_element().images
    overall = restricted = None
    for x in range(graph.n):
        xrow = table.mat[x]
        prod = siginv_mat[:, np.abs(xrow) - 1] * np.sign(xrow)
        vals = (prod < 0).sum(axis=1) - all_dist[x].astype(np.int64)[inv]
        m = int(vals.max())
        overall = m if overall is None else max(overall, m)
        at_w0 = (prod == w0img).all(axis=1)
        if at_w0.any():
            mr = int(vals[at_w0].max())
            restricted = mr if restricted is None else max(restricted, mr)
    return dict(suite="lemma43", type=label, sigma=sigma.one_line(),
                overall_max=overall, max_at_w0=restricted,
                ok=overall == restricted)


def _inv_length(table, x, y):
    """l(x^{-1} y) by composing the rows of x^{-1} and y."""
    xinv = table.mat[table.inverses()[x]]
    yrow = table.mat[y]
    return int((xinv[np.abs(yrow) - 1] * np.sign(yrow) < 0).sum())


def _forge_not_reached(group, D, wt, unique, dominated):
    D[7, 3] = -1
    # after the stop: must not be reported
    D[9, 1] += 1


def _forge_weight(group, D, wt, unique, dominated):
    wt[2, 5] += 1
    # digit 0 pushed above l(w0): <wt, rho> exceeds it
    wt[6, 4] += group.longest_element().length() + 1


def _forge_unique(group, D, wt, unique, dominated):
    unique[3] = False


def _forge_above_inv_length(group, D, wt, unique, dominated):
    D[4, 11] = _inv_length(group.enumerate(), 4, 11) + 1


def _forge_dominated(group, D, wt, unique, dominated):
    dominated[5] = False


def _forge_all(group, D, wt, unique, dominated):
    for forge in (_forge_weight, _forge_unique, _forge_above_inv_length,
                  _forge_dominated, _forge_not_reached):
        forge(group, D, wt, unique, dominated)
    # two failures of one source come in the reference's order
    unique[2] = False
    dominated[4] = False
    # after the stop: must not be reported
    dominated[8] = False


@pytest.mark.parametrize("forge", [_forge_not_reached, _forge_weight, _forge_unique,
                                   _forge_above_inv_length, _forge_dominated, _forge_all])
@pytest.mark.parametrize("label", ["A3", "B3"])
def test_lemma31_failures_match_per_source_reference(monkeypatch, all_weights, label, forge):
    # the forged arrays are joined from the real stream and handed out again
    # as D and blocks of five sources, which divides neither 24 nor 48
    group = get_group(label)
    D, wt, unique, dominated = (a.copy() for a in all_weights(qbg_mod.build_qbg(group)))
    forge(group, D, wt, unique, dominated)
    blocks = [slice(s0, min(len(D), s0 + 5)) for s0 in range(0, len(D), 5)]
    monkeypatch.setattr(verify.qbg_mod, "all_pairs", lambda graph: D)
    monkeypatch.setattr(verify.qbg_mod, "weight_blocks", lambda graph, dist: (
        (s, wt[s], unique[s], dominated[s]) for s in blocks))
    for seed in (1, 7):
        rep = suite_lemma31(label, samples=300, seed=seed)
        rep.pop("elapsed_ms")
        assert rep == _reference_lemma31(label, 300, seed, all_weights)
        assert not rep["ok"]
    kinds = {f[0] for f in rep["failures"]}
    expect = {
        _forge_not_reached: {"not strongly connected"},
        _forge_unique: {"non-unique shortest weight from"},
        _forge_above_inv_length: {"d exceeds l(x^-1 y) from"},
        _forge_dominated: {"an edge undercuts wt(x, .) from"},
        _forge_weight: {"length identity fails from", "<wt, rho> exceeds l(w0) from"},
    }.get(forge, set())
    assert expect <= kinds, rep
    if forge is _forge_not_reached:
        # the checks stop at source 7: source 9's forged distance is not seen
        assert rep["failures"][-1] == ("not strongly connected", 7)
        assert rep["identities_ok"]
    if forge is _forge_dominated:
        assert not rep["dominance_ok"] and rep["identities_ok"]


@pytest.mark.parametrize("label,sigma", [("A3", None), ("A3", (2, 1, 0)),
                                         ("B3", None), ("D4", (2, 1, 3, 0))])
def test_lemma43_matches_per_source_reference(monkeypatch, label, sigma):
    assert suite_lemma43(label, sigma)["ok"]
    real = qbg_mod.all_pairs
    n = len(get_group(label).enumerate())
    # a maximum away from w0, and a larger value at the pair (w0, e), which
    # is at w0 (x = sigma^{-1}(z) w0 with z = e)
    for pair, drop, ok in (((5, n - 3), 20, False), ((n - 1, 0), 2, True)):
        def forged(graph):
            D = real(graph).copy()
            D[pair] -= drop
            return D

        monkeypatch.setattr(verify.qbg_mod, "all_pairs", forged)
        rep = suite_lemma43(label, sigma)
        rep.pop("elapsed_ms")
        assert rep == _reference_lemma43(label, sigma)
        assert rep["ok"] is ok, rep


@pytest.mark.parametrize("label", ["A4", "B3", "D4", "G2", "F4"])
def test_inversion_set_popcount_is_length_of_quotient(label):
    table = get_group(label).enumerate()
    sets = verify._inversion_sets(table)
    lengths = verify._quotient_lengths(sets[:, None], sets)
    inv = table.inverses()
    signs, cols = np.sign(table.mat), np.abs(table.mat) - 1
    for x in range(len(table)):
        # row of x^{-1} y for every y, by composing rows
        direct = (table.mat[inv[x]][cols] * signs < 0).sum(axis=1)
        assert (lengths[x] == direct).all(), x
    assert (lengths[0] == table.lengths).all()
