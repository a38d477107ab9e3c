"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is exact; the stated time budgets are asserted with
``time.perf_counter`` around the relevant block only.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from wqbg.affine import AffineWeylGroup
from wqbg.cache import load_cache, save_cache
from wqbg.cartan import Coweight
from wqbg.coxeter import (
    Automorphism,
    CoxeterGroup,
    build_witness,
    check_witness_table_row,
    diagram_automorphisms,
    get_group,
    identity_automorphism,
    lr_class_of_longest,
)
from wqbg.dimension import d_adm_bruteforce, d_adm_formula, dim_x, verify_theorem_52, virtual_dimension
from wqbg.newton import basic_class, gln_classes, gln_classes_bruteforce, is_neutrally_acceptable, make_class
from wqbg.qbg import NotCrystallographic, build_qbg, distances_from
from wqbg.verify import (
    SMALL_WEYL_TYPES,
    THEOREM_TYPES,
    suite_lemma31,
    suite_prop44,
    suite_prop_adm,
    suite_prop_cover,
    suite_thm61,
)

REFLECTION_TABLE = {
    **{f"A{n}": -(-n // 2) for n in range(1, 8)},
    **{f"B{n}": n for n in range(2, 5)},
    "C3": 3,
    **{f"D{n}": 2 * (n // 2) for n in range(4, 7)},
    "E6": 4, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "H3": 3, "H4": 4,
    **{f"I{m}": (2 if m % 2 == 0 else 1) for m in range(3, 13)},
}


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_reflection_length_table():
    t0 = time.perf_counter()
    results = {}
    for label, expected in REFLECTION_TABLE.items():
        g = get_group(label)
        results[label] = g.reflection_length(g.longest_element()) == expected
    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and elapsed < 1.0
    _line(1, ok, f"l_R(w0) table over {len(results)} types, exact, {elapsed:.2f}s (< 1 s)")


# shared across criteria 2 (and reused for per-type timing assertions)
_THM52_TIMES = {}


def test_criterion_02_theorem_explicit_enumeration():
    rows = []
    ok = True
    for label in THEOREM_TYPES:
        g = get_group(label)
        t0 = time.perf_counter()
        for sigma in diagram_automorphisms(g):
            rep = verify_theorem_52(label, sigma.perm)
            rows.append(rep)
            ok = ok and rep["equal"] and rep["method"] == "enumeration"
        _THM52_TIMES[label] = time.perf_counter() - t0
    ok = ok and _THM52_TIMES["E6"] < 600 and _THM52_TIMES["H4"] < 30
    covered = {r["type"] for r in rows}
    ok = ok and {"A7", "D4", "D6", "E6", "F4", "H4", "I12"} <= covered
    _line(
        2, ok,
        f"three quantities equal on {len(rows)} (type, sigma) pairs; "
        f"E6 {_THM52_TIMES['E6']:.1f}s (< 600), H4 {_THM52_TIMES['H4']:.1f}s (< 30)",
    )


def test_criterion_03_witness_path_e7_e8():
    t0 = time.perf_counter()
    ok = True
    for label, expected in [("E7", 7), ("E8", 8)]:
        rep = verify_theorem_52(label)
        ok = ok and rep["method"] == "witness-sandwich"
        ok = ok and rep["lhs"] == rep["lR_class"] == expected and rep["equal"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(3, ok, f"E7/E8 witness sandwich (Bruhat + Carter), {elapsed:.1f}s (< 60 s)")


def test_criterion_04_witness_table_rows():
    rows = (
        [f"A{n}" for n in range(2, 8)]
        + [f"B{n}" for n in range(2, 7)]
        + ["D4", "D5", "D6", "E6", "F4", "G2", "H3", "H4"]
        + [f"I{m}" for m in range(5, 13)]
    )
    ok = True
    for label in rows:
        rep = check_witness_table_row(label)
        ok = ok and rep["ok"]

    # closed-form twisted witnesses pass their defining assertions
    d4 = get_group("D4")
    x = build_witness(d4, Automorphism(d4, (2, 1, 3, 0)))
    ok = ok and x == d4.element_from_word("4 3 1 2 1")

    f4 = get_group("F4")
    x = build_witness(f4, Automorphism(f4, (3, 2, 1, 0)))
    ok = ok and x == f4.element_from_word("2 1 3 2 4 3 2 1 3 2 4 3")

    flip = Automorphism(d4, (0, 1, 3, 2))
    lit = d4.element_from_word("1 3 2 1 3")
    ok = ok and d4.bruhat_leq(lit, flip.apply(lit) * d4.longest_element())
    ok = ok and d4.n_pos - 2 * lit.length() == lr_class_of_longest(d4, flip)

    for m in (4, 6, 8, 10, 12):
        g = get_group(f"I{m}")
        fl = Automorphism(g, (1, 0))
        lit = g.element_from_word([1 if i % 2 == 0 else 2 for i in range(m // 2)])
        ok = ok and g.bruhat_leq(lit, fl.apply(lit) * g.longest_element())
        ok = ok and g.n_pos - 2 * lit.length() == lr_class_of_longest(g, fl) == 0

    _line(4, ok, f"induction-step conditions on {len(rows)} rows + twisted closed forms")


def test_criterion_05_admissible_oracle_equivalence():
    t0 = time.perf_counter()
    reps = [suite_prop_adm("A1", [m]) for m in (6, 7, 8)]
    a1_elapsed = time.perf_counter() - t0
    ok = all(r["ok"] for r in reps) and a1_elapsed < 1.0

    t1 = time.perf_counter()
    rep_a2 = suite_prop_adm("A2", [14, 14])
    rep_b2 = suite_prop_adm("B2", [36, 27])  # depth 18 = 4 l(w0) + 2 exactly
    heavy_elapsed = time.perf_counter() - t1
    ok = ok and rep_a2["ok"] and rep_b2["ok"] and heavy_elapsed < 600
    _line(
        5, ok,
        f"QBG criterion == brute force on A1 ({a1_elapsed:.2f}s < 1 s), "
        f"A2 ({rep_a2['triples']} triples), B2 ({rep_b2['triples']} triples); "
        f"A2+B2 {heavy_elapsed:.0f}s (< 600 s)",
    )


def test_criterion_06_covering_families():
    ok = True
    checked = 0
    for label in ("A2", "B2", "G2"):
        rep = suite_prop_cover(label)
        ok = ok and rep["ok"]
        checked += rep["elements_checked"]
    _line(6, ok, f"cover families == brute-force covers on {checked} rank-2 elements")


_LEMMA31 = {}


def _lemma31_results():
    if not _LEMMA31:
        for label in SMALL_WEYL_TYPES:
            _LEMMA31[label] = suite_lemma31(label, samples=1000)
    return _LEMMA31


def test_criterion_07_shortest_path_weights():
    results = _lemma31_results()
    ok = all(r["ok"] and r["dominance_ok"] for r in results.values())
    ok = ok and all(r["sampled_paths"] == 1000 for r in results.values())
    pairs = sum(r["pairs"] for r in results.values())
    _line(7, ok, f"unique shortest weights over {pairs} pairs + 1000 sampled paths/type")


def test_criterion_08_length_identities():
    results = _lemma31_results()
    ok = all(r["identities_ok"] for r in results.values())
    _line(8, ok, f"4.2(a)/(b) identities exact over {len(results)} types")


def test_criterion_09_formula_vs_bruteforce():
    a1 = get_group("A1").rs
    reps = [suite_prop44("A1", [m]) for m in (6, 7, 8)]
    a2rs = get_group("A2").rs
    mu = a2rs.coweight([14, 14])
    classes = [
        make_class(a2rs, mu.coords, 0),          # nu = mu
        basic_class(a2rs, mu, defect=0),          # nu = 0
        basic_class(a2rs, mu, defect=2),          # nu = 0, declared defect
    ]
    reps.append(suite_prop44("A2", [14, 14], classes))
    ok = all(r["ok"] for r in reps)
    n = sum(len(r["rows"]) for r in reps)
    _line(9, ok, f"d_adm closed formula == brute force on {n} (mu, b) instances")


def test_criterion_10_main_theorem_consistency():
    # same instances as criterion 9; dim_x asserts internally that the value,
    # the QBG formula, and the explicit maximizer's virtual dimension agree
    ok = True
    gates_passed = 0
    a1 = get_group("A1")
    sid1 = identity_automorphism(a1)
    for m in (6, 7, 8):
        mu = a1.rs.coweight([m])
        rep = dim_x(a1, mu, basic_class(a1.rs, mu), sid1)
        ok = ok and rep.value == m
        gates_passed += 1

    a2 = get_group("A2")
    sid2 = identity_automorphism(a2)
    mu = a2.rs.coweight([14, 14])
    for b in (basic_class(a2.rs, mu, 0), basic_class(a2.rs, mu, 2)):
        rep = dim_x(a2, mu, b, sid2)
        ok = ok and rep.value is not None and all(rep.preconditions.values())
        gates_passed += 1
    # nu = mu fails the dominance margin: value must be withheld, not fudged
    rep = dim_x(a2, mu, make_class(a2.rs, mu.coords, 0), sid2)
    ok = ok and rep.value is None and rep.witnesses["failed"] == ["mazur_margin"]
    _line(10, ok, f"dim value == formula == maximizer d_w on {gates_passed} gated instances")


def test_criterion_11_newton_helper():
    # counts frozen from the two independent polygon enumerations, which are
    # cross-checked against each other here
    ok = True
    for mu, expected in [((1, 0), 2), ((1, 1, 0, 0), 5)]:
        cls = gln_classes(mu)
        brute = gln_classes_bruteforce(mu)
        ok = ok and sorted(c.newton for c in cls) == sorted(brute)
        ok = ok and len(cls) == expected
    cls4 = {c.newton: c.defect for c in gln_classes((1, 1, 0, 0))}
    half, third = Fraction(1, 2), Fraction(1, 3)
    ok = ok and cls4[(1, 1, 0, 0)] == 0
    ok = ok and {(1, half, half, 0), (half,) * 4, (1, third, third, third),
                 (Fraction(2, 3),) * 3 + (0,)} <= set(cls4)
    _line(
        11, ok,
        "B(GL2,(1,0)) has 2 classes, B(GL4,(1,1,0,0)) has 5 "
        "(dual enumeration oracles agree; the derived count supersedes the "
        "handwritten 4)",
    )


def test_criterion_12_performance_floor(tmp_path):
    t0 = time.perf_counter()
    # a fresh instance, so that enumeration and the build fall inside the timing
    f4 = CoxeterGroup.from_label("F4")
    table = f4.enumerate()
    graph = build_qbg(f4)
    for x in range(graph.n):
        d = distances_from(graph, x)
        assert (d >= 0).all()
    f4_elapsed = time.perf_counter() - t0
    ok = f4_elapsed < 10

    t1 = time.perf_counter()
    h4 = get_group("H4")
    h4_table = h4.enumerate()
    assert len(h4_table) == 14400
    with pytest.raises(NotCrystallographic):
        build_qbg(h4)  # no quantum Bruhat graph without coroots
    h4_elapsed = time.perf_counter() - t1
    ok = ok and h4_elapsed < 300

    path = tmp_path / "F4.wqbg"
    save_cache(path, f4, graph)
    _, table2, graph2 = load_cache(path)
    ok = ok and np.array_equal(table2.mat, table.mat) and table2.mat.dtype == table.mat.dtype
    for name in ("out_ptr", "out_dst", "out_kind", "out_root",
                 "in_ptr", "in_src", "in_kind", "in_root", "weight_enc"):
        a, b = getattr(graph, name), getattr(graph2, name)
        ok = ok and a.dtype == b.dtype and np.array_equal(a, b)
    _line(
        12, ok,
        f"F4 group+QBG+all-pairs {f4_elapsed:.1f}s (< 10 s); H4 build "
        f"{h4_elapsed:.1f}s (< 300 s, QBG correctly refused); cache bit-identical",
    )
