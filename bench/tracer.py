"""Spans and counts around wqbg's public functions, installed from outside.

``install`` wraps each traced function under every name its callers look it
up by: the attribute of its own module, the names other ``wqbg`` modules
imported it under, and the ``verify.SUITES`` table.  Methods are patched on
their classes.  Private helpers are left alone, so their time lands in the
self time of the public function that calls them.

A span is (name, start, end, parent index).  Spans stay in memory until the
run ends; ``per_layer`` then turns them into self times (a span's duration
minus that of its wrapped children) and adds the counts read from return
values.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._tables: list = []  # strong refs, so ids of seen tables stay unique

    def wrap(self, name, fn, count=None, span=True):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                out = fn(*args, **kwargs)
            else:
                idx = len(rec.spans)
                entry = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
                rec.spans.append(entry)
                rec.stack.append(idx)
                entry[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    entry[2] = perf_counter()
                    rec.stack.pop()
            if count is not None:
                count(rec.counts, out, args)
            return out

        return traced

    def new_table_rows(self, counts, table, args):
        if not any(t is table for t in self._tables):
            self._tables.append(table)
            counts["coxeter.enumerate.rows"] += len(table)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent in self.spans:
                f.write(json.dumps([name, t0, t1, parent]) + "\n")


def _inc(*pairs):
    """Add, per (key, by) pair, by(result, args) to the count, or 1 if by is None."""
    def count(counts, out, args):
        for key, by in pairs:
            counts[key] += 1 if by is None else by(out, args)
    return count


def _rebind(modules, orig, wrapped) -> None:
    """Point every module-level name bound to ``orig`` at the wrapper."""
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, name, wrapped)


def install(rec: Recorder) -> None:
    from wqbg import affine, cache, cartan, cli, coxeter, dimension, newton, qbg, verify

    modules = [m for n, m in sys.modules.items() if n == "wqbg" or n.startswith("wqbg.")]

    def fn(owner, attr, name, count=None, span=True):
        orig = getattr(owner, attr)
        _rebind(modules, orig, rec.wrap(name, orig, count, span))

    def method(cls, attr, name, count=None):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), count))

    fn(cartan, "build_root_system", "cartan.build_root_system")
    method(coxeter.CoxeterGroup, "enumerate", "coxeter.enumerate", rec.new_table_rows)
    fn(coxeter, "max_length_twisted_coset", "coxeter.max_length_twisted_coset")
    fn(coxeter, "lr_class_of_longest", "coxeter.lr_class_of_longest")

    fn(qbg, "build_qbg", "qbg.build_qbg",
       _inc(("qbg.build_qbg.calls", None),
                 ("qbg.build_qbg.edges", lambda g, a: g.n_edges())))
    fn(qbg, "min_twisted_distance", "qbg.min_twisted_distance",
       _inc(("qbg.min_twisted_distance.calls", None)))
    # counted only: its time stays in the caller's self time
    fn(qbg, "qbg_distance", "qbg.qbg_distance", _inc(("qbg.qbg_distance.calls", None)), span=False)
    fn(qbg, "distances_from", "qbg.bfs", _inc(("qbg.bfs.sources", None)))
    fn(qbg, "shortest_weights_from", "qbg.bfs", _inc(("qbg.bfs.sources", None)))
    fn(qbg, "reachable_weight_table", "qbg.reachable_weight_table",
       _inc(("qbg.reachable_weight_table.states",
             lambda t, a: sum(len(s) for s in t.values()))))

    aw = affine.AffineWeylGroup
    method(aw, "covers", "affine.covers",
           _inc(("affine.covers.calls", None),
                     ("affine.covers.generated", lambda out, a: len(out))))
    method(aw, "admissible_oracle", "affine.admissible_oracle",
           _inc(("affine.admissible_oracle.calls", None),
                     ("affine.oracle_elements", lambda out, a: len(out))))
    method(aw, "decompose_minimal_coset", "affine.decompose_minimal_coset")

    fn(newton, "mazur_margin", "newton.mazur_margin")
    fn(dimension, "dim_x", "dimension.dim_x")
    fn(dimension, "d_adm_bruteforce", "dimension.d_adm_bruteforce")
    fn(dimension, "virtual_dimension", "dimension.virtual_dimension")

    report_counts = _inc(("verify.triples", lambda r, a: r.get("triples", 0)),
                              ("verify.pairs", lambda r, a: r.get("pairs", 0)))
    for key, suite in list(verify.SUITES.items()):
        wrapped = rec.wrap("verify.suite", suite, report_counts)
        _rebind(modules, suite, wrapped)
        verify.SUITES[key] = wrapped

    fn(cli, "main", "cli.main")
    fn(cache, "save_cache", "cache.save_cache",
       _inc(("cache.bytes", lambda out, a: os.path.getsize(a[0]))))
    fn(cache, "load_cache", "cache.load_cache")


# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("cartan.build_root_system.s", "s", "lower"),
    ("coxeter.enumerate.s", "s", "lower"),
    ("coxeter.enumerate.rows", "count", "lower"),
    ("coxeter.max_length_twisted_coset.s", "s", "lower"),
    ("coxeter.lr_class_of_longest.s", "s", "lower"),
    ("qbg.build_qbg.s", "s", "lower"),
    ("qbg.build_qbg.calls", "count", "lower"),
    ("qbg.build_qbg.edges", "count", "lower"),
    ("qbg.min_twisted_distance.s", "s", "lower"),
    ("qbg.min_twisted_distance.calls", "count", "lower"),
    ("qbg.qbg_distance.calls", "count", "lower"),
    ("qbg.bfs.s", "s", "lower"),
    ("qbg.bfs.sources", "count", "lower"),
    ("qbg.reachable_weight_table.s", "s", "lower"),
    ("qbg.reachable_weight_table.states", "count", "lower"),
    ("affine.covers.s", "s", "lower"),
    ("affine.covers.calls", "count", "lower"),
    ("affine.covers.generated", "count", "lower"),
    ("affine.admissible_oracle.s", "s", "lower"),
    ("affine.admissible_oracle.calls", "count", "lower"),
    ("affine.oracle_elements", "count", "lower"),
    ("affine.decompose_minimal_coset.s", "s", "lower"),
    ("newton.mazur_margin.s", "s", "lower"),
    ("dimension.dim_x.s", "s", "lower"),
    ("dimension.d_adm_bruteforce.s", "s", "lower"),
    ("dimension.virtual_dimension.s", "s", "lower"),
    ("verify.suite.s", "s", "lower"),
    ("verify.triples", "count", "higher"),
    ("verify.pairs", "count", "higher"),
    ("cli.main.s", "s", "lower"),
    ("cache.save_cache.s", "s", "lower"),
    ("cache.load_cache.s", "s", "lower"),
    ("cache.bytes", "count", "lower"),
]


def per_layer(rec: Recorder) -> dict[str, float]:
    selfs = rec.self_times()
    out = {}
    for metric, unit, _ in PER_LAYER:
        if unit == "s":
            out[metric] = selfs.get(metric[:-2], 0.0)
        else:
            out[metric] = rec.counts.get(metric, 0)
    return out
