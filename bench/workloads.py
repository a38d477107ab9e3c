"""The three workloads: their inputs, how each operation calls wqbg, and its check.

A workload is a list of operations.  Each operation carries its inputs and
the answer expected from ``oracle`` (computed without wqbg).  ``execute``
calls the program; ``check`` compares what came back with the expectation
and returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("dim-sweep", "adm-oracle", "qbg-allpairs")

DIM_SWEEP_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
                   "D4", "D5", "G2", "F4", "E6"]
# wqbg.verify.SMALL_WEYL_TYPES at the time the benchmark was defined, plus D5
QBG_ALLPAIRS_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3",
                      "D4", "F4", "G2", "D5"]
ADM_ORACLE_TYPES = ["A1", "A2", "G2"]
LEMMA31_SAMPLES = 1000
# mu = (c + 1 + r) 2 rho^vee for the second dim-sweep query, r in [0, R_RANGE)
R_RANGE = 10


@dataclass
class Op:
    kind: str
    label: str
    args: dict
    expect: dict = field(default_factory=dict)

    def name(self) -> str:
        return f"{self.kind} {self.label} {json.dumps(self.args, sort_keys=True)}"


def setup_types(workload: str) -> list[str]:
    return {
        "dim-sweep": DIM_SWEEP_TYPES,
        "adm-oracle": ADM_ORACLE_TYPES,
        "qbg-allpairs": QBG_ALLPAIRS_TYPES,
    }[workload]


def _one_line(perm) -> str:
    return " ".join(str(p + 1) for p in perm)


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    if workload == "dim-sweep":
        first, second = [], []
        for label in DIM_SWEEP_TYPES:
            letter, n = oracle.parse_label(label)
            a = oracle.cartan_matrix(letter, n)
            two_rho = oracle.two_rho_check(a)
            c = oracle.superregular_multiple(letter, n)
            npos = oracle.n_positive_roots(letter, n)
            for perm in oracle.cartan_automorphisms(a):
                lr, _ = oracle.class_lr(label, perm)
                for mult, defect, queue in ((c, 0, first),
                                            (c + 1 + rng.randrange(R_RANGE), 2, second)):
                    mu = tuple(mult * x for x in two_rho)
                    queue.append(Op("dim", label,
                                    dict(mu=list(mu), sigma=_one_line(perm), defect=defect),
                                    dict(value=oracle.closed_form_value(mu, defect, npos, lr),
                                         lR_class=lr, l_w0=npos)))
        # the second pass repeats every (type, sigma) of the first
        return first + second
    if workload == "adm-oracle":
        ops = []
        for label, mu in (("A1", (6,)), ("A1", (7,)), ("A1", (8,)), ("A2", (14, 14))):
            letter, n = oracle.parse_label(label)
            npos = oracle.n_positive_roots(letter, n)
            lr = oracle.carter_lr_w0(letter, n)
            size = oracle.a1_admissible_size(mu[0]) if label == "A1" else None
            ops.append(Op("prop-adm", label, dict(mu=list(mu)), dict(oracle_size=size)))
            ops.append(Op("prop44", label, dict(mu=list(mu)),
                          dict(value=oracle.closed_form_value(mu, 0, npos, lr))))
        ops.append(Op("prop-adm", "G2", dict(mu=[6, 10]), dict(oracle_size=None)))
        return ops
    if workload == "qbg-allpairs":
        ops = []
        for label in QBG_ALLPAIRS_TYPES:
            letter, n = oracle.parse_label(label)
            npos = oracle.n_positive_roots(letter, n)
            order = oracle.weyl_order(letter, n)
            ops.append(Op("lemma31", label, dict(samples=LEMMA31_SAMPLES, seed=seed),
                          dict(pairs=order * order)))
            ops.append(Op("lemma43", label, {},
                          dict(overall_max=npos - oracle.carter_lr_w0(letter, n))))
            for perm in oracle.coxeter_automorphisms(oracle.cartan_matrix(letter, n)):
                lr, _ = oracle.class_lr(label, perm)
                ops.append(Op("thm52", label, dict(sigma=list(perm)),
                              dict(lR_class=lr, l_w0=npos)))
        ops.append(Op("cache", "D5", {}))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# calling the program

def execute(op: Op, out_dir: Path):
    """Run one operation through wqbg and return its raw answer."""
    # imported here so that make_ops runs, untimed, before wqbg is imported
    from wqbg import cache, cli, qbg, verify
    from wqbg.coxeter import get_group

    if op.kind == "dim":
        argv = ["dim", "xmub", "--type", op.label,
                "--mu", ",".join(map(str, op.args["mu"])),
                "--b", "nu=0", f"def={op.args['defect']}",
                "--sigma", op.args["sigma"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return dict(code=code, doc=json.loads(buf.getvalue()) if code == 0 else None)
    if op.kind == "prop-adm":
        return verify.suite_prop_adm(op.label, op.args["mu"])
    if op.kind == "prop44":
        return verify.suite_prop44(op.label, op.args["mu"])
    if op.kind == "lemma31":
        return verify.suite_lemma31(op.label, op.args["samples"], op.args["seed"])
    if op.kind == "lemma43":
        return verify.suite_lemma43(op.label)
    if op.kind == "thm52":
        return verify.suite_thm52(op.label, tuple(op.args["sigma"]))
    if op.kind == "cache":
        group = get_group(op.label)
        graph = qbg.build_qbg(group)
        saved = _arrays(group.enumerate(), graph)
        path = out_dir / f"{op.label}.wqbg"
        try:
            cache.save_cache(path, group, graph)
            _, table, graph2 = cache.load_cache(path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return dict(saved=saved, loaded=_arrays(table, graph2))
    raise ValueError(f"unknown operation kind {op.kind!r}")


_GRAPH_ARRAYS = ("out_ptr", "out_dst", "out_kind", "out_root",
                 "in_ptr", "in_src", "in_kind", "in_root", "weight_enc")


def _arrays(table, graph) -> dict:
    """(dtype, shape, bytes) of the table rows and of every graph array."""
    out = {"table.mat": table.mat}
    if graph is not None:
        out["graph.n"] = graph.n
        for name in _GRAPH_ARRAYS:
            out[f"graph.{name}"] = getattr(graph, name)
    return {k: (str(v.dtype), v.shape, v.tobytes()) if hasattr(v, "dtype") else v
            for k, v in out.items()}


# ---------------------------------------------------------------------------
# checks

def check(op: Op, answer) -> list[str]:
    try:
        return _problems(op, answer)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed answer: {exc!r}"]


def _problems(op: Op, answer) -> list[str]:
    e = op.expect
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if op.kind == "dim":
        need(answer["code"] == 0, f"exit code {answer['code']}")
        if answer["code"] == 0:
            res = answer["doc"]["result"]
            need(Fraction(res["value"]) == e["value"],
                 f"value {res['value']} != {e['value']}")
            need(res["intermediates"].get("lR_class") == e["lR_class"],
                 f"lR_class {res['intermediates'].get('lR_class')} != {e['lR_class']}")
            need(res["intermediates"].get("l_w0") == e["l_w0"],
                 f"l_w0 {res['intermediates'].get('l_w0')} != {e['l_w0']}")
    elif op.kind == "prop-adm":
        need(answer["ok"] is True, "report not ok")
        need(answer["members"] == answer["oracle_size"],
             f"members {answer['members']} != oracle_size {answer['oracle_size']}")
        if e["oracle_size"] is not None:
            need(answer["oracle_size"] == e["oracle_size"],
                 f"oracle_size {answer['oracle_size']} != {e['oracle_size']}")
    elif op.kind == "prop44":
        need(answer["ok"] is True, "report not ok")
        rows = answer["rows"]
        need(len(rows) == 1, f"{len(rows)} rows")
        if rows:
            need(Fraction(rows[0]["bruteforce"]) == e["value"],
                 f"brute-force maximum {rows[0]['bruteforce']} != {e['value']}")
            need(Fraction(rows[0]["formula"]) == e["value"],
                 f"formula {rows[0]['formula']} != {e['value']}")
    elif op.kind == "lemma31":
        need(answer["ok"] is True, "report not ok")
        need(answer["pairs"] == e["pairs"], f"pairs {answer['pairs']} != {e['pairs']}")
    elif op.kind == "lemma43":
        need(answer["ok"] is True, "report not ok")
        # Lemma 4.3 puts the maximum at w0, where it is l(w0) - min_x d(x, x w0),
        # which Theorem 5.2 makes |Phi^+| - l_R(w0)
        need(answer["overall_max"] == e["overall_max"],
             f"overall_max {answer['overall_max']} != {e['overall_max']}")
    elif op.kind == "thm52":
        need(answer.get("method") == "enumeration", f"method {answer.get('method')}")
        lhs, lr, dmin = answer.get("lhs"), answer.get("lR_class"), answer.get("min_dgamma")
        need(lhs == lr == dmin, f"lhs {lhs}, lR_class {lr}, min_dgamma {dmin} differ")
        need(lr == e["lR_class"], f"lR_class {lr} != {e['lR_class']}")
        need(answer.get("l_w0") == e["l_w0"], f"l_w0 {answer.get('l_w0')} != {e['l_w0']}")
    elif op.kind == "cache":
        saved, loaded = answer["saved"], answer["loaded"]
        need(saved.keys() == loaded.keys(),
             f"sections {sorted(saved)} != {sorted(loaded)}")
        for k in saved:
            need(saved[k] == loaded.get(k), f"{k} differs after the round trip")
    else:
        problems.append(f"no check for {op.kind!r}")
    return problems
