"""Each answer check must report a wrong answer as a failed operation.

Run from the root of a checkout:

    python3 bench/test_checks.py

For one small operation of every kind, the program's real answer must pass
its check; then each deliberately wrong variant of that answer must make
``run_round`` count the operation as failed and wrong.  The reference
models are also cross-checked against each other.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402


def _quiet_round(op, execute, out):
    """run_round on one operation, with its failure report kept off stderr."""
    with contextlib.redirect_stderr(io.StringIO()):
        return worker.run_round([op], execute, out)


def _pick(ops, kind, label, **args):
    return next(op for op in ops if op.kind == kind and op.label == label
                and all(op.args.get(k) == v for k, v in args.items()))


def _set(path, value):
    """A mutation that sets answer[path[0]][path[1]]... to value."""
    def mutate(ans):
        cur = ans
        for k in path[:-1]:
            cur = cur[k]
        cur[path[-1]] = value(cur[path[-1]]) if callable(value) else value
    return mutate


def _flip_byte(key):
    def mutate(ans):
        dtype, shape, raw = ans["loaded"][key]
        ans["loaded"][key] = (dtype, shape, bytes([raw[0] ^ 1]) + raw[1:])
    return mutate


def _retype(key, dtype):
    def mutate(ans):
        _, shape, raw = ans["loaded"][key]
        ans["loaded"][key] = (dtype, shape, raw)
    return mutate


def _dim_value_plus_one(ans):
    res = ans["doc"]["result"]
    res["value"] = str(Fraction(res["value"]) + 1)


def _all_three(v):
    def mutate(ans):
        ans["lhs"] = ans["lR_class"] = ans["min_dgamma"] = v
    return mutate


def _adm_size_plus_one(ans):
    ans["oracle_size"] += 1
    ans["members"] += 1


class ChecksReportWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = Path.cwd() / ".bench_out"
        out.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=out)
        cls.out = Path(cls.tmp.name)
        dim = workloads.make_ops("dim-sweep", 0)
        adm = workloads.make_ops("adm-oracle", 0)
        qbg = workloads.make_ops("qbg-allpairs", 0)
        # (operation, [(what, mutation)]) -- one small operation per kind
        cls.cases = [
            (_pick(dim, "dim", "A2", defect=2, sigma="2 1"), [
                ("value + 1", _dim_value_plus_one),
                ("lR_class", _set(["doc", "result", "intermediates", "lR_class"], 0)),
                ("l_w0", _set(["doc", "result", "intermediates", "l_w0"], 4)),
                ("exit code", lambda a: a.update(code=3, doc=None)),
            ]),
            (_pick(dim, "dim", "D4", defect=0, sigma="3 2 4 1"), [
                ("value + 1", _dim_value_plus_one),
                ("lR_class from the matrix model",
                 _set(["doc", "result", "intermediates", "lR_class"], 4)),
            ]),
            (_pick(adm, "prop-adm", "A1", mu=[6]), [
                ("ok", _set(["ok"], False)),
                ("members", _set(["members"], lambda m: m - 1)),
                ("|Adm| = 4m + 1", _adm_size_plus_one),
                ("no members field", lambda a: a.pop("members")),
            ]),
            (_pick(adm, "prop44", "A1", mu=[6]), [
                ("ok", _set(["ok"], False)),
                ("brute-force maximum", _set(["rows", 0, "bruteforce"], "7")),
                ("formula", _set(["rows", 0, "formula"], "5")),
            ]),
            (_pick(qbg, "lemma31", "A3"), [
                ("ok", _set(["ok"], False)),
                ("pairs", _set(["pairs"], lambda p: p - 1)),
            ]),
            (_pick(qbg, "lemma43", "A3"), [
                ("ok", _set(["ok"], False)),
                ("overall_max", _set(["overall_max"], lambda m: m + 1)),
            ]),
            (_pick(qbg, "thm52", "D4", sigma=[2, 1, 3, 0]), [
                ("min_dgamma", _set(["min_dgamma"], lambda d: d + 1)),
                ("lR_class against the model", _all_three(4)),
                ("method", _set(["method"], "witness-sandwich")),
            ]),
            (_pick(qbg, "thm52", "A3", sigma=[0, 1, 2]), [
                ("lR_class against Carter's table", _all_three(3)),
            ]),
            (_pick(qbg, "cache", "D5"), [
                ("table bytes", _flip_byte("table.mat")),
                ("graph bytes", _flip_byte("graph.out_dst")),
                ("graph dtype", _retype("graph.in_kind", "int16")),
                ("missing graph", lambda a: a.update(loaded={"table.mat": a["loaded"]["table.mat"]})),
            ]),
        ]
        cls.answers = [workloads.execute(op, cls.out) for op, _ in cls.cases]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_real_answers_pass(self):
        for (op, _), ans in zip(self.cases, self.answers):
            with self.subTest(op=op.name()):
                self.assertEqual(workloads.check(op, ans), [])
                res = _quiet_round(op, lambda o, d, a=ans: a, self.out)
                self.assertEqual((res["failed"], res["wrong"]), (0, 0))

    def test_wrong_answers_fail(self):
        for (op, mutations), ans in zip(self.cases, self.answers):
            for what, mutate in mutations:
                with self.subTest(op=op.name(), wrong=what):
                    bad = copy.deepcopy(ans)
                    mutate(bad)
                    self.assertNotEqual(workloads.check(op, bad), [])
                    res = _quiet_round(op, lambda o, d, a=bad: a, self.out)
                    self.assertEqual(res, dict(attempted=1, failed=1, wrong=1))

    def test_raising_operation_fails(self):
        op = self.cases[0][0]

        def boom(o, d):
            raise IndexError("stale adjacency")

        res = _quiet_round(op, boom, self.out)
        self.assertEqual(res, dict(attempted=1, failed=1, wrong=0))


class ReferenceModels(unittest.TestCase):
    def test_carter_table_matches_matrix_model(self):
        for label in workloads.DIM_SWEEP_TYPES:
            letter, n = oracle.parse_label(label)
            a = oracle.cartan_matrix(letter, n)
            for perm in {tuple(range(n)), oracle.minus_w0_perm(letter, n)}:
                with self.subTest(type=label, sigma=perm):
                    self.assertEqual(oracle.carter_lr_w0(letter, n),
                                     oracle.twisted_class_lr(a, perm))

    def test_minus_w0_perm_matches_matrix_model(self):
        for label in workloads.DIM_SWEEP_TYPES:
            letter, n = oracle.parse_label(label)
            w0 = oracle.longest_element(oracle.simple_reflection_matrices(
                oracle.cartan_matrix(letter, n)))
            # -w0(alpha_i) is column i of -w0, a simple root
            psi = tuple(next(r for r in range(n) if -w0[r][i] == 1) for i in range(n))
            with self.subTest(type=label):
                self.assertEqual(psi, oracle.minus_w0_perm(letter, n))

    def test_a1_admissible_size(self):
        self.assertEqual([oracle.a1_admissible_size(m) for m in (6, 7, 8)], [25, 29, 33])

    def test_dim_sweep_make_up(self):
        ops = workloads.make_ops("dim-sweep", 5)
        pairs = {(op.label, op.args["sigma"]) for op in ops}
        self.assertEqual((len(ops), len(pairs)), (54, 27))
        self.assertEqual(ops, workloads.make_ops("dim-sweep", 5))


if __name__ == "__main__":
    unittest.main()
