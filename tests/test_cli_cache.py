"""Command-line surface and the binary cache."""

import json
import os
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from wqbg import coxeter, qbg, verify
from wqbg.affine import AffineWeylGroup
from wqbg.cache import CacheError, load_cache, save_cache
from wqbg.cli import main
from wqbg.coxeter import CoxeterGroup, ElementTable, get_group
from wqbg.qbg import build_qbg


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def _export_reference(label):
    """The rows of ``qbg export``, with each edge's two words and weight
    formed one edge at a time."""
    g = get_group(label)
    graph = build_qbg(g)
    table = g.enumerate()
    rows = []
    for v in range(graph.n):
        for d, k, r in zip(*graph.out_edges(v)):
            weight = graph.decode_weight(int(graph.weight_enc[r]) * int(k))
            rows.append(dict(src=table.element(v).word() or "e",
                             dst=table.element(int(d)).word() or "e",
                             kind="down" if k else "up",
                             weight=",".join(map(str, weight))))
    return rows


def test_qbg_export_matches_a_per_edge_reference(capsys):
    code, doc = run_cli(capsys, "qbg", "export", "--type", "B3")
    assert code == 0
    # the keys in order too: the printed rows are byte for byte the reference's
    assert [list(r.items()) for r in doc["result"]] == [
        list(r.items()) for r in _export_reference("B3")]


def test_qbg_dist_command(capsys):
    code, doc = run_cli(capsys, "qbg", "dist", "--type", "A2", "--from", "", "--to", "1 2 1")
    assert code == 0
    assert doc["result"] == 3
    assert doc["command"] == "qbg dist"
    assert "elapsed_ms" in doc


def test_qbg_wt_command(capsys):
    code, doc = run_cli(capsys, "qbg", "wt", "--type", "A2", "--from", "1 2 1", "--to", "")
    assert code == 0
    assert doc["result"] == [1, 1]


def test_report_table51(capsys):
    for label, expect in [("E8", 8), ("E7", 7), ("H4", 4)]:
        code, doc = run_cli(capsys, "report", "table51", "--type", label)
        assert code == 0 and doc["result"]["lR_w0"] == expect


def test_rootsys_info_and_group_enum(capsys):
    code, doc = run_cli(capsys, "rootsys", "info", "--type", "B3")
    assert code == 0
    assert doc["result"]["n_positive_roots"] == 9
    code, doc = run_cli(capsys, "group", "enum", "--type", "A2")
    assert code == 0 and doc["result"]["order"] == 6


def test_rank_zero_group(capsys):
    # W(GL1) has no generators: it is the trivial group, and its graph has
    # one vertex and no edge
    code, doc = run_cli(capsys, "group", "enum", "--type", "GL1")
    assert code == 0 and doc["result"]["order"] == 1
    for suite in ("lemma31", "lemma43", "thm52"):
        code, doc = run_cli(capsys, "verify", suite, "--type", "GL1")
        assert code == 0 and doc["result"]["ok"] is True, (suite, doc)
    assert doc["result"]["lR_class"] == doc["result"]["min_dgamma"] == 0
    # its admissible set is {t^0}: the suites over it run on no root at all
    for suite in ("prop-adm", "prop44", "thm61-consistency"):
        code, doc = run_cli(capsys, "verify", suite, "--type", "GL1", "--mu", "0")
        assert code == 0 and doc["result"]["ok"] is True, (suite, doc)
        if suite == "prop-adm":
            assert doc["result"]["members"] == doc["result"]["oracle_size"] == 1


# coordinates whose affine kernel values could leave int64, and the
# coordinates their refusal names: unchecked, they gave wrong values
# (-3074457345618258604 and -2 for the first two, a size of 2 for the
# oracle), an OverflowError or an AssertionError traceback
_B0 = ("--b", "nu=0", "def=0")
PAST_INT64 = {
    "virtual_wraps": (("dim", "virtual", "--type", "A2", "--element",
                       "t[3074457345618258602,0]", *_B0), "[3074457345618258602, 0]"),
    "virtual_wraps_to_-2": (("dim", "virtual", "--type", "A2", "--element",
                             "t[4611686018427387903,0]", *_B0), "[4611686018427387903, 0]"),
    "virtual_past_int64": (("dim", "virtual", "--type", "A2", "--element",
                            "t[99999999999999999999,0]", *_B0), "[99999999999999999999, 0]"),
    "oracle": (("adm", "oracle", "--type", "A1", "--mu", "4611686018427387904"),
               "[4611686018427387904]"),
    # met at the maximizer x t^mu w0 sigma(x)^{-1}, [0, 4611686018427387904]
    "xmub": (("dim", "xmub", "--type", "A2", "--mu", "4611686018427387904,4611686018427387904",
              *_B0), "mu [4611686018427387904, 4611686018427387904]"),
}


@pytest.mark.parametrize("argv, given", PAST_INT64.values(), ids=PAST_INT64.keys())
def test_coordinates_past_int64_are_refused(capsys, argv, given):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: ") and "int64" in err, err
    assert f"{given} " in err, err


def test_coordinates_that_looped_are_refused_in_time():
    # unchecked, this element kept the lockstep decomposition running; a
    # process with a timeout fails a regression instead of stalling the suite
    proc = _python_m_wqbg(["dim", "virtual", "--type", "A2", "--element",
                           "t[4611686018427387904,0]", *_B0], 60)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("wqbg: ") and "Traceback" not in proc.stderr


def test_coordinates_in_range_keep_their_values(capsys):
    code, doc = run_cli(capsys, "dim", "virtual", "--type", "A2", "--element", "t[1000,0]", *_B0)
    assert code == 0 and doc["result"] == "2000"


# --b and --element inputs that are not values, and what the refusal names
BAD_VALUES = {
    "zero_denominator_xmub": (("dim", "xmub", "--type", "A2", "--mu", "30,30",
                               "--b", "nu=1/0,0", "def=0"), "'1/0'"),
    "zero_denominator_virtual": (("dim", "virtual", "--type", "A2", "--element", "t[1,0]",
                                  "--b", "nu=1/0,0", "def=0"), "'1/0'"),
    "unknown_b_key": (("dim", "xmub", "--type", "A2", "--mu", "30,30",
                       "--b", "nu=0", "def=0", "kapa=1"), "'kapa'"),
    "unclosed_translation": (("dim", "virtual", "--type", "A2", "--element", "t[1,2", *_B0),
                             "no closing ']'"),
    # integer tokens: the message names the flag or key and the token
    "mu_token": (("dim", "xmub", "--type", "A2", "--mu", "30,x", *_B0), "--mu coordinate 'x'"),
    "def_token": (("dim", "xmub", "--type", "A2", "--mu", "30,30",
                   "--b", "nu=0", "def=x"), "def 'x'"),
    "kappa_token": (("dim", "xmub", "--type", "GL2", "--mu", "1,0",
                     "--b", "nu=1/2,1/2", "def=1", "kappa=y"), "kappa coordinate 'y'"),
    "translation_token": (("adm", "check", "--type", "A1", "--mu", "6", "--element", "t[x] 1"),
                          "--element translation coordinate 'x'"),
    # generator words: "e" is the only word that is not a list of integers
    "from_token": (("qbg", "dist", "--type", "A2", "--from", "e 1", "--to", "1"),
                   "--from generator 'e'"),
    "to_range": (("qbg", "wt", "--type", "A2", "--from", "1", "--to", "1 3"),
                 "--to '1 3': generator index 3 out of range"),
    "element_word_token": (("adm", "check", "--type", "A1", "--mu", "6", "--element", "t[0] s"),
                           "--element word generator 's'"),
    # the Newton point of a sigma-conjugacy class is sigma-stable
    "newton_moved_by_sigma": (("dim", "xmub", "--type", "A2", "--sigma", "flip", "--mu", "30,30",
                               "--b", "nu=2,1", "def=0"),
                              "nu (2, 1) is not fixed by sigma 2 1, which sends it to (1, 2)"),
}


def test_the_identity_word_round_trips(capsys):
    # every word that group enum prints, "e" included, is read back by
    # --element, --from and --to: d_Gamma(e, w) = l(w) along a reduced word
    code, doc = run_cli(capsys, "group", "enum", "--type", "A2")
    assert code == 0 and doc["result"]["words"][0] == "e"
    for word in doc["result"]["words"]:
        code, adm = run_cli(capsys, "adm", "check", "--type", "A2", "--mu", "6,6",
                            "--element", f"t[0,0] {word}")
        assert code == 0 and adm["result"]["element"] == f"t[0,0] {word}", word
        code, dist = run_cli(capsys, "qbg", "dist", "--type", "A2", "--from", "e", "--to", word)
        assert code == 0 and dist["result"] == len(word.replace("e", "").split()), word
        code, wt = run_cli(capsys, "qbg", "wt", "--type", "A2", "--from", word, "--to", word)
        assert code == 0 and wt["result"] == [0, 0], word


@pytest.mark.parametrize("label", ["64A1", "8D4"])
def test_sigma_flip_is_ambiguous_at_once(capsys, label):
    # 64A1 has 64! diagram automorphisms and 8D4 has 6^8 8!: the answer
    # comes from the first three maps
    t0 = time.perf_counter()
    assert main(["verify", "thm52", "--type", label, "--sigma", "flip"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and f"--sigma flip is ambiguous for {label}" in err


def test_sigma_flip_resolves_a_single_flip(capsys):
    for label, sigma in (("A3", "3 2 1"), ("A3xA1", "3 2 1 4")):
        code, doc = run_cli(capsys, "verify", "thm52", "--type", label, "--sigma", "flip")
        assert code == 0 and doc["result"]["sigma"] == sigma and doc["result"]["equal"], label


@pytest.mark.parametrize("argv, named", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_values_are_refused_by_name(capsys, argv, named):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: ") and named in err, err
    assert "Traceback" not in err


def test_adm_commands(capsys):
    code, doc = run_cli(capsys, "adm", "oracle", "--type", "A1", "--mu", "6")
    assert code == 0 and doc["result"]["size"] == 25
    code, doc = run_cli(capsys, "adm", "check", "--type", "A1", "--mu", "6",
                        "--element", "t[5] 1")
    assert code == 0 and doc["result"]["admissible"] is True
    code, doc = run_cli(capsys, "adm", "check", "--type", "A1", "--mu", "6",
                        "--element", "t[-7]")
    assert code == 0 and doc["result"]["admissible"] is False


def test_dim_commands(capsys):
    code, doc = run_cli(capsys, "dim", "xmub", "--type", "A1", "--mu", "6",
                        "--b", "nu=0", "def=0", "kappa=")
    assert code == 0 and doc["result"]["value"] == "6"
    code, doc = run_cli(capsys, "dim", "virtual", "--type", "A1",
                        "--element", "t[6] 1", "--b", "nu=0", "def=0")
    assert code == 0 and doc["result"] == "6"
    # GL_n: the witness is that of A_{n-1}
    code, doc = run_cli(capsys, "dim", "xmub", "--type", "GL3", "--mu", "60,30,0",
                        "--b", "nu=30,30,30", "def=0")
    assert code == 0 and doc["result"]["value"] == "61"
    assert doc["result"]["intermediates"]["lR_class"] == 1


def test_kappa_is_read_in_label_order(capsys):
    # one coordinate per GL factor, each the sum of that factor's coordinates
    argv = ["dim", "xmub", "--type", "GL3xGL1xGL2", "--mu", "28,14,0,5,6,0",
            "--b", "nu=14,14,14,5,3,3", "def=0"]
    code, doc = run_cli(capsys, *argv, "kappa=42,5,6")
    assert code == 0 and doc["result"]["value"] == "32"
    assert doc["result"]["b"]["kappa"] == [42, 5, 6]
    assert main([*argv, "kappa=5,42,6"]) == 3
    assert "kappa_match" in capsys.readouterr().err


def test_sigma_flip_names_what_is_missing(capsys):
    for label in ("B3", "GL1"):
        assert main(["verify", "thm52", "--type", label, "--sigma", "flip"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{label} has no non-trivial diagram automorphism" in err
    assert main(["verify", "thm52", "--type", "D4", "--sigma", "flip"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--sigma flip is ambiguous for D4" in err
    code, doc = run_cli(capsys, "verify", "thm52", "--type", "A12", "--sigma", "flip")
    assert code == 0 and doc["result"]["ok"] is True


def test_a_label_past_the_root_limit_exits_4_at_once(capsys):
    for label in ("64E8", "64B8"):
        for argv in (["group", "enum"], ["rootsys", "info"], ["dim", "xmub", "--mu", "1", "--b", "nu=0"]):
            t0 = time.perf_counter()
            assert main([*argv[:2], "--type", label, *argv[2:]]) == 4
            assert time.perf_counter() - t0 < 1.0
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("wqbg: budget exceeded: ")
            assert "positive roots" in err and "Traceback" not in err


def test_exit_codes(capsys, monkeypatch):
    # parse error
    assert main(["rootsys", "info", "--type", "Q9"]) == 2
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setenv("WQBG_BUDGET", "abc")
        assert main(["group", "enum", "--type", "A2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wqbg: ") and "WQBG_BUDGET" in err
        assert "Traceback" not in err
        # argparse does not check a default against the choices
        m.setenv("WQBG_BUDGET", "10")
        m.setenv("WQBG_FORMAT", "xml")
        assert main(["group", "enum", "--type", "A1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("wqbg: ") and "WQBG_FORMAT" in err
    # a type with no coweight lattice, refused before any lattice field is read
    for argv in (
        ["dim", "xmub", "--type", "H3", "--mu", "100,100,100", "--b", "nu=0", "def=0"],
        ["verify", "prop-adm", "--type", "H3", "--mu", "1,1,1"],
        ["verify", "thm61-consistency", "--type", "H3", "--mu", "1,1,1"],
        ["verify", "prop44", "--type", "I5", "--mu", "1,1"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("wqbg: ") and "crystallographic" in err
        assert "Traceback" not in err
    # a sigma that preserves the Coxeter matrix but not the Cartan matrix
    assert main(["dim", "xmub", "--type", "B2", "--mu", "36,27",
                 "--b", "nu=0", "def=0", "--sigma", "flip"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: ") and "Cartan" in err
    # hypothesis failure, also when raised as a ValueError subclass
    assert main(["dim", "xmub", "--type", "A1", "--mu", "1", "--b", "nu=0", "def=0"]) == 3
    capsys.readouterr()
    assert main(["verify", "prop44", "--type", "A1", "--mu", "1"]) == 3
    assert "hypothesis failure" in capsys.readouterr().err
    # budget exceeded
    assert main(["group", "enum", "--type", "E7"]) == 4
    capsys.readouterr()
    assert main(["adm", "oracle", "--type", "A3", "--mu", "40 40 40"]) == 4
    capsys.readouterr()
    assert main(["--budget", "10", "dim", "xmub", "--type", "A3", "--mu", "39,52,39",
                 "--b", "nu=0", "def=0"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: budget exceeded")
    # the all-pairs distances of E6 would take 5.4 GB: refused from the
    # group order, before the graph is built
    with monkeypatch.context() as m:
        def no_build(*args, **kwargs):
            pytest.fail("build_qbg called for an all-pairs search over the limit")

        m.setattr(qbg, "build_qbg", no_build)
        for suite in ("lemma43", "lemma31"):
            assert main(["verify", suite, "--type", "E6"]) == 4
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("wqbg: budget exceeded")
            assert "Traceback" not in err


def test_verify_takes_mu_in_the_basis_of_adm(capsys):
    # GL_n reads --mu in ambient coordinates for every command, so the
    # suites get the parsed coweight, not its coordinates
    for suite, call in (("prop-adm", verify.suite_prop_adm),
                        ("thm61-consistency", verify.suite_thm61)):
        code, doc = run_cli(capsys, "verify", suite, "--type", "GL3", "--mu", "1,0,-1")
        assert code == 0, (suite, doc)
        lib = json.loads(json.dumps(call("GL3", [1, 1]), default=str))
        for rep in (doc["result"], lib):
            rep.pop("elapsed_ms")
        assert doc["result"] == lib
    # off the coroot span the prop-adm box has no corner: a named refusal
    assert main(["verify", "prop-adm", "--type", "GL3", "--mu", "2,1,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not an integral sum of coroots" in err
    assert "Traceback" not in err


def test_oracle_budget_binds_above_rank_two(capsys, monkeypatch):
    with monkeypatch.context() as m:
        def no_covers(*args, **kwargs):
            pytest.fail("covers generated past the oracle budget")

        m.setattr(AffineWeylGroup, "_cover_level", no_covers)
        assert main(["adm", "oracle", "--type", "A3", "--mu", "30,30,30"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("wqbg: budget exceeded")
    # rank 2 is exempt: l(t^mu) = 12 runs under a budget of 5
    monkeypatch.setenv("WQBG_ORACLE_BUDGET", "5")
    code, doc = run_cli(capsys, "adm", "oracle", "--type", "A2", "--mu", "3,3")
    assert code == 0 and doc["input"]["oracle_budget"] == 5
    assert doc["result"]["size"] == 181


def test_oracle_budget_binds_after_a_kept_set(capsys):
    # A3's set is kept on the group's affine group, and a smaller budget
    # still refuses it: l(t^mu) = 6
    code, doc = run_cli(capsys, "adm", "oracle", "--type", "A3", "--mu", "1,1,1")
    assert code == 0 and doc["result"]["size"] == 105
    assert main(["--oracle-budget", "5", "adm", "oracle", "--type", "A3", "--mu", "1,1,1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: budget exceeded")
    code, again = run_cli(capsys, "adm", "oracle", "--type", "A3", "--mu", "1,1,1")
    assert code == 0 and again["result"] == doc["result"]


def test_verify_command(capsys):
    code, doc = run_cli(capsys, "verify", "thm52", "--type", "B2")
    assert code == 0 and doc["result"]["ok"]
    code, doc = run_cli(capsys, "verify", "prop-adm", "--type", "A1", "--mu", "6")
    assert code == 0
    assert doc["result"]["members"] == 25 and doc["result"]["ok"]
    code, doc = run_cli(capsys, "verify", "lemma31", "--type", "B2")
    assert code == 0 and doc["result"]["ok"]


def test_identity_witness_prints_as_e(capsys):
    # above the budget the witness path answers; on a product of A1s its x is e
    for argv in (["--type", "16A1"], ["--type", "20A1", "--sigma", "adw0"]):
        code, doc = run_cli(capsys, "verify", "thm52", *argv)
        assert code == 0 and doc["result"]["method"] == "witness-sandwich"
        assert doc["result"]["witness"] == "e"


def test_tsv_format(capsys):
    code = main(["--format", "tsv", "qbg", "dist", "--type", "A2", "--from", "", "--to", "1"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "1"


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WQBG_BUDGET", "10")
    assert main(["group", "enum", "--type", "A3"]) == 4
    capsys.readouterr()


def test_cache_round_trip(tmp_path):
    g = get_group("B3")
    graph = build_qbg(g)
    path = tmp_path / "B3.wqbg"
    save_cache(path, g, graph)
    g2, table, graph2 = load_cache(path)
    assert g2 is g  # shared instance by label
    # load_cache installs its table into the shared instance, so compare
    # against a table enumerated by a separate instance
    fresh = CoxeterGroup.from_label("B3").enumerate()
    assert table.mat.dtype == fresh.mat.dtype
    assert np.array_equal(table.mat, fresh.mat)
    for name in ("out_ptr", "out_dst", "out_kind", "out_root",
                 "in_ptr", "in_src", "in_kind", "in_root", "weight_enc"):
        a, b = getattr(graph, name), getattr(graph2, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_load_cache_sorts_the_rows_once(tmp_path, monkeypatch):
    # the table that the row check verifies is the one installed
    path = tmp_path / "B3.wqbg"
    save_cache(path, CoxeterGroup.from_label("B3"))
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    built = []
    init = ElementTable.__init__
    monkeypatch.setattr(ElementTable, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    group, table, _ = load_cache(path)
    assert built == [table] and group.enumerate() is table
    # the row check built the Cayley table, so reading it looks nothing up
    looked_up, lookup = [], ElementTable.lookup
    monkeypatch.setattr(ElementTable, "lookup",
                        lambda self, rows: looked_up.append(rows) or lookup(self, rows))
    assert table.rmul().shape == (len(table), group.rank) and looked_up == []


def test_cache_corruption(tmp_path, monkeypatch):
    g = get_group("A2")
    path = tmp_path / "A2.wqbg"
    save_cache(path, g, build_qbg(g))
    raw = path.read_bytes()

    truncated = tmp_path / "trunc.wqbg"
    truncated.write_bytes(raw[:-10])
    with pytest.raises(CacheError):
        load_cache(truncated)

    stale = tmp_path / "stale.wqbg"
    bad = bytearray(raw)
    bad[4] = 99  # version byte
    stale.write_bytes(bytes(bad))
    with pytest.raises(CacheError):
        load_cache(stale)

    flipped = tmp_path / "bit.wqbg"
    bad = bytearray(raw)
    bad[40] ^= 1
    flipped.write_bytes(bytes(bad))
    with pytest.raises(CacheError):
        load_cache(flipped)

    # a valid checksum over rows that are not the group: rejected, and the
    # shared instance keeps the table it had
    table = g.enumerate()
    body = raw[:-4]
    start = body.index(table.mat.tobytes())
    row = table.mat[0].nbytes
    rows = [body[start + i * row : start + (i + 1) * row] for i in range(len(table))]
    not_the_group = {
        "identity_not_first": [rows[1], rows[0]] + rows[2:],
        "repeated_row": [rows[0], rows[0]] + rows[2:],
        "foreign_row": rows[:-1] + [(-table.mat[0]).tobytes()],
        # all of W, but not in the order of the table the group holds
        "reordered": [rows[0], rows[2], rows[1]] + rows[3:],
    }
    for name, bad_rows in not_the_group.items():
        bad_body = body[:start] + b"".join(bad_rows) + body[start + len(table) * row :]
        forged = tmp_path / f"{name}.wqbg"
        forged.write_bytes(bad_body + struct.pack("<I", zlib.crc32(bad_body)))
        with pytest.raises(CacheError):
            load_cache(forged)
        assert get_group("A2").enumerate() is table, name

    # a row of A3 changed only in the column of a root that is neither simple
    # nor s_i(alpha_j): no key reads it, not even the keys of the moved rows,
    # so only the full-row comparison refuses it.  The loading group is a
    # fresh one with no table, so no comparison with a held table can.
    g3 = get_group("A3")
    reached = {abs(int(s.images[j])) - 1 for s in g3.gens for j in range(g3.rank)}
    col = next(c for c in range(g3.n_pos) if c not in reached)
    mat = g3.enumerate().mat.copy()
    mat[1, col] = -mat[1, col]
    forger = CoxeterGroup.from_label("A3")
    forger._cache_enum(ElementTable(forger, mat))
    forged = tmp_path / "off_key.wqbg"
    save_cache(forged, forger)
    fresh = CoxeterGroup.from_label("A3")
    with monkeypatch.context() as m:
        m.setitem(coxeter._GROUP_CACHE, "A3", fresh)
        with pytest.raises(CacheError, match="closed"):
            load_cache(forged)
    assert fresh._enum is None

    # a B2 row changed off its key so that two rows look up the same head:
    # rmul() leaves one entry as np.empty made it, here out of range
    mat = get_group("B2").enumerate().mat.copy()
    mat[2, 3] = 2
    forger = CoxeterGroup.from_label("B2")
    forger._cache_enum(ElementTable(forger, mat))
    forged = tmp_path / "unfilled.wqbg"
    save_cache(forged, forger)
    empty = np.empty

    def out_of_range(*args, **kwargs):
        a = empty(*args, **kwargs)
        if a.dtype.kind == "i":
            a.fill(np.iinfo(a.dtype).max)
        return a

    with monkeypatch.context() as m:
        m.setitem(coxeter._GROUP_CACHE, "B2", CoxeterGroup.from_label("B2"))
        m.setattr(np, "empty", out_of_range)
        with pytest.raises(CacheError, match="closed"):
            load_cache(forged)

    # a valid checksum over bytes that no section reads
    appended = tmp_path / "appended.wqbg"
    bad_body = body + b"garbage!"
    appended.write_bytes(bad_body + struct.pack("<I", zlib.crc32(bad_body)))
    with pytest.raises(CacheError, match="after its last section"):
        load_cache(appended)
    assert g.enumerate() is table


def _mutants(raw: bytes, rng):
    """(name, bytes): every byte of `raw` before its checksum set to 0, 1,
    0x7f, 0x80, 0xff and one random value, under a recomputed checksum; then
    `raw` cut short at every third byte."""
    body = raw[:-4]
    for at in range(len(body)):
        for value in (0, 1, 0x7F, 0x80, 0xFF, int(rng.integers(256))):
            bad = bytearray(body)
            bad[at] = value
            yield f"byte {at} = {value:#04x}", bytes(bad) + struct.pack("<I", zlib.crc32(bad))
    for end in range(0, len(raw), 3):
        yield f"cut at {end}", raw[:end]


def _exits_0_or_2_in_time(capsys, name, argv, refusal="wqbg: "):
    """`argv` exits 0, or 2 with a message that starts with `refusal`, in
    under a second."""
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # any exception that escapes main fails the case
        pytest.fail(f"{name}: {exc!r}")
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code in (0, 2) and elapsed < 1, (name, code, elapsed, err)
    assert "Traceback" not in err, name
    if code:
        assert out == "" and err.startswith(refusal), (name, err)


def test_mutated_cache_files_exit_0_or_2(tmp_path, capsys, monkeypatch):
    # B2 saved with its graph, each mutant loaded by a group cache of its own
    g = get_group("B2")
    path = tmp_path / "B2.wqbg"
    save_cache(path, g, build_qbg(g))
    case = tmp_path / "case.wqbg"
    count = 0
    for name, data in _mutants(path.read_bytes(), np.random.default_rng(0)):
        case.write_bytes(data)
        with monkeypatch.context() as m:
            m.setattr(coxeter, "_GROUP_CACHE", {})
            _exits_0_or_2_in_time(capsys, name, ["cache", "load", "--path", str(case)],
                                  refusal="wqbg: cache error: ")
        count += 1
    assert count > 600


def test_garbage_environment_variables_exit_0_or_2(tmp_path, capsys, monkeypatch):
    g = get_group("B2")
    path = tmp_path / "B2.wqbg"
    save_cache(path, g, build_qbg(g))
    # a cache directory is relative to the working directory: keep it here
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    # no digit, so no integer; no "/", "." or "\\", so no path out of here
    alphabet = list("abcXYZ!#$%&*+,-:;<=>?@[]^_{|}~ é∞")
    garbage = ["", "1.5", "1e9", "0x10", "-", "∞"]
    garbage += ["".join(rng.choice(alphabet, size=k)) for k in (1, 5, 20, 200)]
    for var in ("WQBG_BUDGET", "WQBG_ORACLE_BUDGET", "WQBG_FORMAT", "WQBG_CACHE_DIR"):
        for value in garbage:
            with monkeypatch.context() as m:
                m.setenv(var, value)
                for argv in (["cache", "load", "--path", str(path)],
                             ["cache", "save", "--type", "B2", "--qbg"]):
                    _exits_0_or_2_in_time(capsys, f"{var}={value!r} {argv[1]}", argv)


def test_graph_section_for_a_group_without_one(tmp_path):
    # a file saved with a graph under a valid checksum, for a group that
    # build_qbg refuses: no coroots (H3)
    g = get_group("H3")
    table = g.enumerate()
    n = len(table)
    empty = np.zeros(0, dtype=np.int8)
    fake = qbg.QuantumBruhatGraph(g, n, np.zeros(n + 1, dtype=np.int64),
                                  empty.astype(np.int32), empty, empty, table)
    path = tmp_path / "H3.wqbg"
    save_cache(path, g, fake)
    with pytest.raises(CacheError, match="H3"):
        load_cache(path)
    # a group of rank 9 has a graph: the file loads, and only its weights,
    # which do not pack, are refused
    g = get_group("9A1")
    path = tmp_path / "9A1.wqbg"
    save_cache(path, g, build_qbg(g))
    _, _, graph = load_cache(path)
    assert graph is build_qbg(g) and graph.n_edges() == 512 * 9
    with pytest.raises(qbg.RankTooLarge, match="rank 9"):
        graph.weight_enc


def test_old_cache_version_refused(tmp_path, capsys):
    g = get_group("A2")
    path = tmp_path / "A2.wqbg"
    save_cache(path, g, build_qbg(g))
    body = bytearray(path.read_bytes()[:-4])
    for version in (1, 2):
        body[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        assert main(["cache", "load", "--path", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unsupported cache version {version}" in err


def test_forged_header_refused_before_any_group_is_built(tmp_path, capsys, monkeypatch):
    # a B2 file relabelled under a recomputed checksum.  Its 8 rows are not
    # |W(A60)| = 61! or |W(A200)|; |W(A11)| = 12! rows of 4 int16 do not fit
    # in the file.  The header shows both without a root system of the label.
    g = get_group("B2")
    path = tmp_path / "B2.wqbg"
    save_cache(path, g, build_qbg(g))
    body = path.read_bytes()[:-4]
    # magic, version, the label's length and the label; then rank, n_pos, count
    rest = body[4 + 4 + 2 + len(b"B2"):]
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    # a label of a million factors, or of rank 300000, is refused at its
    # parse or a few terms into its order, before the label is expanded
    for label, count, error in (("A60", 8, "cache holds 8 rows, |W(A60)|"),
                                ("A200", 8, "cache holds 8 rows, |W(A200)|"),
                                ("A11", 479001600, "truncated cache file"),
                                ("1000000A1", 8, "more than"),
                                ("200000GL1", 1, "more than"),
                                ("A300000", 8, "cache holds 8 rows, |W(A300000)| > 8"),
                                ("99999999999A1", 8, "more than")):
        forged = tmp_path / "forged.wqbg"
        bad_body = (body[:8] + struct.pack("<H", len(label)) + label.encode()
                    + rest[:8] + struct.pack("<I", count) + rest[12:])
        forged.write_bytes(bad_body + struct.pack("<I", zlib.crc32(bad_body)))
        t0 = time.perf_counter()
        assert main(["cache", "load", "--path", str(forged)]) == 2, label
        assert time.perf_counter() - t0 <= 1, label
        out, err = capsys.readouterr()
        assert out == "" and error in err and "Traceback" not in err, label
        assert coxeter._GROUP_CACHE == {}, label


def _forged(tmp_path, body: bytearray):
    """`body` written under a recomputed checksum."""
    path = tmp_path / "forged.wqbg"
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.parametrize("value", [0x80, 0xFF])
def test_a_label_that_is_not_utf8_is_a_cache_error(tmp_path, value):
    g = get_group("B2")
    path = tmp_path / "B2.wqbg"
    save_cache(path, g, build_qbg(g))
    body = bytearray(path.read_bytes()[:-4])
    # magic, version and the label's length come first
    body[4 + 4 + 2] = value
    with pytest.raises(CacheError, match="label .* is not utf-8"):
        load_cache(_forged(tmp_path, body))


def test_a_grp_section_of_odd_length_is_a_cache_error(tmp_path):
    g = get_group("B2")
    path = tmp_path / "B2.wqbg"
    save_cache(path, g, build_qbg(g))
    body = bytearray(path.read_bytes()[:-4])
    # the GRP byte count, one byte short of its 8 rows of 4 int16
    at = body.index(g.enumerate().mat.tobytes()) - 8
    assert struct.unpack_from("<Q", body, at) == (64,)
    struct.pack_into("<Q", body, at, 63)
    with pytest.raises(CacheError, match="GRP section holds 63 bytes"):
        load_cache(_forged(tmp_path, body))


def test_unknown_cache_flags_refused(tmp_path, capsys):
    # only bit 0 (saved with its graph) has a meaning
    g = get_group("A2")
    for graph, flags in ((build_qbg(g), 0xFF), (None, 0x02)):
        path = tmp_path / "A2.wqbg"
        save_cache(path, g, graph)
        body = bytearray(path.read_bytes()[:-4])
        flags_at = body.index(g.enumerate().mat.tobytes()) - 8 - 1
        body[flags_at] = flags
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CacheError, match="unknown cache flags"):
            load_cache(path)
        assert main(["cache", "load", "--path", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unknown cache flags {flags:#04x}" in err


def test_env_defaults_read_on_every_call(capsys, monkeypatch):
    # one parser serves every call, and each call reads the WQBG_* variables
    argv = ["qbg", "dist", "--type", "A2", "--from", "", "--to", "1"]
    monkeypatch.setenv("WQBG_FORMAT", "json")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["result"] == 1
    monkeypatch.setenv("WQBG_FORMAT", "tsv")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == "1\n"
    monkeypatch.setenv("WQBG_FORMAT", "xml")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "WQBG_FORMAT='xml'" in err
    monkeypatch.delenv("WQBG_FORMAT")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["result"] == 1


def test_rank_above_eight_refused(capsys):
    # path weights pack a base-256 digit per coordinate into an int64: every
    # command that reads them refuses rank 9, the search of no steps too
    for argv in (["qbg", "wt", "--type", "9A1", "--from", "1", "--to", "2"],
                 ["qbg", "wt", "--type", "9A1", "--from", "1", "--to", "1"],
                 ["qbg", "export", "--type", "9A1"],
                 ["verify", "lemma31", "--type", "9A1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "rank 9" in err and "weights" in err, argv
        assert "Traceback" not in err, argv
    code, doc = run_cli(capsys, "group", "enum", "--type", "9A1")
    assert code == 0 and doc["result"]["order"] == 512


@pytest.mark.parametrize("label, mu", [("9A1", [40] * 9), ("3A3", [39, 52, 39] * 3)])
def test_distances_above_rank_eight(capsys, label, mu):
    # the graph holds no weights, so its distances have no rank limit
    code, doc = run_cli(capsys, "qbg", "dist", "--type", label, "--from", "e", "--to", "1")
    assert code == 0 and doc["result"] == 1
    code, doc = run_cli(capsys, "dim", "xmub", "--type", label, "--mu", ",".join(map(str, mu)),
                        "--b", "nu=0", "def=0")
    assert code == 0
    assert doc["result"]["intermediates"]["d_adm_formula"] == doc["result"]["value"]


def test_load_cache_leaves_no_stale_graph(tmp_path):
    g = get_group("A3")
    graph = build_qbg(g)
    table = g.enumerate()
    path = tmp_path / "A3.wqbg"
    save_cache(path, g, graph)
    # the group keeps the table it holds, and with it its graph
    _, loaded, _ = load_cache(path)
    assert loaded is table and build_qbg(g) is graph
    # a group given a new table builds a new graph on the new rows
    other = CoxeterGroup.from_label("A3")
    old = build_qbg(other)
    mat = table.mat[::-1].copy()
    mat[[0, -1]] = mat[[-1, 0]]  # the identity stays first
    other._cache_enum(ElementTable(other, mat))
    new = build_qbg(other)
    assert new is not old and new.n == old.n
    refl = other.reflections()
    for v in range(new.n):
        for dst, _, root in zip(*new.out_edges(v)):
            assert other.enumerate().element(v) * refl[root] == other.enumerate().element(dst)


def test_load_cache_returns_the_groups_graph(tmp_path):
    g = get_group("A3")
    graph = build_qbg(g)
    path = tmp_path / "A3.wqbg"
    save_cache(path, g, graph)
    _, _, loaded = load_cache(path)
    assert loaded is build_qbg(g) is graph


def test_loaded_graph_becomes_the_groups(tmp_path, monkeypatch):
    # a group that holds no graph yet: the graph of a file saved with one is
    # the graph that every later build_qbg hands out
    g = CoxeterGroup.from_label("B3")
    path = tmp_path / "B3.wqbg"
    save_cache(path, g, build_qbg(g))
    monkeypatch.setattr(coxeter, "_GROUP_CACHE", {})
    group, table, graph2 = load_cache(path)
    assert group is not g and group.enumerate() is table
    assert graph2 is build_qbg(group)
    assert graph2.n == len(table) and graph2.n_edges() == build_qbg(g).n_edges()


def test_loaded_graph_keeps_the_budget(tmp_path, capsys, monkeypatch):
    # building the graph of a file saved with one is refused like any other
    # build over the default enumeration budget
    g = CoxeterGroup.from_label("A2")
    path = tmp_path / "A2.wqbg"
    save_cache(path, g, build_qbg(g))
    fresh = CoxeterGroup.from_label("A2")
    monkeypatch.setitem(coxeter._GROUP_CACHE, "A2", fresh)
    monkeypatch.setattr(fresh, "order", lambda: coxeter.DEFAULT_ENUM_BUDGET + 1)
    assert main(["cache", "load", "--path", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: budget exceeded")
    assert fresh._qbg is None


def test_cache_cli(tmp_path, capsys):
    code, doc = run_cli(capsys, "--cache-dir", str(tmp_path), "cache", "save",
                        "--type", "B2", "--qbg")
    assert code == 0
    path = doc["result"]["path"]
    code, doc = run_cli(capsys, "cache", "load", "--path", path)
    assert code == 0 and doc["result"]["order"] == 8
    assert doc["result"]["qbg_edges"] is not None
    # a path that cannot be read or written is bad cache input: exit 2
    a_file = tmp_path / "a_file"
    a_file.write_bytes(b"")
    for argv in (["cache", "load", "--path", str(tmp_path / "missing.wqbg")],
                 ["cache", "load", "--path", str(tmp_path)],
                 ["--cache-dir", str(a_file), "cache", "save", "--type", "A2"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("wqbg: cache error: "), argv
        assert "Traceback" not in err


A3_XMUB = ["dim", "xmub", "--type", "A3", "--mu", "39,52,39", "--b", "nu=0", "def=0"]


def test_gates_hold_with_warm_state(capsys):
    # the A3 witness, l_R(O) and graph minimum are stored after this call
    code, doc = run_cli(capsys, *A3_XMUB)
    assert code == 0 and doc["result"]["value"] is not None
    assert main(["--budget", "10", *A3_XMUB]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wqbg: budget exceeded")
    assert main(["dim", "xmub", "--type", "A3", "--mu", "1,1,1", "--b", "nu=0", "def=0"]) == 3
    capsys.readouterr()
    # the B2 flip's l_R(O) and graph minimum stored by the theorem check
    code, doc = run_cli(capsys, "verify", "thm52", "--type", "B2", "--sigma", "flip")
    assert code == 0 and doc["result"]["ok"]
    assert main(["dim", "xmub", "--type", "B2", "--mu", "36,27",
                 "--b", "nu=0", "def=0", "--sigma", "flip"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Cartan" in err


def _python_m_wqbg(argv, timeout):
    """``python -m wqbg`` in a fresh process on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "wqbg", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_python_m_wqbg_matches_a_warm_repeat(capsys):
    argv = ["dim", "xmub", "--type", "A2", "--mu", "14,14", "--b", "nu=0", "def=0",
            "--sigma", "2 1"]
    proc = _python_m_wqbg(argv, 120)
    assert proc.returncode == 0, proc.stderr
    cold = json.loads(proc.stdout)
    assert cold["result"]["value"] == "29"
    cold.pop("elapsed_ms")
    for _ in range(2):
        code, warm = run_cli(capsys, *argv)
        assert code == 0
        warm.pop("elapsed_ms")
        assert warm == cold
