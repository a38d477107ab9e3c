"""Command-line surface and the binary cache."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from wqbg import coxeter, qbg
from wqbg.cache import CacheError, _check_csr, load_cache, save_cache
from wqbg.cli import main
from wqbg.coxeter import CoxeterGroup, get_group
from wqbg.qbg import build_qbg


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


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


def test_verify_command(capsys):
    code, doc = run_cli(capsys, "verify", "thm52", "--type", "B2")
    assert code == 0 and doc["result"]["ok"]
    code, doc = run_cli(capsys, "verify", "prop-adm", "--type", "A1", "--mu", "6")
    assert code == 0
    assert doc["result"]["members"] == 25 and doc["result"]["ok"]
    code, doc = run_cli(capsys, "verify", "lemma31", "--type", "B2")
    assert code == 0 and doc["result"]["ok"]


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
    forger._cache_enum(mat)
    forged = tmp_path / "off_key.wqbg"
    save_cache(forged, forger)
    fresh = CoxeterGroup.from_label("A3")
    with monkeypatch.context() as m:
        m.setitem(coxeter._GROUP_CACHE, "A3", fresh)
        with pytest.raises(CacheError, match="closed"):
            load_cache(forged)
    assert fresh._enum is None

    # a valid checksum over a graph section that is not a graph on the rows
    graph = build_qbg(g)
    n, edges, n_pos = graph.n, graph.n_edges(), g.n_pos

    def changed(name, at, value):
        a = getattr(graph, name).copy()
        a[at] = value
        return a

    not_a_graph = {
        "vertex_count": dict(n=n + 1),
        "ptr_length": dict(out_ptr=np.append(graph.out_ptr, edges)),
        "ptr_start": dict(out_ptr=changed("out_ptr", 0, 1)),
        "ptr_decreasing": dict(out_ptr=changed("out_ptr", 1, graph.out_ptr[2] + 1)),
        "ptr_end": dict(out_ptr=changed("out_ptr", -1, edges - 1)),
        "edge_arrays": dict(out_kind=graph.out_kind[:-1]),
        "endpoint_high": dict(out_dst=changed("out_dst", 0, n)),
        "endpoint_negative": dict(out_dst=changed("out_dst", 0, -1)),
        "kind": dict(out_kind=changed("out_kind", 0, 2)),
        "root": dict(out_root=changed("out_root", 0, n_pos)),
        "weight_enc": dict(weight_enc=changed("weight_enc", 0, graph.weight_enc[0] + 1)),
    }
    for name, fields in not_a_graph.items():
        forged = tmp_path / f"{name}.wqbg"
        save_cache(forged, g, dataclasses.replace(graph, **fields))
        with pytest.raises(CacheError):
            load_cache(forged)
        assert g.enumerate() is table and build_qbg(g) is graph, name

    # a valid checksum over bytes that no section reads
    flags_at = body.index(table.mat.tobytes()) - 8 - 1  # before the rows' u64 size
    no_flag = bytearray(body)
    no_flag[flags_at] = 0
    unread = {"flag_cleared": bytes(no_flag), "appended": body + b"garbage!"}
    for name, bad_body in unread.items():
        forged = tmp_path / f"{name}.wqbg"
        forged.write_bytes(bad_body + struct.pack("<I", zlib.crc32(bad_body)))
        with pytest.raises(CacheError, match="after its last section"):
            load_cache(forged)
        assert g.enumerate() is table, name


def test_graph_section_for_a_group_without_one(tmp_path):
    # a well-formed edgeless section under a valid checksum, for groups that
    # build_qbg refuses: no coroots (H3), and weights that do not pack (9A1)
    for label in ("H3", "9A1"):
        g = get_group(label)
        n = len(g.enumerate())
        empty = np.zeros(0, dtype=np.int64)
        fake = qbg.QuantumBruhatGraph(g, n, np.zeros(n + 1, dtype=np.int64), empty,
                                      empty.astype(np.int8), empty.astype(np.int32),
                                      np.zeros(g.n_pos, dtype=np.int64))
        path = tmp_path / f"{label}.wqbg"
        save_cache(path, g, fake)
        with pytest.raises(CacheError, match=label):
            load_cache(path)


def test_old_cache_version_refused(tmp_path, capsys):
    g = get_group("A2")
    path = tmp_path / "A2.wqbg"
    save_cache(path, g, build_qbg(g))
    body = bytearray(path.read_bytes()[:-4])
    body[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    assert main(["cache", "load", "--path", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unsupported cache version 1" in err


def test_rank_above_eight_refused(capsys):
    # path weights pack a base-256 digit per coordinate into an int64
    for argv in (["qbg", "dist", "--type", "9A1", "--from", "e", "--to", "e"],
                 ["dim", "xmub", "--type", "9A1", "--mu", ",".join(["40"] * 9),
                  "--b", "nu=0", "def=0"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "rank 9" in err and "Traceback" not in err, argv
    code, doc = run_cli(capsys, "group", "enum", "--type", "9A1")
    assert code == 0 and doc["result"]["order"] == 512


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
    other._cache_enum(mat)
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
    # a well-formed section whose edges are not the group's: two out_dst
    # entries swapped, under a valid checksum
    lo = int(graph.out_ptr[0])
    hi = next(i for i in range(lo + 1, graph.n_edges()) if graph.out_dst[i] != graph.out_dst[lo])
    swapped = graph.out_dst.copy()
    swapped[[lo, hi]] = swapped[[hi, lo]]
    _check_csr(graph.out_ptr, swapped, graph.out_kind, graph.out_root, graph.n, g.n_pos)
    forged = tmp_path / "swapped.wqbg"
    save_cache(forged, g, dataclasses.replace(graph, out_dst=swapped))
    with pytest.raises(CacheError):
        load_cache(forged)
    assert build_qbg(g) is graph


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
