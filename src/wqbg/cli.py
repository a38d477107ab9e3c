"""Command-line surface.

Output is a single JSON document on stdout:

    {"command": ..., "input": ..., "result": ..., "elapsed_ms": ...}

(or TSV for the tabular commands with --format tsv).  Exit codes: 0 success,
2 argument/parse errors, 3 a hypothesis failure, 4 budget exceeded.
Rationals are emitted as "p/q" strings; generator words are 1-based.
Environment variables with the prefix WQBG_ override the corresponding
flags (WQBG_BUDGET, WQBG_ORACLE_BUDGET, WQBG_FORMAT, WQBG_CACHE_DIR).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .affine import AffineWeylGroup, OracleBudgetExceeded, StarHypothesisError, affine_group
from .cartan import BasisMismatchError, Coweight, TypeLabelError
from .coxeter import (
    Automorphism,
    BudgetExceeded,
    automorphism_from_one_line,
    diagram_maps,
    get_group,
    identity_automorphism,
)
from .dimension import SuperregularityError, dim_x, virtual_dimension
from .newton import SigmaConjClass, make_class
from .scalars import frac_str
from . import cache as cache_mod
from . import qbg as qbg_mod
from . import verify as verify_mod

EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
_FORMATS = ("json", "tsv")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _env_default(name: str, fallback, choices=None):
    v = os.environ.get(f"WQBG_{name}")
    if v is None:
        return fallback
    if choices is not None and v not in choices:
        # argparse checks choices only against given flags, not defaults
        raise CliError(f"WQBG_{name}={v!r} is not one of {', '.join(choices)}", EXIT_PARSE)
    try:
        return type(fallback)(v)
    except ValueError:
        raise CliError(
            f"WQBG_{name}={v!r} is not a valid {type(fallback).__name__}", EXIT_PARSE
        )


def _parse_sigma(group, text: str) -> Automorphism:
    if text in ("id", "identity"):
        return identity_automorphism(group)
    if text == "adw0":
        return group.ad_w0_permutation()
    if text == "flip":
        # the maps come lazily: a second one that is not the identity settles it
        m, nodes = group.rs.coxeter_matrix, tuple(range(group.rank))
        nontrivial = list(itertools.islice(
            (f for f in diagram_maps(m, m, nodes) if f != nodes), 2))
        if not nontrivial:
            raise CliError(
                f"{group.label} has no non-trivial diagram automorphism", EXIT_PARSE
            )
        if len(nontrivial) != 1:
            raise CliError(
                f"--sigma flip is ambiguous for {group.label}; give one-line notation",
                EXIT_PARSE,
            )
        return Automorphism(group, nontrivial[0])
    try:
        return automorphism_from_one_line(group, text)
    except ValueError as exc:
        raise CliError(f"bad automorphism {text!r}: {exc}", EXIT_PARSE)


def _parse_number(kind, text: str, name: str):
    """`text` as an int or a Fraction (`kind`), refused naming `name` and it."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        noun = "an integer" if kind is int else "a rational number"
        raise CliError(f"{name} {text!r} is not {noun}", EXIT_PARSE)


def _parse_word(group, text: str, name: str):
    """A 1-based generator word ("1 2 1", or "e" for the identity), refused
    naming `name` and the bad token."""
    tokens = [] if text.strip() == "e" else text.replace(",", " ").split()
    letters = [_parse_number(int, t, f"{name} generator") for t in tokens]
    try:
        return group.element_from_word(letters)
    except ValueError as exc:
        raise CliError(f"{name} {text!r}: {exc}", EXIT_PARSE)


def _parse_mu(rs, text: str) -> Coweight:
    rs.require_crystallographic()
    coords = [_parse_number(int, t, "--mu coordinate") for t in text.replace(",", " ").split()]
    basis = "lattice" if rs.lattice_rank != rs.rank else "coroot"
    return rs.coweight(coords, basis=basis)


def _parse_b(rs, tokens: list[str]) -> SigmaConjClass:
    rs.require_crystallographic()
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliError(f"--b expects key=value tokens, got {tok!r}", EXIT_PARSE)
        k, v = tok.split("=", 1)
        fields[k] = v
    unknown = sorted(set(fields) - {"nu", "def", "kappa"})
    if unknown:
        raise CliError(f"--b takes nu, def and kappa, not {unknown[0]!r}", EXIT_PARSE)
    if "nu" not in fields or "def" not in fields:
        raise CliError("--b needs nu=... and def=...", EXIT_PARSE)
    nu_txt = fields["nu"]
    if nu_txt == "0":
        nu = [Fraction(0)] * rs.lattice_rank
    else:
        nu = [_parse_number(Fraction, t, "--b nu coordinate") for t in nu_txt.split(",")]
        if len(nu) != rs.lattice_rank:
            raise CliError("nu has the wrong number of coordinates", EXIT_PARSE)
    defect = _parse_number(int, fields["def"], "--b def")
    kappa = None
    if "kappa" in fields:
        tokens = fields["kappa"].split(",") if fields["kappa"] else []
        kappa = tuple(_parse_number(int, t, "--b kappa coordinate") for t in tokens)
        pres = rs.pi1_presentation()
        if len(kappa) != len(pres):
            raise CliError(
                f"kappa needs {len(pres)} coordinates for pi1 {pres}", EXIT_PARSE
            )
    try:
        return make_class(rs, nu, defect, kappa)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)


def _parse_affine(aw: AffineWeylGroup, text: str):
    """Parse "t[c1,c2,...] word" (either part optional)."""
    text = text.strip()
    lam = [0] * aw.rs.lattice_rank
    if text.startswith("t["):
        close = text.find("]")
        if close < 0:
            raise CliError(f"translation {text!r} has no closing ']'", EXIT_PARSE)
        inside = text[2:close]
        tokens = inside.split(",") if inside else []
        lam = [_parse_number(int, t, "--element translation coordinate") for t in tokens]
        if len(lam) != aw.rs.lattice_rank:
            raise CliError("translation has the wrong number of coordinates", EXIT_PARSE)
        word = text[close + 1 :].strip()
    else:
        word = text
    return aw.from_parts(
        aw.group.identity, Coweight(tuple(lam)), _parse_word(aw.group, word, "--element word")
    )


def format_affine(el) -> str:
    return f"t[{','.join(map(str, el.lam))}] {el.u.word() or 'e'}"


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        result = doc.get("result")
        if isinstance(result, list):
            for row in result:
                if isinstance(row, dict):
                    sys.stdout.write("\t".join(str(v) for v in row.values()) + "\n")
                else:
                    sys.stdout.write(str(row) + "\n")
        else:
            sys.stdout.write(str(result) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``main`` sets the WQBG_* defaults
    on it before each parse."""
    p = argparse.ArgumentParser(prog="wqbg", description=__doc__)
    p.add_argument("--format", default="json", choices=_FORMATS)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument(
        "--oracle-budget", type=int, default=60,
        help="cap on l(t^mu) for the brute-force admissible set; it applies "
        "above rank 2 only, and rank 1 and 2 run whatever it says",
    )
    p.add_argument("--cache-dir", default="")
    sub = p.add_subparsers(dest="command", required=True)

    def with_type(sp):
        sp.add_argument("--type", required=True, help="Cartan/Coxeter type label")
        return sp

    rootsys = sub.add_parser("rootsys").add_subparsers(dest="sub", required=True)
    with_type(rootsys.add_parser("info"))

    group = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    with_type(group.add_parser("enum"))

    qbg = sub.add_parser("qbg").add_subparsers(dest="sub", required=True)
    for name in ("dist", "wt"):
        sp = with_type(qbg.add_parser(name))
        sp.add_argument("--from", dest="src", required=True)
        sp.add_argument("--to", dest="dst", required=True)
    sp = with_type(qbg.add_parser("export"))

    adm = sub.add_parser("adm").add_subparsers(dest="sub", required=True)
    sp = with_type(adm.add_parser("oracle"))
    sp.add_argument("--mu", required=True)
    sp = with_type(adm.add_parser("check"))
    sp.add_argument("--mu", required=True)
    sp.add_argument("--element", required=True)

    dim = sub.add_parser("dim").add_subparsers(dest="sub", required=True)
    sp = with_type(dim.add_parser("virtual"))
    sp.add_argument("--element", required=True)
    sp.add_argument("--b", nargs="+", required=True)
    sp.add_argument("--sigma", default="id")
    sp = with_type(dim.add_parser("xmub"))
    sp.add_argument("--mu", required=True)
    sp.add_argument("--b", nargs="+", required=True)
    sp.add_argument("--sigma", default="id")

    report = sub.add_parser("report").add_subparsers(dest="sub", required=True)
    with_type(report.add_parser("table51"))

    ver = sub.add_parser("verify")
    ver.add_argument("suite", choices=sorted(verify_mod.SUITES))
    ver.add_argument("--type", required=True)
    ver.add_argument("--mu")
    ver.add_argument("--sigma", default="id")

    cache = sub.add_parser("cache").add_subparsers(dest="sub", required=True)
    sp = with_type(cache.add_parser("save"))
    sp.add_argument("--qbg", action="store_true",
                    help="save with the QBG flag set; loading builds the graph")
    sp = cache.add_parser("load")
    sp.add_argument("--path", required=True)

    return p


def _run(args) -> dict:
    cmd = args.command
    if cmd == "rootsys" and args.sub == "info":
        rs = get_group(args.type).rs
        return {
            "type": rs.label,
            "rank": rs.rank,
            "n_positive_roots": rs.n_pos_roots,
            "crystallographic": rs.crystallographic,
            "coxeter_matrix": rs.coxeter_matrix,
            "pi1": rs.pi1_presentation() if rs.crystallographic else None,
        }

    if cmd == "group" and args.sub == "enum":
        g = get_group(args.type)
        table = g.enumerate(args.budget)
        return {"order": len(table), "words": [w or "e" for w in table.words()]}

    if cmd == "qbg":
        g = get_group(args.type)
        graph = qbg_mod.build_qbg(g, args.budget)
        table = graph.table
        if args.sub == "export":
            # each vertex's word and each root's weight formed once
            words = [w or "e" for w in table.words()]
            # decode_weight refuses weights above rank 8; a down edge weighs its coroot
            up = ",".join(map(str, graph.decode_weight(0)))
            down = [",".join(map(str, c)) for c in g.rs.coroot_matrix.tolist()]
            tails = np.repeat(np.arange(graph.n), np.diff(graph.out_ptr))
            return [
                dict(src=words[v], dst=words[d], kind="down" if k else "up",
                     weight=down[r] if k else up)
                for v, d, k, r in zip(tails.tolist(), graph.out_dst.tolist(),
                                      graph.out_kind.tolist(), graph.out_root.tolist())
            ]
        src = table.index_of(_parse_word(g, args.src, "--from"))
        dst = table.index_of(_parse_word(g, args.dst, "--to"))
        if args.sub == "dist":
            return qbg_mod.qbg_distance(graph, src, dst)
        return list(qbg_mod.qbg_weight(graph, src, dst))

    if cmd == "adm":
        g = get_group(args.type)
        aw = affine_group(g)
        mu = _parse_mu(g.rs, args.mu)
        if args.sub == "oracle":
            adm = aw.admissible_oracle(mu, args.oracle_budget)
            rows = sorted(format_affine(w) for w in adm.values())
            return {"size": len(rows), "elements": rows}
        el = _parse_affine(aw, args.element)
        adm = aw.admissible_oracle(mu, args.oracle_budget)
        return {"element": format_affine(el), "admissible": el.key() in adm}

    if cmd == "dim":
        g = get_group(args.type)
        if args.sub == "virtual":
            aw = affine_group(g)
            sigma = _parse_sigma(g, args.sigma)
            b = _parse_b(g.rs, args.b)
            el = _parse_affine(aw, args.element)
            return frac_str(virtual_dimension(aw, el, b, sigma))
        sigma = _parse_sigma(g, args.sigma)
        b = _parse_b(g.rs, args.b)
        mu = _parse_mu(g.rs, args.mu)
        report = dim_x(g, mu, b, sigma, args.budget)
        doc = report.to_json_dict()
        if report.value is None:
            raise CliError(
                "hypothesis failure: " + ", ".join(report.witnesses["failed"]),
                EXIT_HYPOTHESIS,
            )
        return doc

    if cmd == "report" and args.sub == "table51":
        g = get_group(args.type)
        return {"lR_w0": g.reflection_length(g.longest_element())}

    if cmd == "verify":
        suite = verify_mod.SUITES[args.suite]
        if args.suite in ("prop-adm", "prop44", "thm61-consistency"):
            if not args.mu:
                raise CliError(f"suite {args.suite} needs --mu", EXIT_PARSE)
            # the suites take the parsed coweight, in whatever basis --mu used
            rep = suite(args.type, _parse_mu(get_group(args.type).rs, args.mu))
        elif args.suite in ("thm52", "lemma43"):
            g = get_group(args.type)
            sigma = _parse_sigma(g, args.sigma)
            rep = suite(args.type, tuple(sigma.perm))
        else:
            rep = suite(args.type)
        if rep.get("skipped"):
            return rep
        if not rep.get("ok"):
            raise CliError(json.dumps(rep, default=str), 1)
        return rep

    if cmd == "cache":
        if args.sub == "save":
            g = get_group(args.type)
            graph = qbg_mod.build_qbg(g, args.budget) if args.qbg else None
            cache_dir = Path(args.cache_dir or ".")
            with cache_mod.os_errors():
                cache_dir.mkdir(parents=True, exist_ok=True)
            path = cache_dir / f"{args.type}.wqbg"
            cache_mod.save_cache(path, g, graph)
            return {"path": str(path), "bytes": path.stat().st_size}
        group, table, graph = cache_mod.load_cache(args.path)
        return {
            "type": group.label,
            "order": len(table),
            "qbg_edges": graph.n_edges() if graph else None,
        }

    raise CliError(f"unhandled command {cmd}", EXIT_PARSE)


def main(argv=None) -> int:
    try:
        # the WQBG_* defaults are read on every call, so a malformed one is a
        # CliError and a changed one takes effect
        parser = build_parser()
        parser.set_defaults(
            format=_env_default("FORMAT", "json", _FORMATS),
            budget=_env_default("BUDGET", 10**6),
            oracle_budget=_env_default("ORACLE_BUDGET", 60),
            cache_dir=_env_default("CACHE_DIR", ""),
        )
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        result = _run(args)
    except CliError as exc:
        print(f"wqbg: {exc}", file=sys.stderr)
        return exc.code
    except (SuperregularityError, StarHypothesisError) as exc:
        # before ValueError, which SuperregularityError subclasses
        print(f"wqbg: hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (TypeLabelError, BasisMismatchError, ValueError) as exc:
        print(f"wqbg: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceeded, OracleBudgetExceeded) as exc:
        print(f"wqbg: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except cache_mod.CacheError as exc:
        print(f"wqbg: cache error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    doc = {
        "command": args.command + (f" {args.sub}" if getattr(args, "sub", None) else ""),
        "input": {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "sub", "format") and v is not None
        },
        "result": result,
        "elapsed_ms": int(1000 * (time.perf_counter() - t0)),
    }
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
