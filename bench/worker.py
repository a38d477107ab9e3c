"""One fresh process: set up wqbg, then (unless --setup-only) run one round.

Usage (from the root of a checkout):

    python3 bench/worker.py --workload dim-sweep --seed 1 --out-dir .bench_out \
        [--setup-only] [--trace 0|1]

Prints one JSON object on its last stdout line.  Set-up runs from just
before ``import wqbg`` to the end of the enumeration of every type the
workload uses; the round runs from there to the last checked answer.  The
expected answers are computed before either clock starts.  ``setup_s`` is
wall seconds; the round is reported both as wall seconds (``run_wall_s``)
and in reference seconds (``run_s``; see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402


def run_round(ops, execute, out_dir) -> dict:
    """Run every operation once; an operation fails if it raises or its check does."""
    failed = wrong = 0
    for op in ops:
        try:
            answer = execute(op, out_dir)
        except Exception:
            failed += 1
            print(f"bench: {op.name()} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        problems = workloads.check(op, answer)
        if problems:
            failed += 1
            wrong += 1
            print(f"bench: {op.name()} wrong: {'; '.join(problems)}", file=sys.stderr)
    return dict(attempted=len(ops), failed=failed, wrong=wrong)


def setup(workload: str) -> None:
    import wqbg  # noqa: F401
    from wqbg import cache, cli, verify  # noqa: F401  (not imported by the package)
    from wqbg.coxeter import get_group

    for label in workloads.setup_types(workload):
        get_group(label).enumerate()


def traced(args, ops, out_dir: Path) -> dict:
    """One round under the tracer; its times are raw and include no probe."""
    import wqbg  # noqa: F401  (the wrappers need the modules loaded)
    import tracer

    rec = tracer.Recorder()
    tracer.install(rec)
    t0 = time.perf_counter()  # traced set-up spans start here
    setup(args.workload)
    t1 = time.perf_counter()
    result = run_round(ops, workloads.execute, out_dir)
    result.update(setup_s=t1 - t0, run_s=time.perf_counter() - t1,
                  per_layer=tracer.per_layer(rec))
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    rec.dump(trace_path)
    result["trace_file"] = str(trace_path)
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()
    out_dir = Path(args.out_dir)

    ops = None if args.setup_only else workloads.make_ops(args.workload, args.seed)
    if args.trace:
        print(json.dumps(traced(args, ops, out_dir)))
        return 0

    t0 = time.perf_counter()
    setup(args.workload)
    result = dict(setup_s=time.perf_counter() - t0)
    if ops is not None:
        with speed.SpeedProbe() as probe:
            t1 = probe.start()
            result.update(run_round(ops, workloads.execute, out_dir))
            run_wall, run_ref = probe.measure(t1)
        result.update(run_s=run_ref, run_wall_s=run_wall,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
