"""Benchmark entry point: run one workload of wqbg and print its metrics.

Usage, from the root of a wqbg checkout:

    python3 bench/run.py --workload dim-sweep --seed 1 --seconds 30 --trace 0

Each round is a fresh ``bench/worker.py`` process that imports wqbg from
``src/``, sets it up and runs every operation of the workload once, checking
each answer.  Rounds repeat while the next one still fits in ``--seconds``;
there is always at least one.  Extra set-up-only processes make the
``setup_s`` median rest on at least ``SETUP_SAMPLES`` samples.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over rounds); with ``--trace 1`` a single traced round reports the
per-layer metrics, and its spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# every process must be done before this many seconds have passed
HARD_LIMIT_S = 170


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wqbg" / "__init__.py").is_file():
        print(f"bench: no wqbg sources under {root / 'src'}; run from a wqbg checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(out_dir)]

    if args.trace:
        r = _worker(common + ["--trace", "1"], hard_deadline)
        metrics = {name: {"value": r["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
        print(f"bench: traced run_s {r['run_s']:.3f}, spans in {r['trace_file']}",
              file=sys.stderr)
        print(json.dumps(dict(correct=r["wrong"] == 0, attempted=r["attempted"],
                              failed=r["failed"], metrics=metrics)))
        return 0

    rounds = []
    while True:
        t = time.monotonic()
        rounds.append(_worker(common, hard_deadline))
        took = time.monotonic() - t
        if time.monotonic() + took > start + args.seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(common + ["--setup-only"], hard_deadline)["setup_s"])

    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    print(f"bench: {len(rounds)} round(s); run_s {[round(r['run_s'], 3) for r in rounds]}, "
          f"wall {[round(r['run_wall_s'], 3) for r in rounds]}; "
          f"setup_s {[round(s, 3) for s in setups]}", file=sys.stderr)
    print(json.dumps(dict(
        correct=all(r["wrong"] == 0 for r in rounds),
        attempted=sum(r["attempted"] for r in rounds),
        failed=sum(r["failed"] for r in rounds),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
