"""Benchmark of `ordercone`: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload bands|queries|structure --seed <n>
                         --seconds <s> --trace 0|1

Run it from the root of a checkout.  It starts the workload in a fresh
Python process (bench/worker.py), so that `setup_s` counts that process's
start, the import of `ordercone`, input generation and space building, up to
the first query.  The last line printed is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  It exits non-zero, printing no result, when the
checkout has no `ordercone` source or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER_TIMEOUT_S = 170


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ordercone" / "__init__.py").is_file():
        print(f"no ordercone source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(ROOT / "bench" / "worker.py")]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = res["per_layer"]
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": res["first_query_at"] - spawned_at,
            "wall_s": res["wall_s"],
            "query_ms_p50": res["query_ms_p50"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"reported metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed {args.seed}: {res['rounds']} rounds of {res['queries_per_round']} queries,"
        f" round walls {' '.join(f'{w:.3f}' for w in res['round_walls_s'])} s,"
        f" speeds {' '.join(f'{v:.3f}' for v in res['round_speeds'])}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
