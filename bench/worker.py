"""One workload in its own process: set up, run whole rounds, report.

Started by run.py as
    python3 bench/worker.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
It prints one JSON line: the counts, the timings and, with --trace 1, the
per-layer metrics of one traced round.  The queries run as a closed loop on
one thread: each starts when the previous one has returned.

A run repeats the query set in whole rounds.  After every query it times a
fixed reference loop of `Fraction` additions, which gauges how fast the
machine runs at that moment.  A round's query times are scaled by
REFERENCE_S / (the round's mean reference time): they become the times at
the speed at which the loop takes REFERENCE_S.  `wall_s` is the median over
the rounds of a round's scaled total, `query_ms_p50` the median over the
rounds of a round's scaled median query.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]

# About the reference loop's fastest time on the machine that the README's
# numbers come from; timings are reported at the speed where it takes this.
REFERENCE_S = 0.0002


def load_ordercone():
    """Import the package from the checkout's source tree, and only from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ordercone

    if not Path(ordercone.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ordercone was imported from {ordercone.__file__}, not from {src}")
    return ordercone


def reference() -> float:
    """Time a fixed piece of exact arithmetic that does not touch ordercone."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i, i + 7)
    return time.perf_counter() - t0


def run_round(queries, failures: list[str], tracer=None) -> tuple[list[float], float]:
    """Run every query once; return the time of each and the round's speed.

    The speed is REFERENCE_S over the mean time of the reference loop run
    after each query.  Checks run untimed.
    """
    times = []
    refs = []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.current_request = i
        t0 = time.perf_counter()
        try:
            got = q.run()
        except Exception as exc:  # a raising query is a failed query
            times.append(time.perf_counter() - t0)
            refs.append(reference())
            failures.append(f"{q.kind} #{i} raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        refs.append(reference())
        try:
            q.check(got)
        except Exception as exc:  # CheckFailed, or an answer of the wrong shape
            failures.append(f"{q.kind} #{i} failed its check: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.current_request = -1
    return times, REFERENCE_S * len(refs) / sum(refs)


def scaled_wall(rounds) -> float:
    """Median over rounds of the round's total time at the reference speed."""
    return statistics.median(sum(times) * speed for times, speed in rounds)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    oc = load_ordercone()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    queries = workloads.SETUPS[args.workload](oc, random.Random(args.seed))
    first_query_at = time.monotonic()

    failures: list[str] = []
    rounds: list[tuple[list[float], float]] = []
    # With --trace 1: the per-layer metrics cover set-up and the first round,
    # then traced and untraced rounds alternate, so that both see the machine
    # in the same states and the tracing overhead compares like with like.
    traced_rounds: list[tuple[list[float], float]] = []
    if tracer is not None:
        traced_rounds.append(run_round(queries, failures, tracer))
        tracer.uninstall()
        layer = tracer.metrics()
        layer["trace.spans"] = len(tracer.start)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": layer, **tracer.spans()}, fh)
        print(f"trace written to {path}", file=sys.stderr)
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(queries, failures))
        if tracer is not None:
            tracer = Tracer()
            tracer.install()
            traced_rounds.append(run_round(queries, failures, tracer))
            tracer.uninstall()

    for line in failures[:10]:
        print(line, file=sys.stderr)
    out = {
        "first_query_at": first_query_at,
        "attempted": (len(rounds) + len(traced_rounds)) * len(queries),
        "failed": len(failures),
        "rounds": len(rounds),
        "queries_per_round": len(queries),
        "round_walls_s": [sum(times) for times, _ in rounds],
        "round_speeds": [speed for _, speed in rounds],
        "wall_s": scaled_wall(rounds),
        "query_ms_p50": 1000 * statistics.median(statistics.median(times) * speed for times, speed in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced_rounds:
        # The first traced round is cold and has no untraced partner.
        layer["trace.overhead_pct"] = 100 * (scaled_wall(traced_rounds[1:]) / out["wall_s"] - 1)
        out["per_layer"] = layer
    print(json.dumps(out))


if __name__ == "__main__":
    main()
