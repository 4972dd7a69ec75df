"""Run one benchmark workload against the untensor sources of this checkout.

    python3 bench/run.py --workload recover --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each operation starts when the
previous one and its correctness check have finished.  The loop runs for
--seconds and for at least MIN_OPS operations, so that at least ten latency
samples lie beyond p90.  --trace 0 prints the end-to-end metrics; --trace 1
installs the span tracer, prints the per-layer metrics, and writes the spans
to .bench_out/.  --smoke runs the workload on 2x2: one copy, one operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A wrong result exits 1 with no metrics; a
checkout without src/untensor exits 2.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
COPIES = 8
HARD_CAP_S = 120.0
SLICES = 10


def load_program():
    """Import untensor from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "untensor" / "__init__.py").is_file():
        print(f"bench: no untensor sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import untensor

    if Path(untensor.__file__).resolve().parent != (src / "untensor").resolve():
        print(f"bench: imported untensor from {untensor.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="2x2 shapes, one operation, one set-up")
    return p.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep the single-threaded run on one CPU, so migrations between CPUs of
    different speed do not add to the run-to-run spread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    pin_to_one_cpu()
    import tracing
    from workloads import WORKLOADS, entry_bits

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    shape = (2, 2) if args.smoke else cls.shape
    max_ops = 1 if args.smoke else None
    window = 1 if args.smoke else MIN_OPS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # Independent copies: setup_s is the median of their set-up times, and
    # operations go round-robin over them, so no single instance sets a run's speed.
    copies, setup_times = [], []
    for k in range(1 if args.smoke else COPIES):
        wl = cls(args.seed, k, shape, pool=-(-window // COPIES))
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
        copies.append(wl)
    if not all(wl.validate() for wl in copies):
        print("bench: set-up built a reconstruction that fails its round trip", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    gc.collect()

    latencies: list[float] = []
    verified: list[bool] = []
    errors: Counter = Counter()
    wrong = 0
    oracle_calls = samples = bits = 0
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if (max_ops is not None and i >= max_ops) or (elapsed >= args.seconds and i >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break
        wl = copies[i % len(copies)]
        inp = wl.inputs(i // len(copies))
        before = [(s.oracle_calls, s.samples) for s in wl.stats(inp, None)]
        out = None
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # the loop must go on; the failure is counted and shown
            errors[type(exc).__name__] += 1
            if sum(errors.values()) <= 3:
                traceback.print_exc(file=sys.stderr)
        finally:
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
        ok = out is not None and wl.check(inp, out)
        verified.append(ok)
        if out is not None and not ok:
            wrong += 1
            print(f"bench: operation {i} returned a wrong result", file=sys.stderr)
        if ok and i < window:
            after = [(s.oracle_calls, s.samples) for s in wl.stats(inp, out)]
            oracle_calls += sum(a[0] for a in after) - sum(b[0] for b in before)
            samples += sum(a[1] for a in after) - sum(b[1] for b in before)
            bits = max(bits, entry_bits(wl.recons(inp, out)))
        i += 1
    loop_s = perf_counter() - start

    attempted = i
    failed = wrong + sum(errors.values())
    busy_s = sum(latencies)
    ops_per_s, p50 = slow_stretches(latencies, verified)
    ms = sorted(1000 * x for x in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    print(
        f"bench: {args.workload} {shape[0]}x{shape[1]} seed {args.seed} trace {args.trace}: "
        f"{attempted} operations ({len(ms)} latency samples, {len(ms) - sum(x <= p90 for x in ms)} beyond p90) "
        f"in {loop_s:.2f} s of loop, {busy_s:.2f} s inside timed calls; "
        f"{ops_per_s:.3f} verified ops/s in the slower stretches"
    )
    print(json.dumps({"section": "failures", "attempted": attempted, "failed": failed,
                      "failed_frac": failed / attempted, "wrong": wrong, "raised": dict(sorted(errors.items()))}))
    if attempted < MIN_OPS and max_ops is None:
        print(f"bench: warning: only {attempted} operations before the {HARD_CAP_S:.0f} s cap", file=sys.stderr)

    if wrong:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        window = min(window, attempted)
        counts, timings = tracing.layer_metrics(tracer.spans, attempted, window)
        counts["tensor_space.oracle_calls_per_op"] = oracle_calls / window
        counts["tensor_space.samples_per_op"] = samples / window
        counts["linalg.max_entry_bits"] = bits
        print(json.dumps({"section": "counters", "window_ops": window, "counters": counts}, sort_keys=True))
        print(json.dumps({"section": "timings", "ops": attempted, "self_s_per_op": timings}, sort_keys=True))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = {name: (value, _unit(name)) for name, value in {**counts, **timings}.items()}
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def slow_stretches(latencies: list[float], verified: list[bool]) -> tuple[float, float]:
    """ops_per_s and latency_p50_ms as the run's slower stretches saw them.

    The run is cut into SLICES consecutive stretches.  ops_per_s is the lower
    quartile of their verified-operation rates, and the p50 latency in ms is
    the upper quartile of their median latencies.  The CPU's speed jumps
    between two levels during a run; this keeps a stretch at the faster
    level from moving either figure unless it covers most of the run.
    """
    n = len(latencies)
    if n < SLICES:
        return sum(verified) / sum(latencies), 1000 * statistics.median(latencies)
    cuts = [n * j // SLICES for j in range(SLICES + 1)]
    stretches = list(zip(cuts, cuts[1:]))
    rates = [sum(verified[a:b]) / sum(latencies[a:b]) for a, b in stretches]
    medians = [1000 * statistics.median(latencies[a:b]) for a, b in stretches]
    return statistics.quantiles(rates, n=4)[0], statistics.quantiles(medians, n=4)[2]


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "linalg.max_entry_bits":
        return "bits"
    if name.endswith(".rows"):
        return "rows/op"
    if name.endswith("samples_per_op"):
        return "samples/op"
    return "calls/op"


if __name__ == "__main__":
    sys.exit(main())
