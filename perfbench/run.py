"""latgauss benchmark: one seeded workload per process, checked exactly.

    python3 perfbench/run.py --workload decode-r8 --seed 4 --seconds 40 --trace 0

With --trace 0 it times the workload's set-up several times, then runs a
closed loop with one caller for --seconds, checks every output and prints
the end-to-end metrics. With --trace 1 it runs a fixed amount of the same
work three times (warm-up, untraced, traced), requires identical outputs
from the last two and prints the per-layer metrics. The last stdout line is the JSON result; the lines
before it carry the environment record and details, which are also written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# one BLAS thread unless the caller sets one: on a two-core host the decode
# kernel runs as fast with one, and spinning idle BLAS threads made the
# latency tail noisier between runs (perfbench/BASELINE.md)
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# op_tail_ms is the highest of these percentiles with at least
# TAIL_BEYOND samples above it. The ladder stops at p90: with p99 on it, a
# run of about 1,000 ops switched between p99 and p90 as its op count
# crossed 1,000, and p99 rests on the ten slowest calls, which the host's
# hiccups set; a faster program would also be graded on a higher percentile
TAIL_LADDER = (90.0, 50.0)
TAIL_BEYOND = 10

# untimed calls between set-up and the timed loop: the first decode calls
# after a load run up to twice as slow while the process grows its heap
WARMUP_CALLS = 4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}


def tail(samples):
    """(percentile, value, beyond): the highest TAIL_LADDER percentile with
    at least TAIL_BEYOND samples strictly above its nearest-rank value.

    Tied samples (the ops of one batched call) never count as beyond. The
    median stands in when no ladder percentile qualifies.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        value = xs[max(math.ceil(p / 100.0 * n), 1) - 1]
        beyond = n - bisect.bisect_right(xs, value)
        if beyond >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, value, beyond


def op_p50(by_op):
    """Median over the distinct ops of each op's median latency.

    The timed loop cycles through a fixed set of ops, so each is timed
    several times. Taking each op's median first keeps a host slowdown
    during one repeat from moving the op, and keeps the statistic
    proportional to the ops' costs: the latencies of single calls mix
    cheap and dear ops, and their median jumped between the two groups
    from run to run (perfbench/BASELINE.md).
    """
    return statistics.median(statistics.median(v) for v in by_op.values())


def _blas():
    """BLAS library and version as numpy reports them, with the thread
    settings it was loaded under."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = {name: os.environ.get(name) for name in BLAS_THREADS_ENV}
    return info


def environment(seed):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "seed": seed,
    }


def sources_present():
    """Put the checkout's src/ first on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "latgauss" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def measure(wl, seconds):
    import workloads

    setup = workloads.run_setups(wl, wl.setups)
    calls = [(k, workloads.run_call(wl, k)) for k in range(WARMUP_CALLS)]
    latencies = []
    by_op = {}
    start = time.perf_counter()
    deadline = start + seconds
    k = WARMUP_CALLS
    while True:
        t0 = time.perf_counter()
        outs = workloads.run_call(wl, k)
        t1 = time.perf_counter()
        latencies.extend([t1 - t0] * len(outs))
        for key in wl.keys(k):
            by_op.setdefault(key, []).append(t1 - t0)
        calls.append((k, outs))
        k += 1
        if t1 >= deadline:
            break
    elapsed = t1 - start
    attempted, failed, wrong, reasons = workloads.check_all(wl, calls)
    pct, tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_ms": op_p50(by_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples_s": setup,
        "setup_errors": wl.setup_errors,
        "timed_s": elapsed,
        "timed_calls": k - WARMUP_CALLS,
        "op_tail": {"percentile": pct, "samples": len(latencies), "beyond": beyond},
        "failed_frac": failed / attempted,
        "op_p50": {"distinct_ops": len(by_op),
                   "repeats": [min(map(len, by_op.values())), max(map(len, by_op.values()))],
                   "call_median_ms": statistics.median(latencies) * 1e3},
        "failures": reasons,
    }
    detail["latencies_ms"] = [x * 1e3 for x in latencies]  # kept out of stdout
    return attempted, failed, wrong, metrics, detail


def fixed_pass(name, seed, tracer=None):
    """trace_setups set-ups, then trace_calls calls.

    Inputs are generated afresh, so no lattice arrives with warm caches.
    Returns (set-up wall s, calls wall s, outputs, workload); with a
    tracer, spans carry the op id "setup" or the call index.
    """
    import workloads

    wl = workloads.WORKLOADS[name](seed, OUT)
    if tracer is not None:
        tracer.op = "setup"
    t0 = time.perf_counter()
    workloads.run_setups(wl, wl.trace_setups)
    t1 = time.perf_counter()
    calls = []
    for k in range(wl.trace_calls):
        if tracer is not None:
            tracer.op = k
        calls.append((k, workloads.run_call(wl, k)))
    return t1 - t0, time.perf_counter() - t1, calls, wl


def traced(name, seed):
    import tracing
    import workloads

    fixed_pass(name, seed)  # first-use costs in the process land here
    setup0, ops0, calls0, wl0 = fixed_pass(name, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup1, ops1, calls1, wl = fixed_pass(name, seed, tracer)
    finally:
        tracer.remove()
    same = (calls0 == calls1 and wl0.setup_outputs() == wl.setup_outputs()
            and wl0.setup_errors == wl.setup_errors)
    attempted, failed, wrong, reasons = workloads.check_all(wl, calls1)
    metrics = tracer.metrics((setup1 + ops1) / (setup0 + ops0) - 1.0)
    phases = {}
    for phase, wall in (("setup", setup1), ("ops", ops1)):
        layers = tracer.layer_self(setup=phase == "setup")
        layers["(benchmark)"] = wall - sum(layers.values())
        phases[phase] = {
            "wall_s": wall,
            "dominant_layer": max(layers, key=layers.get),
            "self_s_by_layer": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        }
    detail = {
        "untraced_wall_s": {"setup": setup0, "ops": ops0},
        "outputs_identical": same,
        "phases": phases,
        "inner_by_rank": {str(r): dict(zip(("calls", "none", "errors"), v))
                          for r, v in sorted(tracer.inner_by_rank.items())},
        "setup_errors": wl.setup_errors,
        "failures": reasons,
    }
    return attempted, failed, wrong or not same, metrics, detail, tracer.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for name in BLAS_THREADS_ENV:
        os.environ.setdefault(name, "1")
    if not sources_present():
        print("error: no latgauss sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    print("env " + json.dumps(env), flush=True)

    spans = None
    if args.trace:
        attempted, failed, wrong, metrics, detail, spans = traced(args.workload, seed)
    else:
        wl = workloads.WORKLOADS[args.workload](seed, OUT)
        attempted, failed, wrong, values, detail = measure(wl, args.seconds)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {"workload": args.workload, "env": env, "metrics": metrics, "detail": detail}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
    brief = {k: v for k, v in detail.items() if k != "latencies_ms"}
    print("detail " + json.dumps(brief), flush=True)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
