"""Benchmark runner for degmatch: one seeded closed-loop workload per run.

    python3 benchmark/run.py --workload realize-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  One client runs one operation at a time.  Whole rounds
of operations (see workloads.py) run until their summed time reaches
--seconds and at least MIN_OPS have run; input generation and output audits
happen between operations and are not timed.

Times are CPU seconds of the process doing the work (time.process_time),
rescaled to a reference machine speed.  On a shared virtual machine wall
time also counts the time the virtual CPU was not running this process, and
even CPU time per instruction drifts by up to a factor of two from second to
second as the host's load changes.  So a speed probe, a fixed pure-Python
loop that does not touch degmatch (probe.py), runs three times in every gap
between operations, and each operation's CPU time is multiplied by
PROBE_REF / (median of the probes just before and just after it).  A time
reads as the CPU time the operation would take on a machine where one probe
takes PROBE_REF seconds; a change in the program moves it, a change in the
machine's speed mostly does not.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
twice, untraced and traced, prints the per-layer metrics and the tracing
overhead, and writes the spans and the per-function n-scaling table to
.bench_out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
IMPORTS = 7  # cold imports per run; setup_s is their median
PROBE_REF = 1e-3  # CPU seconds of one probe run at the reference speed
WALL_LIMIT = 150.0  # seconds; a run stops early rather than overrun


def rescale(before: list[float], after: list[float]) -> float:
    """Factor from CPU seconds to seconds at the reference speed."""
    return PROBE_REF / statistics.median(before + after)


def cold_import_seconds() -> float:
    """Median CPU time of a fresh interpreter, from its start through `import degmatch`.

    Each interpreter probes its speed just before and just after the import,
    on the CPU it runs on; the CPU time of the first probes is left out of
    the import's time, and the import is rescaled by all six.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); from probe import probe; "
        "t0 = time.process_time(); before = probe(); skip = time.process_time() - t0; "
        f"sys.path.insert(0, {str(SRC)!r}); import degmatch; "
        "t = time.process_time() - skip; print(t, *before, *probe())"
    )
    times = []
    for _ in range(IMPORTS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, capture_output=True, text=True
        )
        t, *probes = map(float, out.stdout.split())
        times.append(t * rescale(probes, []))
    return statistics.median(times)


def attempt(op, call=None) -> tuple[str, float, str | None]:
    """Time one operation, then audit it: (kind, CPU seconds, failure or None)."""
    t0 = time.process_time()
    try:
        out = call(op.run) if call else op.run()
        err = None
    except Exception as exc:  # a raising operation is a failed operation
        err = f"{type(exc).__name__}: {exc}"
    dt = time.process_time() - t0
    if err is None:
        try:
            err = op.audit(out)
        except Exception as exc:
            err = f"audit raised {type(exc).__name__}: {exc}"
    return op.kind, dt, err


def run_loop(workload, budget: float, deadline: float, tracer=None):
    """Run whole rounds of operations until `budget` CPU seconds of timed work are done.

    Records are (kind, CPU seconds, seconds at the reference speed, failure
    or None).  With a tracer each operation runs twice on the same inputs,
    untraced and traced, alternating which goes first, so the two lists of
    records compare like for like.  Returns (untraced records, traced records).
    """
    plain, traced = [], []
    busy = 0.0
    i = 0
    size = len(workload.items)
    before = probe()
    while (busy < budget or i < MIN_OPS or i % size) and time.perf_counter() < deadline:
        op = workload.op(i)
        sides = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for on in sides:
            kind, dt, err = attempt(op, (lambda f, i=i: tracer.call(i, f)) if on else None)
            after = probe()
            (traced if on else plain).append((kind, dt, dt * rescale(before, after), err))
            before = after
            busy += dt
        i += 1
    return plain, traced


def summarize(records) -> dict:
    """End-to-end figures from the reference-speed times of the records."""
    ok = sorted(ref for _, _, ref, err in records if err is None)
    if not ok:
        return {"ops_per_s": 0.0, "latency_p50_ms": 0.0, "latency_p90_ms": 0.0, "samples": 0}
    deciles = statistics.quantiles(ok, n=10, method="inclusive")
    return {
        "ops_per_s": len(ok) / sum(ref for _, _, ref, _ in records),
        "latency_p50_ms": 1e3 * statistics.median(ok),
        "latency_p90_ms": 1e3 * deciles[8],
        "samples": len(ok),
        "beyond_p90": sum(dt > deciles[8] for dt in ok),
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def report(workload: str, seed: int, records, label: str) -> None:
    kinds: dict[str, int] = {}
    for kind, *_ in records:
        kinds[kind] = kinds.get(kind, 0) + 1
    s = summarize(records)
    fails = [err for *_, err in records if err]
    cpu = sum(dt for _, dt, _, _ in records)
    print(
        f"# {workload} seed={seed} {label}: {len(records)} ops "
        f"({', '.join(f'{k} {c}' for k, c in kinds.items())}); "
        f"{s['samples']} latency samples, {s.get('beyond_p90', 0)} beyond p90; "
        f"fail_frac {len(fails) / max(1, len(records)):.4f}; "
        f"{len(records) / max(cpu, 1e-9):.4f} ops per CPU second unscaled"
    )
    for err in fails[:5]:
        print(f"#   failed: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["realize-large", "decide-exact", "sweep-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # one client and no extra threads: keep numpy's BLAS pool, which would
    # otherwise start threads at import, to the calling thread; the cold
    # imports inherit this, so their CPU time is the import's own work
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "degmatch" / "__init__.py").is_file():
        print(f"benchmark: no degmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import degmatch

    if Path(degmatch.__file__).resolve().parent != SRC / "degmatch":
        print(f"benchmark: imported degmatch from {degmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    start = time.perf_counter()
    deadline = start + WALL_LIMIT
    info = machine()
    print(f"# machine: {json.dumps(info)}")
    setup_s = None if args.trace else cold_import_seconds()
    workload, totals_ok = workloads.build(args.workload, args.seed)
    # the benchmark's own long-lived inputs should not lengthen the program's
    # garbage collections
    gc.collect()
    gc.freeze()
    if not totals_ok:
        print("#   failed: known input totals (46,987 sequences, 945 matchings) not met")

    if not args.trace:
        records, _ = run_loop(workload, args.seconds, deadline)
        report(args.workload, args.seed, records, "untraced")
        s = summarize(records)
        metrics = {
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "latency_p50_ms": (s["latency_p50_ms"], "ms"),
            "latency_p90_ms": (s["latency_p90_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        with tracer:
            plain, traced = run_loop(workload, args.seconds, deadline, tracer)
        report(args.workload, args.seed, plain, "untraced")
        report(args.workload, args.seed, traced, "traced")
        records = plain + traced
        base = summarize(plain)["ops_per_s"]
        ratio = summarize(traced)["ops_per_s"] / base if base else 0.0
        units = tracing.metric_units()
        values = tracer.metrics()
        values[tracing.OVERHEAD] = ratio
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        tracer.write(
            OUT / f"{args.workload}-seed{args.seed}",
            {"workload": args.workload, "seed": args.seed, "machine": info,
             "ops": len(traced), "ops_per_s_ratio": ratio},
        )

    failed = sum(1 for *_, err in records if err)
    print(json.dumps({
        "correct": failed == 0 and totals_ok and len(records) > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
