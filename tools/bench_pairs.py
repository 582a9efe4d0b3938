"""Compare two source checkouts on the benchmark and write one evidence file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_9.json \\
        --what "one line on the change" \\
        --pairs realize-large 901 910 \\
        --single decide-exact 911 --single sweep-small 912 \\
        --traced realize-large 913 \\
        --functions graphic.hh_realize mplus.realize_mplus_trace core.LabeledGraph

Each directory is a checkout holding benchmark/run.py and src/.  The paired
workload runs once per seed on each side, the parent first on odd positions
in the seed list and the change first on even ones; the file keeps every run,
each metric's median and quartiles per side, and on how many seeds the
change's ops_per_s is the higher.  A --single workload runs one pair.  A
--traced workload runs one pair with --trace 1 and keeps, for the named
functions, their calls and self seconds and their per-n scaling tables
(columns n, calls, median_s, total_s, self_s).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
SCALING_COLUMNS = ["n", "calls", "median_s", "total_s", "self_s"]


def command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        "python3", "benchmark/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(last JSON line, machine line) of one benchmark run in root."""
    out = subprocess.run(
        command(workload, seed, seconds, trace), cwd=root, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    machine = next(json.loads(ln.split(":", 1)[1]) for ln in out if ln.startswith("# machine:"))
    return json.loads(out[-1]), machine


def end_to_end(result: dict) -> dict:
    metrics = result["metrics"]
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: metrics[name]["value"] for name in END_TO_END},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair(roots: dict, workload: str, seed: int, seconds: float, trace: int, parent_first: bool):
    order = ["parent", "change"] if parent_first else ["change", "parent"]
    runs = {side: run(roots[side], workload, seed, seconds, trace) for side in order}
    return order, runs


def traced_side(root: Path, result: dict, workload: str, seed: int, functions: list[str]) -> dict:
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    table = json.loads((root / ".bench_out" / f"{workload}-seed{seed}.json").read_text())
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: value for name, value in metrics.items()
            if name.rsplit(".", 1)[0] in functions
        },
        "trace.ops_per_s_ratio": metrics.get("trace.ops_per_s_ratio"),
        "scaling": {
            fn: [[row[c] for c in SCALING_COLUMNS] for row in table["scaling"].get(fn, [])]
            for fn in functions
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--pairs", nargs=3, metavar=("WORKLOAD", "FIRST", "LAST"))
    parser.add_argument("--single", nargs=2, action="append", default=[],
                        metavar=("WORKLOAD", "SEED"))
    parser.add_argument("--traced", nargs=2, metavar=("WORKLOAD", "SEED"))
    parser.add_argument("--functions", nargs="*", default=[])
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc: dict = {
        "what": args.what,
        "untraced_command": " ".join(command("W", 0, args.seconds, 0)).replace(" 0 ", " S ", 1),
    }

    if args.pairs:
        workload, first, last = args.pairs[0], int(args.pairs[1]), int(args.pairs[2])
        seeds = list(range(first, last + 1))
        runs = {}
        for i, seed in enumerate(seeds):
            order, results = pair(roots, workload, seed, args.seconds, 0, i % 2 == 0)
            doc.setdefault("machine", results["parent"][1])
            runs[str(seed)] = {side: end_to_end(results[side][0]) for side in order}
            print(f"{workload} {seed}: " + ", ".join(
                f"{side} {runs[str(seed)][side]['ops_per_s']:.2f}" for side in order
            ), file=sys.stderr)
        wins = sum(r["change"]["ops_per_s"] > r["parent"]["ops_per_s"] for r in runs.values())
        doc["untraced_pairs"] = {
            "workload": workload,
            "seeds": seeds,
            "order": "alternating: parent first on the 1st, 3rd, ... pair, change first on the others",
            "ops_per_s_wins": f"{wins} of {len(seeds)}",
            "summary": {
                name: {
                    side: quartiles([r[side][name] for r in runs.values()])
                    for side in ("parent", "change")
                }
                for name in END_TO_END
            },
            "runs": runs,
        }

    others = {}
    for i, (workload, seed) in enumerate(args.single):
        order, results = pair(roots, workload, int(seed), args.seconds, 0, i % 2 == 0)
        doc.setdefault("machine", results["parent"][1])
        others[workload] = {
            "seed": int(seed),
            "order": order,
            **{side: end_to_end(results[side][0]) for side in order},
        }
    if others:
        doc["other_workloads"] = others

    if args.traced:
        workload, seed = args.traced[0], int(args.traced[1])
        order, results = pair(roots, workload, seed, args.seconds, 1, True)
        doc["traced"] = {
            workload: {
                "seed": seed,
                "command": " ".join(command(workload, seed, args.seconds, 1)),
                "order": order,
                **{
                    side: traced_side(roots[side], results[side][0], workload, seed, args.functions)
                    for side in order
                },
                "scaling_columns": SCALING_COLUMNS,
            }
        }

    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
