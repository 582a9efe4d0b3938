"""Command-line surface tying the library together.

Exit codes: 0 = affirmative / successfully constructed, 1 = checked and
negative, 2 = usage or internal error.  `--json` switches every subcommand
to machine-readable output (schema version 1, documented in the README).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import battery
from .core import (
    CheckReport,
    DegreeSequence,
    LabeledGraph,
    _pairs_text,
    canonical_h_factor,
    canonical_matching,
    graph_to_text,
)
from .errors import (
    DegmatchError,
    InvalidInput,
    NotGraphicError,
    PreconditionError,
)
from .graphic import eg_check, hh_realize, lovasz_pm_check
from .hfactor import disjoint_pms, doublestar_check, hfactor_oracle
from .mplus import corollary_bound_holds, realize_mplus, star_check, tightness_instance
from .packing import OVERFULL_NOTE, pack_report
from .preorder import build_preorder, check_conjectures, hasse_dot
from .switches import matching_from_text, realize_matching, switch_path

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _parse_sequence(text: str) -> DegreeSequence:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InvalidInput("empty degree sequence")
    try:
        entries = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidInput(f"degree sequence {text!r} has a non-integer entry") from exc
    return DegreeSequence(entries)


def _emit_report(report: CheckReport, label: str, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"schema": 1, "check": label, **report.as_dict()}))
    else:
        print(f"{label}: {'pass' if report.verdict else 'fail'}")
        if not report.parity_ok:
            print("  degree sum is odd")
        if not report.structural_ok:
            print("  structural condition fails (n parity / divisibility)")
        k = report.first_fail_k
        if k is not None:
            row = report.row(k)
            print(f"  fails at k={k}: {row.lhs} > {row.rhs}")
        for row in report.rows:
            print(f"  k={row.k} lhs={row.lhs} rhs={row.rhs} slack={row.slack}")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _emit_verdict(label: str, verdict: bool, text: str, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"schema": 1, "check": label, "verdict": verdict}))
    else:
        print(text)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _audit_and_print(g: LabeledGraph, seq: DegreeSequence, contains, as_json: bool) -> int:
    if g.degree_vector() != seq.entries or not (contains <= g.edges):
        print("internal audit failed", file=sys.stderr)
        return EXIT_ERROR
    if as_json:
        _print_graph_json(g)
    else:
        print(_pairs_text(g.edge_list()))
    return EXIT_OK


def _print_graph_json(g: LabeledGraph) -> None:
    print(json.dumps({"schema": 1, "n": g.n, "edges": [list(e) for e in g.edge_list()]}))


def _cmd_check_graphic(args: argparse.Namespace) -> int:
    return _emit_report(eg_check(_parse_sequence(args.sequence)), "graphic", args.json)


def _cmd_check_pm(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    verdict = lovasz_pm_check(seq)
    lines = [f"perfect-matching: {'pass' if verdict else 'fail'}"]
    if seq.n % 2:
        lines.append("  n is odd")
    elif not verdict:
        which = "original" if not eg_check(seq).verdict else "decremented"
        lines.append(f"  the {which} sequence is not graphic")
    return _emit_verdict("perfect-matching", verdict, "\n".join(lines), args.json)


def _cmd_check_mplus(args: argparse.Namespace) -> int:
    return _emit_report(
        star_check(_parse_sequence(args.sequence)), "consecutive-matching", args.json
    )


def _cmd_realize_mplus(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    report = star_check(seq)
    if not report.verdict:
        return _emit_report(report, "consecutive-matching", args.json)
    g = realize_mplus(seq)
    return _audit_and_print(g, seq, canonical_matching(seq.n, "plus").edges, args.json)


def _cmd_realize(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    m = matching_from_text(args.matching, n=seq.n)
    g = realize_matching(seq, m)
    if g is None:
        text = f"no realization of {seq} contains {m}"
        return _emit_verdict("matching", False, text, args.json)
    return _audit_and_print(g, seq, m.edges, args.json)


def _cmd_switch_path(args: argparse.Namespace) -> int:
    m = matching_from_text(args.matching)
    moves = switch_path(m, args.to)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "start": str(m),
                    "target": args.to,
                    "moves": [
                        {"w": mv.w, "x": mv.x, "y": mv.y, "z": mv.z, "kind": mv.kind}
                        for mv in moves
                    ],
                }
            )
        )
    else:
        print(f"{len(moves)} switches to reach {args.to}")
        for mv in moves:
            print(f"  {mv}")
    return EXIT_OK


def _cmd_preorder(args: argparse.Namespace) -> int:
    table = build_preorder(args.n)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(hasse_dot(table))
    payload = table.as_dict()
    if args.check_conjectures:
        payload["conjectures"] = check_conjectures(table).as_dict()
    if args.json:
        print(json.dumps({"schema": 1, **payload}))
    else:
        print(f"{len(table.matchings)} matchings, {len(table.sequences)} feasible sequences")
        for s, row in zip(table.sequences, table.realizable):
            names = [str(m) for m, hit in zip(table.matchings, row) if hit]
            print(f"  {s} realizes {len(names)}: {'; '.join(names)}")
        if args.check_conjectures:
            rep = payload["conjectures"]
            print(f"antisymmetry holds: {rep['antisymmetry_holds']}")
            print(f"switch-converse holds: {rep['switch_converse_holds']}")
            for pair in rep["antisymmetry_counterexamples"]:
                print(f"  mutually comparable: {pair[0]} and {pair[1]}")
            for pair in rep["switch_converse_counterexamples"]:
                print(f"  not switch-reachable: {pair[0]} below {pair[1]}")
    return EXIT_OK


def _cmd_tightness(args: argparse.Namespace) -> int:
    t = tightness_instance(args.n)
    if args.json:
        print(json.dumps({"schema": 1, **t.as_dict()}))
    else:
        print(f"n={t.n}: d*={t.d_star}, k*={t.k_star}, sequence {t.sequence}")
        print(f"  graphic: {t.is_graphic} (degree sum even: {t.sum_parity_even})")
        print(f"  matching family fails at k*: {t.fails_star_at_k_star}")
        if t.star_report.first_fail_k is not None:
            k = t.star_report.first_fail_k
            row = t.star_report.row(k)
            print(f"  first failing k={k}: {row.lhs} > {row.rhs}")
        print(f"  frac(n*sqrt(2)) <= 1/4: {t.alpha_le_quarter}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    holds = corollary_bound_holds(_parse_sequence(args.sequence))
    text = f"half-sum bound: {'holds' if holds else 'does not hold'}"
    return _emit_verdict("half-sum-bound", holds, text, args.json)


def _cmd_hfactor_check(args: argparse.Namespace) -> int:
    return _emit_report(
        doublestar_check(_parse_sequence(args.sequence), args.h),
        f"h-factor({args.h})",
        args.json,
    )


def _cmd_hfactor_realize(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    g = hfactor_oracle(seq, args.h)
    if g is None:
        text = f"no realization of {seq} contains the canonical {args.h}-factor"
        return _emit_verdict(f"h-factor({args.h})", False, text, args.json)
    return _audit_and_print(g, seq, canonical_h_factor(seq.n, args.h).edges, args.json)


def _cmd_disjoint_pms(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    try:
        g, pms = disjoint_pms(seq, args.h)
    except PreconditionError as exc:
        # Odd n, a degree below h, or no perfect matching in any realization
        # rule out h disjoint ones; other misses only say the construction
        # does not apply, so they stay undecided (exit 2).  For h = 1 the
        # library's answer is exact, so a miss is always one of these.
        if seq.n % 2 == 0 and seq.entries[-1] >= args.h and lovasz_pm_check(seq):
            raise PreconditionError(f"undecided: {exc}") from exc
        text = f"not constructible: {exc}"
        return _emit_verdict(f"disjoint-pms({args.h})", False, text, args.json)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "realization": [list(e) for e in g.edge_list()],
                    "matchings": [str(m) for m in pms],
                }
            )
        )
    else:
        print(f"realization: {_pairs_text(g.edge_list())}")
        for m in pms:
            print(f"  matching: {m}")
    return EXIT_OK


def _cmd_pack(args: argparse.Namespace) -> int:
    report = pack_report(_parse_sequence(args.sequence1), _parse_sequence(args.sequence2))
    if args.json:
        print(json.dumps({"schema": 1, **report}))
    else:
        print(f"hypothesis 2*max1*max2 < n: {report['hypothesis']}")
        print(f"packed: {report['success']}")
        if report["success"]:
            print(f"  edges1: {_pairs_text(report['edges1'])}")
            print(f"  edges2: {_pairs_text(report['edges2'])}")
        else:
            print(f"  {report['note']}")
    if report["success"]:
        return EXIT_OK
    # only an overfull vertex proves a miss; any other miss is inconclusive
    return EXIT_NEGATIVE if report["note"] == OVERFULL_NOTE else EXIT_ERROR


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    results = battery.run_battery(seed=args.seed, quick=args.quick, stream=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_NEGATIVE


def _cmd_export_graph(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.sequence)
    try:
        g = hh_realize(seq)  # runs the Erdos-Gallai test itself
    except NotGraphicError:
        return _emit_report(eg_check(seq), "graphic", args.json)
    if args.json:
        _print_graph_json(g)
    else:
        print(graph_to_text(g), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degmatch",
        description="degree sequences realizing labelled perfect matchings",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-graphic", help="Erdos-Gallai test")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_check_graphic)

    p = sub.add_parser("check-pm", help="can some realization contain a perfect matching")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_check_pm)

    p = sub.add_parser("check-mplus", help="can it realize the consecutive-pairs matching")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_check_mplus)

    p = sub.add_parser("realize-mplus", help="construct a consecutive-pairs realization")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_realize_mplus)

    p = sub.add_parser("realize", help="realize an arbitrary labelled matching")
    p.add_argument("matching", help="e.g. 1-4,2-3")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("switch-path", help="walk a matching to a canonical one")
    p.add_argument("matching")
    p.add_argument("--to", choices=("plus", "minus"), required=True)
    p.set_defaults(fn=_cmd_switch_path)

    p = sub.add_parser("preorder", help="build the realizability preorder table")
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="FILE", help="write the Hasse diagram as DOT")
    p.add_argument("--check-conjectures", action="store_true")
    p.set_defaults(fn=_cmd_preorder)

    p = sub.add_parser("tightness", help="near-extremal instance report")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_tightness)

    p = sub.add_parser("bound", help="exact half-sum sufficiency bound")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("hfactor-check", help="h-factor inequality family")
    p.add_argument("h", type=int)
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_hfactor_check)

    p = sub.add_parser("hfactor-realize", help="realize the canonical h-factor")
    p.add_argument("h", type=int)
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_hfactor_realize)

    p = sub.add_parser("disjoint-pms", help="h disjoint perfect matchings in one realization")
    p.add_argument("h", type=int)
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_disjoint_pms)

    p = sub.add_parser("pack", help="edge-disjoint realizations of two sequences")
    p.add_argument("sequence1")
    p.add_argument("sequence2")
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser("export-graph", help="canonical edge-list text of a greedy realization")
    p.add_argument("sequence")
    p.set_defaults(fn=_cmd_export_graph)

    p = sub.add_parser("verify-paper", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=battery.DEFAULT_SEED)
    p.add_argument("--quick", action="store_true", help="reduced-scale smoke run")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0,) else EXIT_OK
    try:
        return args.fn(args)
    except (DegmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
