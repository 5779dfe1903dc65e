"""Command line interface.

Exit codes: 0 when the computed verdict matches the expectation, 1 when it
contradicts it, 2 on resource or I/O errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import cayley, combing, experiments
from .errors import GroupGeoError
from .groups import evaluate


def _add_common(p: argparse.ArgumentParser, group: bool = True, radius: bool = True):
    if group:
        p.add_argument("--group", required=True,
                       help="zoo group name or path to a JSON group config")
    if radius:
        p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", help="directory for report files (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--max-elements", type=int, default=cayley.DEFAULT_MAX_ELEMENTS)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted but not parallel: enumeration runs on one thread; "
                        "results are identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupgeo",
        description="word metrics, subgroup distortion and bicombing constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="enumerate a Cayley ball with geodesic witnesses")
    _add_common(p)

    p = sub.add_parser("distortion", help="run the built-in distortion suite")
    _add_common(p, group=False, radius=False)

    p = sub.add_parser("combing-check", help="shortlex bicombing constants for a zoo group")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("centralizer", help="centralizer ball and quasi-convexity constants")
    _add_common(p)
    p.add_argument("--element", required=True, help="serialized word for the center element")

    p = sub.add_parser("cover-table", help="orientation double covers of nonorientable surfaces")
    p.add_argument("--max-complexity", type=int, default=12)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("klein-check", help="order census of SL(2,Z) and the Klein-bottle obstruction")
    _add_common(p, group=False)

    p = sub.add_parser("verify-hom", help="verify a lift homomorphism from a JSON description")
    p.add_argument("--lift", required=True, help="path to the lift JSON file")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _emit_report(report: experiments.ExperimentReport, args) -> None:
    base = report.name.replace(":", "-")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{base}.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, default=str) + "\n",
            encoding="utf-8",
        )
        for table_name, payload in report.tables.items():
            (outdir / f"{base}.{table_name}.csv").write_text(payload, encoding="utf-8")
    elif args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2, default=str))
    else:
        for table_name, payload in report.tables.items():
            print(f"# {report.name} / {table_name}")
            print(payload, end="")
        print(f"# expected={report.expected} observed={report.observed}")


def _cmd_ball(args) -> int:
    G = experiments.resolve_group(args.group)
    idx = cayley.ball(G, args.radius, max_elements=args.max_elements, threads=args.threads)
    if args.format == "json" and not args.out:
        payload = {
            "group": G.name or args.group,
            "radius": idx.radius,
            "sphere_sizes": idx.sphere_sizes,
            "entries": [
                {
                    "key": k.hex(),
                    "distance": d,
                    "witness_word": G.alphabet.format_word(idx.vertex_word(v)),
                }
                for v, (k, d) in enumerate(zip(idx.keys_shortlex, idx.depth.tolist()))
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    buf = io.StringIO()
    idx.write_csv(buf)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "ball.csv").write_text(buf.getvalue(), encoding="utf-8")
    else:
        print(buf.getvalue(), end="")
    return 0


def _cmd_distortion(args) -> int:
    reports = experiments.run_distortion_suite(
        max_elements=args.max_elements, threads=args.threads
    )
    ok = True
    for report in reports:
        _emit_report(report, args)
        ok = ok and report.verdict
    return 0 if ok else 1


def _cmd_combing_check(args) -> int:
    report = experiments.run_combing_report(
        args.group, args.radius, max_elements=args.max_elements,
        threads=args.threads, seed=args.seed,
    )
    _emit_report(report, args)
    return 0 if report.verdict else 1


def _cmd_centralizer(args) -> int:
    G = experiments.resolve_group(args.group)
    a = evaluate(G.alphabet.parse_word(args.element), G)
    sigma = combing.shortlex_bicombing(
        G, args.radius, max_elements=args.max_elements, threads=args.threads
    )
    members = combing.centralizer_ball(
        G, a, args.radius, max_elements=args.max_elements, index=sigma.index
    )
    report = combing.centralizer_quasiconvexity_report(G, a, sigma, args.radius)
    if args.format == "json" and not args.out:
        print(json.dumps(
            {"members": [G.model.describe(m) for m in members],
             "constants": report.to_json_dict()},
            indent=2, default=str,
        ))
        return 0
    lines = ["member"] + [G.model.describe(m) for m in members]
    text = "\n".join(lines) + f"\nk,{report.k}\n"
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "centralizer.csv").write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_cover_table(args) -> int:
    report = experiments.run_cover_table(args.max_complexity)
    _emit_report(report, args)
    return 0 if report.verdict else 1


def _cmd_klein_check(args) -> int:
    report = experiments.run_klein_check(
        args.radius, max_elements=args.max_elements, threads=args.threads
    )
    _emit_report(report, args)
    return 0 if report.verdict else 1


def _cmd_verify_hom(args) -> int:
    with open(args.lift, "r", encoding="utf-8") as fh:
        lift_data = json.load(fh)
    report = experiments.run_iota_verification(lift_data)
    _emit_report(report, args)
    return 0 if report.verdict else 1


_HANDLERS = {
    "ball": _cmd_ball,
    "distortion": _cmd_distortion,
    "combing-check": _cmd_combing_check,
    "centralizer": _cmd_centralizer,
    "cover-table": _cmd_cover_table,
    "klein-check": _cmd_klein_check,
    "verify-hom": _cmd_verify_hom,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GroupGeoError, OSError, MemoryError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
