"""Command-line entry point.

One executable, five subcommands::

    fishbone poset   {spine,canon,check}   # finite poset files
    fishbone ot      check TERM            # order-type term reports
    fishbone family  {window,check}        # the five families and every claim
    fishbone verify  all                   # the P5 desk battery
    fishbone sweep                         # the full acceptance battery

Results are JSON on standard output (byte-deterministic: stable ordering and
no timings in the body); a one-line human summary with the elapsed time goes
to standard error.  Exit status: 0 for pass, 1 for a claim failure, 2 for a
usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import acceptance, families, ordertype, verify
from .partition import check_spine, find_spine, load_certificate
from .poset import PosetError, load_poset


def _parse_axes(text: str) -> dict:
    """``"n=3,z=0:4"`` -> {"n": 3, "z": (0, 4)} (ints, or lo:hi ranges)."""
    out: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {item!r}")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        if ":" in value:
            lo, _, hi = value.partition(":")
            out[key] = (int(lo), int(hi))
        else:
            out[key] = int(value)
    if not out:
        raise ValueError("empty axis list")
    return out


def _parse_params(text: str) -> dict:
    out = _parse_axes(text)
    for key, value in out.items():
        if not isinstance(value, int):
            raise ValueError(f"claim parameter {key!r} must be a single integer")
    return out


# ------------------------------------------------------------------ handlers
#
# Each handler returns (exit code, JSON payload or None, summary line).


def _cmd_poset_spine(args) -> tuple[int, object, str]:
    P = load_poset(args.file)
    cert = find_spine(P)
    return 0, cert.to_json_dict(), f"spine with {len(cert.antichains)} antichain(s) over {len(P)} element(s)"


def _cmd_poset_canon(args) -> tuple[int, object, str]:
    P = load_poset(args.file)
    return 0, P.to_json_dict(), f"{len(P)} element(s), {len(P.covers())} cover pair(s)"


def _cmd_poset_check(args) -> tuple[int, object, str]:
    P = load_poset(args.file)
    cert = load_certificate(args.cert)
    rep = check_spine(P, cert)
    return (0 if rep.ok else 1), rep.to_dict(), f"certificate {rep.status}"


def _cmd_ot_check(args) -> tuple[int, object, str]:
    report = ordertype.term_report(ordertype.parse_term(args.term))
    return 0, report, f"canonical form {report['term']}"


def _cmd_family_window(args) -> tuple[int, object, str]:
    spec = families.WindowSpec.make(**_parse_axes(args.spec))
    P = families.window(args.family, spec)
    return 0, P.to_json_dict(), f"{args.family} window with {len(P)} element(s)"


def _cmd_family_check(args) -> tuple[int, object, str]:
    params = _parse_params(args.params) if args.params else {}
    rep = families.verify_claim(args.family, args.claim, params)
    return (0 if rep.ok else 1), rep.to_dict(), f"{rep.claim} {rep.status}"


def _cmd_verify_all(args) -> tuple[int, object, str]:
    reports = verify.desk_preset()
    bad = sum(not r.ok for r in reports)
    code = 0 if bad == 0 else 1
    return code, [r.to_dict() for r in reports], f"{len(reports)} check(s), {bad} failure(s)"


def _cmd_sweep(args) -> tuple[int, object, str]:
    reports = acceptance.run_acceptance(seed=args.seed)
    bad = sum(not r.ok for r in reports)
    lines = ", ".join(f"{r.claim}={r.status}" for r in reports)
    code = 0 if bad == 0 else 1
    return code, [r.to_dict() for r in reports], f"{len(reports)} criteria run ({lines}), {bad} failure(s)"


# -------------------------------------------------------------------- parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="fishbone",
        description="Spine partitions of finite posets, scattered order-type "
        "terms, and bounded verification of five infinite example orders.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized batteries")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("poset", help="operate on finite poset JSON files")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("spine", help="compute a chain + antichain-partition certificate")
    q.add_argument("file", help="poset JSON file ({elements, le})")
    q.set_defaults(func=_cmd_poset_spine)
    q = ps.add_parser("canon", help="reprint a poset file canonically (cover pairs only)")
    q.add_argument("file")
    q.set_defaults(func=_cmd_poset_canon)
    q = ps.add_parser("check", help="validate a certificate against a poset file")
    q.add_argument("file")
    q.add_argument("--cert", required=True, help="certificate JSON file ({chain, antichains})")
    q.set_defaults(func=_cmd_poset_check)

    p = sub.add_parser("ot", help="order-type term calculus")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("check", help="parse a term and report its invariants")
    q.add_argument("term", help="e.g. \"w[w*]+1\" (w = omega, w* = its reverse, t[.] = repetition)")
    q.set_defaults(func=_cmd_ot_check)

    p = sub.add_parser("family", help="the five decidable example orders P1..P5")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("window", help="materialize a finite window as a poset file")
    q.add_argument("family", choices=families.FAMILIES)
    q.add_argument("--spec", required=True, help="axis bounds, e.g. \"n=3\" or \"x=2,y=0:5\"")
    q.set_defaults(func=_cmd_family_window)
    q = ps.add_parser("check", help="run a named bounded claim")
    q.add_argument("family", choices=families.FAMILIES)
    q.add_argument("--claim", required=True)
    q.add_argument("--params", default="", help="claim parameters, e.g. \"m=3\"")
    q.set_defaults(func=_cmd_family_check)

    p = sub.add_parser("verify", help="finite sub-lemmas of the fifth example order")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("all", help="run the standard battery")
    q.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("sweep", help="run the acceptance criteria")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors (and --help)
        code = exc.code
        return code if isinstance(code, int) else 2
    t0 = time.perf_counter()
    try:
        code, payload, summary = args.func(args)
        elapsed = time.perf_counter() - t0
        if payload is not None:
            print(json.dumps(payload, indent=2), flush=True)
    except (OSError, OverflowError, ValueError, KeyError, PosetError, ordertype.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{summary} [{elapsed:.3f}s]", file=sys.stderr)
    return code


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
