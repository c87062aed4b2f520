"""Command-line interface: classify, units, h2, verify, scan."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import classnumber, harness, theorems
from .arith import PrimePair
from .errors import ResourceGuardError, TriquadError
from .harness import Config


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triquad",
        description="Unit groups and 2-class numbers of Q(sqrt2, sqrtp, sqrtq) "
                    "for primes p = 1 mod 8, q = 7 mod 8, by exact arithmetic.")
    ap.add_argument("--quad-bound", type=int, default=classnumber.DEFAULT_QUAD_BOUND,
                    help="resource guard for quadratic class-number radicands")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, desc in (("classify", "case classification of a pair as JSON"),
                       ("units", "prescribed fundamental system as JSON"),
                       ("h2", "2-class number report as JSON"),
                       ("verify", "full verification record as JSON")):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("p", type=int)
        sp.add_argument("q", type=int)

    sp = sub.add_parser("scan", help="verify all valid pairs in a range")
    sp.add_argument("--pmax", type=int, help="with --qmax: every pair p <= pmax, q <= qmax")
    sp.add_argument("--qmax", type=int)
    sp.add_argument("--max-2pq", type=int, help="instead: every pair with 2pq <= this")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", type=str, default=None)
    return ap


def _print_json(doc: dict):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = Config(quad_bound=ns.quad_bound, jobs=getattr(ns, "jobs", 1))
        if ns.command in ("classify", "units", "h2"):
            # verify_pair makes the same check and reports it in its record
            pair = PrimePair(ns.p, ns.q)
            classnumber.check_radicand(max(pair.radicands), config.quad_bound)
            cc = theorems.ClassificationContext(pair)
            tag = theorems.classify_pair(cc)
        if ns.command == "classify":
            _print_json(harness.case_tag_json(tag))
            return 0
        if ns.command == "units":
            words = theorems.unit_generators(tag, cc)
            gens = [{"word": w.render(), "coords": harness._coords_json(w.elem)}
                    for w in words]
            _print_json({"pair": {"p": ns.p, "q": ns.q}, "generators": gens})
            return 0
        if ns.command == "h2":
            m = theorems.unit_index(cc)
            h2 = classnumber.subfield_h2_map(pair, config.quad_bound)
            _print_json({"pair": {"p": ns.p, "q": ns.q},
                         "h2": harness.h2_json(h2, theorems.predict_h2K(tag, h2)),
                         "m": m,
                         "h2K_kuroda": classnumber.kuroda_h2K(pair, m, h2)})
            return 0
        if ns.command == "verify":
            rec = harness.verify_pair(ns.p, ns.q, config)
            _print_json(harness.record_json(rec))
            return {harness.STATUS_VERIFIED: 0,
                    harness.STATUS_MISMATCH: 2,
                    harness.STATUS_RESOURCE: 3,
                    harness.STATUS_INTERNAL: 4}[rec.status]
        if ns.command == "scan":
            given = [flag is not None for flag in (ns.pmax, ns.qmax, ns.max_2pq)]
            if given not in ([True, True, False], [False, False, True]):
                raise TriquadError("scan takes --pmax and --qmax, or --max-2pq")
            # the output file is opened first, so a bad path costs no scan
            with open(ns.out, "w") if ns.out else contextlib.nullcontext(sys.stdout) as fh:
                pairs = (harness.valid_pairs(ns.pmax, ns.qmax) if ns.max_2pq is None
                         else harness.range_pairs(ns.max_2pq))
                harness.write_scan(harness.iter_records(pairs, config), fh, ns.format)
            return 0
    except ResourceGuardError as exc:
        print(f"limit reached: {exc}", file=sys.stderr)
        return 3
    except (TriquadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
