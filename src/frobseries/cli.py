"""Command-line surface: series expansion, oracle counts, residue tables,
and the theorem verification suites.

Exit codes are a contract: 0 success/verified, 1 refuted or oracle
disagreement, 2 usage error or an --out file that cannot be written, 3
guard or truncation error.  stdout carries the payload, stderr the
diagnostics; --out writes the payload to a file instead.

The --out path is opened for append (never truncated) before any
computation, so a directory, a missing parent or a permission error
exits 2 at once, and a run that exits 2 or 3 removes the file if it made
it.  A path that fails only on write, such as /dev/full, exits 2 last.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

from . import congruences, frobenius, oracle
from .series import TruncationError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

SUITES = ("main", "cphi-even", "p-squared", "gs-lift")


class UsageError(Exception):
    pass


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_expand(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    if args.mod is not None and args.mod < 2:
        raise UsageError("--mod must be >= 2")
    series, route = frobenius.expand(args.family, args.k, args.n, args.mod)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "coefficient"])
        for n, c in enumerate(series.coeffs):
            writer.writerow([n, c])
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        doc = {
            "family": args.family,
            "k": args.k,
            "truncation": args.n,
            "modulus": args.mod,
            "route": route,
            "coefficients": list(series.coeffs),
        }
        if not args.no_timestamp:
            doc["timestamp"] = _now()
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"# family={args.family} k={args.k} route={route}"]
        lines += [f"{n}\t{c}" for n, c in enumerate(series.coeffs)]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.nmax < 0:
        raise UsageError("--nmax must be >= 0")
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.suite == "main":
        if not args.primes or not args.ells:
            raise UsageError("verify main needs --primes and --ells")
        reports = congruences.main_theorem_suite(args.primes, args.ells, args.nmax)
    elif args.suite == "cphi-even":
        if not args.ks:
            raise UsageError("verify cphi-even needs --ks")
        reports = congruences.cphi_even_suite(args.ks, args.nmax)
    elif args.suite == "p-squared":
        if args.p is None:
            raise UsageError("verify p-squared needs --p")
        reports = congruences.andrews_p_squared_suite(args.p, args.nmax)
    else:  # gs-lift
        if None in (args.k, args.p, args.r):
            raise UsageError("verify gs-lift needs --k, --p and --r")
        reports = congruences.garvan_sellers_lift_check(
            args.k, args.p, args.r, args.lifts, args.nmax
        )
    doc = {"reports": [r.to_dict() for r in reports]}
    if not args.no_timestamp:
        doc["timestamp"] = _now()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if congruences.any_refuted(reports):
        return EXIT_REFUTED
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.k < 1 or args.weight < 0:
        raise UsageError("--k must be >= 1 and --weight >= 0")
    count_fn = oracle.count_phi if args.family == frobenius.PHI else oracle.count_cphi
    count = count_fn(args.k, args.weight)
    series, _ = frobenius.expand(args.family, args.k, args.weight)
    coeff = series.coefficient(args.weight)
    marker = "agrees" if coeff == count else "DISAGREES"
    _emit(
        f"family={args.family} k={args.k} weight={args.weight} "
        f"count={count} series={coeff} {marker}\n",
        args.out,
    )
    return EXIT_OK if coeff == count else EXIT_REFUTED


def cmd_residues(args) -> int:
    rows = sorted(
        (r, congruences.residue_class(24 * r + 1, args.p))
        for r in range(1, args.p)
    )
    eligible = congruences.eligible_residues(args.p)
    lines = [f"# p={args.p}  (class of 24r+1 mod p)"]
    for r, cls in rows:
        flag = "eligible" if r in eligible else "-"
        lines.append(f"r={r}\t24r+1={24 * r + 1}\t{cls.value}\t{flag}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobseries",
        description="Truncated q-series toolkit for generalized Frobenius "
        "partition congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write payload to file")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="suppress the timestamp field in JSON output",
    )

    p_expand = sub.add_parser(
        "expand", parents=[common], help="expand a generating function"
    )
    p_expand.add_argument("--family", choices=frobenius.FAMILIES, required=True)
    p_expand.add_argument("--k", type=int, required=True)
    p_expand.add_argument("--n", type=int, required=True, help="truncation")
    p_expand.add_argument("--mod", type=int, default=None)
    p_expand.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a theorem verification suite"
    )
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--primes", type=_int_list, default=None)
    p_verify.add_argument("--ells", type=_int_list, default=None)
    p_verify.add_argument("--ks", type=_int_list, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument("--lifts", type=int, default=1)
    p_verify.add_argument("--nmax", type=int, default=10)
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="accepted (must be >= 1) but unused: claims run in one thread",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[common],
        help="brute-force count with series cross-check",
    )
    p_oracle.add_argument("--family", choices=frobenius.FAMILIES, required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--weight", type=int, required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_res = sub.add_parser(
        "residues", parents=[common], help="eligible residue table for a prime"
    )
    p_res.add_argument("--p", type=int, required=True)
    p_res.set_defaults(func=cmd_residues)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its code
        return exc.code if exc.code is not None else EXIT_USAGE
    created = bool(args.out) and not os.path.lexists(args.out)
    try:
        if args.out:
            open(args.out, "a").close()
        return args.func(args)
    except (oracle.GuardError, TruncationError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        code = EXIT_GUARD
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if created and os.path.isfile(args.out):
        os.remove(args.out)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
