"""Command-line surface: series expansion, oracle counts, residue tables,
and the theorem verification suites.

Exit codes are a contract: 0 success/verified, 1 refuted or oracle
disagreement, 2 usage error or an --out file that cannot be written, 3
guard or truncation error, or a request too large to index or allocate
(OverflowError, MemoryError).  stdout carries the payload, stderr the
diagnostics; --out writes the payload to a file instead.  JSON payloads
are one compact line; ``python3 -m json.tool`` pretty-prints them.  The
text form of ``expand`` opens with a header naming the family, k, the
truncation n, the coefficient ring and the route.

Each command returns its payload and exit code, and ``main`` is the only
writer.  The argument parsers are built once per process and shared by
every call.  ``main`` parses an argv once, with the one parser that its
leading command words name (``verify main`` names the main suite's),
which is the parser that argparse would hand the remaining arguments to
from the top; each sub-command parser sets the fields its ancestors set,
so the namespace is the one the top-level parse gives.  Each ``verify``
suite has a sub-parser that takes its own flags, after the suite name,
so a missing or foreign flag is an argparse usage error, reported under
the usage line of the sub-command it reached.  Argument values are
checked by the library, whose ValueError exits 2; the CLI itself checks
only ``--jobs``.

The --out path is opened once, for append, before any computation, so a
directory, a missing parent or a permission error exits 2 at once and an
existing file is left intact until a payload exists.  The payload then
goes through that same handle: a regular file that holds data is
truncated first, an empty file, a device or a pipe is written as it is.  A run that exits 2 or 3 closes the
handle and removes the file if it made it.  A path that fails only on
write, such as /dev/full, exits 2 last.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from datetime import datetime, timezone

from . import congruences, frobenius, oracle
from .series import TruncationError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def cmd_expand(args) -> tuple[str, int]:
    series, route = frobenius.expand(args.family, args.k, args.n, args.mod)
    if args.format == "json":
        doc = {
            "family": args.family,
            "k": args.k,
            "truncation": args.n,
            "modulus": args.mod,
            "route": route,
            "coefficients": list(series.coeffs),
        }
        return _json_payload(doc, args), EXIT_OK
    if args.format == "csv":
        lines, sep = ["n,coefficient"], ","
    else:
        header = f"# family={args.family} k={args.k} n={series.truncation}"
        lines, sep = [f"{header} ring={series.ring} route={route}"], "\t"
    lines += [f"{n}{sep}{c}" for n, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    reports = args.run(args)
    doc = {"reports": [r.to_dict() for r in reports]}
    refuted = any(r.status == congruences.REFUTED for r in reports)
    return _json_payload(doc, args), EXIT_REFUTED if refuted else EXIT_OK


def cmd_oracle(args) -> tuple[str, int]:
    count_fn = oracle.count_phi if args.family == frobenius.PHI else oracle.count_cphi
    count = count_fn(args.k, args.weight)
    series, _ = frobenius.expand(args.family, args.k, args.weight)
    coeff = series.coefficient(args.weight)
    marker = "agrees" if coeff == count else "DISAGREES"
    payload = (
        f"family={args.family} k={args.k} weight={args.weight} "
        f"count={count} series={coeff} {marker}\n"
    )
    return payload, EXIT_OK if coeff == count else EXIT_REFUTED


def cmd_residues(args) -> tuple[str, int]:
    rows = [
        (r, congruences.residue_class(24 * r + 1, args.p)) for r in range(1, args.p)
    ]
    eligible = congruences.eligible_residues(args.p)
    lines = [f"# p={args.p}  (class of 24r+1 mod p)"]
    for r, cls in rows:
        flag = "eligible" if r in eligible else "-"
        lines.append(f"r={r}\t24r+1={24 * r + 1}\t{cls.value}\t{flag}")
    return "\n".join(lines) + "\n", EXIT_OK


def _json_payload(doc: dict, args) -> str:
    """doc as one compact JSON line, stamped with the UTC time unless
    --no-timestamp.

    Without ``indent`` json.dumps runs CPython's C encoder; with it, the
    pure-Python one.
    """
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc) + "\n"


@functools.cache
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the frobseries grammar, under the command words that
    reach it: () for the top-level one, ("expand",), ("verify",),
    ("verify", "main") and so on.  Built on the first call.

    Each sub-command parser also sets, as defaults, the fields its
    ancestors set (``command``, ``suite``, ``func``), so parsing the
    arguments after its words gives the namespace that the top-level
    parser gives for the whole argv.
    """
    parser = argparse.ArgumentParser(
        prog="frobseries",
        description="Truncated q-series toolkit for generalized Frobenius "
        "partition congruences",
    )
    parsers = {(): parser}
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, *words, fields, **kwargs):
        """subparsers' parser for words[-1], recorded under words."""
        parsers[words] = subparsers.add_parser(words[-1], **kwargs)
        parsers[words].set_defaults(**fields)
        return parsers[words]

    # every command takes --out; only the JSON writers take --no-timestamp
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write payload to file")
    stamped = argparse.ArgumentParser(add_help=False, parents=[output])
    stamped.add_argument(
        "--no-timestamp",
        action="store_true",
        help="suppress the timestamp field in JSON output",
    )

    p_expand = add(
        sub, "expand",
        fields={"command": "expand", "func": cmd_expand},
        parents=[stamped], help="expand a generating function",
    )
    p_expand.add_argument("--family", choices=frobenius.FAMILIES, required=True)
    p_expand.add_argument("--k", type=int, required=True)
    p_expand.add_argument("--n", type=int, required=True, help="truncation")
    p_expand.add_argument("--mod", type=int, default=None)
    p_expand.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )

    verify = {"command": "verify", "func": cmd_verify}
    p_verify = add(sub, "verify", fields=verify, help="run a verification suite")
    # no abbreviations, so main's foreign --p is not read as --primes; each
    # run looks up congruences.<suite> at call time, so it sees a rebinding
    shared = argparse.ArgumentParser(add_help=False, parents=[stamped])
    shared.add_argument("--nmax", type=int, default=10)
    shared.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="accepted (must be >= 1) but unused: claims run in one thread",
    )
    suites = p_verify.add_subparsers(dest="suite", required=True)

    def suite(name, help):
        return add(
            suites, "verify", name, fields={**verify, "suite": name},
            parents=[shared], allow_abbrev=False, help=help,
        )

    s = suite("main", help="phi_{p*ell-1}(pn+r) = 0 mod 2, 24r+1 a nonresidue")
    s.add_argument("--primes", type=_int_list, required=True)
    s.add_argument("--ells", type=_int_list, required=True)
    s.set_defaults(
        run=lambda a: congruences.main_theorem_suite(a.primes, a.ells, a.nmax)
    )
    s = suite("cphi-even", help="cphi_{2k}(2n+1) = 0 mod 2")
    s.add_argument("--ks", type=_int_list, required=True)
    s.set_defaults(run=lambda a: congruences.cphi_even_suite(a.ks, a.nmax))
    s = suite("p-squared", help="cphi_p(pn+r) = 0 mod p^2")
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(
        run=lambda a: congruences.andrews_p_squared_suite(a.p, a.nmax)
    )
    s = suite("gs-lift", help="cphi_k(pn+r) = 0 mod p lifted to cphi_{pN+k}")
    for flag in ("--k", "--p", "--r"):
        s.add_argument(flag, type=int, required=True)
    s.add_argument("--lifts", type=int, default=1)
    s.set_defaults(
        run=lambda a: congruences.garvan_sellers_lift_check(
            a.k, a.p, a.r, a.lifts, a.nmax
        )
    )

    p_oracle = add(
        sub, "oracle",
        fields={"command": "oracle", "func": cmd_oracle},
        parents=[output], help="brute-force count with series cross-check",
    )
    p_oracle.add_argument("--family", choices=frobenius.FAMILIES, required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--weight", type=int, required=True)

    p_res = add(
        sub, "residues",
        fields={"command": "residues", "func": cmd_residues},
        parents=[output], help="eligible residue table for a prime",
    )
    p_res.add_argument("--p", type=int, required=True)

    return parsers


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser of the frobseries grammar, built on the first
    call.

    Every call returns the same object, shared by all callers in the
    process, so callers must not change it (no add_argument, set_defaults
    or similar).  parse_args leaves it unchanged and returns a new
    namespace each time.
    """
    return _parsers()[()]


def main(argv=None) -> int:
    # argparse hands a sub-command every argument after its name, so the
    # parser that the leading command words name parses the rest alone
    argv = sys.argv[1:] if argv is None else list(argv)
    parsers, words = _parsers(), ()
    while len(words) < len(argv) and words + (argv[len(words)],) in parsers:
        words += (argv[len(words)],)
    try:
        args = parsers[words].parse_args(argv[len(words):])
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its code
        return exc.code if exc.code is not None else EXIT_USAGE
    created = args.out is not None and not os.path.lexists(args.out)
    out = None
    try:
        if args.out is not None:
            out = open(args.out, "a")
        payload, code = args.func(args)
        if out is None:
            sys.stdout.write(payload)
        else:
            # append mode writes at the end, which truncate(0) moves to 0.
            # Only a regular file that holds data is truncated: a device or
            # pipe cannot be, and truncating an empty file (as every file
            # this run created is) costs about 0.2 ms on ext4 for nothing
            with out:
                info = os.fstat(out.fileno())
                if stat.S_ISREG(info.st_mode) and info.st_size:
                    out.truncate(0)
                out.write(payload)
        return code
    except (oracle.GuardError, TruncationError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        code = EXIT_GUARD
    except (OverflowError, MemoryError) as exc:
        # a request too large to index or allocate is refused, not refuted
        print(f"guard: request too large: {exc!r}", file=sys.stderr)
        code = EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if out is not None:
        out.close()  # a no-op once the with block above has closed it
    if created and os.path.isfile(args.out):
        os.remove(args.out)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
