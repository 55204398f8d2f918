"""Regenerate perfbench/refs.json.

    python3 perfbench/make_refs.py

Runs every call of every workload variant, cross-checks each output
against a route independent of the one the CLI took (see README.md),
and only then writes one digest per call. Exits 1 without writing if a
cross-check fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.run import load_program  # noqa: E402


class Mismatch(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def expected_reports(claims, n_max: int, coefficients) -> dict:
    """Reports as the CLI writes them, from coefficients(claim, needed)."""
    reports = []
    for family, k, a, b, m in sorted(claims):
        coeffs = coefficients(k, a * n_max + b)
        bad = [
            {"n": a * n + b, "value": coeffs[a * n + b]}
            for n in range(n_max + 1)
            if coeffs[a * n + b] % m
        ]
        reports.append({
            "claim": {"family": family, "k": k, "a": a, "b": b, "m": m},
            "n_max": n_max,
            "status": "refuted" if bad else "verified",
            "counterexamples": bad,
        })
    return {"reports": reports}


class CrossCheck:
    def __init__(self, frobenius, oracle):
        self.fb = frobenius
        self.oracle = oracle
        mod2 = frobenius.MOD2
        self.double_sum_mod2 = lru_cache(maxsize=None)(
            lambda k, n: frobenius.phi_series_double_sum(k, n, mod2).coeffs
        )
        self.witness = lru_cache(maxsize=None)(
            lambda k, n: frobenius.cphi_parity_witness(k, n).constant_term().coeffs
        )

    def __call__(self, args, doc) -> None:
        if args.command == "expand":
            self.expand(args, doc["coefficients"])
        else:
            self.verify(args, doc)

    def expand(self, args, coeffs) -> None:
        fb, oracle = self.fb, self.oracle
        k, n, m = args.k, args.n, args.mod
        reduce = (lambda c: c) if m is None else (lambda c: c % m)
        checks = 0
        if args.family == "phi":
            top = min(n, oracle.PHI_WEIGHT_GUARD)
            want = [reduce(oracle.count_phi(k, w)) for w in range(top + 1)]
            check(coeffs[: top + 1] == want, "phi against oracle.count_phi")
            checks += 1
            if m is None or m % 2 == 0:
                parity = list(fb.phi_parity_series(k, n).coeffs)
                check([c % 2 for c in coeffs] == parity, "phi against parity route")
                checks += 1
            if m is None and k == 1:
                check(coeffs == list(fb.partition_series(n).coeffs),
                      "phi_1 against partition numbers")
            if m is not None:
                exact = fb.phi_series_double_sum(k, n).coeffs
                check(coeffs == [c % m for c in exact], "phi against exact mod m")
        else:
            if k <= oracle.CPHI_COLOR_GUARD:
                top = min(n, oracle.CPHI_WEIGHT_GUARD)
                want = [reduce(oracle.count_cphi(k, w)) for w in range(top + 1)]
                check(coeffs[: top + 1] == want, "cphi against oracle.count_cphi")
                checks += 1
            if m == 2 and k % 2 == 0:
                check(coeffs == list(self.witness(k // 2, n)),
                      "cphi against parity witness")
                checks += 1
        check(checks > 0, "no independent route covers this call")

    def verify(self, args, doc) -> None:
        reports = doc["reports"]
        check(reports and all(r["status"] == "verified" for r in reports),
              "a suite report is not verified")
        if args.suite == "main":
            claims = [
                ("phi", p * ell - 1, p, r, 2)
                for p in set(args.primes)
                for ell in set(args.ells)
                for r in range(1, p)
                if pow(24 * r + 1, (p - 1) // 2, p) == p - 1
            ]
            want = expected_reports(claims, args.nmax, self.double_sum_mod2)
        elif args.suite == "cphi-even":
            claims = [("cphi", 2 * k, 2, 1, 2) for k in set(args.ks)]
            want = expected_reports(
                claims, args.nmax, lambda k, n: self.witness(k // 2, n)
            )
        else:
            return
        check(workloads.digest(doc) == workloads.digest(want),
              f"verify {args.suite} against the independent route")


def main() -> int:
    cli, _, frobenius = load_program()
    from frobseries import oracle

    cross_check = CrossCheck(frobenius, oracle)
    parser = cli.build_parser()
    jobs = len(os.sched_getaffinity(0))
    digests: dict[tuple, str] = {}
    refs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        out = os.path.join(tmp, "out.json")
        for name in workloads.WORKLOADS:
            refs[name] = {}
            for variant in range(workloads.VARIANTS):
                entries = []
                for template in workloads.templates(workloads.rungs(name, variant)):
                    key = tuple(template)
                    if key not in digests:
                        code = cli.main(workloads.full_argv(template, jobs, out))
                        if code != 0:
                            print(f"exit {code}: {' '.join(template)}", file=sys.stderr)
                            return 1
                        doc = json.loads(Path(out).read_text())
                        try:
                            cross_check(parser.parse_args(template), doc)
                        except Mismatch as exc:
                            print(f"{exc}: {' '.join(template)}", file=sys.stderr)
                            return 1
                        digests[key] = workloads.digest(doc)
                        print(f"checked {' '.join(template)}")
                    entries.append([template, digests[key]])
                refs[name][str(variant)] = entries
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
