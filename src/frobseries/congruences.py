"""Congruence claims, quadratic-residue machinery, and verification suites.

A claim is a statement "f_k(a*n + b) == 0 (mod m) for all n"; verification
here is always over an explicit finite window [0, n_max], recorded in the
report.  A Verified report means "no counterexample in the window", never
an unbounded assertion.  Claims run one after another in the calling
thread: every suite runs the claims of one series (family, k, m)
together, longest truncation a*n_max + b first, so the route's slot
builds each series once and the other claims read prefix views of it.
It then sorts the reports by the claim's fields in declaration order, a
key read in C that gives the order of CongruenceClaim's ``__lt__``.  A
claim holds when its progression counts as many zeros as entries, one C
scan for bytes and tuple storage alike; only a refuted claim walks its
progression in Python, for the counterexamples.  Every claim
takes its series from :func:`default_series_provider`, looked up at call
time, so rebinding it swaps the series for :func:`verify_claim` and
every suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from operator import attrgetter

from . import frobenius
from .frobenius import CPHI, FAMILIES, PHI
from .series import TruncatedSeries, TruncationError, reduce_mod

PRIMALITY_CAP = 10_000


class ResidueClass(enum.Enum):
    RESIDUE = "residue"
    NONRESIDUE = "nonresidue"
    ZERO = "zero"


def is_prime(p: int) -> bool:
    """Trial division, capped at desk scale, for primes given from outside."""
    if p > PRIMALITY_CAP:
        raise ValueError(f"primality testing capped at {PRIMALITY_CAP}")
    return frobenius._is_prime(p)


def residue_class(x: int, p: int) -> ResidueClass:
    """Euler's criterion trichotomy for x modulo an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    t = x % p
    if t == 0:
        return ResidueClass.ZERO
    if pow(t, (p - 1) // 2, p) == 1:
        return ResidueClass.RESIDUE
    return ResidueClass.NONRESIDUE


def eligible_residues(p: int) -> set[int]:
    """Residues 0 < r < p with 24r+1 a quadratic nonresidue mod p.

    p is tested for primality once; then Euler's criterion for each r, as
    ``residue_class`` applies it: (24r+1)^((p-1)/2) == -1 mod p.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    half = (p - 1) // 2
    return {r for r in range(1, p) if pow(24 * r + 1, half, p) == p - 1}


def pentagonal_class_reachable(p: int, r: int) -> bool:
    """Whether some integer k has (3k^2 - k)/2 == r (mod p).

    Scans k over a full residue system; (3k^2-k)/2 mod p has period p in k
    for odd p.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    if not 0 < r < p:
        raise ValueError(f"need 0 < r < p, got r={r}")
    return any((3 * k * k - k) // 2 % p == r for k in range(p))


@dataclass(frozen=True, order=True)
class CongruenceClaim:
    """f_k(a*n + b) == 0 (mod m) for all n >= 0, f in {phi, cphi}."""

    family: str
    k: int
    a: int
    b: int
    m: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.k < 1:
            raise ValueError("subscript k must be >= 1")
        if self.a < 1 or not 0 <= self.b < self.a:
            raise ValueError("need a >= 1 and 0 <= b < a")
        if self.m < 2:
            raise ValueError("congruence modulus must be >= 2")


# a report's claim fields in declaration order, read in C: sorting by
# them gives the order of CongruenceClaim's generated __lt__
_CLAIM_FIELDS = attrgetter(*(f"claim.{f.name}" for f in fields(CongruenceClaim)))

VERIFIED = "verified"
REFUTED = "refuted"
SKIPPED = "skipped"


@dataclass(frozen=True)
class VerificationReport:
    claim: CongruenceClaim
    n_max: int
    status: str
    counterexamples: tuple = ()
    route: str = ""

    def to_dict(self) -> dict:
        return {
            "claim": {
                "family": self.claim.family,
                "k": self.claim.k,
                "a": self.claim.a,
                "b": self.claim.b,
                "m": self.claim.m,
            },
            "n_max": self.n_max,
            "status": self.status,
            "counterexamples": [
                {"n": n, "value": v} for n, v in self.counterexamples
            ],
            "route": self.route,
        }


def default_series_provider(
    claim: CongruenceClaim, truncation: int
) -> tuple[TruncatedSeries, str]:
    """Series for the claim's family in Z/m, with the route that built it."""
    return frobenius.expand(claim.family, claim.k, truncation, claim.m)


def verify_claim(claim: CongruenceClaim, n_max: int) -> VerificationReport:
    """Check coefficient(a*n + b) == 0 (mod m) for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    needed = claim.a * n_max + claim.b
    series, route = default_series_provider(claim, needed)
    if series.truncation < needed:
        raise TruncationError(
            f"truncation shortfall: have {series.truncation}, need {needed}"
        )
    if not series.ring.is_modular:
        series = reduce_mod(series, claim.m)
    if series.ring.modulus != claim.m:
        raise ValueError(
            f"provider ring {series.ring} does not match modulus {claim.m}"
        )
    progression = series.coeffs[claim.b : needed + 1 : claim.a]
    # count runs in C for bytes and tuples alike; the usual, verified case
    if progression.count(0) == len(progression):
        return VerificationReport(claim, n_max, VERIFIED, (), route)
    counterexamples = tuple(
        (claim.a * n + claim.b, v) for n, v in enumerate(progression) if v
    )
    return VerificationReport(claim, n_max, REFUTED, counterexamples, route)


def _run_claims(claims, n_max):
    if not claims:
        raise ValueError("no claims to verify: a list argument is empty")
    # one series' claims together, longest first: the rest read the slot
    order = sorted(claims, key=lambda c: (c.family, c.k, c.m, -(c.a * n_max + c.b)))
    reports = [verify_claim(c, n_max) for c in order]
    return sorted(reports, key=_CLAIM_FIELDS)


def main_theorem_suite(primes, ells, n_max: int) -> list[VerificationReport]:
    """phi_{p*ell - 1}(p*n + r) == 0 (mod 2) for every eligible residue r."""
    ells = sorted(set(ells))
    if any(ell < 1 for ell in ells):
        raise ValueError("ell must be >= 1")
    claims = []
    for p in sorted(set(primes)):
        residues = sorted(eligible_residues(p))
        for ell in ells:
            for r in residues:
                claims.append(CongruenceClaim(PHI, p * ell - 1, p, r, 2))
    return _run_claims(claims, n_max)


def cphi_even_suite(ks, n_max: int) -> list[VerificationReport]:
    """cphi_{2k}(2n + 1) == 0 (mod 2) for each k."""
    claims = []
    for k in sorted(set(ks)):
        if k < 1:
            raise ValueError("k must be >= 1")
        claims.append(CongruenceClaim(CPHI, 2 * k, 2, 1, 2))
    return _run_claims(claims, n_max)


def andrews_p_squared_suite(p: int, n_max: int) -> list[VerificationReport]:
    """cphi_p(p*n + r) == 0 (mod p^2) for every 0 < r < p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    claims = [CongruenceClaim(CPHI, p, p, r, p * p) for r in range(1, p)]
    return _run_claims(claims, n_max)


def garvan_sellers_lift_check(
    k: int, p: int, r: int, lift_count: int, n_max: int
) -> list[VerificationReport]:
    """Conditional lift: if cphi_k(pn+r) == 0 (mod p) holds in-window,
    check cphi_{pN+k}(pn+r) == 0 (mod p) for N = 1..lift_count."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 < r < p:
        raise ValueError(f"need 0 < r < p, got r={r}")
    if lift_count < 0:
        raise ValueError("lift_count must be >= 0")
    hypothesis = verify_claim(CongruenceClaim(CPHI, k, p, r, p), n_max)
    reports = [hypothesis]
    for n in range(1, lift_count + 1):
        claim = CongruenceClaim(CPHI, p * n + k, p, r, p)
        if hypothesis.status == VERIFIED:
            reports.append(verify_claim(claim, n_max))
        else:
            route = hypothesis.route
            reports.append(VerificationReport(claim, n_max, SKIPPED, (), route))
    return reports

