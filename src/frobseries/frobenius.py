"""Generating functions for the generalized Frobenius families phi_k and cphi_k.

Three independent routes are implemented:

* ``phi_series_double_sum`` -- Andrews' double-sum formula: a sparse signed
  numerator over pairs (j, r) with r >= (k+1)|j|, divided by
  (q;q)_inf^2 (q^{k+1};q^{k+1})_inf.
* ``phi_parity_series`` -- the mod-2 collapse of the same function to the
  eta quotient (q;q)_inf / (q^{k+1};q^{k+1})_inf, which
  ``series.eta_quotient_mod2`` evaluates without division.
* ``cphi_series`` -- constant-term extraction: cphi_k(n) is the z^0
  coefficient of the two-variable product
  prod_{n>=0} (1 + z q^{n+1})^k (1 + z^{-1} q^n)^k = theta(z)^k / (q;q)_inf^k
  (Jacobi triple product).  (q;q)_inf^k does not depend on z, so only the
  z^0 row of theta(z)^k is divided.  That row,
  ``series.theta_constant_series``, is built on packed integers from t
  base rows per power theta^t, since theta(zq) = z^-1 q^-1 theta(z)
  makes every other z row a q-shift of one of them, and about half of
  those are built, since theta(1/z) = z theta(z) makes each other one
  the mirror of a built one.  Over Z/p for a
  prime p dividing k it first strips the p-part p^v of k: by Frobenius,
  cphi_k = cphi_{k/p^v}(q^{p^v}) mod p, so the row and the division are
  those of k/p^v to N // p^v.  The identity fails mod p^e for e > 1, so
  composite moduli, like Z, build the row of k itself.

Both exact routes hand their denominator to ``series.eta_quotient`` as
powers of E(q^s) = (q^s;q^s)_inf, {1: 2, k+1: 1} and {1: k} (k/p^v
after the strip), and ``eta_quotient_mod2`` plans the parity route's
{k+1: 1} the same way, so one planner in ``series`` writes every
denominator.  Over Z/p for a prime p <= 23 it is one call of the packed
kernel: a product of sparse factors E and Jacobi's cube J = E^3 at
Frobenius steps s p^t <= N, at O(N / 64) word operations per term over
Z/2 and O(N / 4) for odd p.  Over Z/p^v <= 128 (Z/4, Z/9, Z/25, Z/49,
...) that quotient is lifted one base-p digit at a time, two kernel
calls per digit, one of them the product by the denominator over
Z/p^v.  In other rings (Z, other composite moduli, Z/m for m > 128 and
primes p >= 29) it is a recurrence per sparse divisor, cubes and
Gauss's phi(-q^s) E(q^{2s}) pairs: O(N^1.5) element reads, gathered in
C, and O(N) Python steps when the divisor's terms take a bounded set of
values (a pentagonal series has two over Z).
None expands a dense product or inverse.

``cg_product`` builds every z row of the colored product over Z,
unpacked, in a :class:`LaurentPolyOverSeries` (a finite window of
z-exponents, each carrying a truncated q-series).  It is the exact
reference that the tests compare ``cphi_series`` against, reduced into
each ring afterwards, and ``cphi_parity_witness`` is its image reduced
mod 2 under z -> z^2, q -> q^2, the mod-2 form of the product with
subscript 2k.  Neither is a route.  ``cphi_series`` over Z strips
nothing, so it is the faster reference that the mod-p windows are
checked against, reduced mod p.

:func:`expand` is the one place that picks a route for (family, modulus),
and ``FAMILIES`` is the one place the family names are written.

One slot keeps the last series any route built, keyed by route, k and
ring (Z if none is named; Z/2 for the parity route).  A call with that
key at N <= N0 returns a prefix view, its first N + 1 coefficients, not
checked a second time (the held series itself at N0); any other empties
the slot, then builds exactly to N.  So a result depends on its
arguments alone, and no older series lives through a build.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import wraps
from inspect import signature
from itertools import islice
from math import isqrt

from .series import (
    EXACT,
    MOD2,
    CoefficientRing,
    TruncatedSeries,
    check_truncation,
    divide,
    eta_quotient,
    eta_quotient_mod2,
    invert,
    make_series,
    mul,  # unused here; perfbench/layers.py wraps frobenius.mul
    pentagonal_series,
    pochhammer,
    theta_constant_series,
    theta_exponents,
    triangular_exponents,
)

FAMILIES = ("phi", "cphi")
PHI, CPHI = FAMILIES


@dataclass(frozen=True)
class LaurentPolyOverSeries:
    """Laurent polynomial in z whose coefficients are truncated q-series.

    ``entries[j - z_min]`` is the q-series attached to z^j; exponents
    outside [z_min, z_max] are identically zero.
    """

    z_min: int
    z_max: int
    entries: tuple

    def __post_init__(self):
        if not self.z_min <= 0 <= self.z_max:
            raise ValueError("z-exponent window must contain 0")
        if len(self.entries) != self.z_max - self.z_min + 1:
            raise ValueError("entry count does not match z window")
        rings = {s.ring for s in self.entries}
        truncs = {s.truncation for s in self.entries}
        if len(rings) > 1 or len(truncs) > 1:
            raise ValueError("all z rows must share one ring and truncation")

    @property
    def ring(self) -> CoefficientRing:
        return self.entries[0].ring

    @property
    def truncation(self) -> int:
        return self.entries[0].truncation

    def z_coefficient(self, j: int) -> TruncatedSeries:
        if self.z_min <= j <= self.z_max:
            return self.entries[j - self.z_min]
        return make_series(self.ring, self.truncation)

    def constant_term(self) -> TruncatedSeries:
        return self.z_coefficient(0)


def _theta_rows(truncation):
    """The z rows of theta(z)^1, theta(z)^2, ... over Z in turn, unpacked.

    Each power is one dict z -> q^0..q^N list, made from the one before.
    The all-row reference behind ``cg_product``; ``cphi_series`` uses
    ``theta_constant_series`` instead.  A z row is made only when some
    product term reaches it within the truncation.
    """
    n = truncation
    terms = theta_exponents(n)
    rows = {0: [1] + [0] * n}
    while True:
        new_rows: dict[int, list[int]] = {}
        for z, row in rows.items():
            low = next((i for i, v in enumerate(row) if v), n + 1)
            for m, dq in terms:
                if low + dq > n:
                    break
                target = new_rows.get(z + m)
                if target is None:
                    target = [0] * (n + 1)
                    new_rows[z + m] = target
                for i in range(low, n + 1 - dq):
                    ri = row[i]
                    if ri:
                        target[i + dq] += ri
        rows = new_rows
        yield rows


def _wrap_rows(rows, ring, truncation) -> LaurentPolyOverSeries:
    nonzero = [z for z, row in rows.items() if any(row)]
    z_min = min(min(nonzero, default=0), 0)
    z_max = max(max(nonzero, default=0), 0)
    blank = [0] * (truncation + 1)
    entries = [
        TruncatedSeries(ring, truncation, rows.get(z, blank))
        for z in range(z_min, z_max + 1)
    ]
    return LaurentPolyOverSeries(z_min, z_max, tuple(entries))


def cg_product(exponent: int, truncation: int) -> LaurentPolyOverSeries:
    """Expand prod_{n>=0} (1 + z q^{n+1})^e (1 + z^{-1} q^n)^e to q^N over Z.

    By the Jacobi triple product it is theta(z)^e / (q;q)_inf^e, with
    theta(z) = sum_m z^m q^{m(m+1)/2}: a sparse theta power, then one
    division per z row by e pentagonal factors (not the cube factors that
    ``cphi_series`` uses).  Every row, unpacked and exact: the reference
    for ``cphi_series``, which ``reduce_mod`` carries into any Z/m, not a
    route.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    check_truncation(truncation)
    n, e = truncation, exponent
    denominator = [pentagonal_series(EXACT, n)] * e
    rows = {
        z: divide(TruncatedSeries(EXACT, n, row), *denominator).coeffs
        for z, row in next(islice(_theta_rows(n), e - 1, None)).items()
    }
    return _wrap_rows(rows, EXACT, n)


# [(route, k, ring, series)] for the last series built, or [None]
_route_slot: list = [None]


def _keeps_last(default_ring: CoefficientRing):
    """Share the slot with a route; a call naming no ring keys ``default_ring``.

    The wrapper takes the route's parameters, (k, truncation) or (k,
    truncation, ring=default_ring), as the route's signature says when
    the decorator runs.  A hit returns a prefix view of the held series.
    """

    def wrap(route):
        def serve(k, truncation, ring, *args):
            held = _route_slot[0]
            if held and held[:3] == (route, k, ring) and truncation <= held[3].truncation:
                return held[3].prefix(truncation)
            _route_slot[0] = held = None  # the old series is freed first
            series = route(k, truncation, *args)
            _route_slot[0] = (route, k, ring, series)
            return series

        if "ring" in signature(route).parameters:

            def kept(k, truncation, ring=default_ring):
                return serve(k, truncation, ring, ring)

        else:

            def kept(k, truncation):
                return serve(k, truncation, default_ring)

        return wraps(route)(kept)

    return wrap


def _is_prime(m: int) -> bool:
    """Trial division to isqrt(m), uncapped: the package's one primality test.

    ``congruences.is_prime`` caps it for primes given from outside.
    """
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


@_keeps_last(EXACT)
def cphi_series(
    k: int, truncation: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Sum of cphi_k(n) q^n: ([z^0] theta(z)^k) / (q;q)_inf^k.

    Over Z/p for a prime p with p^v || k, Frobenius gives theta(z)^p =
    theta(z^p; q^p) and E(q)^p = E(q^p) mod p, so cphi_k = cphi_{k'}(q^s)
    for k' = k / p^v and s = p^v: the series is built for k' to N // s and
    placed at every s-th power of q.  Elsewhere (p does not divide k, a
    composite modulus, where the identity fails, and Z) s = 1 and k' = k.
    The z^0 row of theta^{k'}, ``theta_constant_series``, is divided by
    E(q)^{k'} in one ``eta_quotient`` call.  The N + 1 output row is
    allocated before any term is listed, so a huge N fails there at once.
    Whether p divides k is asked before whether p is prime, and then
    p <= k, so the trial division costs nothing beside the theta row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_truncation(truncation)
    n, p = truncation, ring.modulus
    out = ring.zeros(n + 1)
    step = 1
    if p is not None and k % p == 0 and _is_prime(p):
        while k % p == 0:
            k, step = k // p, step * p
    part = eta_quotient(theta_constant_series(ring, n // step, k), {1: k})
    out[::step] = part.coeffs
    return TruncatedSeries(ring, n, out)


def cphi_parity_witness(k: int, truncation: int) -> LaurentPolyOverSeries:
    """Mod-2 form of the colored product with subscript 2k.

    Over Z/2, (1 + x)^{2k} = (1 + x^2)^k, so the product collapses to
    prod_{n>=0} (1 + z^2 q^{2n+2})^k (1 + z^{-2} q^{2n})^k: the image of
    the exact cg_product(k, N // 2), reduced mod 2, under z -> z^2,
    q -> q^2.  Every z row then involves only even q-exponents; that
    structural fact forces cphi_{2k}(odd) to be even.  A cross-check only,
    never a route.
    """
    half = cg_product(k, truncation // 2)
    rows = {}
    for j, series in enumerate(half.entries, half.z_min):
        row = [0] * (truncation + 1)
        row[::2] = [c % 2 for c in series.coeffs]
        rows[2 * j] = row
    return _wrap_rows(rows, MOD2, truncation)


@_keeps_last(EXACT)
def phi_series_double_sum(
    k: int, truncation: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Sum of phi_k(n) q^n via Andrews' double-sum formula.

    Numerator: sum over integers j and r >= (k+1)|j| of
    (-1)^{r+kj} q^{binom(r+1,2) - binom(k+1,2) j^2}, added, reduced, into
    one zero row in the ring's storage.  j and -j give the same exponent
    and sign (kj = -kj mod 2), so each j > 0 is one block of weight 2,
    skipped over Z/2; block j reads the triangular numbers binom(r+1,2)
    from one list, by two strided slices, one per sign.  Denominator:
    E(q)^2 E(q^{k+1}), E(q) = (q;q)_inf, in one ``eta_quotient`` call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_truncation(truncation)
    n, modulus = truncation, ring.modulus
    num = ring.zeros(n + 1)  # before any term: a huge n fails here, at once
    half_kk1 = k * (k + 1) // 2
    blocks = 1  # block j starts at r = (k+1) j, at exponent (k+1) j(j+1)/2
    while modulus != 2 and (k + 1) * blocks * (blocks + 1) // 2 <= n:
        blocks += 1
    last_shift = half_kk1 * (blocks - 1) ** 2
    triangles = [e for e, _ in triangular_exponents(n + last_shift)]
    for j in range(blocks):
        shift, start = half_kk1 * j * j, (k + 1) * j
        stop = bisect_right(triangles, n + shift, start)
        sign = (-1) ** (start + k * j) * (2 if j else 1)
        for r, value in ((start, sign), (start + 1, -sign)):
            if modulus is None:
                for e in triangles[r:stop:2]:
                    num[e - shift] += value
            else:
                value %= modulus
                for e in triangles[r:stop:2]:
                    num[e - shift] = (num[e - shift] + value) % modulus
    return eta_quotient(TruncatedSeries(ring, n, num), {1: 2, k + 1: 1})


@_keeps_last(MOD2)
def phi_parity_series(k: int, truncation: int) -> TruncatedSeries:
    """Sum of phi_k(n) q^n over Z/2: (q;q)_inf / (q^{k+1};q^{k+1})_inf mod 2.

    By Andrews' lemma phi_k is this quotient mod 2, which
    ``eta_quotient_mod2`` builds.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return eta_quotient_mod2(k + 1, truncation)


def expand(
    family: str, k: int, truncation: int, modulus: int | None = None
) -> tuple[TruncatedSeries, str]:
    """The route table: family's series over Z or Z/modulus, and its route.

    phi mod 2 takes the eta-quotient parity route, phi in any other ring the
    double sum; cphi always uses constant-term extraction.  Routes are looked
    up as module globals at call time, so rebinding one is seen here.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == PHI and modulus == 2:
        return phi_parity_series(k, truncation), "phi-parity-series"
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    if family == PHI:
        return phi_series_double_sum(k, truncation, ring), "phi-double-sum"
    return cphi_series(k, truncation, ring), "cphi-constant-term"


def partition_series(
    truncation: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """1 / (q;q)_inf: the ordinary partition numbers p(n).

    Built from the dense product expansion, not the pentagonal series, so
    it stays a reference for phi_1 = p(n) apart from the double sum.
    """
    return invert(pochhammer(ring, truncation, 1, 1))
