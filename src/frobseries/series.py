"""Truncated formal power series in one variable q.

Everything is computed inside a hard truncation window: a series of
truncation N stores exactly the coefficients of q^0 .. q^N and nothing
else.  Operations never extend or silently shrink the window; combining
series with different truncations (or different coefficient rings) is an
error.

Coefficients live either in the arbitrary-precision integers or in the
integers mod m, selected by a :class:`CoefficientRing` tag fixed per
series.  Over Z/m with m <= 256 they are stored as one bytes object of
residues, which the kernels read and return as they are; in any other
ring, as a tuple.

Every route's denominator is an eta product prod_s E(q^s)^{e_s}, E(q) =
(q;q)_inf, and :func:`eta_quotient` divides by it from the powers alone,
from two planners.  In any other ring than Z/p^v <= 128 for a prime p <=
23, :func:`_eta_divisors` lists the denominator's sparse monic divisors
as term lists, three copies of E as one cube and a pair as Gauss's
phi(-q^s) E(q^{2s}), for :func:`_recurrence`, one recurrence per
divisor, which reads a divisor's terms by magnitude up to sign: a
pentagonal divisor or phi(-q^s) is one group, two gathers per
coefficient, and a segment where it is nothing else runs a one-line
loop.  Over Z/p^v <= 128, v >= 1, there is no recurrence:
:func:`_kernel_quotient` runs the plan :func:`_eta_plan` writes over
Z/p, products of dilations from Frobenius E(q^{s p^j}) = E(q^s)^{p^j}
and Jacobi's cube E^3 = J, on one packed int in one call of the kernel
:func:`_times_dilations`, and lifts that quotient one base-p digit at a
time, each step j a kernel product by the divisors :func:`_eta_divisors`
lists over Z/p^{j+1} and a kernel call on the Z/p plan; over Z/p it
lifts nothing.  None builds a divisor series: the terms come from the
exponent lists :func:`pentagonal_exponents`,
:func:`triangular_exponents` and :func:`gauss_exponents`, from which the
sparse builders :func:`pentagonal_series`,
:func:`triangular_cube_series` and :func:`gauss_theta_series` place
theirs.  The packed kernel and its layout live here alone: the pair
:func:`_pack` / :func:`_unpack` owns the layout, one bit per coefficient
over Z/2 and one 16-bit slot over Z/m for 2 < m <= 128, and the builders
that work on it, the parity route's :func:`eta_quotient_mod2` and cphi's
z^0 theta row :func:`theta_constant_series`, return series.  Only the
parity route reuses work, per bit length b of N: memos keyed by ints
hold E(q) to q^{2^b - 1} and the plan of each step's 1/E(q^step) to that
length, and a call shifts E to q^N and runs the whole plan; no series is
kept.  :func:`divide` by any divisor series makes each divisor monic and
is the recurrence in every ring, run in the order given, with no plan
and no kernel: the independent reference the planned quotients are
tested against.  The dense O(N^2) :func:`mul` and :func:`pochhammer`
stay as the schoolbook and product-expansion references for the sparse
forms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import isqrt, prod
from operator import itemgetter
from typing import Sequence


class TruncationError(ValueError):
    """A series stops short of the coefficients a computation needs."""


def check_truncation(truncation: int) -> None:
    """Refuse a truncation N < 0, with the message every builder shares."""
    if truncation < 0:
        raise ValueError("truncation must be >= 0")


@dataclass(frozen=True)
class CoefficientRing:
    """Coefficient ring tag: exact integers (``modulus=None``) or Z/mZ."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    def normalize(self, x: int) -> int:
        return x if self.modulus is None else x % self.modulus

    @property
    def stores_bytes(self) -> bool:
        """Whether a series over this ring keeps its coefficients as bytes:
        over Z/m for m <= 256, where every residue fits one byte."""
        return self.modulus is not None and self.modulus <= 256

    def zeros(self, length: int) -> bytearray | list:
        """A zero row to fill with residues and pass to TruncatedSeries:
        a bytearray if ``stores_bytes``, else a list."""
        return bytearray(length) if self.stores_bytes else [0] * length

    def unit_inverse(self, x: int) -> int:
        """Multiplicative inverse of a unit, or ValueError if x is no unit."""
        if self.modulus is None:
            if x not in (1, -1):
                raise ValueError(f"{x} is not a unit in the integers")
            return x
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{x} is not a unit mod {self.modulus}") from None

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


EXACT = CoefficientRing()
MOD2 = CoefficientRing(2)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a series to q^N; coeffs[n] is that of q^n.

    ``coeffs`` is stored by one rule, kept here.  Over Z/m with m <= 256
    it is one bytes object of residues in [0, m): a bytes or bytearray
    argument must already hold residues, which is checked in C, and any
    other sequence is reduced mod m one by one.  Over Z it is a tuple, and
    over Z/m with m > 256 a tuple reduced mod m.
    """

    ring: CoefficientRing
    truncation: int
    coeffs: bytes | tuple

    def __post_init__(self):
        check_truncation(self.truncation)
        coeffs, m = self.coeffs, self.ring.modulus
        if not self.ring.stores_bytes:
            coeffs = tuple(coeffs if m is None else [c % m for c in coeffs])
        elif isinstance(coeffs, (bytes, bytearray)):
            coeffs = bytes(coeffs)
            if coeffs.translate(None, bytes(range(m))):  # the bytes left over
                raise ValueError(f"coefficient bytes must be residues mod {m}")
        else:
            coeffs = bytes([c % m for c in coeffs])
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.truncation + 1:
            raise ValueError(
                f"need {self.truncation + 1} coefficients, got {len(coeffs)}"
            )

    def prefix(self, truncation: int) -> TruncatedSeries:
        """The series to q^truncation, for 0 <= truncation <= N: this one
        at N, else its first truncation + 1 coefficients, not checked
        again, since they are already stored by the rule."""
        if truncation == self.truncation:
            return self
        check_truncation(truncation)
        if truncation > self.truncation:
            raise ValueError(
                f"prefix {truncation} outside window [0, {self.truncation}]"
            )
        view = object.__new__(TruncatedSeries)
        coeffs = self.coeffs[: truncation + 1]
        view.__dict__.update(ring=self.ring, truncation=truncation, coeffs=coeffs)
        return view

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise IndexError(
                f"index {n} outside truncation window [0, {self.truncation}]"
            )
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"({body}) + O(q^{self.truncation + 1}) over {self.ring}"


def make_series(
    ring: CoefficientRing, truncation: int, coeffs: Sequence[int] = ()
) -> TruncatedSeries:
    """Build a series from a (possibly short) coefficient list.

    Missing trailing coefficients are zero; modular values are reduced
    into [0, m).  More than truncation+1 entries is an error.
    """
    check_truncation(truncation)
    if len(coeffs) > truncation + 1:
        raise ValueError(
            f"{len(coeffs)} coefficients exceed truncation window {truncation}"
        )
    padding = [0] * (truncation + 1 - len(coeffs))
    return TruncatedSeries(ring, truncation, [*coeffs, *padding])


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.truncation != b.truncation:
        raise ValueError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_compatible(a, b)
    sums = [x + y for x, y in zip(a.coeffs, b.coeffs)]
    return TruncatedSeries(a.ring, a.truncation, sums)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated Cauchy product (schoolbook convolution, the dense reference)."""
    _check_compatible(a, b)
    n = a.truncation
    out = [0] * (n + 1)
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = bc[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(a.ring, n, out)


def divide(a: TruncatedSeries, *divisors: TruncatedSeries) -> TruncatedSeries:
    """Quotient a / (b_1 * ... * b_r) at the shared truncation.

    The divisors are the factors of one denominator, such as an eta
    product (q^{s_1};q^{s_1})_inf ... (q^{s_r};q^{s_r})_inf; a factor may
    repeat.  Each b_i must have a unit constant coefficient.

    Each b_i is first made monic: its terms are scaled by b_0^{-1}, and a
    once by the product of the b_0^{-1}, so the quotient is unchanged.
    Then in every ring it is one :func:`_recurrence` call on the monic
    divisors' nonzero terms, one recurrence per divisor in the order
    given, with no kernel and no plan: the independent reference that
    :func:`eta_quotient`, which the routes call, is tested against.
    """
    for b in divisors:
        _check_compatible(a, b)
    ring = a.ring
    inverses = [ring.unit_inverse(b.coeffs[0]) for b in divisors]
    scale = ring.normalize(prod(inverses))
    if scale != 1:
        a = TruncatedSeries(ring, a.truncation, [scale * c for c in a.coeffs])
    monic = [
        [(i, ring.normalize(inverse * c)) for i, c in enumerate(b.coeffs) if c and i]
        for b, inverse in zip(divisors, inverses)
    ]
    return _recurrence(a, monic)


def _recurrence(a: TruncatedSeries, divisors: list) -> TruncatedSeries:
    """a / (b_1 * ... * b_r) by one recurrence per monic divisor, in any ring.

    ``divisors`` holds per b_i the list of its nonzero terms (i, b_i) with
    1 <= i <= N, in ascending order, for b_0 = 1.  Each divisor is c_m =
    a_m - sum_{i>=1, b_i != 0} b_i c_{m-i}, over b's nonzero terms only.
    ``out`` grows by append, so c_{m-i} is ``out[-i]``, and b's active
    terms (i <= m) are grouped by magnitude up to sign: by |b_i| over Z
    and by min(b_i, m - b_i) over Z/m.  A group v whose + and - sides
    hold two or more terms each costs v * (sum(plus(out)) -
    sum(minus(out))), ``plus`` and ``minus`` each one ``itemgetter`` of
    negative indices, so both sides are gathered and added in C.  Any
    other side of two or more terms is one signed gather, and a side of
    one term is read directly, since itemgetter of one index returns the
    item, not a tuple.  The reads change only at b's term indices, where
    the new term's group is updated.  A pentagonal divisor (terms +-1) or
    phi(-q) (+-2) is one group from its fourth term on; while a divisor is
    one such group and nothing else, a segment between two term indices
    runs a loop whose body is that one line, and any other shape runs
    the general loop, the same recurrence.  The cube's terms all differ
    in magnitude over Z, so there each is read on its own.  The divisors
    run in the order given: the quotient is unique, so the order changes
    only the cost, and :func:`_eta_divisors` picks it.

    The recurrence costs O(N * nnz(b)) element reads per divisor, done in
    C, and per coefficient one Python step per group or lone side and, in
    a modular ring only, one reduction.  On CPython 3.11 that about
    halves a pentagonal division at N = 2000; below N ~ 120 building the
    getters costs a few microseconds more than it saves.
    """
    ring, n = a.ring, a.truncation
    modulus = ring.modulus
    coeffs = a.coeffs
    for terms in divisors:
        out = ring.zeros(0)  # c_0, c_1, ... in the ring's storage
        # magnitude -> (negative indices of the + terms, of the - terms)
        groups: dict[int, tuple[list[int], list[int]]] = {}
        # the reads, each keyed by its group's magnitude or by its side's
        # signed value: (magnitude, plus, minus) per group of two full
        # sides, (signed value, itemgetter) per other side of two or more
        # terms, (signed value, index) per side of one
        pairs: dict = {}
        gathers: dict = {}
        singles: dict = {}
        for i, c in [*terms, (n + 1, 0)]:
            # c_m for m < i: the active terms are those below i
            paired, gathered = [*pairs.values()], [*gathers.values()]
            single = [*singles.values()]
            if len(paired) == 1 and not gathered and not single:
                ((value, plus, minus),) = paired
                for m in range(len(out), i):
                    acc = coeffs[m] - value * (sum(plus(out)) - sum(minus(out)))
                    out.append(acc if modulus is None else acc % modulus)
            else:
                for m in range(len(out), i):
                    acc = coeffs[m]
                    for value, plus, minus in paired:
                        acc -= value * (sum(plus(out)) - sum(minus(out)))
                    for value, get in gathered:
                        acc -= value * sum(get(out))
                    for value, j in single:
                        acc -= value * out[j]
                    out.append(acc if modulus is None else acc % modulus)
            if i > n:
                break
            if modulus is None:
                value, negative = abs(c), c < 0
            else:
                value, negative = min(c, modulus - c), c > modulus - c
            sides = groups.setdefault(value, ([], []))
            sides[negative].append(-i)
            for signed in (value, -value):
                gathers.pop(signed, None)
                singles.pop(signed, None)
            if len(sides[0]) > 1 and len(sides[1]) > 1:
                pairs[value] = (value, itemgetter(*sides[0]), itemgetter(*sides[1]))
                continue
            for signed, js in zip((value, -value), sides):
                if len(js) > 1:
                    gathers[signed] = (signed, itemgetter(*js))
                elif js:
                    singles[signed] = (signed, js[0])
        coeffs = out
    return TruncatedSeries(ring, n, coeffs)


# the primes whose eta quotients eta_quotient plans for the packed kernel.
# At 17, 19 and 23 the kernel beat the recurrence for 1/E, 1/E^4 and
# 1/(E^2 E(q^5)) at N = 10^4 and 3 * 10^4 (README, "Why the kernel stops
# at p <= 23"); 29 and up were not measured and keep the recurrence
_FROBENIUS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# residue byte 0/1 <-> ASCII digit '0'/'1': a Z/2 series packs and
# unpacks in a few C-level passes
_BIT_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")
_SLOT_MAX = 0xFFFF
# the largest m for which a 16-bit slot 256 h + l, as (256 h mod m) +
# (l mod m) < 2 m, fits one byte
_PACKED_MODULUS_MAX = 128
# m -> p for each power m = p^v <= _PACKED_MODULUS_MAX of a prime p in
# _FROBENIUS_PRIMES: the moduli eta_quotient divides over by the kernel
_PRIME_POWER_BASE = {
    p**v: p
    for p in _FROBENIUS_PRIMES
    for v in range(1, _PACKED_MODULUS_MAX.bit_length())
    if p**v <= _PACKED_MODULUS_MAX
}


@cache
def _byte_tables(m: int) -> tuple[bytes, bytes]:
    """The bytes x -> x mod m and x -> 256 x mod m: a slot's low and high
    byte reduced, made on the first use of m."""
    return bytes(x % m for x in range(256)), bytes(256 * x % m for x in range(256))


def _pack(residues: bytes, m: int) -> int:
    """Residues mod m, q^0 first, as one int with q^i in slot N - i.

    A slot is 1 bit over Z/2 and 16 bits over Z/m for 2 < m <= 128.
    """
    if m == 2:
        return int(residues.translate(_BIT_DIGIT), 2)
    slots = bytearray(2 * len(residues))
    slots[1::2] = residues
    return int.from_bytes(slots, "big")


def _unpack(packed: int, truncation: int, m: int) -> bytes:
    """The slots of ``packed`` reduced mod m, q^0 first, one byte each.

    For 2 < m <= 128 a slot 256 h + l is congruent to (256 h mod m) +
    (l mod m), a sum of two table lookups below 2m <= 256; one byte per
    slot holds it, and the low table reduces it once more.
    """
    n = truncation
    if m == 2:  # one expression: the digit str is freed before translate
        return format(packed, f"0{n + 1}b").encode().translate(_DIGIT_BIT)
    data = packed.to_bytes(2 * (n + 1), "big")
    low, high = _byte_tables(m)
    total = int.from_bytes(data[1::2].translate(low), "big") + int.from_bytes(
        data[::2].translate(high), "big"
    )
    return total.to_bytes(n + 1, "big").translate(low)


def _reduced(packed: int, truncation: int, m: int) -> int:
    """``packed`` with every 16-bit slot reduced mod m, for 2 < m <= 128."""
    return _pack(_unpack(packed, truncation, m), m)


def _times_dilations(
    packed: int, factors: Sequence[tuple[Sequence, int]], truncation: int, m: int
) -> bytes:
    """packed * prod_i b_i(q^{step_i}) over Z/m, as residues q^0 first: on
    bits over Z/2, and on 16-bit slots over any Z/m with 2 < m <= 128.

    The packed kernel, with two callers: :func:`eta_quotient_mod2` and
    :func:`_kernel_quotient` pass it the factors :func:`_eta_plan` writes
    over Z/p, in the order it writes them, and :func:`_kernel_quotient`
    also passes it the divisors :func:`_eta_divisors` lists over each
    Z/p^j, 2 <= j <= v, each with its q^0 term put back.

    ``factors`` holds the pairs (terms_i, step_i) of sparse factors b_i,
    whose terms ascend from g = 0 and may run past N.  ``packed`` holds a
    series to q^N as :func:`_pack` lays it out, so multiplying by q^s is
    a right shift by s slots that drops every term past q^N, with no
    mask, and each factor is one shifted add per term g with step * g <=
    N, applied one after another to the one packed int.

    Over Z/2 the terms are the exponents g and the add is XOR.  For m > 2
    they are pairs (g, c) with 0 < c < m: c * packed is made once per
    factor and value c, then shifted per term.  A bound on the slots is
    tracked, and whenever an add could pass ``_SLOT_MAX`` the sum so far
    is reduced mod m, back to the bound m - 1.
    """
    n = truncation
    if m == 2:
        for exponents, step in factors:
            product = 0
            for g in exponents:
                if step * g > n:
                    break
                product ^= packed >> step * g
            packed = product
        return _unpack(packed, n, 2)
    bound = m - 1  # no slot of packed exceeds it
    for terms, step in factors:
        # (g, c) <= (N // step, m) exactly when step * g <= N, since c < m
        active = terms[: bisect_right(terms, (n // step, m))]
        if bound * sum(map(itemgetter(1), active)) > _SLOT_MAX:
            packed, bound = _reduced(packed, n, m), m - 1
        multiples = {1: packed}
        product = top = 0
        for g, c in active:
            if top + c * bound > _SLOT_MAX:
                product, top = _reduced(product, n, m), m - 1
            multiple = multiples.get(c)
            if multiple is None:
                multiple = multiples[c] = c * packed
            product += multiple >> 16 * step * g
            top += c * bound
        packed, bound = product, top
    return _unpack(packed, n, m)


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the shared truncation: 1 / a by :func:`divide`."""
    return divide(make_series(a.ring, a.truncation, [1]), a)


def pochhammer(
    ring: CoefficientRing, truncation: int, start: int, step: int
) -> TruncatedSeries:
    """Truncated (q^start; q^step)_inf = prod_{j>=0} (1 - q^{start + j*step}).

    Dense O(N^2 / step) product expansion, kept as the reference for
    :func:`pentagonal_series` and for the partition numbers.  Factors
    whose exponent exceeds the truncation contribute nothing and are
    skipped.
    """
    if start < 1 or step < 1:
        raise ValueError("start and step must be >= 1")
    check_truncation(truncation)
    n = truncation
    out = [0] * (n + 1)
    out[0] = 1
    e = start
    while e <= n:
        # multiply in place by (1 - q^e); descending keeps out[i-e] pristine
        for i in range(n, e - 1, -1):
            out[i] = ring.normalize(out[i] - out[i - e])
        e += step
    return TruncatedSeries(ring, n, out)


def _sparse_series(
    ring: CoefficientRing, truncation: int, exponents, step: int = 1
) -> TruncatedSeries:
    """The sparse builders' one placement loop: ring.normalize(c) at
    q^{step e} for each term (e, c) of ``exponents(N // step)``.  N is
    checked and the row allocated before any term is listed, so a
    negative or huge N fails at once."""
    check_truncation(truncation)
    out = ring.zeros(truncation + 1)
    for e, c in exponents(truncation // step):
        out[step * e] = ring.normalize(c)
    return TruncatedSeries(ring, truncation, out)


def pentagonal_exponents(limit: int) -> list[tuple[int, int]]:
    """(e, (-1)^j) for each generalized pentagonal e = j(3j -+ 1)/2 <= limit.

    The terms of Euler's (q;q)_inf, in ascending order of e, 0 first;
    O(sqrt(limit)) steps.
    """
    terms = [(0, 1)]
    j = 1
    while (low := j * (3 * j - 1) // 2) <= limit:
        sign = -1 if j % 2 else 1
        terms.append((low, sign))
        if low + j <= limit:
            terms.append((low + j, sign))
        j += 1
    return terms


def pentagonal_series(
    ring: CoefficientRing, truncation: int, step: int = 1
) -> TruncatedSeries:
    """Sparse form of (q^step; q^step)_inf by Euler's pentagonal theorem.

    Each term (e, sign) of :func:`pentagonal_exponents` puts sign at
    q^{step * e}; the series is placed term by term rather than by
    expanding the product (:func:`pochhammer` is that dense reference).
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return _sparse_series(ring, truncation, pentagonal_exponents, step)


def gauss_exponents(limit: int) -> list[tuple[int, int]]:
    """(e, c) for each term of Gauss's phi(-q) = sum_{n in Z} (-1)^n q^{n^2}
    with e <= limit: 1 at q^0 and 2 (-1)^n at each square n^2, in
    ascending order; O(sqrt(limit)) steps."""
    return [(0, 1)] + [(j * j, 2 * (-1) ** j) for j in range(1, isqrt(limit) + 1)]


def gauss_theta_series(ring: CoefficientRing, truncation: int) -> TruncatedSeries:
    """Sparse form of Gauss's phi(-q): each term of :func:`gauss_exponents`.

    By Gauss, phi(-q) = (q;q)_inf^2 / (q^2;q^2)_inf: about sqrt(N) terms
    in two values.
    """
    return _sparse_series(ring, truncation, gauss_exponents)


def triangular_exponents(limit: int) -> list[tuple[int, int]]:
    """(e, (-1)^m (2m+1)) for each triangular e = m(m+1)/2 <= limit, m >= 0.

    The terms of Jacobi's cube (q;q)_inf^3, in ascending order of e, 0
    first; O(sqrt(limit)) steps.  Mod 2 every coefficient is 1, so the
    exponents alone are J = sum_{m>=0} q^{m(m+1)/2}, the cube mod 2.
    """
    terms = []
    m = 0
    while (e := m * (m + 1) // 2) <= limit:
        terms.append((e, -(2 * m + 1) if m % 2 else 2 * m + 1))
        m += 1
    return terms


def triangular_cube_series(
    ring: CoefficientRing, truncation: int
) -> TruncatedSeries:
    """Sparse form of (q;q)_inf^3: each term of :func:`triangular_exponents`."""
    return _sparse_series(ring, truncation, triangular_exponents)


def eta_quotient(a: TruncatedSeries, powers: dict[int, int]) -> TruncatedSeries:
    """a / prod_s E(q^s)^{powers[s]}, with E(q) = (q;q)_inf: an eta quotient.

    The routes' one entry point for a denominator that is a product of
    powers of E(q^s).  Over Z/p^v <= 128, v >= 1, for a prime p <= 23 it
    is one call of :func:`_kernel_quotient`, the kernel alone; in any
    other ring one :func:`_recurrence` call on the divisors
    :func:`_eta_divisors` lists.  None builds a full-length divisor
    series.  Steps past N divide by 1 and are left out.
    """
    for s, e in powers.items():
        if s < 1 or e < 0:
            raise ValueError(f"need steps >= 1 and powers >= 0, got {s}: {e}")
    ring, n = a.ring, a.truncation
    p = _PRIME_POWER_BASE.get(ring.modulus)
    if p is None:
        return _recurrence(a, _eta_divisors(ring, n, powers))
    return TruncatedSeries(ring, n, _kernel_quotient(a, powers, p))


def _kernel_quotient(a: TruncatedSeries, powers: dict[int, int], p: int) -> bytes:
    """The residues of a / D over Z/m, m = p^v with v >= 1, for D = prod_s
    E(q^s)^{powers[s]}, by the kernel alone: the quotient over Z/p lifted
    one base-p digit at a time.

    Q_1 = a / D mod p is one kernel call, on a mod p, of the plan
    :func:`_eta_plan` writes for 1/D over Z/p; for v = 1 it is the
    quotient.  Given Q_j = Q mod p^j, as residues below p^j, R = a - D Q_j
    = D (Q - Q_j) mod p^{j+1}, so R / p^j = D X mod p for the next base-p
    digit X of Q: one more call of the plan gives X, and Q_{j+1} = Q_j +
    p^j X.  D Q_j is a product, not a quotient: a kernel call over
    Z/p^{j+1}, whose small slot bound needs few reductions, by the
    divisors :func:`_eta_divisors` lists over that ring, each with its
    q^0 term put back.  So each of the v - 1 lift steps is two kernel
    calls, and the sums between them are O(N) big-int ops on one byte
    per coefficient: a_i + m - (D Q_j)_i lies in [1, 2m), a multiple of
    p^j, and Q_j + p^j X below m, so no byte carries.
    """
    n, m = a.truncation, a.ring.modulus
    plan = _eta_plan(powers, p, n)
    low = _byte_tables(p)[0]  # x -> x mod p
    quotient = _times_dilations(_pack(a.coeffs.translate(low), p), plan, n, p)
    scale = p
    while scale < m:
        modulus = scale * p
        product = [
            ([(0, 1), *terms], 1)
            for terms in _eta_divisors(CoefficientRing(modulus), n, powers)
        ]
        image = _times_dilations(_pack(quotient, modulus), product, n, modulus)
        # a_i + m per byte, made only when a lift step runs
        shifted = int.from_bytes(a.coeffs, "big") + int.from_bytes(
            bytes([m]) * (n + 1), "big"
        )
        rest = (shifted - int.from_bytes(image, "big")) // scale
        residual = rest.to_bytes(n + 1, "big").translate(low)
        digit = _times_dilations(_pack(residual, p), plan, n, p)
        total = int.from_bytes(quotient, "big") + scale * int.from_bytes(digit, "big")
        quotient = total.to_bytes(n + 1, "big")
        scale = modulus
    return quotient


def _eta_levels(powers: dict[int, int], p: int, truncation: int) -> list:
    """(step, cube) per factor of prod_s E(q^s)^{-powers[s]} over Z/p, p
    <= 23, at every step <= N: Jacobi's cube J(q^step) = E(q^step)^3 if
    ``cube``, else E(q^step).

    Over F_p, E(q^{s p^j}) = E(q^s)^{p^j}, so each step is first written
    as a p-free step s, and the powers of one s add up to e.  For p^T >
    N, E(q^s)^{p^T} = E(q^{s p^T}) = 1 to q^N, so E(q^s)^{-e} =
    E(q^s)^{p^T - e} = prod_t E(q^{s p^t})^{d_t} for the base-p digits
    d_t of -e, those of p^T - e below level T.  For p >= 5 each three
    copies at one level are one J, so a digit d is d // 3 factors J and
    d mod 3 factors E (over Z/3 a digit never reaches 3).  Over Z/2,
    E^{2^t} E^{2^{t+1}} = E(q^{2^t})^3, so two 1-digits in a row are one
    J(q^{s 2^t}), paired from the lowest level up: the digits of -2^j are
    j zeros and then all ones, so 1/E(q^s) is the chain J(q^{s 4^u})
    alone.  The walk is O(log N) steps per s, so nothing is cached.
    """
    folded: dict[int, int] = {}
    for s, e in powers.items():
        while s % p == 0:
            s, e = s // p, e * p
        folded[s] = folded.get(s, 0) + e
    levels = []
    for s, e in sorted(folded.items()):
        digits, step = -e, s  # shifts, % and // give the digits of -e
        if p == 2:
            while step <= truncation:
                if digits & 3 == 3:
                    levels.append((step, True))
                    digits >>= 2
                    step *= 4
                else:
                    if digits & 1:
                        levels.append((step, False))
                    digits >>= 1
                    step *= 2
            continue
        while step <= truncation:
            d = digits % p
            levels += [(step, True)] * (d // 3) + [(step, False)] * (d % 3)
            digits, step = digits // p, step * p
    return levels


def _eta_plan(powers: dict[int, int], p: int, truncation: int) -> list:
    """The factors (terms, step) of :func:`_eta_levels`, in the layout
    :func:`_times_dilations` reads: exponents over Z/2, pairs (g, c mod p)
    with c mod p != 0 for odd p.  The terms of J and E are listed once
    each, to N over the smallest step that uses them."""
    n = truncation
    levels = _eta_levels(powers, p, n)
    terms = {}
    for step, cube in levels:
        if cube not in terms:
            limit = n // min(s for s, c in levels if c == cube)
            listed = (triangular_exponents if cube else pentagonal_exponents)(limit)
            if p == 2:
                terms[cube] = [g for g, _ in listed]
            else:
                terms[cube] = [(g, c % p) for g, c in listed if c % p]
    return [(terms[cube], step) for step, cube in levels]


def _eta_divisors(
    ring: CoefficientRing, truncation: int, powers: dict[int, int]
) -> list:
    """Monic divisors whose product is prod_s E(q^s)^{powers[s]}, as
    :func:`_recurrence` takes them: one list per divisor of its nonzero
    terms past q^0, with no series built.  :func:`_kernel_quotient`
    multiplies by the same divisors, their q^0 terms put back, at each
    lift step.

    The recurrence reads every term of a divisor for each coefficient,
    so fewer terms cost less, and it sums the terms of one magnitude up
    to sign as one group: E(q^s) (+-1) and phi(-q^s) (+-2) are one group
    each, and over Z the cube's terms are read one by one.  Each three
    copies of E(q^s) are Jacobi's cube J(q^s), listed once per step and
    only when used; a pair is
    Gauss's phi(-q^s) E(q^{2s}), whose E(q^{2s}) joins step 2s; a single
    copy is E(q^s).  So E(q)^2 E(q^2) is phi(-q) phi(-q^2) E(q^4): about
    2.53 sqrt(m) terms to read for q^m, not 3.31 sqrt(m).  The steps are
    walked upwards and returned latest first, E(q^{k+1}) before E(q), so
    the partial quotients stay machine-sized ints, which CPython's
    ``sum`` adds fastest, for longer.
    """
    n, m = truncation, ring.modulus

    def terms(listed, s):  # the nonzero terms past q^0, at q^{s e}
        if m is None:
            return [(s * e, c) for e, c in listed[1:]]
        return [(s * e, c % m) for e, c in listed[1:] if c % m]

    pending = {s: e for s, e in powers.items() if s <= n and e}
    divisors = []
    while pending:
        s = min(pending)
        e = pending.pop(s)
        if e >= 3:
            divisors += [terms(triangular_exponents(n // s), s)] * (e // 3)
        if e % 3 == 2:
            divisors.append(terms(gauss_exponents(n // s), s))
            if 2 * s <= n:
                pending[2 * s] = pending.get(2 * s, 0) + 1
        elif e % 3:
            divisors.append(terms(pentagonal_exponents(n // s), s))
    return divisors[::-1]


@cache
def _euler_table(bits: int) -> tuple[int, int]:
    """(L, E) for L = 2^bits - 1: E(q) to q^L packed as by :func:`_pack`,
    which every N of that bit length reads as E >> (L - N).  The bits are
    set in a buffer, not by one O(N) big-int OR per term, allocated
    first: a huge N fails at once, before its exponents are listed, and
    leaves no memo entry."""
    limit = (1 << bits) - 1
    buffer = bytearray(limit // 8 + 1)
    for g, _ in pentagonal_exponents(limit):
        buffer[(limit - g) >> 3] |= 1 << ((limit - g) & 7)
    return limit, int.from_bytes(buffer, "little")


@cache
def _parity_plan(step: int, bits: int) -> tuple[int, int, list]:
    """(L, E, plan) for the parity route's 1/E(q^step) at the bit length
    ``bits`` of N: L and E from :func:`_euler_table`, and the J-chain
    J(q^{step 4^u}) that :func:`_eta_plan` writes for {step: 1} to L."""
    limit, euler = _euler_table(bits)
    return limit, euler, _eta_plan({step: 1}, 2, limit)


def eta_quotient_mod2(step: int, truncation: int) -> TruncatedSeries:
    """(q;q)_inf / (q^step;q^step)_inf over Z/2, with no division.

    E(q) from the table for N's bit length, shifted right to q^N, times
    the J-chain the planner writes to L, in one call of
    :func:`_times_dilations`.  Both come from the memo of (step, bit
    length of N).  As L < 2N + 1 and the steps grow 4x, at most the last
    factor's step passes N, and the kernel, stopping at the first term
    past q^N, keeps its 1.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    check_truncation(truncation)
    limit, euler, plan = _parity_plan(step, truncation.bit_length())
    product = _times_dilations(euler >> (limit - truncation), plan, truncation, 2)
    return TruncatedSeries(MOD2, truncation, product)


def theta_exponents(limit: int) -> list[tuple[int, int]]:
    """(m, m(m+1)/2) for every integer m with m(m+1)/2 <= limit.

    The terms of theta(z) = sum_m z^m q^{m(m+1)/2}, ordered by q-degree;
    m and -1-m share a degree and sit next to each other.
    """
    terms = []
    for t, (e, _) in enumerate(triangular_exponents(limit)):
        terms += [(t, e), (-1 - t, e)]
    return terms


def theta_constant_series(
    ring: CoefficientRing, truncation: int, k: int
) -> TruncatedSeries:
    """The z^0 row of theta(z)^k to q^N, the numerator of cphi_k; for k = 1
    it is 1.

    theta(zq) = z^-1 q^-1 theta(z), so the z rows R_j of theta^t satisfy
    R_{b+st} = q^{sb + ts(s+1)/2} R_b: only the t base rows b in (-t, 0]
    are kept, and on that window every such shift is >= 0, so truncating
    a base row loses nothing.  Step t -> t+1 builds the base rows
    c >= -floor((t+1)/2) of its t+1 as R'_c = sum_m q^{m(m+1)/2} R_{c-m},
    one shifted add per theta term.  theta(1/z) = z theta(z) gives
    R'_c = R'_{-c-t-1}, so each other base row is its partner's int
    object, not a copy.  The last step builds only c = 0.

    A row is one int laid out as by :func:`_pack`, and the layout follows
    from the modulus alone.  Over Z/m for m <= 128 the row is built mod m:
    XOR over Z/2; for 2 < m a sum is reduced before an add could pass
    ``_SLOT_MAX``, each base row at the end of its step, and the last row
    by :func:`_unpack`, which reduces any 16-bit slot.  Over Z and Z/m
    for m > 128 it is built over Z in B-bit slots and reduced at the end:
    a slot of R'_c is at most T^{t+1} <= T^k for T theta terms, so with
    B = bits(T^k) + 1 (rounded up to whole bytes) no carry leaves its
    slot.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_truncation(truncation)
    n, modulus = truncation, ring.modulus
    if k == 1:  # theta's one z^0 term is q^0: the row is 1, with no term listed
        row = ring.zeros(n + 1)
        row[0] = 1
        return TruncatedSeries(ring, n, row)
    packed = modulus is not None and modulus <= _PACKED_MODULUS_MAX
    # bound: the most a base row adds to a slot, tracked in 16-bit slots only
    if modulus == 2:
        slot, bound = 1, 0
    elif packed:
        slot, bound = 16, modulus - 1
    else:  # T = 2 (M + 1) theta terms, M the largest m with m(m+1)/2 <= N
        count = 2 * ((isqrt(8 * n + 1) + 1) // 2)
        slot, bound = 8 * ((count**k).bit_length() // 8 + 1), 0
    # allocated before any term is listed, so a huge N fails here, at once
    rows = [1 << n * slot]  # rows[b + t - 1] is R_b of theta^t, b in (-t, 0]
    terms = theta_exponents(n)
    for t in range(1, k):
        half = (t + 1) // 2 if t + 1 < k else 0  # the last step builds c = 0
        built = []  # built[j] is R'_(j - half)
        for c in range(-half, 1):
            row = top = 0
            for m, dq in terms:
                s = -((m - c) // t)  # c - m = b + s*t with b in (-t, 0]
                b = c - m - s * t
                shift = dq + s * b + t * s * (s + 1) // 2
                if shift > n:
                    continue
                part = rows[b + t - 1] >> shift * slot
                if modulus == 2:
                    row ^= part
                    continue
                if top + bound > _SLOT_MAX:
                    row, top = _reduced(row, n, modulus), bound
                row += part
                top += bound
            if bound and t + 1 < k:  # _unpack reduces the last row
                row = _reduced(row, n, modulus)
            built.append(row)
        # each c < -half takes the int object of its mirror -c-t-1
        rows = built[2 * half - t : half][::-1] + built
    if packed:
        return TruncatedSeries(ring, n, _unpack(rows[-1], n, modulus))
    width = slot // 8
    data = rows[-1].to_bytes((n + 1) * width, "big")
    row = [
        int.from_bytes(data[i : i + width], "big")
        for i in range(0, len(data), width)
    ]
    return TruncatedSeries(ring, n, row)


def reduce_mod(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficientwise reduction of an exact-integer series into Z/mZ."""
    if a.ring.is_modular:
        raise ValueError("reduce_mod expects an exact-integer series")
    return TruncatedSeries(CoefficientRing(m), a.truncation, a.coeffs)
