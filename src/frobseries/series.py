"""Truncated formal power series in one variable q.

Everything is computed inside a hard truncation window: a series of
truncation N stores exactly the coefficients of q^0 .. q^N and nothing
else.  Operations never extend or silently shrink the window; combining
series with different truncations (or different coefficient rings) is an
error.

Coefficients live either in the arbitrary-precision integers or in the
integers mod m, selected by a :class:`CoefficientRing` tag fixed per
series.

Production routes build eta quotients from sparse pentagonal series
(:func:`pentagonal_series`, placed from the one exponent list
:func:`pentagonal_exponents`), the sparse cube
:func:`triangular_cube_series`, and :func:`divide`, which takes a whole
denominator b_1 ... b_r in one call.  For a factor with nnz nonzero
terms taking g distinct values, :func:`divide` reads O(N * nnz)
coefficients but takes only O(N * g) Python steps: each group of
equal-valued terms is summed by one C-level gather.  Over Z/2 it runs no
recurrence: there b^2 = b(q^2), so 1/b = prod_{t>=0} b(q^{2^t}), and one
call of the private kernel :func:`_gf2_times_inverse` applies the
dilations of every factor to the dividend, packed once into one int and
unpacked once, sum_t nnz(b_i up to q^{N/2^t}) shift-XORs of N-bit ints
per factor.  The parity route of ``frobenius`` calls the same kernel
with its one factor.  The dense O(N^2)
:func:`mul` and :func:`pochhammer` stay as the schoolbook and
product-expansion references that the tests compare the sparse forms
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Sequence


class TruncationError(ValueError):
    """A series stops short of the coefficients a computation needs."""


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
    """Coefficient vector c_0..c_N; index n holds the coefficient of q^n."""

    ring: CoefficientRing
    truncation: int
    coeffs: tuple

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError(
                f"need {self.truncation + 1} coefficients, got {len(self.coeffs)}"
            )

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
    if len(coeffs) > truncation + 1:
        raise ValueError(
            f"{len(coeffs)} coefficients exceed truncation window {truncation}"
        )
    m = ring.modulus
    padded = list(coeffs) if m is None else [c % m for c in coeffs]
    padded.extend([0] * (truncation + 1 - len(padded)))
    return TruncatedSeries(ring, truncation, tuple(padded))


def zero_series(ring: CoefficientRing, truncation: int) -> TruncatedSeries:
    return make_series(ring, truncation)


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.truncation != b.truncation:
        raise ValueError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_compatible(a, b)
    ring = a.ring
    return TruncatedSeries(
        ring,
        a.truncation,
        tuple(ring.normalize(x + y) for x, y in zip(a.coeffs, b.coeffs)),
    )


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
    ring = a.ring
    if ring.is_modular:
        m = ring.modulus
        out = [c % m for c in out]
    return TruncatedSeries(ring, n, tuple(out))


def divide(a: TruncatedSeries, *divisors: TruncatedSeries) -> TruncatedSeries:
    """Quotient a / (b_1 * ... * b_r) at the shared truncation.

    The divisors are the factors of one denominator, such as an eta
    product (q^{s_1};q^{s_1})_inf ... (q^{s_r};q^{s_r})_inf; a factor may
    repeat.  Each b_i must have a unit constant coefficient.

    Over Z/2 the quotient is a product, with no recurrence: b^2 = b(q^2)
    there, so b * prod_{t<T} b(q^{2^t}) = b(q^{2^T}) = 1 + O(q^{2^T}) and
    1/b = prod_{t>=0} b(q^{2^t}).  a is packed into one int,
    :func:`_gf2_times_inverse` applies the about log2(N) dilations of
    every b_i by shift-XOR, sum_t nnz(b_i up to q^{N/2^t}) shift-XORs of
    N-bit ints per factor, and the result is unpacked once.

    In any other ring, one recurrence per factor, c_m = b_0^{-1} (a_m -
    sum_{i>=1, b_i != 0} b_i c_{m-i}), over b's nonzero terms only.
    ``out`` grows by append, so c_{m-i} is ``out[-i]``, and b's active
    terms (i <= m) are grouped by coefficient value: each group of two or
    more is one ``itemgetter`` of negative indices, so c * sum(getter(out))
    gathers and adds the whole group in C.  The groups change only at b's
    term indices and are rebuilt there.  A pentagonal divisor gives two
    groups over Z; the cube's terms all differ over Z, so there each is a
    group of one.

    The recurrence costs O(N * nnz(b)) element reads per factor, done in
    C, and per coefficient one Python step per group, then one
    multiplication by b_0^{-1} and, in a modular ring only, one
    reduction.  On CPython 3.11 that about halves a pentagonal division at
    N = 2000; below N ~ 120 building the getters costs a few microseconds
    more than it saves.
    """
    for b in divisors:
        _check_compatible(a, b)
    ring, n = a.ring, a.truncation
    modulus = ring.modulus
    inverses = [ring.unit_inverse(b.coeffs[0]) for b in divisors]
    if modulus == 2:
        # coefficients as ASCII binary digits, q^0 first: a's are the bits
        # of one int with q^i at bit N - i, each b's nonzero ones its
        # exponents
        a_digits = bytes(a.coeffs).translate(_PARITY_DIGIT)
        factors = []
        for b in divisors:
            bits = bytes(b.coeffs).translate(_PARITY_DIGIT).translate(_DIGIT_BIT)
            factors.append((list(compress(range(n + 1), bits)), 1))
        return _gf2_times_inverse(int(a_digits, 2), factors, n)
    coeffs = a.coeffs
    for b, inv0 in zip(divisors, inverses):
        terms = [(i, c) for i, c in enumerate(b.coeffs) if c and i]
        out: list[int] = []
        # value -> negative indices of the active terms with that value; a
        # group of one is read directly, since itemgetter of one index
        # returns the item, not a tuple
        groups: dict[int, list[int]] = {}
        gathers: list = []  # (value, itemgetter) per group of two or more
        singles: list = []  # (value, index) per group of one
        for i, c in [*terms, (n + 1, 0)]:
            # c_m for m < i: the active terms are those below i
            for m in range(len(out), i):
                acc = coeffs[m]
                for value, get in gathers:
                    acc -= value * sum(get(out))
                for value, j in singles:
                    acc -= value * out[j]
                acc = inv0 * acc
                out.append(acc if modulus is None else acc % modulus)
            if i > n:
                break
            groups.setdefault(c, []).append(-i)
            gathers = [
                (v, itemgetter(*js)) for v, js in groups.items() if len(js) > 1
            ]
            singles = [(v, js[0]) for v, js in groups.items() if len(js) == 1]
        coeffs = out
    return TruncatedSeries(ring, n, tuple(coeffs))


# byte value -> its parity as an ASCII digit '0'/'1', and ASCII '0'/'1' ->
# byte 0/1: a Z/2 series packs and unpacks in a few C-level passes
_PARITY_DIGIT = bytes(b"01"[i & 1] for i in range(256))
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _gf2_times_inverse(
    packed: int, factors: Sequence[tuple[Sequence[int], int]], truncation: int
) -> TruncatedSeries:
    """packed / prod_i b_i(q^{step_i}) over Z/2, one factor per pair.

    ``factors`` holds the pairs (exponents_i, step_i), and b_i = sum_{g in
    exponents_i} q^g.  ``packed`` holds a series to q^N with q^i at bit
    N - i, so multiplying by q^s is a right shift by s that drops every
    term past q^N, with no mask.  Each exponent list ascends from 0
    (b_i(0) = 1) and may run past N.  Over Z/2, 1/b(q^step) =
    prod_{t>=0} b(q^{step 2^t}); each dilation with step * 2^t <= N is
    one shift-XOR per exponent g with step * 2^t * g <= N, and the
    factors past N are 1.  The factors commute, so they are applied one
    after another to the one packed int.  The binary digits of the
    result, most significant first, are the coefficients of q^0..q^N.
    """
    n = truncation
    for exponents, step in factors:
        while step <= n:
            product = 0
            for g in exponents:
                if step * g > n:
                    break
                product ^= packed >> step * g
            packed = product
            step *= 2
    bits = format(packed, f"0{n + 1}b")
    return TruncatedSeries(MOD2, n, tuple(bits.encode().translate(_DIGIT_BIT)))


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
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    n = truncation
    out = [0] * (n + 1)
    out[0] = 1
    e = start
    while e <= n:
        # multiply in place by (1 - q^e); descending keeps out[i-e] pristine
        for i in range(n, e - 1, -1):
            out[i] = ring.normalize(out[i] - out[i - e])
        e += step
    return TruncatedSeries(ring, n, tuple(out))


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
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    out = [0] * (truncation + 1)
    for e, sign in pentagonal_exponents(truncation // step):
        out[step * e] = ring.normalize(sign)
    return TruncatedSeries(ring, truncation, tuple(out))


def triangular_cube_series(
    ring: CoefficientRing, truncation: int
) -> TruncatedSeries:
    """Sparse form of (q;q)_inf^3: coefficient (-1)^k (2k+1) at q^{k(k+1)/2}."""
    n = truncation
    out = [0] * (n + 1)
    k = 0
    while k * (k + 1) // 2 <= n:
        e = k * (k + 1) // 2
        c = (2 * k + 1) * (-1 if k % 2 else 1)
        out[e] = ring.normalize(c)
        k += 1
    return TruncatedSeries(ring, n, tuple(out))


def reduce_mod(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficientwise reduction of an exact-integer series into Z/mZ."""
    if a.ring.is_modular:
        raise ValueError("reduce_mod expects an exact-integer series")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    ring = CoefficientRing(m)
    return TruncatedSeries(
        ring, a.truncation, tuple(c % m for c in a.coeffs)
    )
