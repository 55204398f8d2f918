import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobseries.series
from frobseries.frobenius import (
    partition_series,
    phi_parity_series,
    phi_series_double_sum,
)
from frobseries.series import (
    EXACT,
    MOD2,
    CoefficientRing,
    TruncatedSeries,
    add,
    divide,
    eta_quotient,
    eta_quotient_mod2,
    gauss_theta_series,
    invert,
    make_series,
    mul,
    pentagonal_exponents,
    pentagonal_series,
    pochhammer,
    reduce_mod,
    theta_constant_series,
    triangular_cube_series,
)


def test_coefficient_ring_rejects_small_modulus():
    with pytest.raises(ValueError):
        CoefficientRing(1)
    with pytest.raises(ValueError):
        CoefficientRing(0)


def test_make_series_constant_one():
    s = make_series(EXACT, 3, [1])
    assert s.coeffs == (1, 0, 0, 0)


def test_make_series_modular_reduction():
    s = make_series(CoefficientRing(5), 2, [7, -1])
    assert s.coeffs == bytes((2, 4, 0))


def test_make_series_empty_is_zero():
    assert make_series(EXACT, 0, []).coeffs == (0,)


@pytest.mark.parametrize(
    "series, text",
    [
        (make_series(EXACT, 3, [1, 0, -2]), "(1*q^0 + -2*q^2) + O(q^4) over Z"),
        (make_series(CoefficientRing(5), 2, [0, 7]), "(2*q^1) + O(q^3) over Z/5"),
        (make_series(MOD2, 1), "(0) + O(q^2) over Z/2"),
    ],
)
def test_series_str(series, text):
    assert str(series) == text


@pytest.mark.parametrize(
    "ring, coeffs",
    [(MOD2, [1, 0, 1, 1]), (CoefficientRing(25), [24, 3, 0, 7]),
     (EXACT, [-5, 0, 2, 9]), (CoefficientRing(257), [256, 1, 0, 3])],
    ids=str,
)
def test_prefix_is_the_checked_series_of_the_first_coefficients(ring, coeffs):
    # a prefix is not checked again, so it must equal, and hash as, the
    # series the constructor checks; at N it is the series itself
    series = make_series(ring, 3, coeffs)
    for n in range(3):
        view = series.prefix(n)
        checked = make_series(ring, n, coeffs[: n + 1])
        assert type(view.coeffs) is type(checked.coeffs)
        assert (view.ring, view.truncation) == (ring, n)
        assert view == checked and hash(view) == hash(checked)
    assert series.prefix(3) is series
    with pytest.raises(ValueError, match="^truncation must be >= 0$"):
        series.prefix(-1)
    with pytest.raises(ValueError, match="outside window"):
        series.prefix(4)


def test_make_series_rejects_overlong():
    with pytest.raises(ValueError):
        make_series(EXACT, 1, [1, 2, 3])


def test_add_cancellation():
    a = make_series(EXACT, 1, [1, -1])
    b = make_series(EXACT, 1, [0, 1])
    assert add(a, b).coeffs == (1, 0)


def test_add_characteristic_two():
    ring = CoefficientRing(2)
    a = make_series(ring, 1, [1, 1])
    assert add(a, a).is_zero()


def test_add_rejects_mismatch():
    with pytest.raises(ValueError):
        add(make_series(EXACT, 2, [1]), make_series(EXACT, 3, [1]))
    with pytest.raises(ValueError):
        add(make_series(EXACT, 2, [1]), make_series(CoefficientRing(2), 2, [1]))


def test_mul_telescoping():
    a = make_series(EXACT, 3, [1, -1])
    b = make_series(EXACT, 3, [1, 1, 1, 1])
    assert mul(a, b).coeffs == (1, 0, 0, 0)


def test_invert_geometric():
    a = make_series(EXACT, 4, [1, -1])
    assert invert(a).coeffs == (1, 1, 1, 1, 1)


def test_invert_pentagonal_gives_partition_numbers():
    # oracle: brute-force partition counts for n <= 10
    assert invert(pentagonal_series(EXACT, 10)).coeffs == (
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    )


def test_divide_rejects_mismatch_and_non_unit():
    one = make_series(EXACT, 3, [1])
    with pytest.raises(ValueError, match="ring mismatch"):
        divide(one, make_series(CoefficientRing(3), 3, [1]))
    with pytest.raises(ValueError, match="truncation mismatch"):
        divide(one, make_series(EXACT, 4, [1]))
    with pytest.raises(ValueError, match="not a unit"):
        divide(one, make_series(EXACT, 3, [2, 1]))
    with pytest.raises(ValueError, match="not a unit"):
        divide(make_series(CoefficientRing(6), 3, [1]),
               make_series(CoefficientRing(6), 3, [3, 1]))
    one2 = make_series(MOD2, 3, [1])
    with pytest.raises(ValueError, match="not a unit"):
        divide(one2, make_series(MOD2, 3, [0, 1]))
    with pytest.raises(ValueError, match="truncation mismatch"):
        divide(one2, make_series(MOD2, 4, [1]))
    # every factor of a denominator is checked, not just the first
    for ring in (EXACT, MOD2, CoefficientRing(6)):
        a, good = make_series(ring, 3, [1]), make_series(ring, 3, [1, 1])
        other = CoefficientRing(5)
        for bad, match in (
            (make_series(other, 3, [1]), "ring mismatch"),
            (make_series(ring, 4, [1]), "truncation mismatch"),
            (make_series(ring, 3, [2 if ring is MOD2 else 3, 1]), "not a unit"),
        ):
            with pytest.raises(ValueError, match=match):
                divide(a, good, bad)
            with pytest.raises(ValueError, match=match):
                divide(a, good, good, bad)


@pytest.mark.parametrize("modulus", [None, 2, 3, 4, 5, 6, 25, 257, 1000])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_divide_undoes_mul_on_sparse_and_dense_divisors(modulus, n):
    # divide makes each divisor monic and groups its terms by magnitude up
    # to sign, |c| over Z and min(c, m - c) over Z/m, the groups changing
    # at each term index: one group of both signs (pentagonal, step 5,
    # phi(-q)'s +-2, and +-3 at the triangular numbers, over Z/6 the
    # self-paired residue 3), a group of one sign (+1 at the triangular
    # numbers), terms read one by one (the cube over Z), a pentagonal
    # series that meets 3 q^30, so its one-group loop gives way to the
    # general loop, a dense divisor and no terms; each also comes scaled by
    # a unit b_0 other than 1.  Over Z/257 and Z/1000 the series are tuples
    # with residues above 256
    ring = CoefficientRing(modulus) if modulus else EXACT
    a = make_series(
        ring, n, [(7 * i * i - 3 * i + 11) * (-1) ** i for i in range(n + 1)]
    )

    def sparse(terms):  # 1 + c q^i for each term (i, c) with i <= n
        coeffs = [1] + [0] * n
        for i, c in terms:
            if i <= n:
                coeffs[i] += c
        return make_series(ring, n, coeffs)

    triangular = [j * (j + 1) // 2 for j in range(1, n + 1)]
    euler, cube = pentagonal_series(ring, n), triangular_cube_series(ring, n)
    divisors = [
        euler,
        pentagonal_series(ring, n, 5),
        cube,
        gauss_theta_series(ring, n),
        sparse((t, 3 * (-1) ** j) for j, t in enumerate(triangular)),
        sparse((t, 1) for t in triangular),
        sparse([*pentagonal_exponents(n)[1:], (30, 3)]),
        pochhammer(ring, n, 1, 1),
        make_series(ring, n, [1]),
    ]
    # a unit b_0 other than 1, except in Z/2
    unit = {None: -1, 3: 2, 4: 3, 5: 2, 6: 5, 25: 2, 257: 3, 1000: 3}.get(modulus, 1)
    scaled = [
        make_series(ring, n, [unit * c for c in b.coeffs]) for b in divisors
    ]
    for b in divisors + scaled:
        assert mul(b, divide(a, b)) == a
    # the routes' whole denominators in one call: the double sum's
    # E E E(q^5) and cphi_7's cube cube E, as a chain of one-factor calls,
    # and a chain of divisors whose units multiply
    for b1, b2, b3 in (
        (euler, euler, divisors[1]),
        (cube, cube, euler),
        (scaled[0], divisors[4], scaled[6]),
    ):
        quotient = divide(a, b1, b2, b3)
        assert quotient == divide(divide(divide(a, b1), b2), b3)
        assert mul(b1, mul(b2, mul(b3, quotient))) == a


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 63, 64, 65, 300])
def test_divide_over_z2_matches_exact_route(n):
    # the recurrence over Z/2 against the recurrence over Z, reduced mod
    # 2: the truncations sit at the powers of 2 and beside them, and a_0 = 1
    # makes the quotient a unit
    rng = random.Random(n)
    a = make_series(EXACT, n, [1] + [rng.randint(-9, 9) for _ in range(n)])
    euler, cube = pentagonal_series(EXACT, n), triangular_cube_series(EXACT, n)
    step5 = pentagonal_series(EXACT, n, 5)
    denominators = [
        [euler],
        [pentagonal_series(EXACT, n, 2)],
        [step5],
        [cube],
        [pochhammer(EXACT, n, 1, 1)],
        [make_series(EXACT, n, [1] + [rng.randint(-9, 9) for _ in range(n)])],
        [make_series(EXACT, n, [1])],
        # the routes' own denominators, every factor in one call
        [euler, euler, step5],
        [cube, cube, euler],
    ]
    for bs in denominators:
        got = divide(reduce_mod(a, 2), *(reduce_mod(b, 2) for b in bs))
        assert got == reduce_mod(divide(a, *bs), 2), bs
    # coefficients given unreduced, even or negative, give the same quotient
    a2, euler2 = reduce_mod(a, 2), reduce_mod(euler, 2)
    for shift in (2, -2):
        unreduced = TruncatedSeries(MOD2, n, tuple(c + shift for c in a2.coeffs))
        b = TruncatedSeries(MOD2, n, tuple(c + shift for c in euler2.coeffs))
        assert divide(unreduced, b) == divide(a2, euler2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_divide_over_small_p_matches_exact_route(p):
    # the recurrence over Z/p against the recurrence over Z, reduced mod
    # p, for a factor taken r times: the truncations sit at the powers of p
    # and beside them.  2E has b_0 = 2, a unit other than 1 mod p
    for n in sorted({0, 1, 2, p - 1, p, p * p, 300}):
        rng = random.Random(n * p)
        a = make_series(EXACT, n, [rng.randint(-9, 9) for _ in range(n + 1)])
        euler, cube = pentagonal_series(EXACT, n), triangular_cube_series(EXACT, n)
        step5 = pentagonal_series(EXACT, n, 5)
        ring = CoefficientRing(p)
        for b in (euler, step5, cube):
            for r in range(1, 8):
                got = divide(reduce_mod(a, p), *[reduce_mod(b, p)] * r)
                assert got == reduce_mod(divide(a, *[b] * r), p), (n, b, r)
        two_euler = make_series(ring, n, [2 * c for c in euler.coeffs])
        for r in range(1, 8):
            quotient = reduce_mod(divide(a, *[euler] * r), p)
            scaled = make_series(ring, n, [pow(2, -r, p) * c for c in quotient.coeffs])
            assert divide(reduce_mod(a, p), *[two_euler] * r) == scaled, (n, r)
        for bs in ([euler, euler, step5], [cube, cube, euler]):
            got = divide(reduce_mod(a, p), *(reduce_mod(b, p) for b in bs))
            assert got == reduce_mod(divide(a, *bs), p), (n, bs)
        # coefficients given unreduced, in [p, 2p) or below 0, give the
        # same quotient
        e_p = reduce_mod(euler, p)
        for shift in (p, -p):
            unreduced = TruncatedSeries(
                ring, n, tuple(c % p + shift for c in a.coeffs)
            )
            b = TruncatedSeries(ring, n, tuple(c + shift for c in e_p.coeffs))
            assert divide(unreduced, b) == divide(reduce_mod(a, p), e_p), n


@pytest.mark.parametrize("modulus", [2, 3, 5, 7, 11, 13, 4, 17, 25])
def test_divide_runs_the_recurrence_in_every_ring(modulus, monkeypatch):
    # divide is the reference the packed kernel is checked against, so it
    # never calls the kernel, over the small primes included, and the
    # quotients are the exact ones reduced mod m
    def kernel(*args):
        raise AssertionError("dilation kernel called")

    monkeypatch.setattr(frobseries.series, "_times_dilations", kernel)
    for n in (0, 1, 16, 17, 300):
        rng = random.Random(n)
        a = make_series(EXACT, n, [rng.randint(-9, 9) for _ in range(n + 1)])
        euler, cube = pentagonal_series(EXACT, n), triangular_cube_series(EXACT, n)
        for bs in ([euler], [cube], [euler, euler, pentagonal_series(EXACT, n, 5)]):
            got = divide(reduce_mod(a, modulus), *(reduce_mod(b, modulus) for b in bs))
            assert got == reduce_mod(divide(a, *bs), modulus), (n, bs)


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        invert(make_series(EXACT, 2, [2]))
    with pytest.raises(ValueError):
        invert(make_series(CoefficientRing(6), 2, [3]))


def test_pochhammer_euler():
    got = pochhammer(EXACT, 7, 1, 1)
    assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pochhammer_empty_window():
    assert pochhammer(EXACT, 2, 3, 3).coeffs == (1, 0, 0)


def test_pochhammer_even_steps():
    # (1-q^2)(1-q^4)(1-q^6) truncated at 6: the q^2*q^4 cross term cancels
    # the -q^6 factor term, so the q^6 coefficient is 0
    assert pochhammer(EXACT, 6, 2, 2).coeffs == (1, 0, -1, 0, -1, 0, 0)
    # doubled pentagonal exponents appear once the window is wide enough
    assert pochhammer(EXACT, 14, 2, 2) == make_series(
        EXACT, 14, [1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]
    )


def test_pochhammer_rejects_zero_parameters():
    with pytest.raises(ValueError):
        pochhammer(EXACT, 5, 0, 1)
    with pytest.raises(ValueError):
        pochhammer(EXACT, 5, 1, 0)


def test_pentagonal_series_small():
    assert pentagonal_series(EXACT, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pentagonal_series_k_three_terms():
    s = pentagonal_series(EXACT, 15)
    assert s.coefficient(12) == -1
    assert s.coefficient(15) == -1


def test_pentagonal_series_trivial():
    assert pentagonal_series(EXACT, 0).coeffs == (1,)


@pytest.mark.parametrize("ring", [EXACT, CoefficientRing(2), CoefficientRing(3)])
def test_pentagonal_series_matches_pochhammer(ring):
    for step in range(1, 8):
        for n in (0, 1, 300):
            assert pentagonal_series(ring, n, step) == pochhammer(ring, n, step, step)


def test_pentagonal_series_rejects_zero_step():
    with pytest.raises(ValueError):
        pentagonal_series(EXACT, 5, step=0)


def test_negative_truncation_raises_value_error():
    for build in (
        lambda: pentagonal_series(EXACT, -1),
        lambda: pochhammer(EXACT, -1, 1, 1),
        lambda: phi_parity_series(1, -1),
        lambda: eta_quotient_mod2(2, -1),
        lambda: gauss_theta_series(EXACT, -1),
        lambda: partition_series(-1),
        lambda: theta_constant_series(EXACT, -1, 3),
        lambda: theta_constant_series(MOD2, -1, 3),
        # over Z/m, m <= 256, N = -2 is refused before a bytearray(N + 1)
        *(
            build
            for ring in (MOD2, CoefficientRing(3))
            for build in (
                lambda ring=ring: phi_series_double_sum(4, -2, ring),
                lambda ring=ring: triangular_cube_series(ring, -2),
                lambda ring=ring: make_series(ring, -2),
                lambda ring=ring: pentagonal_series(ring, -2),
                lambda ring=ring: gauss_theta_series(ring, -2),
            )
        ),
    ):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            build()


@pytest.mark.parametrize("modulus", [None, 2, 3, 257])
@pytest.mark.parametrize("k", [0, -1])
def test_theta_row_rejects_k_below_one(modulus, k):
    # the row checks k itself, in each of its slot layouts: wide exact,
    # 1-bit, 16-bit and wide reduced
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    with pytest.raises(ValueError, match="k must be >= 1"):
        theta_constant_series(ring, 10, k)


def test_pentagonal_support_is_signed_units():
    for n in (10, 50, 199):
        s = pentagonal_series(EXACT, n)
        pentagonals = set()
        k = 0
        while (3 * k * k - k) // 2 <= n or (3 * k * k + k) // 2 <= n:
            for g in ((3 * k * k - k) // 2, (3 * k * k + k) // 2):
                if g <= n:
                    pentagonals.add(g)
            k += 1
        assert {g for g, c in enumerate(s.coeffs) if c} == pentagonals
        assert all(s.coefficient(g) in (1, -1) for g in pentagonals)
        assert pentagonal_exponents(n) == [
            (g, s.coefficient(g)) for g in sorted(pentagonals)
        ]


@pytest.mark.parametrize("modulus", [None, 2, 3, 4, 25, 257])
def test_gauss_theta_times_dilated_euler_is_euler_squared(modulus):
    # Gauss: phi(-q) = (q;q)^2 / (q^2;q^2), checked by the dense references
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    for n in (0, 1, 2, 7, 61, 300):
        euler = pochhammer(ring, n, 1, 1)
        got = mul(gauss_theta_series(ring, n), pochhammer(ring, n, 2, 2))
        assert got == mul(euler, euler), n


POWER_MAPS = (
    [{1: k} for k in range(1, 16)]
    + [{1: 2, s: 1} for s in range(1, 15)]
    + [{2: 3, 4: 1}, {3: 5}]
)


@pytest.mark.parametrize(
    "modulus",
    [2, 3, 5, 7, 11, 13, 17, 19, 23, None, 4, 29, 25, 257]
    + [8, 9, 16, 27, 32, 49, 64, 81, 121, 125, 128, 6, 169],
)
def test_eta_quotient_matches_divide_by_its_factors(modulus, monkeypatch):
    # eta_quotient plans its denominator from the powers of E(q^s): over
    # Z/p, p <= 23, Frobenius digits with Jacobi cubes, over Z/p^v <= 128
    # that quotient lifted digit by digit, with no recurrence, elsewhere
    # (Z/29, Z/6, Z/169 = 13^2 > 128) cubes and Gauss pairs for the
    # recurrence.
    # divide by every E(q^s) as a separate pentagonal factor is the
    # reference
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    rng = random.Random(modulus)
    calls = []
    recurrence = frobseries.series._recurrence

    def counted(a, factors):
        calls.append(factors)
        return recurrence(a, factors)

    monkeypatch.setattr(frobseries.series, "_recurrence", counted)
    recurs = modulus in (None, 29, 257, 6, 169)
    for n in (0, 1, 7, 61, 300):
        a = make_series(ring, n, [rng.randint(-9, 9) for _ in range(n + 1)])
        for powers in POWER_MAPS:
            factors = [
                pentagonal_series(ring, n, s)
                for s, e in powers.items()
                for _ in range(e)
            ]
            want = divide(a, *factors)
            calls.clear()
            assert eta_quotient(a, powers) == want, (n, powers)
            assert len(calls) == recurs, (n, powers)


def _terms(series, step=1):
    """The nonzero terms past q^0 of series(q^step), as (exponent, value)."""
    return [(step * i, c) for i, c in enumerate(series.coeffs) if c and i]


def test_eta_quotient_rejects_bad_powers():
    one = make_series(EXACT, 5, [1])
    for powers in ({0: 1}, {-2: 1}, {1: -1}):
        with pytest.raises(ValueError, match="steps >= 1 and powers >= 0"):
            eta_quotient(one, powers)


LIFTS = {4: (2, 2), 8: (2, 3), 25: (5, 2), 27: (3, 3)}  # p^v -> (p, v)


@pytest.mark.parametrize(
    "modulus", [2, 3, 5, 7, 11, 13, 17, 19, 23, None, 4, 29, 25, 257, 8, 27]
)
def test_euler_power_factors_follow_the_division_split(modulus, monkeypatch):
    # eta_quotient divides by (q;q)^k on either side of the split.  Over
    # Z/p, p <= 23, the kernel runs once, on the factors E(q^s) and J(q^s)
    # of the plan, whose product is 1/E^k, at most two E per step and J's
    # terms listed once, and the recurrence's planner is never called.
    # Over Z/p^v, v >= 2 (Z/4, Z/8, Z/25, Z/27), it runs no recurrence:
    # the kernel gets the same plan over Z/p, then two calls per lift step
    # j, the product by E^k over Z/p^{j+1}, whose factors are the
    # recurrence planner's divisors over that ring with their q^0 terms
    # put back, and the plan again.  Where it runs the recurrence, E^k is
    # floor(k/3) cubes (listed once, only for k >= 3) and E, or phi(-q)
    # E(q^2); and the double sum's E(q)^2 E(q^2) for phi_1 is phi(-q)
    # phi(-q^2) E(q^4); the divisors come latest step first, a step's
    # cubes last
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    n = 100
    seen, cubes, kernel_calls, planned = [], [], [], []
    recurrence = frobseries.series._recurrence
    kernel = frobseries.series._times_dilations
    listing = frobseries.series.triangular_exponents
    divisors = frobseries.series._eta_divisors

    def spy(a, listed):
        seen.append(list(listed))
        return recurrence(a, listed)

    def kernel_spy(packed, factors, truncation, m):
        seen.append([step for _, step in factors])
        kernel_calls.append((factors, m))
        return kernel(packed, factors, truncation, m)

    def counted(limit):
        cubes.append(limit)
        return listing(limit)

    def planner_spy(*args):
        planned.append(args)
        return divisors(*args)

    monkeypatch.setattr(frobseries.series, "_recurrence", spy)
    monkeypatch.setattr(frobseries.series, "_eta_divisors", planner_spy)
    monkeypatch.setattr(frobseries.series, "_times_dilations", kernel_spy)
    monkeypatch.setattr(frobseries.series, "triangular_exponents", counted)
    one = make_series(ring, n, [1])
    euler_k = one
    cube = _terms(triangular_cube_series(ring, n))
    euler = _terms(pentagonal_series(ring, n))
    pair = [
        _terms(pentagonal_series(ring, n, 2)),
        _terms(gauss_theta_series(ring, n)),
    ]
    for k in range(1, 8):
        euler_k = mul(euler_k, pochhammer(ring, n, 1, 1))
        seen.clear()
        cubes.clear()
        kernel_calls.clear()
        planned.clear()
        assert eta_quotient(euler_k, {1: k}) == one, k
        if modulus in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            levels = frobseries.series._eta_levels({1: k}, modulus, n)
            assert all(s <= n for s, _ in levels), k
            assert seen == [[s for s, _ in levels]], k
            assert len(kernel_calls) == 1 and planned == [], k
            assert len(cubes) == any(c for _, c in levels), k
            eulers = [s for s, c in levels if not c]
            assert all(eulers.count(s) <= 2 for s in eulers), k
            product = euler_k
            for s, c in levels:
                for _ in range(3 if c else 1):
                    product = mul(product, pochhammer(ring, n, s, s))
            assert product == one, k
        elif modulus in LIFTS:
            p, v = LIFTS[modulus]
            plan = frobseries.series._eta_plan({1: k}, p, n)
            assert kernel_calls[0] == (plan, p), k
            assert len(kernel_calls) == 1 + 2 * (v - 1), k
            moduli = [m for _, m in kernel_calls[1:]]
            assert moduli == [m for j in range(2, v + 1) for m in (p**j, p)], k
            assert all(factors == plan for factors, _ in kernel_calls[2::2]), k
            for factors, m in kernel_calls[1::2]:
                listed = divisors(CoefficientRing(m), n, {1: k})
                assert factors == [([(0, 1), *terms], 1) for terms in listed], k
        else:
            assert seen == [[[], [euler], pair][k % 3] + [cube] * (k // 3)], k
            assert len(cubes) == (k >= 3), k
        for m in (0, 1, 7, 61):
            power = make_series(ring, m, [1])
            for _ in range(k):
                power = mul(power, pochhammer(ring, m, 1, 1))
            assert eta_quotient(power, {1: k}) == make_series(ring, m, [1])
    if modulus in (2, 3, 5, 7, 11, 13, 17, 19, 23, *LIFTS):
        return
    seen.clear()
    phi_series_double_sum(1, n, ring)
    assert seen == [[
        _terms(pentagonal_series(ring, n, 4)),
        _terms(gauss_theta_series(ring, n // 2), 2),
        _terms(gauss_theta_series(ring, n)),
    ]]


def test_kernel_plan_folds_frobenius_steps_into_jacobi_cubes():
    # over Z/5, E(q)^2 E(q^5) is E(q)^7: the digits of -7 are 3, 3, 4, 4,
    # ..., so 1/E^7 is J(q), J(q^5), then J E at each q^{5^t}; over Z/13,
    # E^13 is E(q^13), digits 0, 12, 12, ...: four J per level from q^13;
    # over Z/2, 1/E(q^6) is J(q^6) J(q^24) ... and 1/E^6 is E(q^2) J(q^8)
    # J(q^32) ...
    def plan(powers, p, n):
        named = []
        for terms, step in frobseries.series._eta_plan(powers, p, n):
            exponents = [t if p == 2 else t[0] for t in terms[:3]]
            # E's first exponents are 0, 1, 2 and J's 0, 1, 3
            named.append(("E" if exponents == [0, 1, 2] else "J", step))
        return named

    assert plan({1: 2, 5: 1}, 5, 200) == [
        ("J", 1), ("J", 5), ("J", 25), ("E", 25), ("J", 125), ("E", 125)
    ]
    assert plan({1: 13}, 13, 200) == [("J", 13)] * 4 + [("J", 169)] * 4
    assert plan({6: 1}, 2, 200) == [("J", 6), ("J", 24), ("J", 96)]
    assert plan({1: 6}, 2, 200) == [("E", 2), ("J", 8), ("J", 32), ("J", 128)]
    assert plan({1: 2}, 3, 20) == [("E", 1)] + [("E", 3)] * 2 + [("E", 9)] * 2


@pytest.mark.parametrize("modulus", [None, 4, 29, 257])
def test_recurrence_quotient_does_not_depend_on_divisor_order(modulus):
    # the recurrence divides in the order given; any order of the same
    # divisors gives the same quotient
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    n = 120
    rng = random.Random(n)
    a = make_series(ring, n, [rng.randint(-9, 9) for _ in range(n + 1)])
    divisors = [
        pentagonal_series(ring, n),
        gauss_theta_series(ring, n),
        pentagonal_series(ring, n, 5),
        make_series(ring, n, [-1]),
        triangular_cube_series(ring, n),
        pentagonal_series(ring, n, 2),
    ]
    want = divide(a, *divisors)
    for order in ([5, 0, 3, 1, 4, 2], [3, 2, 1, 0, 5, 4], [1, 4, 0, 2, 5, 3]):
        assert divide(a, *(divisors[i] for i in order)) == want, order
    product = make_series(ring, n, [1])
    for b in divisors:
        product = mul(product, b)
    assert mul(want, product) == a


def test_triangular_cube_series():
    s = triangular_cube_series(EXACT, 10)
    assert s.coeffs == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9)
    assert triangular_cube_series(EXACT, 0).coeffs == (1,)


def test_triangular_cube_mod_two_is_theta():
    s = reduce_mod(triangular_cube_series(EXACT, 10), 2)
    assert s.coeffs == bytes((1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1))


@pytest.mark.parametrize("step", [0, -1])
def test_eta_quotient_mod2_rejects_bad_step(step):
    # a step below 1 would never pass N when multiplied by 4
    with pytest.raises(ValueError, match="step must be >= 1"):
        eta_quotient_mod2(step, 10)


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 5, 7, 17, 50, 129, 256, 300, 301, 1000, 3001, 4097]
)
def test_eta_quotient_mod2_matches_divide(n):
    # E(q) / E(q^s) by the recurrence, over Z/2 and over Z reduced mod 2,
    # as the references; phi_k is the step s = k + 1 and s = 1 is the
    # quotient 1.  The builder multiplies by J(q^{s 4^u}); the truncations
    # include the edges of that chain
    euler_mod2, euler = pentagonal_series(MOD2, n), pentagonal_series(EXACT, n)
    for s in range(1, 32):
        got = phi_parity_series(s - 1, n) if s > 1 else eta_quotient_mod2(1, n)
        assert got == divide(euler_mod2, pentagonal_series(MOD2, n, s)), (s, n)
        quotient = divide(euler, pentagonal_series(EXACT, n, s))
        assert got == reduce_mod(quotient, 2), (s, n)


@pytest.mark.parametrize("modulus", [None, 2, 25])
def test_theta_row_of_k_one_is_one(modulus, monkeypatch):
    # theta's z^0 term is 1, so the row of theta^1 is 1, with no theta
    # exponent listed
    ring = EXACT if modulus is None else CoefficientRing(modulus)

    def listing(limit):
        raise AssertionError(f"theta exponents listed to {limit}")

    monkeypatch.setattr(frobseries.series, "theta_exponents", listing)
    for n in (0, 1, 10**4):
        assert theta_constant_series(ring, n, 1) == make_series(ring, n, [1]), n


@pytest.mark.parametrize("modulus", [None, 2, 25])
def test_theta_row_refuses_a_huge_truncation_at_once(modulus, monkeypatch):
    # the row is allocated before any theta exponent is listed, so N = 10^20
    # fails there instead of walking ~10^10 triangular numbers first
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    huge = []
    listing = frobseries.series.triangular_exponents

    def guarded(limit):
        if limit > 10**9:
            huge.append(limit)
            raise AssertionError(f"exponents listed to {limit}")
        return listing(limit)

    monkeypatch.setattr(frobseries.series, "triangular_exponents", guarded)
    for k in (1, 5):
        with pytest.raises((OverflowError, MemoryError)):
            theta_constant_series(ring, 10**20, k)
    assert huge == []


def test_reduce_mod():
    a = make_series(EXACT, 3, [1, -3, 0, 5])
    assert reduce_mod(a, 2).coeffs == bytes((1, 1, 0, 1))
    assert reduce_mod(make_series(EXACT, 4), 7).is_zero()
    got = reduce_mod(triangular_cube_series(EXACT, 6), 5)
    assert got.coeffs == bytes((1, 2, 0, 0, 0, 0, 3))


def test_reduce_mod_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_mod(make_series(EXACT, 1, [1]), 1)
    with pytest.raises(ValueError):
        reduce_mod(make_series(CoefficientRing(3), 1, [1]), 2)


@pytest.mark.parametrize(
    "modulus, storage",
    [(None, tuple), (2, bytes), (3, bytes), (4, bytes), (17, bytes),
     (25, bytes), (256, bytes), (257, tuple)],
)
def test_every_producer_stores_its_ring_storage(modulus, storage):
    # over Z/m with m <= 256 a series holds one bytes object of residues,
    # over Z and Z/m with m > 256 a tuple; divide runs the recurrence in
    # every ring
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    n = 40
    values = [(-1) ** i * (37 * i + 1) for i in range(n + 1)]
    builds = {
        "make_series": lambda r: make_series(r, n, values),
        "pentagonal_series": lambda r: pentagonal_series(r, n, 3),
        "triangular_cube_series": lambda r: triangular_cube_series(r, n),
        "gauss_theta_series": lambda r: gauss_theta_series(r, n),
        "pochhammer": lambda r: pochhammer(r, n, 1, 2),
        "add": lambda r: add(make_series(r, n, values), pentagonal_series(r, n)),
        "mul": lambda r: mul(make_series(r, n, values), pentagonal_series(r, n)),
        "divide": lambda r: divide(
            make_series(r, n, values),
            pentagonal_series(r, n),
            make_series(r, n, [1, 5, -3]),
        ),
        "theta_constant_series": lambda r: theta_constant_series(r, n, 5),
    }
    for name, build in builds.items():
        got = build(ring)
        assert type(got.coeffs) is storage, name
        if modulus is not None:
            want = reduce_mod(build(EXACT), modulus)
            assert type(want.coeffs) is storage, name
            assert got == want, name


def test_unpack_reduces_every_16_bit_slot_up_to_modulus_128():
    # a slot 256 h + l unpacks as (256 h mod m) + (l mod m), which fits one
    # byte while 2m - 2 < 256: every m <= 128, prime or not, and not 129.
    # The theta row packs exactly the moduli up to that bound
    top = frobseries.series._PACKED_MODULUS_MAX
    values = range(1 << 16)
    packed = int.from_bytes(b"".join(v.to_bytes(2, "big") for v in values), "big")
    n = len(values) - 1

    def unpacks(m):
        return frobseries.series._unpack(packed, n, m) == bytes(v % m for v in values)

    for m in (3, 4, 9, 25, 64, top - 1, top):
        assert unpacks(m), m
    assert not unpacks(top + 1)


def test_direct_series_over_small_modulus_is_stored_reduced():
    ring = CoefficientRing(3)
    s = TruncatedSeries(ring, 4, (5, -1, 3, 2, 0))
    assert s.coeffs == bytes((2, 2, 0, 2, 0))
    assert TruncatedSeries(ring, 4, [5, -1, 3, 2, 0]) == s
    assert TruncatedSeries(ring, 4, bytearray((2, 2, 0, 2, 0))) == s
    # bytes are taken as residues: one that is none is an error, not reduced
    with pytest.raises(ValueError, match="residues mod 3"):
        TruncatedSeries(ring, 4, bytes((2, 2, 3, 2, 0)))
    with pytest.raises(ValueError, match="residues mod 2"):
        TruncatedSeries(MOD2, 1, b"\x01\xff")
    with pytest.raises(ValueError, match="need 5 coefficients"):
        TruncatedSeries(ring, 4, bytes((2, 2, 0, 2)))
    assert TruncatedSeries(CoefficientRing(256), 1, b"\xff\x00").coeffs == b"\xff\x00"
    assert TruncatedSeries(CoefficientRing(257), 1, [257, -1]).coeffs == (0, 256)
    assert TruncatedSeries(EXACT, 1, [257, -1]).coeffs == (257, -1)


def test_coefficient_access():
    p = pentagonal_series(EXACT, 7)
    assert p.coefficient(5) == 1
    assert p.coefficient(3) == 0
    with pytest.raises(IndexError):
        p.coefficient(8)
    with pytest.raises(IndexError):
        p.coefficient(-1)


# ---------------------------------------------------------------------------
# property tests


rings = st.one_of(
    st.just(EXACT),
    st.integers(min_value=2, max_value=97).map(CoefficientRing),
)


@st.composite
def series_pair(draw, count=2, unit_constant=False):
    ring = draw(rings)
    n = draw(st.integers(min_value=0, max_value=64))
    out = []
    for _ in range(count):
        coeffs = draw(
            st.lists(
                st.integers(min_value=-1000, max_value=1000),
                max_size=n + 1,
            )
        )
        if unit_constant:
            if ring.is_modular:
                unit = draw(
                    st.integers(min_value=1, max_value=ring.modulus - 1).filter(
                        lambda u: _coprime(u, ring.modulus)
                    )
                )
            else:
                unit = draw(st.sampled_from([1, -1]))
            coeffs = [unit] + coeffs[1:]
        out.append(make_series(ring, n, coeffs))
    return out


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


@settings(max_examples=60)
@given(series_pair(count=2))
def test_mul_commutes(pair):
    a, b = pair
    assert mul(a, b) == mul(b, a)


@settings(max_examples=60)
@given(series_pair(count=3))
def test_ring_axioms(triple):
    a, b, c = triple
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@st.composite
def dividend_divisor(draw):
    """(a, b) in one ring and truncation; only b's constant must be a unit."""
    a, b = draw(series_pair(count=2, unit_constant=True))
    a0 = draw(st.integers(min_value=-1000, max_value=1000))
    return make_series(a.ring, a.truncation, (a0, *a.coeffs[1:])), b


@settings(max_examples=60)
@given(dividend_divisor())
def test_divide_undoes_mul(pair):
    a, b = pair
    q = divide(a, b)
    assert mul(q, b) == a
    assert q == mul(a, invert(b))


@settings(max_examples=60)
@given(series_pair(count=1, unit_constant=True))
def test_invert_is_right_inverse(single):
    (a,) = single
    one = make_series(a.ring, a.truncation, [1])
    assert mul(a, invert(a)) == one
    assert invert(invert(a)) == a
