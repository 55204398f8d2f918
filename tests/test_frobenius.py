import random
import tracemalloc
import weakref

import pytest

import frobseries.series
from frobseries.frobenius import (
    LaurentPolyOverSeries,
    _theta_rows,
    cg_product,
    cphi_parity_witness,
    cphi_series,
    expand,
    partition_series,
    phi_parity_series,
    phi_series_double_sum,
)
from frobseries.series import (
    EXACT,
    MOD2,
    CoefficientRing,
    TruncatedSeries,
    divide,
    make_series,
    mul,
    pentagonal_series,
    reduce_mod,
    theta_constant_series,
    triangular_cube_series,
)


def test_phi_double_sum_k1_is_partition_function():
    got = phi_series_double_sum(1, 10)
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_phi_double_sum_k2_small():
    assert phi_series_double_sum(2, 3).coeffs == (1, 1, 3, 5)


def test_phi_double_sum_k4_q3():
    assert phi_series_double_sum(4, 3).coefficient(3) == 6


def test_phi_double_sum_rejects_bad_k():
    with pytest.raises(ValueError):
        phi_series_double_sum(0, 5)


def test_phi_coefficients_nonnegative():
    for k in (1, 3, 6):
        assert all(c >= 0 for c in phi_series_double_sum(k, 40).coeffs)


def test_phi_parity_series_examples():
    assert phi_parity_series(2, 3).coeffs == bytes((1, 1, 1, 1))
    assert phi_parity_series(4, 3).coeffs == bytes((1, 1, 1, 0))
    assert phi_parity_series(5, 0).coeffs == bytes((1,))


def test_parity_route_warm_peak_memory():
    # the Z/2 unpack frees the digit str before it translates the digits,
    # so a call with the Euler table already grown peaks below 2.5 bytes
    # per coefficient: the packed int, the digit bytes and the residues.
    # The slot is emptied, and the table kept, so the traced call builds
    n = 10**6
    phi_parity_series(12, n)
    frobseries.frobenius._route_slot[0] = None
    tracemalloc.start()
    try:
        phi_parity_series(12, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (n + 1)


def test_double_sum_peak_memory():
    # the numerator is written once, in the ring's own storage (a bytearray
    # of residues over Z/2), so the double sum peaks below 8 bytes per
    # coefficient
    n = 10**5
    tracemalloc.start()
    try:
        phi_series_double_sum(4, n, MOD2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1)


@pytest.mark.parametrize("n", [0, 1, 2, 120, 1000])
def test_z2_routes_match_their_exact_forms(n):
    # the double sum and cphi divide over Z/2 by dilations of Jacobi cubes
    # and E; their exact forms divide by the recurrence over Z
    for k in range(1, 14):
        exact = phi_series_double_sum(k, n)
        assert phi_series_double_sum(k, n, MOD2) == reduce_mod(exact, 2), k
    for k in range(1, 10):
        assert cphi_series(k, n, MOD2) == reduce_mod(cphi_series(k, n), 2), k


@pytest.mark.parametrize("n", [0, 7, 300])
def test_each_z2_quotient_makes_one_kernel_call(n, monkeypatch):
    # each route states its whole denominator in one eta_quotient call, so
    # over Z/2 and over Z/p for small odd p the dividend is packed once,
    # runs one kernel call that applies every factor's dilations, and is
    # unpacked once
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    kernel = frobseries.series._times_dilations
    monkeypatch.setattr(frobseries.series, "_times_dilations", counted)
    builds = [lambda: phi_parity_series(4, n)]
    for ring in (MOD2, CoefficientRing(3), CoefficientRing(5)):
        builds += [
            lambda ring=ring: phi_series_double_sum(4, n, ring),
            lambda ring=ring: cphi_series(6, n, ring),
            lambda ring=ring: cphi_series(7, n, ring),
        ]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


@pytest.mark.parametrize("n", [0, 1, 7, 300, 5000])
def test_parity_route_factor_list(n, monkeypatch):
    # E(q) from the table times the plan the planner writes for {k+1: 1}
    # to L = 2^b - 1, b the bit length of N: the J-chain J(q^{(k+1) 4^u}),
    # (k+1) 4^u <= L, run whole, with J's terms listed once; at most its
    # last step passes N
    calls = []

    def spy(packed, factors, truncation, p):
        calls.append(factors)
        return kernel(packed, factors, truncation, p)

    kernel = frobseries.series._times_dilations
    monkeypatch.setattr(frobseries.series, "_times_dilations", spy)
    limit = 2 ** n.bit_length() - 1
    for k in (1, 3, 4, 7, 24):
        calls.clear()
        phi_parity_series(k, n)
        (factors,) = calls
        plan = frobseries.series._eta_plan({k + 1: 1}, 2, limit)
        assert factors == plan, (k, n)
        chain = [(k + 1) * 4**u for u in range(12) if (k + 1) * 4**u <= limit]
        assert [step for _, step in factors] == chain, (k, n)
        assert sum(step > n for step in chain) <= 1, (k, n)
        assert all(terms is factors[0][0] for terms, _ in factors), (k, n)


def test_phi_parity_series_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k must be >= 1"):
        phi_parity_series(0, 5)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        phi_parity_series(3, -1)


def _clear_parity_memos():
    frobseries.series._euler_table.cache_clear()
    frobseries.series._parity_plan.cache_clear()
    frobseries.frobenius._route_slot[0] = None


def test_mod2_route_agreement():
    # the parity route reads E(q) and its J-chain from memos kept per bit
    # length of N; start them empty, then shrink, grow and pass the
    # truncation, across the bit lengths' edges 63 | 64, cycling k, so each
    # result is checked after a different history
    _clear_parity_memos()
    direct = {}
    for j, n in enumerate((60, 33, 7, 1, 0, 0, 1, 7, 33, 60, 61, 63, 64, 120, 50)):
        for i in range(30):
            k = (7 * i + j) % 30 + 1  # every k <= 30, in a new order per n
            if (k, n) not in direct:
                direct[k, n] = reduce_mod(phi_series_double_sum(k, n), 2)
            assert phi_parity_series(k, n) == direct[k, n], (k, n)


def test_parity_route_does_not_depend_on_call_order():
    # a parity series is a function of (k, N) alone: with cold memos and
    # after any order of other calls it is the same series
    cases = [(k, n) for k in range(1, 31) for n in (0, 1, 7, 255, 256, 1676, 4097)]
    cold = {}
    for k, n in cases:
        _clear_parity_memos()
        cold[k, n] = phi_parity_series(k, n)
    orders = [cases, cases[::-1], sorted(cases, key=lambda c: (-c[1], c[0]))]
    orders.append(random.Random(0).sample(cases, len(cases)))
    for order in orders:
        _clear_parity_memos()
        for k, n in order:
            assert phi_parity_series(k, n) == cold[k, n], (k, n)


# every route shares the one slot: the parity route, and, as an example of
# the others, the double sum over Z/3 and cphi over Z/25
SLOT_ROUTES = {
    "parity": phi_parity_series,
    "double sum Z/3": lambda k, n: phi_series_double_sum(k, n, CoefficientRing(3)),
    "cphi Z/25": lambda k, n: cphi_series(k, n, CoefficientRing(25)),
}


def _fresh(route, k, n):
    """The route's series built from an empty slot."""
    frobseries.frobenius._route_slot[0] = None
    return route(k, n)


def _spy_builds(monkeypatch, seen):
    # each route makes one eta_quotient_mod2 or eta_quotient call per
    # build, so a spy on the two sees every build, as (modulus, N)
    parity = frobseries.frobenius.eta_quotient_mod2
    quotient = frobseries.frobenius.eta_quotient

    def parity_spy(step, n):
        seen((2, n))
        return parity(step, n)

    def quotient_spy(a, powers):
        seen((a.ring.modulus, a.truncation))
        return quotient(a, powers)

    monkeypatch.setattr(frobseries.frobenius, "eta_quotient_mod2", parity_spy)
    monkeypatch.setattr(frobseries.frobenius, "eta_quotient", quotient_spy)


@pytest.mark.parametrize("k", [4, 25])
def test_parity_slot_slices_the_last_series(k, monkeypatch):
    # each route in turn: the slot keeps the series built at 4097; every
    # shorter call, down to N = 0 and across the bit lengths' edges, and
    # 4097 again, reads it with no build, and each equals a fresh build
    ns = (4097, 4096, 2049, 2047, 300, 0, 4097)
    fresh = {}
    for name, route in SLOT_ROUTES.items():
        for n in ns:
            fresh[name, n] = _fresh(route, k, n)
    frobseries.frobenius._route_slot[0] = None
    builds = []
    _spy_builds(monkeypatch, builds.append)
    for name, route in SLOT_ROUTES.items():
        for n in ns:
            assert route(k, n) == fresh[name, n], (name, k, n)
    assert builds == [(2, 4097), (3, 4097), (25, 4097)]


def test_parity_slot_holds_one_series(monkeypatch):
    # a call to another route, k or ring, or past the held truncation,
    # replaces the slot's series, which is dropped before the build: no
    # series any route built earlier is alive during a build or after it.
    # cphi over Z/2 shares k and ring with the parity route, not the route
    routes = {**SLOT_ROUTES, "cphi Z/2": lambda k, n: cphi_series(k, n, MOD2)}
    calls = [
        ("parity", 4, 500), ("parity", 6, 500), ("double sum Z/3", 4, 500),
        ("double sum Z/3", 4, 300), ("cphi Z/25", 4, 500), ("cphi Z/2", 4, 200),
        ("parity", 4, 100), ("parity", 4, 600), ("parity", 4, 200),
    ]
    fresh = [_fresh(routes[name], k, n) for name, k, n in calls]
    frobseries.frobenius._route_slot[0] = None
    returned = []  # a weak reference to each series returned
    alive = []  # per build, whether each earlier series is alive

    def watched(build):
        alive.append([ref() is not None for ref in returned])

    _spy_builds(monkeypatch, watched)
    for (name, k, n), want in zip(calls, fresh):
        got = routes[name](k, n)
        assert got == want, (name, k, n)
        returned.append(weakref.ref(got))
        del got
    built = [0, 1, 2, 4, 5, 6, 7]  # the calls that built: 3 and 8 slice
    assert alive == [[False] * i for i in built]
    assert [ref() is not None for ref in returned] == [i == 7 for i in range(9)]
    route, k, ring, held = frobseries.frobenius._route_slot[0]
    assert (route, k, ring) == (phi_parity_series.__wrapped__, 4, MOD2)
    assert held is returned[7]()


def test_route_slot_keys_a_call_naming_no_ring_by_the_default(monkeypatch):
    # cphi_series(k, N) is keyed by Z, so it shares a key with calls that
    # name Z, positionally or by keyword: the three calls build once
    builds = []
    _spy_builds(monkeypatch, builds.append)
    full = cphi_series(6, 40)
    named = {30: cphi_series(6, 30, EXACT), 20: cphi_series(6, 20, ring=EXACT)}
    for n, got in named.items():
        assert got == TruncatedSeries(EXACT, n, full.coeffs[: n + 1]), n
    assert builds == [(None, 40)]


# one route per storage kind: bytes over Z/2 and Z/25, tuples over Z and Z/257
VIEW_ROUTES = {
    "parity Z/2": (phi_parity_series, bytes),
    "cphi Z/25": (SLOT_ROUTES["cphi Z/25"], bytes),
    "double sum Z": (phi_series_double_sum, tuple),
    "double sum Z/257": (
        lambda k, n: phi_series_double_sum(k, n, CoefficientRing(257)),
        tuple,
    ),
}


@pytest.mark.parametrize("name", VIEW_ROUTES)
def test_slot_hit_is_a_prefix_view_of_the_held_series(name, monkeypatch):
    # a hit below N0 is not checked again: it equals, and hashes as, both a
    # fresh build and the checked series of the held prefix; at N0 it is
    # the held series itself, and the route builds once
    route, storage = VIEW_ROUTES[name]
    fresh = {n: _fresh(route, 6, n) for n in (200, 0)}
    frobseries.frobenius._route_slot[0] = None
    builds = []
    _spy_builds(monkeypatch, builds.append)
    held = route(6, 300)
    for n in (200, 0):
        view = route(6, n)
        checked = TruncatedSeries(held.ring, n, list(held.coeffs[: n + 1]))
        assert type(view.coeffs) is storage
        assert view == fresh[n] == checked
        assert hash(view) == hash(fresh[n]) == hash(checked)
    assert route(6, 300) is held
    assert len(builds) == 1


def test_a_route_takes_its_own_parameters_alone():
    # the parity route takes (k, truncation): a ring is refused whether or
    # not the slot holds k = 4, and the refused call leaves the slot as is
    slot = frobseries.frobenius._route_slot
    for fill in (lambda: phi_parity_series(4, 20), lambda: None):
        fill()
        held = slot[0]
        for call in (
            lambda: phi_parity_series(4, 10, MOD2),
            lambda: phi_parity_series(4, 10, ring=MOD2),
        ):
            with pytest.raises(TypeError):
                call()
            assert slot[0] is held
        slot[0] = None
    assert phi_parity_series(k=4, truncation=3) == phi_parity_series(4, 3)
    # the ring routes take (k, truncation, ring=Z), ring by position or name
    for route in (cphi_series, phi_series_double_sum):
        assert route(6, 5, CoefficientRing(3)) == route(6, 5, ring=CoefficientRing(3))
        with pytest.raises(TypeError):
            route(6, 5, EXACT, EXACT)
        with pytest.raises(TypeError):
            route(6, 5, modulus=EXACT)
    assert phi_parity_series.__wrapped__.__name__ == "phi_parity_series"


def test_partition_series():
    assert partition_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert partition_series(0).coeffs == (1,)
    assert partition_series(100) == phi_series_double_sum(1, 100)


def test_cg_product_truncation_zero():
    cg = cg_product(2, 0)
    assert cg.z_coefficient(0).coeffs == (1,)
    assert cg.z_coefficient(-1).coeffs == (2,)
    assert cg.z_coefficient(-2).coeffs == (1,)
    assert cg.z_coefficient(1).is_zero()


def test_cg_product_constant_row():
    cg = cg_product(2, 3)
    assert cg.constant_term().coeffs == (1, 4, 9, 20)


def test_cg_window_soundness():
    # truncation n + 5 adds only q^{>n} terms to the z^0 row, in the
    # all-row reference and in the packed route alike
    def reference(e, n):
        return cg_product(e, n).constant_term()

    for build in (reference, cphi_series):
        for e, n in ((2, 8), (3, 6), (5, 5), (6, 40)):
            base = build(e, n)
            widened = build(e, n + 5)
            assert base.coeffs == widened.coeffs[: n + 1], (build, e, n)


def test_theta_constant_row_matches_all_row_reference():
    # the base-row recurrence against every row built without it
    for n in (0, 1, 2, 5, 37, 77):
        for k, rows in zip(range(1, 12), _theta_rows(n)):
            want = tuple(rows.get(0, [0] * (n + 1)))
            assert theta_constant_series(EXACT, n, k).coeffs == want, (k, n)


def test_theta_constant_row_mirror_against_the_colored_product():
    # the base rows c < -floor(t/2) of theta^t are their mirrors -c-t; the
    # row against cg_product's z^0 row times E(q)^k, built from every z row
    # with no mirror, reduced into rings of every layout (bytes, packed
    # slots mod m, B-bit slots over Z), at both parities of t
    for n in (0, 1, 2, 5, 30):
        euler = pentagonal_series(EXACT, n)
        for k in range(1, 14):
            exact = cg_product(k, n).constant_term()
            for _ in range(k):
                exact = mul(exact, euler)
            assert theta_constant_series(EXACT, n, k) == exact, (k, n)
            for m in (2, 3, 4, 25, 128, 257, 1000):
                got = theta_constant_series(CoefficientRing(m), n, k)
                assert got == reduce_mod(exact, m), (k, n, m)


def test_theta_constant_row_lattice_identities():
    # [z^0] theta^k sums q^{|m|^2/2} over m in Z^k with sum 0; m -> -m
    # pairs all but m = 0, so the row is 1 mod 2, and theta^k =
    # (theta^{k/p})^p = theta^{k/p}(z^p, q^p) mod p for a prime p | k
    n = 1000
    rows = {k: theta_constant_series(EXACT, n, k).coeffs for k in range(1, 16)}
    for k, row in rows.items():
        assert [c % 2 for c in row] == [1] + [0] * n, k
        for p in (2, 3, 5, 7, 11, 13):
            if k % p == 0:
                lifted = [0] * (n + 1)
                lifted[::p] = rows[k // p][: n // p + 1]
                want = [c % p for c in lifted]
                assert [c % p for c in row] == want, (k, p)


def test_cphi_series_examples():
    assert cphi_series(2, 3).coeffs == (1, 4, 9, 20)
    assert cphi_series(5, 1).coefficient(1) == 25
    assert cphi_series(1, 0).coeffs == (1,)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# the theta row is built mod m on packed slots for m <= 128 and over Z in
# wide slots from 129 on
ROW_MODULI = (*SMALL_PRIMES, 4, 6, 9, 25, 128, 129)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 7, 20, 41, 60, 61, 120, 301])
def test_cphi_series_over_small_primes_matches_all_row_reference(n):
    # over Z the theta row is built in wide packed slots, over Z/m for
    # m <= 128 mod m in the kernel's, over Z/129 in wide ones; the
    # reference is the z^0 row of cg_product's all-row theta power over Z,
    # with no base-row recurrence and no kernel, divided by k pentagonal
    # factors and reduced mod m.  One pass of the reference builds each
    # power once.  Over Z/2, Z/5 and Z/3 the route builds cphi_16, cphi_25
    # and cphi_27 as cphi_1 at q^16, q^25 and q^27, and cphi_20 over Z/2 as
    # cphi_5(q^4); at N = 60 over Z, T^8 with T = 22 theta terms has the
    # most slot headroom
    ks = [*range(1, 17), *((20, 25, 27, 30) if n <= 61 else ())]
    for k, rows in zip(range(1, max(ks) + 1), _theta_rows(n)):
        if k not in ks:
            continue
        row = TruncatedSeries(EXACT, n, rows[0])
        exact = divide(row, *[pentagonal_series(EXACT, n)] * k)
        assert cphi_series(k, n) == exact, (k, n)
        for m in ROW_MODULI:
            got = cphi_series(k, n, CoefficientRing(m))
            assert got == reduce_mod(exact, m), (k, n, m)


@pytest.mark.parametrize(
    "k, n, modulus, row",
    [
        (12, 100, 2, (25, 3)),
        (18, 100, 3, (11, 2)),
        (25, 100, 5, (4, 1)),
        (514, 300, 257, (1, 2)),
        (6, 100, 4, (100, 6)),
        (8, 100, 4, (100, 8)),
        (6, 100, 9, (100, 6)),
        (18, 100, 9, (100, 18)),
        (7, 100, 2, (100, 7)),
        (6, 100, None, (100, 6)),
        (13, 100, None, (100, 13)),
    ],
)
def test_cphi_route_builds_the_p_free_subscript(k, n, modulus, row, monkeypatch):
    # over Z/p for a prime p with p^v || k the route builds the theta row of
    # k / p^v to N // p^v; a composite modulus, even one dividing k, p not
    # dividing k, and Z build the row of k itself to N
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    rows = []

    def spy(ring, truncation, k):
        rows.append((truncation, k))
        return theta_row(ring, truncation, k)

    theta_row = frobseries.frobenius.theta_constant_series
    monkeypatch.setattr(frobseries.frobenius, "theta_constant_series", spy)
    assert cphi_series(k, n, ring).truncation == n
    assert rows == [row]


def test_odd_p_theta_row_reduces_mid_sum(monkeypatch):
    # a low slot limit makes the theta row (and the kernel) reduce mod m in
    # the middle of a sum of shifted rows; the results must not change
    n = 120
    reductions = []

    def counted(*args):
        reductions.append(args)
        return residues(*args)

    def row_reductions():
        counts = {}
        for k, m in want:
            reductions.clear()
            theta_constant_series(CoefficientRing(m), n, k)
            counts[k, m] = len(reductions)
        return counts

    residues = frobseries.series._unpack
    monkeypatch.setattr(frobseries.series, "_unpack", counted)
    want = {}
    for k in (1, 2, 4, 9):
        exact = cg_product(k, n).constant_term()
        for m in (*SMALL_PRIMES[1:], 4, 9, 25, 128):
            want[k, m] = reduce_mod(exact, m)
            assert cphi_series(k, n, CoefficientRing(m)) == want[k, m]
    # with no mid-sum reduction, step t reduces each base row it builds
    # once, t // 2 + 1 of its t (the others are mirrors), and the last
    # step's one row is reduced by the final unpack; the row of theta^1 is
    # 1, with no step and no unpack
    base_rows = row_reductions()
    assert base_rows == {
        (k, m): (k > 1) + sum(t // 2 + 1 for t in range(2, k)) for k, m in want
    }
    assert base_rows[9, 3] == 24
    monkeypatch.setattr(frobseries.series, "_SLOT_MAX", 40)
    for (k, m), series in want.items():
        frobseries.frobenius._route_slot[0] = None
        assert cphi_series(k, n, CoefficientRing(m)) == series, (k, m)
    assert sum(row_reductions().values()) > sum(base_rows.values())


def test_z2_theta_row_is_computed():
    # m -> -m pairs every point of the lattice sum but 0, so the z^0 row
    # of theta^k is 1 mod 2; the route computes it and does not assume it
    n = 1000
    for k in range(1, 31):
        assert theta_constant_series(MOD2, n, k).coeffs == bytes([1] + [0] * n), k


def test_z2_cphi_route_reads_the_theta_terms(monkeypatch):
    # without any one theta term of degree <= 15 the Z/2 route must change.
    # k = 5 is odd, so the route builds theta^5 itself: for an even k it
    # builds the row of k / 2^v, and for k = 4 that is theta^1, which reads
    # no term; for k = 3 dropping (-1, 0) leaves the result unchanged.  The
    # slot is emptied before each call, so each call builds
    full = cphi_series(5, 30, MOD2)
    terms = frobseries.series.theta_exponents
    for i in range(12):
        monkeypatch.setattr(
            frobseries.series,
            "theta_exponents",
            lambda n: terms(n)[:i] + terms(n)[i + 1 :],
        )
        frobseries.frobenius._route_slot[0] = None
        assert cphi_series(5, 30, MOD2) != full, terms(30)[i]


def test_cphi_route_refuses_a_huge_truncation_at_once(monkeypatch):
    # the N + 1 output row is allocated before the p-free subscript's row is
    # built, so N = 10^20 fails there, though N // 2^40 alone would fit
    listed = []
    listing = frobseries.series.triangular_exponents

    def guarded(limit):
        listed.append(limit)
        return listing(limit)

    monkeypatch.setattr(frobseries.series, "triangular_exponents", guarded)
    for k in (2**40, 6):
        with pytest.raises((OverflowError, MemoryError)):
            cphi_series(k, 10**20, MOD2)
    assert listed == []


def test_cphi_series_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k must be >= 1"):
        cphi_series(0, 5)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        cphi_series(2, -1)
    # and its exact reference
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        cg_product(0, 5)


def test_cphi3_matches_borwein_cubic_theta():
    # [z^0] theta(z)^3 = sum q^{m^2+mn+n^2} = a(q), the Borweins' cubic
    # theta, so cphi_3 (q;q)^3 = 1 + 6 sum_n (d_{1,3}(n) - d_{2,3}(n)) q^n
    n = 1000
    a = [0] * (n + 1)
    a[0] = 1
    for d in range(1, n + 1):
        if d % 3:
            for multiple in range(d, n + 1, d):
                a[multiple] += 6 if d % 3 == 1 else -6
    lhs = mul(cphi_series(3, n), triangular_cube_series(EXACT, n))
    assert lhs == make_series(EXACT, n, a)


def test_cphi2_matches_andrews_eta_quotient():
    # cphi_2 = E2^5 / (E1^4 E4^2), Es = (q^s;q^s)_inf; checked by mul alone
    n = 400
    e1, e2, e4 = (pentagonal_series(EXACT, n, s) for s in (1, 2, 4))
    lhs = cphi_series(2, n)
    for factor in (e1, e1, e1, e1, e4, e4):
        lhs = mul(lhs, factor)
    rhs = e2
    for _ in range(4):
        rhs = mul(rhs, e2)
    assert lhs == rhs


def test_cphi_coefficients_nonnegative():
    for k in (1, 2, 4):
        assert all(c >= 0 for c in cphi_series(k, 20).coeffs)


def test_cphi_parity_witness_structure():
    w = cphi_parity_witness(1, 4)
    z0 = w.constant_term()
    assert z0.coefficient(0) == 1
    assert z0.coefficient(1) == 0
    assert z0.coefficient(3) == 0
    w = cphi_parity_witness(2, 5)
    for j in range(w.z_min, w.z_max + 1):
        row = w.z_coefficient(j)
        assert all(row.coefficient(m) == 0 for m in (1, 3, 5)), j


def test_cphi_parity_witness_matches_cg_mod2():
    for k in (1, 2, 3):
        for n in (9, 10, 11):
            witness = cphi_parity_witness(k, n)
            direct = cg_product(2 * k, n)
            for j in range(-(n + 2 * k), n + 2 * k + 1):
                got = witness.z_coefficient(j)
                assert got == reduce_mod(direct.z_coefficient(j), 2), (k, n, j)


def test_laurent_poly_invariants():
    s = make_series(EXACT, 2, [1])
    with pytest.raises(ValueError):
        LaurentPolyOverSeries(1, 2, (s, s))  # window must contain 0
    with pytest.raises(ValueError):
        LaurentPolyOverSeries(-1, 1, (s, s))  # wrong entry count
    mixed = make_series(CoefficientRing(2), 2, [1])
    with pytest.raises(ValueError):
        LaurentPolyOverSeries(0, 1, (s, mixed))


def test_double_sum_in_modular_ring_matches_exact():
    for k, m in ((2, 5), (3, 25), (5, 7)):
        exact = reduce_mod(phi_series_double_sum(k, 30), m)
        modular = phi_series_double_sum(k, 30, CoefficientRing(m))
        assert exact == modular, (k, m)


@pytest.mark.parametrize(
    "modulus, storage",
    [(None, tuple), (2, bytes), (3, bytes), (4, bytes), (17, bytes),
     (25, bytes), (128, bytes), (129, bytes), (256, bytes), (257, tuple)],
)
def test_routes_return_their_ring_storage(modulus, storage):
    # over Z/m with m <= 256 every route returns one bytes object of
    # residues, the kernel's output as it is; over Z and m > 256 a tuple
    ring = EXACT if modulus is None else CoefficientRing(modulus)
    n = 60
    for k in (1, 4, 6):
        for route in (phi_series_double_sum, cphi_series):
            got = route(k, n, ring)
            assert type(got.coeffs) is storage, (route, k)
            if modulus is not None:
                assert got == reduce_mod(route(k, n), modulus), (route, k)
    if modulus == 2:
        assert type(phi_parity_series(4, n).coeffs) is bytes
        witness = cphi_parity_witness(2, 20)
        assert all(type(row.coeffs) is bytes for row in witness.entries)


def test_expand_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        expand("psi", 2, 10)
