import json
import re

import pytest

import frobseries.frobenius
import frobseries.series
from frobseries import congruences
from frobseries.congruences import (
    PHI,
    CPHI,
    REFUTED,
    SKIPPED,
    VERIFIED,
    CongruenceClaim,
    ResidueClass,
    VerificationReport,
    andrews_p_squared_suite,
    cphi_even_suite,
    default_series_provider,
    eligible_residues,
    garvan_sellers_lift_check,
    is_prime,
    main_theorem_suite,
    pentagonal_class_reachable,
    residue_class,
    verify_claim,
)
from frobseries.frobenius import phi_series_double_sum
from frobseries.series import CoefficientRing, make_series
from test_frobenius import _clear_parity_memos

PRIMES_TO_97 = [p for p in range(5, 98) if is_prime(p)]


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    with pytest.raises(ValueError):
        is_prime(10_001)


def test_residue_class_examples():
    assert residue_class(4, 5) is ResidueClass.RESIDUE
    assert residue_class(3, 5) is ResidueClass.NONRESIDUE
    assert residue_class(25, 5) is ResidueClass.ZERO


def test_residue_class_rejects_non_odd_prime():
    for p in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            residue_class(3, p)


def test_residue_class_matches_square_table():
    for p in PRIMES_TO_97:
        squares = {x * x % p for x in range(1, p)}
        for x in range(2 * p):
            cls = residue_class(x, p)
            if x % p == 0:
                assert cls is ResidueClass.ZERO
            elif x % p in squares:
                assert cls is ResidueClass.RESIDUE
            else:
                assert cls is ResidueClass.NONRESIDUE


def test_eligible_residues_examples():
    assert eligible_residues(5) == {3, 4}
    assert eligible_residues(7) == {3, 4, 6}
    expected_11 = {
        r for r in range(1, 11) if (24 * r + 1) % 11 in {2, 6, 7, 8, 10}
    }
    assert eligible_residues(11) == expected_11


def test_eligible_residues_rejects_bad_primes():
    for p in (3, 4, 6):
        with pytest.raises(ValueError):
            eligible_residues(p)
    for p in (-7, 0, 1, 2, 3, 4, 9, 25, 91, 9991):
        with pytest.raises(ValueError, match=f"^need a prime >= 5, got {p}$"):
            eligible_residues(p)
    with pytest.raises(ValueError, match="capped at 10000"):
        eligible_residues(10_007)  # a prime above PRIMALITY_CAP


def test_eligible_residues_are_the_nonresidue_and_unreachable_classes():
    # 24r + 1 = (6k - 1)^2 mod p when r = (3k^2 - k)/2, so r is a
    # pentagonal class exactly when 24r + 1 is a square mod p
    for p in PRIMES_TO_97:
        nonresidues = {
            r
            for r in range(1, p)
            if residue_class(24 * r + 1, p) is ResidueClass.NONRESIDUE
        }
        unreachable = {r for r in range(1, p) if not pentagonal_class_reachable(p, r)}
        assert eligible_residues(p) == nonresidues == unreachable, p


def test_pentagonal_class_reachable_small():
    assert pentagonal_class_reachable(5, 1)
    assert pentagonal_class_reachable(5, 2)
    assert not pentagonal_class_reachable(5, 3)


@pytest.mark.parametrize(
    "check, args, message",
    [
        (pentagonal_class_reachable, (4, 1), "need a prime >= 5, got 4"),
        (pentagonal_class_reachable, (7, 0), "need 0 < r < p, got r=0"),
        (pentagonal_class_reachable, (7, 7), "need 0 < r < p, got r=7"),
        (cphi_even_suite, ([0], 5), "k must be >= 1"),
        (andrews_p_squared_suite, (4, 5), "4 is not prime"),
        (garvan_sellers_lift_check, (2, 4, 1, 1, 3), "4 is not prime"),
        (garvan_sellers_lift_check, (2, 5, 0, 1, 3), "need 0 < r < p, got r=0"),
        (garvan_sellers_lift_check, (2, 5, 5, 1, 3), "need 0 < r < p, got r=5"),
        (garvan_sellers_lift_check, (2, 5, 3, -1, 3), "lift_count must be >= 0"),
    ],
)
def test_checks_reject_bad_arguments(check, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(*args)


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim("theta", 1, 2, 1, 2)
    with pytest.raises(ValueError):
        CongruenceClaim(PHI, 0, 2, 1, 2)
    with pytest.raises(ValueError):
        CongruenceClaim(PHI, 1, 2, 2, 2)
    with pytest.raises(ValueError):
        CongruenceClaim(PHI, 1, 2, 1, 1)


def test_verify_claim_verified():
    claim = CongruenceClaim(PHI, 4, 5, 3, 2)
    report = verify_claim(claim, 10)
    assert report.status == VERIFIED
    assert report.counterexamples == ()
    assert report.route == "phi-parity-series"


def test_verify_claim_cphi():
    claim = CongruenceClaim(CPHI, 2, 2, 1, 2)
    report = verify_claim(claim, 10)
    assert report.status == VERIFIED
    assert report.route == "cphi-constant-term"


def test_verify_claim_out_of_hypothesis_reports_without_asserting():
    # 24*1+1 == 0 mod 5: the theorem is silent here; the engine just reports
    claim = CongruenceClaim(PHI, 4, 5, 1, 2)
    report = verify_claim(claim, 10)
    assert report.status in (VERIFIED, REFUTED)


def test_verify_claim_truncation_shortfall(monkeypatch):
    def short_provider(claim, truncation):
        return make_series(CoefficientRing(claim.m), 1, [0, 0]), "fake"

    monkeypatch.setattr(congruences, "default_series_provider", short_provider)
    with pytest.raises(ValueError, match="shortfall"):
        verify_claim(CongruenceClaim(PHI, 4, 5, 3, 2), 5)


def test_verify_claim_alternate_route_agrees(monkeypatch):
    def double_sum_provider(c, truncation):
        series = phi_series_double_sum(c.k, truncation, CoefficientRing(c.m))
        return series, "phi-double-sum"

    # 24*3+1 is a nonresidue mod 5, 24*1+1 is 0 mod 5: an all-zero
    # progression and one with odd values
    mod2 = phi_series_double_sum(4, 5 * 40 + 4, CoefficientRing(2)).coeffs
    for r, status in ((3, VERIFIED), (1, REFUTED)):
        claim = CongruenceClaim(PHI, 4, 5, r, 2)
        a = verify_claim(claim, 40)
        with monkeypatch.context() as patch:
            patch.setattr(
                congruences, "default_series_provider", double_sum_provider
            )
            b = verify_claim(claim, 40)
        scan = tuple(
            (n, mod2[n]) for n in range(r, 5 * 40 + r + 1, 5) if mod2[n]
        )
        assert a.status == b.status == status
        assert a.counterexamples == b.counterexamples == scan
        assert bool(scan) == (status == REFUTED)


def test_verify_claim_reduces_exact_provider(monkeypatch):
    # 24*1+1 == 0 mod 5, so phi_4(5n + 1) has odd values to report mod 2
    claim = CongruenceClaim(PHI, 4, 5, 1, 2)

    def exact_provider(c, truncation):
        return phi_series_double_sum(c.k, truncation), "phi-double-sum"

    default = verify_claim(claim, 8)
    monkeypatch.setattr(congruences, "default_series_provider", exact_provider)
    exact = verify_claim(claim, 8)
    assert default.status == exact.status == REFUTED
    assert default.counterexamples == exact.counterexamples
    assert {v for _, v in exact.counterexamples} == {1}


@pytest.mark.parametrize("m, storage", [(2, bytes), (257, tuple)])
def test_verify_claim_reports_a_lone_nonzero_entry(m, storage, monkeypatch):
    # one nonzero entry in the progression 5n + 3, in each storage kind, and
    # one beside it: the zero test sees the first, the report names it alone
    coeffs = [0] * 34
    coeffs[23] = m - 1
    coeffs[22] = 1

    def one_entry(c, truncation):
        series = make_series(CoefficientRing(m), truncation, coeffs[: truncation + 1])
        return series, "fake"

    monkeypatch.setattr(congruences, "default_series_provider", one_entry)
    assert type(one_entry(None, 33)[0].coeffs) is storage
    report = verify_claim(CongruenceClaim(PHI, 4, 5, 3, m), 6)
    assert (report.status, report.counterexamples) == (REFUTED, ((23, m - 1),))
    report = verify_claim(CongruenceClaim(PHI, 4, 5, 4, m), 5)
    assert (report.status, report.counterexamples) == (VERIFIED, ())


def test_verify_claim_rejects_provider_in_other_modulus(monkeypatch):
    def mod3_provider(c, truncation):
        series = phi_series_double_sum(c.k, truncation, CoefficientRing(3))
        return series, "phi-double-sum"

    monkeypatch.setattr(congruences, "default_series_provider", mod3_provider)
    with pytest.raises(ValueError, match="does not match modulus 2"):
        verify_claim(CongruenceClaim(PHI, 4, 5, 3, 2), 5)


def test_main_theorem_suite_p5():
    reports = main_theorem_suite([5], [1], 20)
    assert len(reports) == 2
    assert {r.claim.b for r in reports} == {3, 4}
    assert all(r.status == VERIFIED for r in reports)


def test_main_theorem_suite_p7_two_ells():
    reports = main_theorem_suite([7], [1, 2], 10)
    assert len(reports) == 6
    assert all(r.status == VERIFIED for r in reports)
    assert {r.claim.k for r in reports} == {6, 13}


def test_main_theorem_suite_builds_each_series_once(monkeypatch):
    # the suite runs each series' claims together, longest truncation
    # first, so the route slot serves the rest: from cleared
    # memos, 10 claims from 4 series run the kernel once per series, at
    # p * 50 + r for the largest eligible r, and report in claim order
    _clear_parity_memos()
    truncations = []

    def counted(*args):
        truncations.append(args[2])
        return kernel(*args)

    kernel = frobseries.series._times_dilations
    monkeypatch.setattr(frobseries.series, "_times_dilations", counted)
    reports = main_theorem_suite([5, 7], [1, 2], 50)
    assert len(reports) == 10
    assert sorted(truncations) == [254, 254, 356, 356]
    assert [r.claim for r in reports] == sorted(r.claim for r in reports)
    assert all(r.status == VERIFIED for r in reports)


def test_run_claims_reports_in_the_order_of_claim_comparison(monkeypatch):
    # the sort key reads the claim's fields in declaration order, so the
    # reports come in the order CongruenceClaim's __lt__ gives, whichever
    # field decides: family, k, a before b, then m
    def zeros(c, truncation):
        return make_series(CoefficientRing(c.m), truncation), "fake"

    monkeypatch.setattr(congruences, "default_series_provider", zeros)
    claims = [
        CongruenceClaim(family, k, a, b, m)
        for family in (PHI, CPHI)
        for k in (2, 1)
        for a, b in ((3, 1), (2, 1), (3, 0), (5, 2))
        for m in (3, 2)
    ]
    reports = congruences._run_claims(claims, 4)
    assert [r.claim for r in reports] == sorted(claims)


@pytest.mark.parametrize(
    "primes, ells", [([5], [0]), ([5, 7], [2, -1]), ([], [0]), ([4], [0])]
)
def test_main_theorem_suite_rejects_ell_below_one(primes, ells):
    # the ells are checked once, before any prime's residues
    with pytest.raises(ValueError, match="ell must be >= 1"):
        main_theorem_suite(primes, ells, 5)


def test_main_theorem_suite_nmax_zero():
    reports = main_theorem_suite([5], [1], 0)
    assert all(r.status == VERIFIED for r in reports)


def test_suite_determinism():
    assert main_theorem_suite([5, 7], [1], 6) == main_theorem_suite([5, 7], [1], 6)


def test_cphi_even_suite():
    reports = cphi_even_suite([1], 5)
    assert [r.status for r in reports] == [VERIFIED]
    reports = cphi_even_suite([2], 3)
    assert all(r.status == VERIFIED for r in reports)
    reports = cphi_even_suite([1], 0)
    assert all(r.status == VERIFIED for r in reports)


def test_andrews_p_squared_suite():
    reports = andrews_p_squared_suite(3, 3)
    assert len(reports) == 2
    assert all(r.status == VERIFIED for r in reports)
    reports = andrews_p_squared_suite(2, 5)
    assert all(r.status == VERIFIED for r in reports)


def test_suites_reject_empty_claim_lists():
    with pytest.raises(ValueError):
        main_theorem_suite([], [1], 5)
    with pytest.raises(ValueError):
        main_theorem_suite([5], [], 5)
    with pytest.raises(ValueError):
        cphi_even_suite([], 5)


def test_andrews_p_squared_suite_rejects_negative_nmax(monkeypatch):
    def never(claim, truncation):
        raise AssertionError("built a series before checking n_max")

    monkeypatch.setattr(congruences, "default_series_provider", never)
    with pytest.raises(ValueError, match="n_max"):
        andrews_p_squared_suite(5, -1)


def test_andrews_p_squared_suite_builds_one_series(monkeypatch):
    # the suite runs its claims longest first, so the cphi route builds one
    # theta row, to the largest truncation, and its slot serves the rest
    rows = []
    theta_row = frobseries.frobenius.theta_constant_series

    def counting(ring, truncation, k):
        rows.append((ring.modulus, truncation, k))
        return theta_row(ring, truncation, k)

    monkeypatch.setattr(frobseries.frobenius, "theta_constant_series", counting)
    reports = andrews_p_squared_suite(5, 3)
    assert rows == [(25, 5 * 3 + 4, 5)]
    assert [r.claim.b for r in reports] == [1, 2, 3, 4]
    assert all(r.status == VERIFIED for r in reports)
    assert {r.route for r in reports} == {"cphi-constant-term"}


def test_garvan_sellers_lift():
    reports = garvan_sellers_lift_check(2, 5, 3, 1, 3)
    assert [r.claim.k for r in reports] == [2, 7]
    assert all(r.status == VERIFIED for r in reports)


def test_garvan_sellers_lift_count_zero():
    reports = garvan_sellers_lift_check(2, 5, 3, 0, 3)
    assert len(reports) == 1


def test_garvan_sellers_failed_hypothesis_skips_lifts(monkeypatch):
    def corrupt_provider(claim, truncation):
        coeffs = [1] * (truncation + 1)
        return make_series(CoefficientRing(claim.m), truncation, coeffs), "fake"

    monkeypatch.setattr(congruences, "default_series_provider", corrupt_provider)
    reports = garvan_sellers_lift_check(2, 5, 3, 2, 3)
    assert reports[0].status == REFUTED
    assert [r.status for r in reports[1:]] == [SKIPPED, SKIPPED]


def test_report_round_trip(tmp_path):
    # every field of a report reaches its JSON, and reads back unchanged
    path = tmp_path / "report.json"
    report = verify_claim(CongruenceClaim(PHI, 4, 5, 3, 2), 5)
    refuted = VerificationReport(report.claim, 5, REFUTED, ((8, 1),), "fake")
    path.write_text(json.dumps([report.to_dict(), refuted.to_dict()]))
    claim = {"family": "phi", "k": 4, "a": 5, "b": 3, "m": 2}
    assert json.loads(path.read_text()) == [
        {"claim": claim, "n_max": 5, "status": VERIFIED,
         "counterexamples": [], "route": "phi-parity-series"},
        {"claim": claim, "n_max": 5, "status": REFUTED,
         "counterexamples": [{"n": 8, "value": 1}], "route": "fake"},
    ]


def test_default_provider_routes():
    _, route = default_series_provider(CongruenceClaim(PHI, 2, 2, 1, 2), 10)
    assert route == "phi-parity-series"
    _, route = default_series_provider(CongruenceClaim(PHI, 2, 5, 3, 5), 10)
    assert route == "phi-double-sum"
    _, route = default_series_provider(CongruenceClaim(CPHI, 2, 2, 1, 4), 10)
    assert route == "cphi-constant-term"
