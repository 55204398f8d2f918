"""Acceptance suite: every criterion over its stated finite window.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  All equalities are exact (integer / modular arithmetic);
there are no float tolerances anywhere.
"""

import json

from jsonschema import validate

from frobseries import cli, congruences
from frobseries.congruences import (
    VERIFIED,
    ResidueClass,
    eligible_residues,
    is_prime,
    pentagonal_class_reachable,
    residue_class,
)
from frobseries.frobenius import (
    cg_product,
    cphi_series,
    partition_series,
    phi_parity_series,
    phi_series_double_sum,
)
from frobseries.oracle import count_cphi, count_phi
from frobseries.series import (
    EXACT,
    CoefficientRing,
    make_series,
    mul,
    pentagonal_series,
    pochhammer,
    reduce_mod,
    triangular_cube_series,
)

from test_cli import REPORT_SCHEMA


def _report(number, description, ok):
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_classical_identities():
    pent_ok = pentagonal_series(EXACT, 2000) == pochhammer(EXACT, 2000, 1, 1)
    p = pentagonal_series(EXACT, 1000)
    cube_ok = mul(mul(p, p), p) == triangular_cube_series(EXACT, 1000)
    _report(
        1,
        "pentagonal sum = (q;q)_inf at N=2000; its cube = triangular sum at N=1000",
        pent_ok and cube_ok,
    )


def test_criterion_2_mod2_lemma():
    # every subscript p*ell - 1 that the main-theorem checks below use
    ok = all(
        reduce_mod(phi_series_double_sum(k, 3000), 2) == phi_parity_series(k, 3000)
        for k in (*range(1, 14), 21, 25)
    )
    _report(2, "double sum = eta quotient mod 2 for k=1..13,21,25, N=3000", ok)


def test_criterion_3_oracle_agreement():
    phi_ok = all(
        phi_series_double_sum(k, 12).coefficient(n) == count_phi(k, n)
        for k in range(1, 5)
        for n in range(13)
    )
    cphi_ok = all(
        cphi_series(k, 8).coefficient(n) == count_cphi(k, n)
        for k in range(1, 4)
        for n in range(9)
    )
    p100_ok = phi_series_double_sum(1, 100) == partition_series(100)
    _report(
        3,
        "brute-force counts match both series routes; phi_1 = p(n) to n=100",
        phi_ok and cphi_ok and p100_ok,
    )


def test_criterion_4_main_theorem():
    failures = []
    for p in (5, 7, 11, 13):
        eligible = eligible_residues(p)
        for ell in (1, 2):
            series = phi_parity_series(p * ell - 1, 100_000)
            for r in eligible:
                for m in range(r, 100_001, p):
                    if series.coefficient(m) != 0:
                        failures.append((p, ell, r, m))
    _report(
        4,
        "phi_{p*ell-1}(pn+r) even for p in {5,7,11,13}, ell in {1,2}, pn+r <= 10^5",
        not failures,
    )


def test_criterion_5_qnr_pentagonal_equivalence():
    ok = True
    for p in (q for q in range(5, 98) if is_prime(q)):
        for r in range(1, p):
            nonresidue = residue_class(24 * r + 1, p) is ResidueClass.NONRESIDUE
            if pentagonal_class_reachable(p, r) != (not nonresidue):
                ok = False
    _report(
        5,
        "24r+1 nonresidue mod p <=> no pentagonal number hits r mod p, p <= 97",
        ok,
    )


def test_criterion_6_cphi_parity():
    mod2 = CoefficientRing(2)
    even_ok = True
    for k in range(1, 7):
        series = cphi_series(2 * k, 4001, mod2)
        if any(series.coefficient(m) for m in range(1, 4002, 2)):
            even_ok = False
        # over Z/2 the route builds cphi_{2k} as a series in q^2 by
        # Frobenius, so the window is checked against the route over Z,
        # which does not use it
        if series != reduce_mod(cphi_series(2 * k, 4001), 2):
            even_ok = False
    # over Z these rows have hundreds of odd-q terms; mod 2 they have none
    product_ok = True
    for k in (1, 2, 3):
        for row in cg_product(2 * k, 40).entries:
            if any(reduce_mod(row, 2).coeffs[1::2]):
                product_ok = False
    _report(
        6,
        "cphi_{2k}(odd) even to 4001 for k<=6, mod 2 and over Z reduced mod 2; "
        "every z row of the 2k-colored product has no odd-q term mod 2 to q^40",
        even_ok and product_ok,
    )


def test_criterion_7_andrews_p_squared():
    failures = []
    for p in (2, 3, 5, 7):
        series = cphi_series(p, 3000, CoefficientRing(p * p))
        for r in range(1, p):
            for m in range(r, 3001, p):
                if series.coefficient(m) != 0:
                    failures.append((p, r, m))
    spot = cphi_series(5, 1).coefficient(1) == 25
    _report(
        7,
        "cphi_p(pn+r) = 0 mod p^2 for p in {2,3,5,7}, pn+r <= 3000; cphi_5(1) = 25",
        not failures and spot,
    )


def test_criterion_8_garvan_sellers_lift():
    # windows: 5n+3 <= 48 means n_max = 9
    reports = congruences.garvan_sellers_lift_check(2, 5, 3, 1, 9)
    statuses_ok = [r.status for r in reports] == [VERIFIED, VERIFIED]
    spot = cphi_series(2, 3).coefficient(3) == 20
    _report(
        8,
        "cphi_2(5n+3) = 0 mod 5 implies cphi_7(5n+3) = 0 mod 5, window 48",
        statuses_ok and spot,
    )


def test_criterion_9_cli_contract(tmp_path, capsys, monkeypatch):
    argv = ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "20"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out)
    validate(doc, REPORT_SCHEMA)
    clean_ok = code == 0

    real = congruences.default_series_provider

    def corrupted(claim, truncation):
        series, route = real(claim, truncation)
        coeffs = list(series.coeffs)
        coeffs[claim.b] = 1
        return make_series(series.ring, series.truncation, coeffs), route

    monkeypatch.setattr(congruences, "default_series_provider", corrupted)
    corrupted_code = cli.main(argv)
    capsys.readouterr()
    monkeypatch.undo()
    _report(
        9,
        "verify main exits 0 with schema-valid JSON; corrupted provider exits 1",
        clean_ok and corrupted_code == 1,
    )
