"""Cross-checks of the fast routes against their independent references.

``ROWS`` holds one row per check: a name, a generator ``cases(n)`` that
yields one ``(label, equal)`` pair per comparison at window n, the n that
CI runs and the n that the tier-1 test ``test_crosscheck.py`` runs.  Each
generator's docstring names the fast route and its reference.

    python tests/crosscheck.py NAME [NAME ...]

runs the named rows at their CI n, in the order given.  It prints
``label: True|False (s)`` per case, then each row's seconds and the
process's peak RSS, and exits 1 if any case is False.  An unknown name
exits 2 before any row runs.  pytest does not collect this module.

    python tests/crosscheck.py --bench BENCH_<pr>.json [--against DIR] NAME [NAME ...]

runs each named row at three n, its tier-1 n, the geometric mean of the
two and its CI n, on a list of sides: this tree's ``src/``, the ``src/``
of the checkout at DIR if given, and this tree's ``src/`` again, an A/A
control of identical code for every row.  Each of BENCH_REPEATS repeats
makes one fresh run of each side in turn (``--at n NAME``, which runs
one row at n and prints a JSON result line last).  Per row and n the
file holds one best-of-BENCH_REPEATS seconds and peak RSS per side, and
per row one least-squares growth exponent of seconds in n per side; it
names each side's git sha under ``sides``, with the Python version and
the usable core count.  The spread between the first and the last side
is what a difference between two trees must exceed.
"""

import argparse
import json
import math
import os
import resource
import sys
import time
from typing import Callable, Iterator, NamedTuple

from frobseries import cli, frobenius
from frobseries.frobenius import cphi_series, phi_parity_series, phi_series_double_sum
from frobseries.series import (
    EXACT,
    MOD2,
    CoefficientRing,
    TruncatedSeries,
    divide,
    eta_quotient,
    pentagonal_series,
    reduce_mod,
    theta_constant_series,
)

# the subscripts p*ell - 1 of verify main for p in 5, 7, 11, 13 and ell in 1, 2
MAIN_SUBSCRIPTS = (4, 6, 9, 10, 12, 13, 21, 25)
KERNEL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
LIFT_MODULI = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128)


class Row(NamedTuple):
    name: str
    cases: Callable[[int], Iterator[tuple[str, bool]]]
    ci_n: int
    tier1_n: int


def main_theorem(n):
    """The paper's theorem by ``verify main`` to index n through cli.main.

    Route: the parity route, one series per subscript.  Reference: the
    theorem's zero classes.  The exit status is 0 only if every claim
    holds; the report goes to stdout.
    """
    status = cli.main(
        ["verify", "main", "--primes", "5,7,11,13", "--ells", "1,2", "--nmax", str(n)]
    )
    yield f"verify main --primes 5,7,11,13 --ells 1,2 --nmax {n} exit status {status}", status == 0


def mod2_lemma(n):
    """Andrews' mod-2 lemma for the subscripts of ``verify main``.

    Route: the parity route E(q) / E(q^(k+1)).  Reference: the double sum
    over Z/2, whose numerator is the j = 0 block alone and whose
    E(q)^2 E(q^(k+1)) is planned almost all as Jacobi cubes.
    """
    for k in MAIN_SUBSCRIPTS:
        same = phi_series_double_sum(k, n, MOD2) == phi_parity_series(k, n)
        yield f"k={k} N={n} double sum == parity route", same


def double_sum_mod_m(n):
    """Route: the double sum over Z/m.  Reference: over Z, reduced mod m.

    p <= 23 divides E^2 E(q^(k+1)) by Frobenius dilations, and 25 by
    lifting the Z/5 quotient; 29 and 6 (bytes), 257 and 1000 (tuples) by
    the recurrence, with Gauss pairs phi(-q^s) E(q^2s), as Z does: over
    Z/6 and Z/1000 the terms c and m - c of each divisor are one group.
    Each m for k = 1..5, so the step k + 1 of E(q^(k+1)) runs from 2 to 6.
    """
    for k in range(1, 6):
        exact = phi_series_double_sum(k, n)
        for m in (3, 5, 7, 11, 13, 29, 25, 257, 6, 1000):
            same = phi_series_double_sum(k, n, CoefficientRing(m)) == reduce_mod(exact, m)
            yield f"k={k} N={n} Z/{m} double sum == exact mod {m}", same


def _planned_and_divided(a, powers):
    """The planned quotient, and whether divide, by each E(q^s) as its own factor, agrees."""
    got = eta_quotient(a, powers)
    factors = [
        pentagonal_series(a.ring, a.truncation, s)
        for s, e in powers.items()
        for _ in range(e)
    ]
    return got, got == divide(a, *factors)


def planned_phi(n):
    """Route: eta_quotient inside the double sum over Z/p and Z/p^v <= 128.

    Reference: divide, the recurrence, by every E(q^s) factor.  Over Z/p
    the quotient is one kernel call; over Z/p^v the Z/p quotient is
    lifted digit by digit.  The case holds if the route plans exactly
    one quotient and it agrees.
    """
    for moduli in (KERNEL_PRIMES, LIFT_MODULI):
        for k in (1, 2, 4):
            for m in moduli:
                agreed = []

                def checked(a, powers):
                    got, same = _planned_and_divided(a, powers)
                    agreed.append(same)
                    return got

                # not unittest.mock: its import adds about 7 MB to peak RSS;
                # the slot is emptied, so the route builds under the patch
                frobenius.eta_quotient = checked
                frobenius._route_slot[0] = None
                try:
                    phi_series_double_sum(k, n, CoefficientRing(m))
                finally:
                    frobenius.eta_quotient = eta_quotient
                yield f"phi_{k} N={n} Z/{m} planned == divide", agreed == [True]


def planned_theta(n):
    """Route: eta_quotient of cphi_k's theta row by E(q)^k over Z/p and Z/p^v.

    Reference: divide by k copies of E(q).  The quotient is called
    directly: over Z/p for p | k, cphi_series builds cphi_(k/p^v) at
    q^(p^v), so it never plans E(q)^k itself.
    """
    pairs = ((6, 2), (3, 3), (6, 3), (5, 5), (10, 5), (7, 7), (14, 7), (11, 11), (13, 13))
    pairs += ((6, 4), (15, 9), (15, 25), (10, 25), (14, 49))
    # p-squared's own quotients, cphi_p over Z/p^2: E^5 and E^11 put a Gauss
    # pair into each lift step's product
    pairs += ((5, 25), (7, 49), (11, 121))
    for k, m in pairs:
        row = theta_constant_series(CoefficientRing(m), n, k)
        _, same = _planned_and_divided(row, {1: k})
        yield f"theta row_{k} / E^{k} N={n} Z/{m} planned == divide", same


def parity_route(n):
    """Route: the parity route over Z/2 for the subscripts of ``verify main``,
    built at n and then read at a shorter N from the slot the routes share.

    Reference: divide(E(q), E(q^(k+1))), the recurrence, and its prefix
    to q^N.  The slot read holds only if it builds nothing: the slot
    still holds the series built at n.
    """
    euler = pentagonal_series(MOD2, n)
    short = 2 * n // 3
    for k in MAIN_SUBSCRIPTS:
        quotient = divide(euler, pentagonal_series(MOD2, n, k + 1))
        yield f"k={k} N={n} parity route == divide", phi_parity_series(k, n) == quotient
        held = frobenius._route_slot[0]
        prefix = TruncatedSeries(MOD2, short, quotient.coeffs[: short + 1])
        same = phi_parity_series(k, short) == prefix and frobenius._route_slot[0] is held
        yield f"k={k} N={short} slot read == divide's prefix", same


def cphi_k_over_p(n):
    """Route: cphi_6, cphi_10 and their theta rows over Z, where nothing is stripped.

    Reference: the same at k/p, placed at q^p, for each prime p | k:
    Frobenius gives row_k = row_(k/p)(q^p) and cphi_k = cphi_(k/p)(q^p)
    mod p, the identity cphi_series uses over Z/p.  Also row_k = 1 mod 2.
    """
    for k in (6, 10):
        full = {
            "row": theta_constant_series(EXACT, n, k).coeffs,
            "cphi": cphi_series(k, n).coeffs,
        }
        yield f"N={n} row_{k} = 1 mod 2", [c % 2 for c in full["row"]] == [1] + [0] * n
        for p in (p for p in (2, 3, 5) if k % p == 0):
            part = {
                "row": theta_constant_series(EXACT, n // p, k // p).coeffs,
                "cphi": cphi_series(k // p, n // p).coeffs,
            }
            for name, coeffs in full.items():
                lifted = [0] * (n + 1)
                lifted[::p] = part[name]
                same = [c % p for c in coeffs] == [c % p for c in lifted]
                yield f"N={n} {name}_{k} = {name}_{k // p}(q^{p}) mod {p}", same


def cphi_mod_m(n):
    """Route: cphi_series over Z/m.  Reference: over Z, reduced mod m.

    Over Z/m, m <= 128, the theta row is built on packed slots mod m.
    k = 5 divides by a cube, phi(-q) and E(q^2) over Z, by dilations over
    Z/p and by lifting the Z/p quotient over Z/4, Z/9 and Z/25, and by
    the recurrence over Z/6 and Z/10, where the cube's residues pair up
    by magnitude up to sign: 1 with 5 and 3 with itself over Z/6; 1 with
    9, 3 with 7 and 5 with itself over Z/10.  Over Z/p for a prime p | k
    the route builds cphi_(k/p^v) at q^(p^v), and the series over Z does
    not.
    """
    for k in (2, 4, 5, 6, 9, 12, 30):
        exact = cphi_series(k, n)
        for m in (2, 3, 4, 9, 13, 25, 6, 10):
            same = cphi_series(k, n, CoefficientRing(m)) == reduce_mod(exact, m)
            yield f"k={k} N={n} Z/{m} cphi == exact mod {m}", same


def phi_cphi_mod_p(n):
    """Route: cphi_series over Z/p for k + 1 = p^v.

    Reference: phi_k by the double sum over Z/p, and by the parity route
    over Z/2.  phi_k = cphi_k mod p follows from the definitions alone:
    (1 - X^(p^v)) / (1 - X) = (1 - X)^(p^v - 1) mod p on each factor of
    phi_k's product, then z -> -z gives cphi_k's.  The cphi side uses no
    theorem of Andrews'.
    """
    for k, p in ((2, 3), (4, 5), (6, 7), (10, 11), (12, 13), (8, 3), (24, 5)):
        ring = CoefficientRing(p)
        same = cphi_series(k, n, ring) == phi_series_double_sum(k, n, ring)
        yield f"k={k} N={n} Z/{p} cphi == double sum", same
    for k in (3, 7, 15):
        same = cphi_series(k, n, MOD2) == phi_parity_series(k, n)
        yield f"k={k} N={n} Z/2 cphi == parity route", same


ROWS = (
    # verify main's n <= 769230 reaches pn + r = 10^7 at p = 13
    Row("main-theorem", main_theorem, 769230, 2000),
    Row("mod2-lemma", mod2_lemma, 10**7, 20000),
    Row("double-sum-mod-m", double_sum_mod_m, 10**4, 1500),
    Row("planned-phi", planned_phi, 2 * 10**4, 300),
    Row("planned-theta", planned_theta, 10**4, 300),
    Row("parity-route", parity_route, 10**5, 2000),
    Row("cphi-k-over-p", cphi_k_over_p, 10**4, 300),
    Row("cphi-mod-m", cphi_mod_m, 3000, 300),
    Row("phi-cphi-mod-p", phi_cphi_mod_p, 10**5, 2000),
)


BENCH_REPEATS = 3


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(row, n):
    """Print each case of the row at window n, then the row's totals.

    Returns whether every case holds, and the row's seconds.
    """
    ok = True
    row_start = time.perf_counter()
    cases = row.cases(n)
    while True:
        start = time.perf_counter()
        case = next(cases, None)
        if case is None:
            break
        label, equal = case
        print(f"{label}: {equal} ({time.perf_counter() - start:.1f} s)", flush=True)
        ok = ok and equal
    seconds = time.perf_counter() - row_start
    print(f"{row.name}: {seconds:.1f} s, peak RSS {peak_rss_mb():.1f} MB", flush=True)
    return ok, seconds


def growth_exponent(ns, seconds):
    """Least-squares slope of log(seconds) on log(n); None if n never varies."""
    if len(set(ns)) < 2:
        return None
    xs = [math.log(n) for n in ns]
    ys = [math.log(s) for s in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# the src/ directory of the package this process imported
SRC = os.path.dirname(os.path.dirname(os.path.abspath(frobenius.__file__)))


def _run_fresh(name, n, src):
    """The row at window n in a new process that imports the package from
    src: {"ok", "seconds", "peak_rss_mb"}."""
    import subprocess  # imported here: it adds 0.5 MB to a plain run's peak RSS

    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, __file__, "--at", str(n), name],
        env=env, capture_output=True, text=True,
    )
    # exit 1 is a False case, or a crash, which prints no result line:
    # no case line or row total starts with "{"
    last = proc.stdout.splitlines()[-1:]
    if proc.returncode not in (0, 1) or not last or not last[0].startswith("{"):
        raise RuntimeError(f"{name} at n={n} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(last[0])
    if result.pop("src") != os.path.realpath(src):
        raise RuntimeError(f"{name} at n={n} imported the package from elsewhere")
    return result


def _git_sha(root):
    import subprocess

    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _best_runs(row, sources):
    """The row at its three n, best of BENCH_REPEATS fresh runs per n and
    source, one run of each source in turn.

    Returns whether every case of every run held, and per n the dict
    {"n", "seconds", "peak_rss_mb"} of the fastest runs, one per source.
    """
    ok, runs = True, []
    for n in (row.tier1_n, round(math.sqrt(row.tier1_n * row.ci_n)), row.ci_n):
        results = [[] for _ in sources]
        for _ in range(BENCH_REPEATS):
            for src, found in zip(sources, results):
                found.append(_run_fresh(row.name, n, src))
        ok = ok and all(result["ok"] for found in results for result in found)
        best = [min(found, key=lambda result: result["seconds"]) for found in results]
        seconds = [result["seconds"] for result in best]
        rss = [result["peak_rss_mb"] for result in best]
        runs.append({"n": n, "seconds": seconds, "peak_rss_mb": rss})
        print(
            f"{row.name} n={n}: "
            + " vs ".join(f"{s:.3f} s" for s in seconds)
            + ", peak RSS "
            + " vs ".join(f"{mb:.1f} MB" for mb in rss),
            flush=True,
        )
    return ok, runs


def bench(rows, path, against=None):
    """Time each row at three n in fresh processes on each side: this
    tree's src/, the src/ of the checkout against names, if any, and this
    tree's src/ again, the A/A control; write the record to path.

    Returns whether every case of every run held.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sides = [(root, SRC), (root, SRC)]
    if against is not None:
        sides.insert(1, (against, os.path.join(against, "src")))
    record = {
        "sides": [_git_sha(checkout) for checkout, _ in sides],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": BENCH_REPEATS,
        "rows": {},
    }
    ok = True
    for row in rows:
        held, runs = _best_runs(row, [src for _, src in sides])
        ok = ok and held
        slopes = [
            growth_exponent([run["n"] for run in runs], seconds)
            for seconds in zip(*(run["seconds"] for run in runs))
        ]
        record["rows"][row.name] = {"runs": runs, "growth_exp": slopes}
    with open(path, "w") as out:
        out.write(json.dumps(record, indent=2) + "\n")
    return ok


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--bench")
    parser.add_argument("--against")
    parser.add_argument("--at", type=int)
    parser.add_argument("names", nargs="*")
    args = parser.parse_args(argv)
    names = args.names
    rows = {row.name: row for row in ROWS}
    errors = []
    unknown = [name for name in names if name not in rows]
    if unknown:
        errors.append(f"unknown rows: {' '.join(unknown)}")
    if args.against is not None and not args.bench:
        errors.append("--against needs --bench")
    if args.at is not None and (args.bench or len(names) != 1):
        errors.append("--at takes one row and nothing else")
    if not names or errors:
        usage = (
            "usage: python tests/crosscheck.py [--bench FILE [--against DIR] | --at N] "
            "NAME [NAME ...]"
        )
        print(*errors, usage, f"rows: {' '.join(rows)}", sep="\n", file=sys.stderr)
        return 2
    if args.bench:
        held = bench([rows[name] for name in names], args.bench, args.against)
        return 0 if held else 1
    if args.at is not None:
        held, seconds = run(rows[names[0]], args.at)
        src = os.path.realpath(SRC)
        print(json.dumps(
            {"ok": held, "seconds": seconds, "peak_rss_mb": peak_rss_mb(), "src": src}
        ))
        return 0 if held else 1
    results = [run(rows[name], rows[name].ci_n)[0] for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
