"""The CLI calls each workload makes, by rung and variant, and output digests.

A call is an argv template without ``--jobs``, ``--out`` and
``--no-timestamp``; the runner appends those, so the stored references do
not depend on the machine's core count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
VARIANTS = 4


@dataclass(frozen=True)
class Rung:
    """One rung of the size ladder: small, mid or large."""

    scale: int  # the truncation-like size the rung's calls grow with
    calls: tuple  # of argv templates (tuples of str)


def _parity_verify(variant: int) -> list[Rung]:
    primes = ("5,7,11,13", "13,11,7,5", "7,13,5,11", "11,5,13,7")[variant]
    ells = ("1,2", "2,1")[variant % 2]
    return [
        Rung(m, ((
            "verify", "main", "--primes", primes, "--ells", ells,
            "--nmax", str(m),
        ),))
        for m in (32, 64, 128)
    ]


def _cphi_expand(variant: int) -> list[Rung]:
    order = ((0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1))[variant]
    ks = ("1,2,3", "3,2,1", "2,3,1", "1,3,2")[variant]
    rungs = []
    for n in (36, 72, 120):
        calls = (
            ("expand", "--family", "cphi", "--k", "6", "--mod", "2",
             "--format", "json", "--n", str(n)),
            ("verify", "p-squared", "--p", "5", "--nmax", str(n // 5)),
            ("verify", "cphi-even", "--ks", ks, "--nmax", str(n // 4)),
        )
        rungs.append(Rung(n, tuple(calls[i] for i in order)))
    return rungs


def _exact_expand(variant: int) -> list[Rung]:
    order = ((0, 1, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1))[variant]
    rungs = []
    for n in (500, 1000, 2000):
        calls = (
            ("expand", "--family", "phi", "--k", "1", "--format", "json",
             "--n", str(n)),
            ("expand", "--family", "phi", "--k", "4", "--format", "json",
             "--n", str(n)),
            ("expand", "--family", "phi", "--k", "4", "--mod", "3",
             "--format", "json", "--n", str(n)),
        )
        rungs.append(Rung(n, tuple(calls[i] for i in order)))
    return rungs


WORKLOADS = {
    "parity-verify": _parity_verify,
    "cphi-expand": _cphi_expand,
    "exact-expand": _exact_expand,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def rungs(workload: str, seed: int) -> list[Rung]:
    return WORKLOADS[workload](variant_of(seed))


def templates(rung_list) -> list[list[str]]:
    return [list(call) for rung in rung_list for call in rung.calls]


def full_argv(template, jobs: int, out_path: str) -> list[str]:
    argv = list(template)
    if argv[0] == "verify":
        argv += ["--jobs", str(jobs)]
    return argv + ["--no-timestamp", "--out", out_path]


def digest(doc: dict) -> str:
    """Digest of what a call computed, leaving out the route name."""
    if "coefficients" in doc:
        payload = doc["coefficients"]
    else:
        payload = [
            [r["claim"], r["n_max"], r["status"], r["counterexamples"]]
            for r in doc["reports"]
        ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(workload: str, seed: int) -> dict:
    """Map from argv template (as a tuple) to digest for the seed's variant.

    Raises ValueError when the stored variant does not list exactly the
    calls this module generates, i.e. the references are stale.
    """
    stored = json.loads(REFS_PATH.read_text())[workload][str(variant_of(seed))]
    wanted = templates(rungs(workload, seed))
    if [entry[0] for entry in stored] != wanted:
        raise ValueError(
            f"{REFS_PATH.name} does not match the calls of {workload} "
            f"variant {variant_of(seed)}; run perfbench/make_refs.py"
        )
    return {tuple(argv): d for argv, d in stored}
