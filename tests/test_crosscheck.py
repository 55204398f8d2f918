"""Every cross-check row at its tier-1 n, and the runner that CI calls."""

import json
import os
import re
from pathlib import Path

import pytest

import crosscheck
from frobseries.frobenius import phi_parity_series
from frobseries.series import MOD2, make_series

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


@pytest.mark.parametrize("row", crosscheck.ROWS, ids=lambda row: row.name)
def test_row_holds_at_its_tier1_n(row):
    cases = list(row.cases(row.tier1_n))
    assert cases
    assert [label for label, equal in cases if equal is not True] == []


def test_ci_runs_every_row():
    # and runs no inline script outside the benchmark step: a check that
    # CI alone runs is a row here, where tier-1 runs it too
    named, inline, step = [], [], None
    for line in WORKFLOW.read_text().splitlines():
        if re.match(r"\s*- (name|uses):", line):
            step = line.split(":", 1)[1].strip()
        if "crosscheck.py" in line:
            named += line.split("crosscheck.py", 1)[1].split()
        if re.search(r"\bpython3? -c\b", line):
            inline.append(step)
    assert sorted(named) == sorted(row.name for row in crosscheck.ROWS)
    assert set(inline) <= {"Benchmark outputs match the stored references"}


def test_a_wrong_route_prints_false_and_main_returns_1(monkeypatch, capsys):
    row = next(row for row in crosscheck.ROWS if row.name == "parity-route")
    monkeypatch.setattr(crosscheck, "ROWS", (row._replace(ci_n=row.tier1_n),))

    def wrong_for_k9(k, n):
        coeffs = list(phi_parity_series(k, n).coeffs)
        if k == 9:
            coeffs[n] ^= 1
        return make_series(MOD2, n, coeffs)

    monkeypatch.setattr(crosscheck, "phi_parity_series", wrong_for_k9)
    assert crosscheck.main(["parity-route"]) == 1
    lines = capsys.readouterr().out.splitlines()
    false = [line for line in lines if ": False (" in line]
    short = 2 * row.tier1_n // 3
    assert false[0].startswith(f"k=9 N={row.tier1_n} parity route == divide")
    assert false[1].startswith(f"k=9 N={short} slot read == divide's prefix")
    assert len(false) == 2
    assert sum(": True (" in line for line in lines) == 14


def test_an_unknown_name_exits_before_any_row_runs(capsys):
    assert crosscheck.main(["parity-route", "no-such-row"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no-such-row" in captured.err
    assert crosscheck.main([]) == 2


@pytest.mark.parametrize(
    "against", [None, ROOT], ids=["alone", "against-this-checkout"]
)
def test_bench_mode_writes_each_row_at_each_n(against, monkeypatch, tmp_path, capsys):
    # every n at the tier-1 n, so the three n are one and each slope is
    # undefined; only the keys are checked, never the times.  The sides are
    # this tree, the checkout named by --against, and this tree again
    row = next(row for row in crosscheck.ROWS if row.name == "parity-route")
    monkeypatch.setattr(crosscheck, "ROWS", (row._replace(ci_n=row.tier1_n),))
    path = tmp_path / "BENCH.json"
    flags = [] if against is None else ["--against", str(against)]
    assert crosscheck.main(["--bench", str(path), *flags, "parity-route"]) == 0
    record = json.loads(path.read_text())
    assert set(record) == {"sides", "python", "nproc", "repeats", "rows"}
    sides = 2 + len(flags) // 2
    assert record["sides"] == [crosscheck._git_sha(ROOT)] * sides
    assert record["repeats"] == crosscheck.BENCH_REPEATS
    assert list(record["rows"]) == ["parity-route"]
    bench = record["rows"]["parity-route"]
    assert set(bench) == {"runs", "growth_exp"}
    assert bench["growth_exp"] == [None] * sides
    assert [run["n"] for run in bench["runs"]] == [row.tier1_n] * 3
    for run in bench["runs"]:
        assert set(run) == {"n", "seconds", "peak_rss_mb"}
        assert len(run["seconds"]) == len(run["peak_rss_mb"]) == sides
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_a_crashed_child_is_reported_as_a_crash():
    # the row raises at n = -5 and exits 1, as a False case does, but
    # prints no result line
    crash = r"(?s)parity-route at n=-5 exited 1:\n.*ValueError: truncation"
    with pytest.raises(RuntimeError, match=crash):
        crosscheck._run_fresh("parity-route", -5, crosscheck.SRC)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--against", str(ROOT), "parity-route"], "--against needs --bench"),
        (["--at", "300", "parity-route", "cphi-mod-m"], "--at takes one row"),
        (
            ["--bench", os.devnull, "--at", "300", "parity-route"],
            "--at takes one row",
        ),
    ],
    ids=["against-without-bench", "at-two-rows", "at-with-bench"],
)
def test_against_without_bench_exits_before_any_row_runs(argv, error, capsys):
    assert crosscheck.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err
    assert "usage: " in captured.err
