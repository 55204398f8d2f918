"""Every cross-check row at its tier-1 n, and the runner that CI calls."""

import json
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


def test_bench_mode_writes_each_row_at_each_n(monkeypatch, tmp_path, capsys):
    # every n at the tier-1 n, so the three n are one and the slope is
    # undefined; only the keys are checked, never the times.  The first
    # row runs twice, and the A/A repeat puts the two results side by side
    row = next(row for row in crosscheck.ROWS if row.name == "parity-route")
    monkeypatch.setattr(crosscheck, "ROWS", (row._replace(ci_n=row.tier1_n),))
    path = tmp_path / "BENCH.json"
    assert crosscheck.main(["--bench", str(path), "parity-route"]) == 0
    record = json.loads(path.read_text())
    assert set(record) == {
        "git_sha", "python", "nproc", "repeats", "rows", "aa_repeat"
    }
    assert record["repeats"] == crosscheck.BENCH_REPEATS
    assert list(record["rows"]) == ["parity-route"]
    bench = record["rows"]["parity-route"]
    assert set(bench) == {"runs", "growth_exp"}
    assert [run["n"] for run in bench["runs"]] == [row.tier1_n] * 3
    assert all(set(run) == {"n", "seconds", "peak_rss_mb"} for run in bench["runs"])
    assert bench["growth_exp"] is None
    repeat = record["aa_repeat"]
    assert set(repeat) == {"row", "runs"} and repeat["row"] == "parity-route"
    assert [run["n"] for run in repeat["runs"]] == [row.tier1_n] * 3
    for first, pair in zip(bench["runs"], repeat["runs"]):
        assert set(pair) == {"n", "seconds", "peak_rss_mb"}
        assert [pair[key][0] for key in ("seconds", "peak_rss_mb")] == [
            first["seconds"], first["peak_rss_mb"]
        ]
        assert len(pair["seconds"]) == len(pair["peak_rss_mb"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_bench_against_a_checkout_puts_both_trees_side_by_side(
    monkeypatch, tmp_path, capsys
):
    # against this same checkout: each n holds this tree's best run and the
    # checkout's, in that order, and the A/A repeat stays this tree's alone
    row = next(row for row in crosscheck.ROWS if row.name == "parity-route")
    monkeypatch.setattr(crosscheck, "ROWS", (row._replace(ci_n=row.tier1_n),))
    path = tmp_path / "BENCH.json"
    argv = ["--bench", str(path), "--against", str(ROOT), "parity-route"]
    assert crosscheck.main(argv) == 0
    record = json.loads(path.read_text())
    assert set(record) == {
        "git_sha", "against_git_sha", "python", "nproc", "repeats", "rows",
        "aa_repeat",
    }
    assert record["against_git_sha"] == record["git_sha"]
    bench = record["rows"]["parity-route"]
    assert set(bench) == {"runs", "growth_exp"}
    assert bench["growth_exp"] == [None, None]
    for runs in (bench["runs"], record["aa_repeat"]["runs"]):
        assert [run["n"] for run in runs] == [row.tier1_n] * 3
        for run in runs:
            assert set(run) == {"n", "seconds", "peak_rss_mb"}
            assert len(run["seconds"]) == len(run["peak_rss_mb"]) == 2
    for both, pair in zip(bench["runs"], record["aa_repeat"]["runs"]):
        assert pair["seconds"][0] == both["seconds"][0]
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_against_without_bench_exits_before_any_row_runs(capsys):
    assert crosscheck.main(["--against", str(ROOT), "parity-route"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--against needs --bench" in captured.err
