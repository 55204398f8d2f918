import argparse
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate

import frobseries
import frobseries.series
from frobseries import cli, congruences, frobenius
from frobseries.series import CoefficientRing, make_series
from test_frobenius import _clear_parity_memos

ROOT = Path(__file__).resolve().parents[1]

REPORT_SCHEMA = {
    "type": "object",
    "required": ["reports"],
    "properties": {
        "timestamp": {"type": "string"},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["claim", "n_max", "status", "counterexamples", "route"],
                "properties": {
                    "claim": {
                        "type": "object",
                        "required": ["family", "k", "a", "b", "m"],
                        "properties": {
                            "family": {"enum": ["phi", "cphi"]},
                            "k": {"type": "integer"},
                            "a": {"type": "integer"},
                            "b": {"type": "integer"},
                            "m": {"type": "integer"},
                        },
                    },
                    "n_max": {"type": "integer"},
                    "status": {"enum": ["verified", "refuted", "skipped"]},
                    "counterexamples": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["n", "value"],
                        },
                    },
                    "route": {"type": "string"},
                },
            },
        },
    },
}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_phi_partition_numbers(capsys):
    code, out = run(
        ["expand", "--family", "phi", "--k", "1", "--n", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,1"
    assert lines[-1] == "10,42"
    assert out.endswith("\n")


def test_expand_cphi(capsys):
    code, out = run(
        ["expand", "--family", "cphi", "--k", "2", "--n", "3", "--format", "json",
         "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 4, 9, 20]
    assert doc["route"] == "cphi-constant-term"
    assert "timestamp" not in doc


def test_expand_trivial(capsys):
    code, out = run(
        ["expand", "--family", "phi", "--k", "2", "--n", "0"], capsys
    )
    assert code == 0
    assert out.splitlines()[-1] == "0\t1"


@pytest.mark.parametrize(
    "mod, ring, route",
    [
        ([], "Z", "phi-double-sum"),
        (["--mod", "3"], "Z/3", "phi-double-sum"),
        (["--mod", "2"], "Z/2", "phi-parity-series"),
    ],
)
def test_expand_text_header_names_truncation_and_ring(mod, ring, route, capsys):
    code, out = run(
        ["expand", "--family", "phi", "--k", "4", "--n", "5"] + mod, capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# family=phi k=4 n=5 ring={ring} route={route}"
    assert len(lines) == 7


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_expand_mod_3_prints_the_residues_as_integers(fmt, capsys):
    # the Z/3 series is stored as residue bytes; every format prints the
    # integers of the exact series reduced mod 3
    n = 40
    code, out = run(
        ["expand", "--family", "phi", "--k", "4", "--n", str(n), "--mod", "3",
         "--format", fmt, "--no-timestamp"],
        capsys,
    )
    want = [c % 3 for c in frobenius.phi_series_double_sum(4, n).coeffs]
    pairs = list(enumerate(want))
    expected = {
        "json": json.dumps(
            {"family": "phi", "k": 4, "truncation": n, "modulus": 3,
             "route": "phi-double-sum", "coefficients": want}
        ) + "\n",
        "csv": "\n".join(["n,coefficient", *(f"{i},{c}" for i, c in pairs)]) + "\n",
        "text": "\n".join(
            [f"# family=phi k=4 n={n} ring=Z/3 route=phi-double-sum",
             *(f"{i}\t{c}" for i, c in pairs)]
        ) + "\n",
    }[fmt]
    assert code == 0
    assert out == expected


def test_json_payload_is_one_compact_line(capsys):
    expand = ["expand", "--family", "phi", "--k", "1", "--n", "2000",
              "--format", "json"]
    verify = ["verify", "main", "--primes", "5,7", "--ells", "1,2",
              "--nmax", "20"]
    docs = []
    for argv in (expand + ["--no-timestamp"], verify + ["--no-timestamp"], verify):
        code, out = run(argv, capsys)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        doc = json.loads(out)
        assert out == json.dumps(doc) + "\n"
        docs.append(doc)
    exact = frobenius.phi_series_double_sum(1, 2000).coeffs
    assert docs[0]["coefficients"] == list(exact)
    assert "timestamp" not in docs[1]
    validate(docs[2], REPORT_SCHEMA)
    assert "timestamp" in docs[2]


def test_expand_parity_route_metadata(capsys):
    code, out = run(
        ["expand", "--family", "phi", "--k", "4", "--n", "5", "--mod", "2",
         "--format", "json", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["route"] == "phi-parity-series"


def test_expand_invalid_flags(capsys):
    code, _ = run(["expand", "--family", "phi", "--k", "0", "--n", "3"], capsys)
    assert code == 2
    code, _ = run(["expand", "--family", "phi", "--k", "1"], capsys)
    assert code == 2
    code, _ = run(["expand", "--family", "cphi", "--k", "0", "--n", "3"], capsys)
    assert code == 2
    code, _ = run(["expand", "--family", "cphi", "--k", "2", "--n", "-1"], capsys)
    assert code == 2
    code, _ = run(["expand", "--family", "phi", "--k", "1", "--n", "3",
                   "--mod", "1"], capsys)
    assert code == 2
    code, _ = run(["expand", "--family", "phi", "--k", "1", "--n", "-1",
                   "--mod", "2"], capsys)
    assert code == 2
    for mod in ([], ["--mod", "3"]):
        assert cli.main(["expand", "--family", "phi", "--k", "4", "--n", "-2",
                         *mod]) == 2
        assert capsys.readouterr().err == "error: truncation must be >= 0\n"


def test_verify_main_exit_zero_and_schema(capsys):
    code, out = run(
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "20"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, REPORT_SCHEMA)
    assert len(doc["reports"]) == 2
    assert all(r["status"] == "verified" for r in doc["reports"])


def test_verify_corrupted_provider_exits_one(capsys, monkeypatch):
    real = congruences.default_series_provider

    def corrupted(claim, truncation):
        series, route = real(claim, truncation)
        coeffs = list(series.coeffs)
        coeffs[claim.b] = 1  # flip an expected-zero coefficient
        return make_series(series.ring, series.truncation, coeffs), route

    monkeypatch.setattr(congruences, "default_series_provider", corrupted)
    code, out = run(
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "20"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert any(r["status"] == "refuted" for r in doc["reports"])


def test_verify_cphi_even(capsys):
    code, out = run(
        ["verify", "cphi-even", "--ks", "1,2", "--nmax", "10", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, REPORT_SCHEMA)
    assert "timestamp" not in doc


def test_verify_p_squared(capsys):
    code, out = run(["verify", "p-squared", "--p", "3", "--nmax", "3"], capsys)
    assert code == 0
    assert len(json.loads(out)["reports"]) == 2


def test_verify_gs_lift(capsys):
    code, out = run(
        ["verify", "gs-lift", "--k", "2", "--p", "5", "--r", "3",
         "--lifts", "1", "--nmax", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, REPORT_SCHEMA)


def test_verify_missing_flags(capsys):
    for argv in (
        ["main", "--nmax", "5"],
        ["cphi-even", "--nmax", "5"],
        ["p-squared", "--nmax", "5"],
        ["gs-lift", "--k", "2", "--p", "5", "--nmax", "5"],
    ):
        code, out = run(["verify"] + argv, capsys)
        assert code == 2, argv
        assert out == "", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--primes", "5", "--ells", "1", "--ks", "3"],
        ["verify", "cphi-even", "--ks", "1", "--p", "5"],
        ["verify", "p-squared", "--p", "5", "--lifts", "2"],
        ["verify", "gs-lift", "--k", "2", "--p", "5", "--r", "3", "--primes", "5"],
        # a foreign flag that is a prefix of one of the suite's own flags
        ["verify", "main", "--primes", "5", "--ells", "1", "--p", "7"],
        ["verify", "cphi-even", "--ks", "1", "--k", "2"],
        # the shared flags go after the suite name
        ["verify", "--nmax", "5", "main", "--primes", "5", "--ells", "1"],
        ["expand", "--family", "phi", "--k", "2", "--n", "3", "--bogus"],
    ],
)
def test_verify_foreign_flag_exits_two(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # the parser of the sub-command that the flag reached reports it, with
    # its own usage line: the words before the first flag name it
    words = itertools.takewhile(lambda arg: not arg.startswith("-"), argv)
    usage = f"usage: frobseries {' '.join(words)} [-h]"
    assert captured.err.startswith(usage), captured.err


@pytest.mark.parametrize(
    "argv, usage",
    [
        ([], "frobseries"),
        (["bogus"], "frobseries"),
        (["verify"], "frobseries verify"),
        (["verify", "bogus"], "frobseries verify"),
        (["verify", "main", "main"], "frobseries verify main"),
        (["expand", "--", "--family"], "frobseries expand"),
    ],
)
def test_usage_error_is_reported_under_the_parser_it_reached(argv, usage, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {usage} [-h]"), captured.err


COMMAND_WORDS = {
    (), ("expand",), ("verify",), ("oracle",), ("residues",),
    ("verify", "main"), ("verify", "cphi-even"), ("verify", "p-squared"),
    ("verify", "gs-lift"),
}


def test_each_parser_is_recorded_under_the_words_that_reach_it():
    parsers = cli._parsers()
    assert set(parsers) == COMMAND_WORDS
    assert parsers[()] is cli.build_parser()
    for words, parser in parsers.items():
        assert parser.prog == " ".join(["frobseries", *words])


@pytest.mark.parametrize(
    "words", sorted(COMMAND_WORDS), ids=lambda words: " ".join(words) or "top"
)
def test_help_at_each_level_prints_that_level_usage(words, capsys):
    code, out = run([*words, "-h"], capsys)
    assert code == 0
    assert out.startswith(" ".join(["usage: frobseries", *words, "[-h]"])), out


def _documented_argv():
    """argv of each frobseries call in README's CLI block and in CI."""
    readme = (ROOT / "README.md").read_text().splitlines()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    lines = [line for line in readme if line.startswith("frobseries ")]
    lines += [
        line for line in workflow.replace("\\\n", " ").splitlines()
        if "frobseries " in line
    ]
    # the call ends at a comment, a pipe, a redirect or a closing $( )
    return [
        re.split(r"[#|>)]", line.split("frobseries ", 1)[1])[0].split()
        for line in lines
    ]


def _benchmark_argv(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    return [
        workloads.full_argv(template, 2, "out.json")
        for name in workloads.WORKLOADS
        for variant in range(workloads.VARIANTS)
        for template in workloads.templates(workloads.rungs(name, variant))
    ]


def test_main_parses_once_into_the_namespace_of_the_whole_tree(monkeypatch):
    # main parses with the parser its command words name, once; the
    # namespace equals the one the top-level parser gives for the argv
    documented, benchmark = _documented_argv(), _benchmark_argv(monkeypatch)
    # 8 README calls and 3 CI calls; 4 variants of 3 rungs of 1, 3 and 3 calls
    assert len(documented) == 11 and len(benchmark) == 4 * 3 * (1 + 3 + 3)
    parse_args = argparse.ArgumentParser.parse_args
    parse_known_args = argparse.ArgumentParser.parse_known_args
    for argv in documented + benchmark:
        parsed, parses = [], []

        def counted(parser, *args, **kwargs):
            parses.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        def stop(parser, *args, **kwargs):
            # record the namespace, then exit before the command runs
            parsed.append(parse_args(parser, *args, **kwargs))
            raise SystemExit(0)

        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
            patch.setattr(argparse.ArgumentParser, "parse_args", stop)
            assert cli.main(argv) == 0, argv
        words = itertools.takewhile(lambda arg: not arg.startswith("-"), argv)
        assert parses == [" ".join(["frobseries", *words])], argv
        tree = cli.build_parser().parse_args(argv)
        assert vars(parsed[0]) == vars(tree), argv
        assert tree.func is {"expand": cli.cmd_expand, "verify": cli.cmd_verify,
                             "oracle": cli.cmd_oracle,
                             "residues": cli.cmd_residues}[tree.command]


SUITE_FLAGS = {
    "main": {"--primes", "--ells"},
    "cphi-even": {"--ks"},
    "p-squared": {"--p"},
    "gs-lift": {"--k", "--p", "--r", "--lifts"},
}


@pytest.mark.parametrize("suite", sorted(SUITE_FLAGS))
def test_verify_suite_help_lists_only_its_flags(suite, capsys):
    code, out = run(["verify", suite, "--help"], capsys)
    assert code == 0
    shared = {"--help", "--nmax", "--jobs", "--out", "--no-timestamp"}
    assert set(re.findall(r"--[a-z-]+", out)) == SUITE_FLAGS[suite] | shared


@pytest.mark.parametrize(
    "argv",
    [
        ["main", "--primes", "5,x", "--ells", "1"],
        ["cphi-even", "--ks", "1,a"],
        ["main", "--primes", ",", "--ells", "1"],
        ["cphi-even", "--ks", ","],
    ],
)
def test_verify_malformed_or_empty_list_exits_two(argv, capsys):
    code = cli.main(["verify"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "_int_list" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["main", "--primes", "5", "--ells", "1", "--jobs", "0"],
        ["main", "--primes", "5", "--ells", "1", "--jobs", "-4"],
        ["main", "--primes", "5", "--ells", "1", "--nmax", "-1"],
        ["cphi-even", "--ks", "1", "--nmax", "-1"],
        ["p-squared", "--p", "3", "--nmax", "-1"],
        ["gs-lift", "--k", "2", "--p", "5", "--r", "3", "--nmax", "-1"],
    ],
)
def test_verify_bad_jobs_or_nmax_exit_two(argv, capsys):
    code, out = run(["verify"] + argv, capsys)
    assert code == 2
    assert out == ""


def test_verify_short_provider_exits_three(capsys, monkeypatch):
    real = congruences.default_series_provider

    def short(claim, truncation):
        series, route = real(claim, truncation)
        coeffs = series.coeffs[:-1]
        return make_series(series.ring, truncation - 1, coeffs), route

    monkeypatch.setattr(congruences, "default_series_provider", short)
    code, out = run(
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5"],
        capsys,
    )
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--family", "phi", "--k", "1", "--n", "3",
         "--out", "no-such-dir/x"],
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5",
         "--out", "no-such-dir/x"],
        # an empty path, as from --out "$UNSET", is a path, not stdout
        ["expand", "--family", "phi", "--k", "1", "--n", "3", "--out", ""],
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5",
         "--out", ""],
    ],
)
def test_unwritable_out_exits_two(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_unopenable_out_exits_two_before_computing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(frobenius, "expand", never)
    monkeypatch.setattr(congruences, "main_theorem_suite", never)
    for argv in (
        ["expand", "--family", "phi", "--k", "1", "--n", "3", "--out", str(tmp_path)],
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5",
         "--out", str(tmp_path / "missing" / "x.json")],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_out_check_keeps_an_existing_file(tmp_path, capsys):
    path = tmp_path / "keep.txt"
    path.write_text("earlier payload\n")
    code = cli.main(["expand", "--family", "phi", "--k", "0", "--n", "3",
                     "--out", str(path)])
    capsys.readouterr()
    assert code == 2
    assert path.read_text() == "earlier payload\n"


def test_out_replaces_a_longer_file(tmp_path, capsys):
    path = tmp_path / "old.txt"
    path.write_text("stale line\n" * 1000)
    argv = ["expand", "--family", "phi", "--k", "1", "--n", "5"]
    code, expected = run(argv, capsys)
    assert cli.main(argv + ["--out", str(path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == expected


@pytest.mark.parametrize("device, code", [("/dev/null", 0), ("/dev/full", 2)])
def test_out_to_a_device(device, code, capsys):
    # a device cannot be truncated: it is written as it is, and a failed
    # write still exits 2
    if not os.path.exists(device):
        pytest.skip(f"no {device} here")
    argv = ["expand", "--family", "phi", "--k", "1", "--n", "3000"]
    assert cli.main(argv + ["--out", device]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") == (code == 2)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["expand", "--family", "phi", "--k", "0", "--n", "3"], 2),
        (["oracle", "--family", "cphi", "--k", "2", "--weight", "12"], 3),
    ],
)
def test_failed_run_leaves_no_out_file(argv, code, tmp_path, capsys):
    path = tmp_path / "new.txt"
    assert cli.main(argv + ["--out", str(path)]) == code
    capsys.readouterr()
    assert not path.exists()


@pytest.mark.parametrize(
    "n",
    [
        "100000000000000000000",  # no index holds it: OverflowError
        "10000000000000000",  # its list passes the address space: MemoryError
    ],
)
def test_request_too_large_exits_three(n, tmp_path, capsys):
    # each fails at once, before any memory is touched; exit 1 would read
    # as a refuted claim
    argv = ["expand", "--family", "phi", "--k", "1", "--n", n]
    path = tmp_path / "new.txt"
    for out in ([], ["--out", str(path)]):
        assert cli.main(argv + out) == cli.EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("guard: ")
        assert "Traceback" not in captured.err
    assert not path.exists()


HUGE = "100000000000000000000"  # N = 10^20


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", HUGE],
        ["expand", "--family", "phi", "--k", "4", "--mod", "2", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "1", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "2", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "6", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "6", "--mod", "2", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "5", "--mod", "25", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "4", "--mod", "3", "--n", HUGE],
        ["expand", "--family", "phi", "--k", "4", "--mod", "3", "--n", HUGE],
        ["expand", "--family", "phi", "--k", "4", "--mod", "25", "--n", HUGE],
        ["expand", "--family", "phi", "--k", "4", "--mod", "5", "--n", HUGE],
        ["expand", "--family", "phi", "--k", "4", "--mod", "13", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "5", "--mod", "5", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "13", "--mod", "13", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "6", "--n", HUGE],
        ["expand", "--family", "cphi", "--k", "6", "--mod", "2", "--n", HUGE],
    ],
)
def test_every_route_refuses_a_huge_truncation_at_once(argv, monkeypatch, capsys):
    # each route allocates before it lists any exponent: the parity route's
    # Euler table its bit buffer, the double sum its numerator row, and
    # cphi its theta row.  So a truncation near 10^20
    # fails at that allocation instead of walking ~10^10 triangular numbers
    # first, and the parity route's memos gain no entry.  The route slot is
    # emptied before every build, so it holds nothing after the refusal
    huge = []
    listing = frobseries.series.triangular_exponents

    def guarded(limit):
        if limit > 10**9:
            huge.append(limit)
            raise AssertionError(f"exponents listed to {limit}")
        return listing(limit)

    monkeypatch.setattr(frobseries.series, "triangular_exponents", guarded)
    slot = frobenius._route_slot
    frobenius.phi_parity_series(4, 100)
    assert slot[0] is not None
    memos = (frobseries.series._euler_table, frobseries.series._parity_plan)
    sizes = [memo.cache_info().currsize for memo in memos]
    assert cli.main(argv) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard: ")
    assert huge == []
    assert [memo.cache_info().currsize for memo in memos] == sizes
    assert slot == [None]


def test_console_entry_point_exit_status(tmp_path):
    src = Path(frobseries.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def status(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "frobseries.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout

    code, out = status("expand", "--family", "cphi", "--k", "2", "--n", "3",
                       "--format", "csv")
    assert code == cli.EXIT_OK
    assert out.splitlines()[-1] == "3,20"
    code, out = status("expand", "--family", "phi", "--k", "0", "--n", "3")
    assert code == cli.EXIT_USAGE
    assert out == ""


def test_verify_json_round_trip(tmp_path, capsys):
    path = tmp_path / "reports.json"
    code, _ = run(
        ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    on_disk = json.loads(path.read_text())
    in_memory = congruences.main_theorem_suite([5], [1], 5)
    assert on_disk["reports"] == [r.to_dict() for r in in_memory]


def test_verify_deterministic_bytes(capsys):
    argv = ["verify", "main", "--primes", "5", "--ells", "1", "--nmax", "5",
            "--no-timestamp"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    # a result depends on its arguments alone: --nmax 200 run after --nmax
    # 2000, with the parity route's memos holding the tables of larger bit
    # lengths and the route slot the last series built at 2000, prints the
    # bytes it prints from empty memos
    _clear_parity_memos()
    argv = ["verify", "main", "--primes", "5,7,11,13", "--ells", "1,2",
            "--no-timestamp", "--nmax"]
    cold = run(argv + ["200"], capsys)
    assert run(argv + ["2000"], capsys)[0] == 0
    assert run(argv + ["200"], capsys) == cold


def test_shared_parser_leaks_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    reports_path, csv_path = tmp_path / "reports.json", tmp_path / "out.csv"
    gs_lift = ["verify", "gs-lift", "--k", "2", "--p", "5", "--r", "3",
               "--nmax", "3", "--no-timestamp"]
    expand = ["expand", "--family", "phi", "--k", "1", "--n", "10"]
    assert cli.main(gs_lift + ["--lifts", "2", "--out", str(reports_path)]) == 0
    assert len(json.loads(reports_path.read_text())["reports"]) == 3
    assert cli.main(expand + ["--mod", "3", "--format", "csv",
                              "--out", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[-1] == "10,0"  # p(10) = 42

    args = cli.build_parser().parse_args(gs_lift)
    assert (args.lifts, args.out) == (1, None)
    args = cli.build_parser().parse_args(expand)
    assert (args.mod, args.format, args.out) == (None, "text", None)
    code, out = run(gs_lift, capsys)
    assert code == 0
    reports = congruences.garvan_sellers_lift_check(2, 5, 3, 1, 3)
    assert json.loads(out) == {"reports": [r.to_dict() for r in reports]}
    code, out = run(expand, capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("# family=phi k=1 n=10 ring=Z ")
    assert out.splitlines()[-1] == "10\t42"

    assert cli.main(["expand", "--family", "phi", "--k", "1"]) == 2
    assert cli.main(["verify", "main", "--primes", "5,x", "--ells", "1"]) == 2
    capsys.readouterr()
    code, out = run(expand + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "10,42"


def test_oracle_agreement(capsys):
    code, out = run(
        ["oracle", "--family", "phi", "--k", "2", "--weight", "3"], capsys
    )
    assert code == 0
    assert "count=5" in out and "agrees" in out

    code, out = run(
        ["oracle", "--family", "cphi", "--k", "2", "--weight", "1"], capsys
    )
    assert code == 0
    assert "count=4" in out and "agrees" in out

    code, out = run(
        ["oracle", "--family", "phi", "--k", "1", "--weight", "0"], capsys
    )
    assert code == 0
    assert "count=1" in out


def test_oracle_disagreement_exits_one(capsys, monkeypatch):
    real = frobenius.phi_series_double_sum

    def off_by_one(k, truncation, ring):
        series = real(k, truncation, ring)
        coeffs = list(series.coeffs)
        coeffs[truncation] += 1
        return make_series(series.ring, series.truncation, coeffs)

    monkeypatch.setattr(frobenius, "phi_series_double_sum", off_by_one)
    code, out = run(
        ["oracle", "--family", "phi", "--k", "2", "--weight", "3"], capsys
    )
    assert code == 1
    assert "count=5 series=6 DISAGREES" in out


def test_oracle_guard_exit_three(capsys):
    code, _ = run(
        ["oracle", "--family", "cphi", "--k", "2", "--weight", "12"], capsys
    )
    assert code == 3


def test_residues(capsys):
    code, out = run(["residues", "--p", "5"], capsys)
    assert code == 0
    assert "r=3" in out and "r=4" in out
    eligible = [line for line in out.splitlines() if line.endswith("eligible")]
    assert len(eligible) == 2

    code, out = run(["residues", "--p", "7"], capsys)
    assert code == 0
    eligible = [line for line in out.splitlines() if line.endswith("eligible")]
    assert len(eligible) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--family", "phi", "--k", "2", "--weight", "3"],
        ["residues", "--p", "7"],
    ],
)
def test_plain_text_commands_refuse_no_timestamp(argv, capsys):
    # --no-timestamp stamps JSON only, so only expand and verify take it
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "unrecognized arguments: --no-timestamp" in captured.err


def test_residues_composite_exit_two(capsys):
    code, _ = run(["residues", "--p", "4"], capsys)
    assert code == 2


def test_unknown_subcommand_exit_two(capsys):
    assert cli.main(["frobulate"]) == 2
