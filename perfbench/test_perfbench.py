"""Self-tests of the benchmark harness: output checking, span accounting,
and wrapping that leaves the program as it found it."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import layers, run, speed, tracer, workloads

cli, congruences, frobenius = run.load_program()


def _flip_one_coefficient(argv):
    code = cli.main(argv)
    out = Path(argv[argv.index("--out") + 1])
    doc = json.loads(out.read_text())
    doc["coefficients"][7] += 1
    out.write_text(json.dumps(doc))
    return code


def test_flipped_coefficient_counts_in_error_rate(tmp_path):
    small = workloads.rungs("exact-expand", 0)[:1]
    refs = workloads.load_refs("exact-expand", 0)
    runner = run.Runner(small, refs, 1, str(tmp_path / "out.json"))
    runner.run_pass(cli.main)
    assert (runner.attempted, runner.failed) == (3, 0)
    runner.run_pass(_flip_one_coefficient)
    assert (runner.attempted, runner.failed) == (6, 3)


def test_nonzero_exit_counts_as_failure(tmp_path):
    small = workloads.rungs("exact-expand", 0)[:1]
    refs = workloads.load_refs("exact-expand", 0)
    runner = run.Runner(small, refs, 1, str(tmp_path / "out.json"))
    runner.call(small[0].calls[0], lambda argv: cli.main(argv) or 1)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_self_time_subtracts_union_of_overlapping_children():
    S = tracer.Span
    spans = [
        S(0, "suite", None, 0.0, 10.0),
        S(1, "claim", 0, 1.0, 5.0),  # pool thread 1
        S(2, "claim", 0, 3.0, 8.0),  # pool thread 2, overlaps 1
        S(3, "route", 1, 2.0, 3.0),
        S(4, "route", 2, 7.0, 12.0),  # clipped to its parent
    ]
    self_t = tracer.self_times(spans)
    assert self_t == {0: 3.0, 1: 3.0, 2: 4.0, 3: 1.0, 4: 5.0}


def test_pool_thread_spans_link_to_their_suite():
    t = tracer.Tracer()
    claim = t.wrap("claim", lambda: time.sleep(0.05))

    def suite():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(claim) for _ in range(2)]:
                f.result()

    t.wrap("suite", suite)()
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["suite"]
    claims = by_name["claim"]
    assert [c.parent for c in claims] == [outer.sid, outer.sid]
    union = max(c.end for c in claims) - min(c.start for c in claims)
    assert union < sum(c.duration for c in claims)  # they did overlap
    self_t = tracer.self_times(t.spans)
    assert self_t[outer.sid] == pytest.approx(outer.duration - union)


def _wrapped_attributes():
    return {
        (module.__name__, attr): getattr(module, attr)
        for module, attr, _, _ in layers.wrap_points(frobenius, congruences)
    }


def test_install_and_uninstall_restore_module_attributes(tmp_path):
    before = _wrapped_attributes()
    t = tracer.Tracer()
    t.install(layers.wrap_points(frobenius, congruences))
    try:
        during = _wrapped_attributes()
        assert all(during[key] is not before[key] for key in before)
        out = str(tmp_path / "out.json")
        code = t.wrap("cli.main", cli.main)(
            ["verify", "main", "--primes", "5", "--ells", "1,2",
             "--nmax", "5", "--jobs", "2", "--no-timestamp", "--out", out]
        )
        assert code == 0
    finally:
        t.uninstall()
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)

    m = layers.layer_metrics([(5, t.spans)])
    assert m["congruences.verify_claim.calls"] == 4
    assert m["congruences.series_builds"] == 4
    assert m["congruences.distinct_series"] == 2
    assert m["congruences.build_reuse"] == 0.5
    assert m["frobenius.phi_parity_series.calls"] == 4


def test_traced_pass_restores_attributes_when_a_call_raises(tmp_path, monkeypatch):
    before = _wrapped_attributes()
    runner = run.Runner(workloads.rungs("exact-expand", 0)[:1], {}, 1,
                        str(tmp_path / "out.json"))

    def boom(rung, main):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "run_rung", boom)
    with pytest.raises(RuntimeError):
        runner.traced_pass(cli, congruences, frobenius)
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_variant_has_references(workload):
    for seed in range(workloads.VARIANTS):
        refs = workloads.load_refs(workload, seed)
        calls = workloads.templates(workloads.rungs(workload, seed))
        assert sorted(refs) == sorted(tuple(c) for c in calls)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-expand",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""


def test_kernel_pinning_restores_affinity():
    before = os.sched_getaffinity(0)
    assert speed.all_cpus_kernel_s() > 0
    assert os.sched_getaffinity(0) == before


def test_nominal_rescales_by_the_kernel():
    assert speed.nominal((2.0, 2 * speed.KERNEL_NOMINAL_S)) == pytest.approx(1.0)
    _, elapsed, kernel = speed.timed(time.sleep, 0.01)
    assert elapsed >= 0.01 and kernel > 0
