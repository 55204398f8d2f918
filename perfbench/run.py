"""Run one frobseries benchmark workload and print its metrics.

    python3 perfbench/run.py --workload parity-verify --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. Lines before it start
with ``#``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402
from perfbench.speed import KERNEL_NOMINAL_S, nominal, timed  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("small_s", "s"),
    ("large_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here: no program, stale references, ..."""


def load_program():
    """Import frobseries from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    package = src / "frobseries"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no frobseries sources in {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from frobseries import cli, congruences, frobenius

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported frobseries from {cli.__file__}, not {package}")
    return cli, congruences, frobenius


class Runner:
    """Makes a workload's calls one after another and checks each output."""

    def __init__(self, rungs, refs, jobs: int, out_path: str):
        self.rungs = rungs
        self.refs = refs
        self.jobs = jobs
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0

    def call(self, template, main) -> tuple[float, float]:
        """Make one call; returns (seconds, kernel seconds around it)."""
        argv = workloads.full_argv(template, self.jobs, self.out_path)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        code, elapsed, kernel = timed(self._guarded, main, argv)
        self.attempted += 1
        if not self._output_ok(code, template):
            self.failed += 1
            print(f"# failed: {' '.join(template)}", file=sys.stderr)
        return elapsed, kernel

    @staticmethod
    def _guarded(main, argv):
        try:
            return main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def _output_ok(self, code, template) -> bool:
        if code != 0:
            return False
        try:
            data = Path(self.out_path).read_bytes()
            found = workloads.digest(json.loads(data))
        except (OSError, ValueError, KeyError, TypeError):
            return False
        self.out_bytes += len(data)
        return found == self.refs[tuple(template)]

    def run_rung(self, rung, main) -> list[tuple[float, float]]:
        return [self.call(t, main) for t in rung.calls]

    def run_pass(self, main) -> list[list[tuple[float, float]]]:
        """Per-call samples of one pass, by rung."""
        gc.collect()
        self.out_bytes = 0
        return [self.run_rung(rung, main) for rung in self.rungs]

    def traced_pass(self, cli, congruences, frobenius):
        """One pass with spans; returns (per-rung times, spans per rung)."""
        gc.collect()
        self.out_bytes = 0
        tracer = Tracer()
        tracer.install(layers.wrap_points(frobenius, congruences))
        try:
            main = tracer.wrap("cli.main", cli.main)
            times, rung_spans = [], []
            for rung in self.rungs:
                first = len(tracer.spans)
                times.append(self.run_rung(rung, main))
                rung_spans.append((rung.scale, tracer.spans[first:]))
        finally:
            tracer.uninstall()
        return times, rung_spans


def measure_setup(args) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) from starting a fresh process to its first
    timed call."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]

    def probe() -> float:
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe failed with code {proc.returncode}")
        return elapsed

    samples = []
    for _ in range(SETUP_PROBES):
        to_ready, _, kernel = timed(probe)
        samples.append((to_ready, kernel))
    return samples


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "frobseries").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, jobs: int) -> dict:
    gil_check = getattr(sys, "_is_gil_enabled", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "free_threaded_build": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "gil_enabled": gil_check() if gil_check else True,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
    }


def rung_times(passes) -> list[float]:
    """Nominal time of each rung: the sum over its calls of each call's
    median, so that a burst that hits one call does not move the result."""
    return [
        sum(
            statistics.median(nominal(p[r][c]) for p in passes)
            for c in range(len(calls))
        )
        for r, calls in enumerate(passes[0])
    ]


def end_to_end(setup, passes) -> dict[str, float]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rungs = rung_times(passes)
    return {
        "setup_s": statistics.median(nominal(x) for x in setup),
        "wall_s": sum(rungs),
        "small_s": rungs[0],
        "large_s": rungs[-1],
        "peak_rss_mb": rss_kb / 1024,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: start, set up, warm up, print "ready" and exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, congruences, frobenius = load_program()
        rungs = workloads.rungs(args.workload, args.seed)
        refs = workloads.load_refs(args.workload, args.seed)
    except (BenchError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    jobs = len(os.sched_getaffinity(0))

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        runner = Runner(rungs, refs, jobs, os.path.join(tmp, "out.json"))
        if args.setup_probe:
            runner.run_rung(rungs[0], cli.main)
            print("ready", flush=True)
            return 0 if runner.failed == 0 else 1
        try:
            setup = measure_setup(args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        runner.run_rung(rungs[0], cli.main)  # warm-up, checked

        deadline = perf_counter() + args.seconds
        untraced, traced, traced_layers, out_bytes, spans = [], [], [], [], []
        while True:
            began = perf_counter()
            untraced.append(runner.run_pass(cli.main))
            if args.trace:
                times, rung_spans = runner.traced_pass(cli, congruences, frobenius)
                traced.append(times)
                traced_layers.append(layers.layer_metrics(rung_spans))
                out_bytes.append(runner.out_bytes)
                spans.append(rung_spans)
            now = perf_counter()
            if now + (now - began) > deadline:
                break

    env = environment(args, jobs)
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in traced_layers)
            for name in traced_layers[0]
        }
        metrics["cli.out_bytes"] = statistics.median(out_bytes)
        metrics["trace_overhead_s"] = sum(rung_times(traced)) - sum(
            rung_times(untraced)
        )
        metrics["error_rate"] = runner.failed / runner.attempted
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = end_to_end(setup, untraced)
        units = dict(END_TO_END)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    # samples are [seconds, kernel seconds]; passes are lists of rungs of calls
    record = {
        "environment": env,
        "kernel_nominal_s": KERNEL_NOMINAL_S,
        "setup_samples": setup,
        "untraced_passes": untraced,
        "traced_passes": traced,
        "result": result,
    }
    if args.trace:
        record["spans"] = [
            [
                [[s.sid, s.name, s.parent, s.start, s.end, s.info] for s in rs]
                for _, rs in rung_spans
            ]
            for rung_spans in spans
        ]
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print("# env " + json.dumps(env))
    raw_wall = sum(
        statistics.median(p[r][c][0] for p in untraced)
        for r, calls in enumerate(untraced[0])
        for c in range(len(calls))
    )
    print(
        f"# passes={len(untraced)} attempted={runner.attempted} "
        f"failed={runner.failed} error_rate={runner.failed / runner.attempted:g} "
        f"raw_wall_s={raw_wall:.4f} record={out_file.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
