"""polysched benchmark: run one workload of `polysched` commands and print its metrics.

    python3 bench/run.py --workload solve-seeded --seed 1 --seconds 60 --trace 0

The commands run in this process through `polysched.cli.main(argv)` with
stdout captured, on files the benchmark writes under `.bench_work/`. One
closed-loop client sends the next command only after the previous one
returns; there are no threads. A run repeats whole passes over the
workload's ops, so every run measures the same mix, and stops at the pass
boundary nearest to `--seconds`. Every output is checked outside the timed
region.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` untraced and traced passes alternate, and the line holds the
per-layer metrics per traced pass and the tracing overhead; the spans go
to `.bench_out/spans-<workload>.jsonl`. The line before the last is the
run's provenance. The metric names and units are those of BENCHMARK.json.
Exit code 0 on a completed run, even when outputs failed their checks
(they are counted in `failed`); 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-seeded", "bound-and-reduce")
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import polysched.cli; "
                "print(time.perf_counter() - t)")


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_seconds() -> float:
    """Time a fresh interpreter takes to import polysched."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def set_up(build, workdir: Path):
    """Import polysched in a fresh interpreter and write the inputs; returns
    the set-up time and the ops of one pass."""
    t_import = import_seconds()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    ops = build(workdir)
    return t_import + time.perf_counter() - t0, ops


class Runner:
    """Runs passes over the ops; keeps per-op latencies and failures."""

    def __init__(self, cli_main, ops, expected: list[str] | None):
        self.cli_main = cli_main
        self.ops = ops
        self.expected = expected
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.digests: list[str] = []

    def run_pass(self, recorder=None) -> float:
        """One pass over the ops; returns the summed command time."""
        busy = 0.0
        self.digests = []
        for i, op in enumerate(self.ops):
            out, err = io.StringIO(), io.StringIO()
            rc, crash = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is not None:
                    root = recorder.begin_op(self.attempted)
                    recorder.active = True
                t0 = time.perf_counter()
                try:
                    rc = self.cli_main(op.argv)
                except Exception as exc:  # a crash is a failed op, not a failed benchmark
                    crash = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if recorder is not None:
                    recorder.active = False
                    recorder.close(root)
            busy += dt
            self.attempted += 1
            self.latencies.append(dt)
            stdout = out.getvalue()
            self.digests.append(stdout_digest(stdout))
            try:
                reason = crash or op.check(rc, stdout)
            except (ValueError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is None and self.expected is not None and self.expected[i] != self.digests[i]:
                reason = "stdout differs from the stored canonical digest"
            if reason is not None:
                self.failures.append(f"op {i} ({op.argv[0]}): {reason}")
        return busy


def another_pass(start: float, seconds: float, passes: int) -> bool:
    """Whether one more whole pass ends the run nearer to `seconds` after
    `start` than stopping now; a run makes at least one pass."""
    elapsed = time.perf_counter() - start
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(runner: Runner, busy: float, setup_samples: list[float]) -> dict[str, float]:
    lat = runner.latencies
    return {
        "ops_per_s": len(lat) / busy,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p95_ms": 1000 * percentile(lat, 95),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(runner: Runner, seconds: float, best_bound,
               spans_path: Path) -> tuple[int, dict[str, float]]:
    """Alternate untraced and traced passes for about `seconds`, then write
    the spans; returns the number of pass pairs and the per-layer metrics
    per traced pass."""
    from spans import RATIOS, Recorder, layer_metrics

    ops = runner.ops
    recorder = Recorder()
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    recorder.install()
    try:
        while another_pass(start, seconds, passes):
            plain += runner.run_pass()
            traced += runner.run_pass(recorder)
            passes += 1
    finally:
        recorder.uninstall()
    bound_of: dict = {}

    def best_bound_value(instance):
        key = (instance.n, instance.edges, instance.growth)
        if key not in bound_of:
            bound_of[key] = best_bound(instance).value
        return bound_of[key]

    def chain_of(op_id):
        """Op ids run on across passes, so chains of different passes differ."""
        chain = ops[op_id % len(ops)].chain
        return None if chain is None else (op_id // len(ops), chain)

    values = layer_metrics(recorder, chain_of, best_bound_value)
    for name in values:
        if name not in RATIOS:
            values[name] /= passes
    values["trace.overhead_pct"] = 100 * (traced / plain - 1)
    values["trace.ops_per_pass"] = len(ops)
    recorder.write(spans_path)
    return passes, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops per pass, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's canonical stdout digests as the reference")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "polysched" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC}/polysched and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import polysched.cli
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    def build(d: Path):
        return workloads.build(args.workload, args.seed, d, args.size)

    try:
        setup_s, ops = set_up(build, workdir / "run")
        setup_samples = [setup_s]
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        ref = stored.get(args.workload, {})
        expected = None
        if args.size == "full" and ref.get("seed") == args.seed and not args.record_digests:
            expected = ref["ops"]
        runner = Runner(polysched.cli.main, ops, expected)
        start = time.perf_counter()
        passes = 0

        if args.trace == 0:
            busy = 0.0
            while another_pass(start, args.seconds, passes):
                busy += runner.run_pass()
                passes += 1
                # further set-ups spread evenly over the run, between passes, so
                # that their median does not hang on the machine's speed in the
                # few seconds before the first pass
                elapsed = time.perf_counter() - start
                while (len(setup_samples) < SETUP_REPEATS and
                       (len(setup_samples) - 1) * args.seconds <= elapsed * (SETUP_REPEATS - 1)):
                    setup_samples.append(set_up(build, workdir / "setup")[0])
            while len(setup_samples) < SETUP_REPEATS:
                setup_samples.append(set_up(build, workdir / "setup")[0])
            values = end_to_end(runner, busy, setup_samples)
            listed = spec["end_to_end"]
        else:
            passes, values = traced_run(
                runner, args.seconds, workloads.bounds.best_bound,
                ROOT / ".bench_out" / f"spans-{args.workload}.jsonl")
            listed = spec["per_layer"]

        if args.record_digests:
            stored[args.workload] = {"seed": args.seed, "ops": runner.digests}
            DIGESTS.write_text(json.dumps(stored, indent=1) + "\n")

        provenance = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "python": platform.python_version(), "git_sha": git_sha(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "passes": passes, "ops_per_pass": len(ops),
            "latency_samples": len(runner.latencies), "setup_repeats": len(setup_samples),
            "digest_checked": expected is not None, "failures": runner.failures[:20],
        }
        print(json.dumps({"provenance": provenance}))
        print(json.dumps({
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in listed},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
