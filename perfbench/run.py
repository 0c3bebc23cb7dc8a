"""dysonmap benchmark: run one workload as fresh `dysonmap` CLI processes.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off: set-up probes,
then CLI invocations, one after another (a closed loop of one client),
while the next one still fits in S seconds; at least one always runs.
--trace 1 runs one untraced and one traced invocation and reports the
per-layer metrics from the traced one (see tracer.py).  Every invocation's
outputs are checked against the recorded reference (see verdict.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name and unit, and the run's full record is written to
`.perfbench_work/<workload>-seed<N>-trace<T>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import verdict
from workloads import EXPECTED_EXIT, VARIANTS, WORKLOADS, Invocation, child_env, invocation

BENCH_DIR = Path(__file__).resolve().parent
CONSOLE_SCRIPT = "import sys; from dysonmap.cli import main; sys.exit(main())"
SETUP_PROBES = 3
# Every child is killed once the run has lasted this long, so that the run
# ends well inside its 180 s limit even if the program hangs.
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool


class Runner:
    """Starts the children of one benchmark run and enforces its deadline."""

    def __init__(self, root: Path, inv: Invocation, work: Path):
        self.root = root
        self.inv = inv
        self.work = work
        self.env = child_env(root, inv)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def _spawn(self, argv, log: Path) -> tuple[subprocess.Popen, float]:
        with open(log, "wb") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)
        return proc, start

    def _wait(self, proc: subprocess.Popen, start: float) -> Sample:
        """Reap `proc` with wait4, whose rusage covers its reaped descendants."""
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # workers left behind by a killed command
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, fired.is_set())

    def setup_probe(self) -> float:
        """Seconds from process launch to a built scenario (see setup_probe.py)."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.inv.scenario,
                json.dumps(self.inv.sets)]
        log = self.work / "setup_probe.log"
        proc, start = self._spawn(argv, log)
        sample = self._wait(proc, start)
        if sample.exit_code != 0:
            raise BenchError(f"set-up probe failed:\n{log.read_text()}")
        report = json.loads(log.read_text().splitlines()[-1])
        package = Path(report["package"]).resolve()
        if not package.is_relative_to((self.root / "src").resolve()):
            raise BenchError(f"imported dysonmap from {package}, not from this checkout")
        return report["done_ns"] / 1e9 - start

    def cli(self, trace_dir: Path | None = None) -> tuple[Sample, dict | None, Path]:
        """One CLI invocation; returns its sample, verdict record and out dir."""
        self.count += 1
        out = self.work / f"out{self.count}"
        shutil.rmtree(out, ignore_errors=True)
        args = [*self.inv.args, "--out", str(out)]
        if trace_dir is None:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_dir),
                    f"invocation-{self.count}", *args]
        proc, start = self._spawn(argv, self.work / f"cli{self.count}.log")
        sample = self._wait(proc, start)
        rec = None
        if not sample.timed_out:
            try:
                rec = verdict.record(self.inv.command, out, sample.exit_code)
            except (OSError, ValueError, KeyError, IndexError):
                pass  # gate() reports the missing or unreadable outputs
        return sample, rec, out


def machine_probe() -> dict:
    """Fixed numpy kernels timed next to every run, to expose machine drift.

    One BLAS-bound kernel (complex 256x256 matmuls) and one overhead-bound
    kernel (a Python loop of 32x32 matmuls, like one RK4 stage).  Recorded,
    never gated.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    small, y = big[:32, :32].copy(), big[32:64, :32].copy()
    gemm, loop = [], []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(10):
            big @ big
        gemm.append(time.perf_counter() - t)
        t = time.perf_counter()
        for _ in range(2000):
            y @ small + y
        loop.append(time.perf_counter() - t)
    return {"gemm256_x10_s": statistics.median(gemm),
            "matmul32_loop_x2000_s": statistics.median(loop)}


def versions() -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count()}


def load_reference(workload: str, variant: int) -> dict:
    path = BENCH_DIR / "reference" / f"{workload}.json"
    try:
        return json.loads(path.read_text())["variants"][str(variant)]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference for {workload} variant {variant} in {path}") from exc


def gate(sample: Sample, rec: dict | None, ref: dict) -> list[str]:
    if sample.timed_out:
        return ["killed at the run deadline"]
    if rec is None:
        return ["outputs missing or unreadable"]
    return verdict.mismatches(rec, ref)


def measure(runner: Runner, seconds: float, ref: dict) -> tuple[dict, list[list[str]], dict]:
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    samples, problems, identical = [], [], []
    start = time.monotonic()
    while True:
        sample, rec, _ = runner.cli()
        samples.append(sample)
        problems.append(gate(sample, rec, ref))
        identical.append(rec is not None and verdict.identical(rec, ref))
        if time.monotonic() - start + sample.wall_s > seconds:
            break
    walls = [s.wall_s for s in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "points_per_s": statistics.median(runner.inv.points / w for w in walls),
    }
    info = {"invocations": len(samples), "setup_samples_s": setups, "wall_samples_s": walls,
            "exit_codes": [s.exit_code for s in samples], "outputs_identical": identical}
    return metrics, problems, info


def trace(runner: Runner, ref: dict) -> tuple[dict, list[list[str]], dict]:
    plain, rec, _ = runner.cli()
    problems = [gate(plain, rec, ref)]
    trace_dir = runner.work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    traced, rec, out = runner.cli(trace_dir)
    problems.append(gate(traced, rec, ref))
    records = tracer.read_records(trace_dir)
    metrics = tracer.layer_metrics(records)
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    with open(runner.work / "spans.jsonl", "w") as fh:
        for flushed in records:
            for span in flushed["spans"]:
                fh.write(json.dumps({**span, "pid": flushed["pid"]}) + "\n")
    info = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
            "exit_codes": [plain.exit_code, traced.exit_code]}
    return metrics, problems, info


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dysonmap" / "cli.py").is_file():
        raise BenchError(f"{root} holds no dysonmap source tree (src/dysonmap)")
    variant = args.seed % VARIANTS
    ref = load_reference(args.workload, variant)
    inv = invocation(args.workload, args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, inv, work)

    probe = machine_probe()
    if args.trace:
        units = metric_units("per_layer")
        metrics, problems, info = trace(runner, ref)
    else:
        units = metric_units("end_to_end")
        metrics, problems, info = measure(runner, args.seconds, ref)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    env_versions = versions()

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    env_note = " ".join(f"{k}={v}" for k, v in inv.env.items()) or "default threads"
    print(f"workload {args.workload} seed {args.seed} (variant {variant}) trace {args.trace}")
    print(f"  command: dysonmap {' '.join(inv.args)}   [{env_note}]")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ops_ratio':52s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    for i, p in enumerate(problems):
        for line in p:
            print(f"  invocation {i + 1} FAILED: {line}")
    print(f"  info: {json.dumps(info)}")
    print(f"  machine probe: {json.dumps(probe)}")
    print(f"  versions: {json.dumps(env_versions)}")
    full = {**result, "workload": args.workload, "seed": args.seed, "variant": variant,
            "command": inv.args, "env": inv.env, "expected_exit": EXPECTED_EXIT[args.workload],
            "failed_ops_ratio": failed / attempted, "problems": problems, "info": info,
            "machine_probe": probe, "versions": env_versions}
    (work / "result.json").write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
