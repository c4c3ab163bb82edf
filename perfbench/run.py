"""Benchmark of the decminimax simulator.

    python3 perfbench/run.py --workload storm_online --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run of one workload repeats whole rounds of operations in this process
for --seconds (at least MIN_ROUNDS rounds). A round is `probes` set-up
probes and one operation: run_experiment on the workload's config, then
write_outputs. The first operation's files are checked (see checks.py);
every later one must write the same bytes. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 each round also runs the operation once under the tracer
(layertrace.py) and the line holds the per-layer metrics. --workload all
runs every workload in a fresh process of its own and prints all their
metrics.

The host's speed drifts by tens of percent over seconds, so every timed
item (a probe or an operation) is sampled for the host's speed while it
runs and its times are scaled to a fixed reference speed (SpeedSampler).
The raw medians go to standard error for reference.
"""

import os

# One BLAS thread: the host has two shared cores, and a second BLAS thread
# spinning beside the program times the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import checks
import layertrace
from workloads import WORKLOADS, import_program, make_config, probe_config, \
    warmup_config

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2
SAMPLE_EVERY_S = 0.005   # process CPU seconds between speed samples
MIN_SAMPLES = 20         # an item shorter than this many samples borrows earlier ones
TICK_REF_S = 0.0002      # reference wall seconds of one tick()
END_TO_END_UNITS = {"seed_rounds_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def tick() -> float:
    """A small fixed piece of work like the program's own: a Python loop
    and small numpy operations. It never calls the program, so its time
    moves only with the host's speed."""
    a = np.arange(24.0).reshape(8, 3)
    total = 0.0
    for _ in range(40):
        total += float((a * 1.0001 + 0.5).sum())
    for i in range(600):
        total += i * 0.5
    return total


def timed(fn):
    """fn's (wall seconds, process CPU seconds, result)."""
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return time.perf_counter() - w0, time.process_time() - c0, out


class SpeedSampler:
    """Measures items at the host's reference speed.

    While an item runs, a profiling timer interrupts it every
    SAMPLE_EVERY_S of process CPU time, and the handler times one tick().
    An item's raw times, less the handler's own time, are scaled by
    TICK_REF_S times the mean of 1/tick-time over the samples taken during
    the item (at least MIN_SAMPLES, borrowing the latest earlier ones), so
    a stretch in which the host runs everything slower is weighed by its
    own speed."""

    def __init__(self):
        self.speed = []        # 1/tick-time of every sample
        self.spent = 0.0       # wall seconds spent in the handler

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        tick()
        t1 = time.perf_counter()
        self.speed.append(1.0 / (t1 - t0))
        self.spent += t1 - t0

    def item(self, fn):
        """fn's (raw wall, raw CPU, scale, result); the raw times leave
        out the sampling, and raw time x scale is the time at the
        reference speed."""
        first, spent = len(self.speed), self.spent
        old = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            wall, cpu, out = timed(fn)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)
        spent = self.spent - spent
        if not self.speed:     # a first item too short to be sampled
            self._handler(None, None)
        window = self.speed[min(first, max(0, len(self.speed) - MIN_SAMPLES)):]
        scale = TICK_REF_S * statistics.fmean(window)
        return wall - spent, cpu - spent, scale, out


class Bench:
    def __init__(self, dm, workload, seed, work: Path):
        self.dm = dm
        self.w = workload
        self.work = work
        self.raw = make_config(workload, seed)
        self.config = self._load("config.yaml", self.raw)
        self.probe = self._load("probe.yaml", probe_config(self.raw))
        self.warmup = self._load("warmup.yaml", warmup_config(self.raw))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report = None     # checks of the first operation
        self.digest = None
        self.bytes_written = 0

    def _load(self, name, raw):
        path = self.work / name
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        return self.dm.load_config(path)

    def _run(self, config):
        result = self.dm.run_experiment(config)
        self.attempted += len(config.seeds)
        return result

    def probe_setup(self, sampler):
        """One set-up probe, run_experiment on the probe config: its wall
        and CPU seconds at the reference speed."""
        wall, cpu, scale, result = sampler.item(lambda: self._run(self.probe))
        self.failed += len(result.failures)
        return wall * scale, cpu * scale

    def operation(self, sampler):
        """One operation, run_experiment then write_outputs, checked: the
        wall seconds of run_experiment and the CPU seconds of both, raw
        and at the reference speed."""
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        wall, cpu, scale, result = sampler.item(lambda: self._run(self.config))
        _, wcpu, wscale, _ = sampler.item(
            lambda: self.dm.write_outputs(result, out))
        self._verify(result, out)
        return wall * scale, cpu * scale + wcpu * wscale, wall, cpu + wcpu

    def traced_operation(self):
        """One operation under the tracer, unsampled: (tracer, wall s)."""
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        with layertrace.Tracer(self.dm.__name__) as tr:
            t0 = time.perf_counter()
            result = self._run(self.config)
            wall = time.perf_counter() - t0
            self.dm.write_outputs(result, out)
        self._verify(result, out)
        return tr, wall

    def _verify(self, result, out):
        if self.report is None:
            expected = checks.Expected.from_run(
                self.raw, result.problem, check_decay=self.w.check_decay)
            self.report = checks.check_outputs(out, expected)
            self.digest = checks.digest(out)
            self.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        elif checks.digest(out) != self.digest:
            self.problems.append("an operation wrote other bytes than the first")
        self.failed += len(set(result.failures) | set(self.report.seed_faults))

    def run(self, seconds, traced):
        self.failed += len(self._run(self.warmup).failures)
        sampler = SpeedSampler()
        probe_cpu, op_cpu, loop_wall = [], [], []
        raw_op_wall, raw_op_cpu = [], []
        traced_wall, layers = [], []
        rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            probe_wall = []
            for _ in range(self.w.probes):
                wall, cpu = self.probe_setup(sampler)
                probe_wall.append(wall)
                probe_cpu.append(cpu)
            wall, cpu, raw_wall, raw_cpu = self.operation(sampler)
            # the round loop's time: this operation less its own round's set-up
            loop_wall.append(wall - statistics.median(probe_wall))
            op_cpu.append(cpu)
            raw_op_wall.append(raw_wall)
            raw_op_cpu.append(raw_cpu)
            if traced:
                tr, wall = self.traced_operation()
                layers.append(tr)
                traced_wall.append(wall)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        med = statistics.median
        loop_wall = med(loop_wall)
        if loop_wall <= 0:
            self.problems.append("an operation took no longer than its set-up")
        speed = sampler.speed
        print(f"# {self.w.name}: {rounds} rounds; raw medians: operation "
              f"{med(raw_op_wall):.4f} s wall, {med(raw_op_cpu):.4f} s CPU; "
              f"{len(speed)} speed samples, tick "
              f"{1e6 / med(speed):.0f} us median, {1e6 / max(speed):.0f}-"
              f"{1e6 / min(speed):.0f} us", file=sys.stderr)
        if not traced:
            return {"seed_rounds_per_s":
                    self.w.seed_rounds / loop_wall if loop_wall > 0 else None,
                    "setup_s": med(probe_cpu), "cpu_s": med(op_cpu),
                    "peak_rss_mb": peak_rss_mb}
        per_op = [layertrace.layer_metrics(tr, self.w.seed_rounds) for tr in layers]
        metrics = {k: None if v is None else med([m[k] for m in per_op])
                   for k, v in per_op[0].items()}
        metrics["estimator.refresh_rounds"] = self.report.refresh_rounds
        metrics["harness.bytes_written"] = self.bytes_written
        metrics["trace.overhead_pct"] = 100.0 * (med(traced_wall) / med(raw_op_wall) - 1.0)
        (self.work / "trace.json").write_text(json.dumps({
            "workload": self.w.name, "seed_rounds_per_operation": self.w.seed_rounds,
            "absent": layers[0].absent, "metrics": metrics,
            "operations": [tr.spans() for tr in layers]}, indent=1) + "\n")
        return metrics

    @property
    def correct(self) -> bool:
        return not self.problems and not self.report.problems


def run_one(args) -> dict:
    dm = import_program()
    w = WORKLOADS[args.workload]
    work = HERE / "out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(dm, w, args.seed, work)
    metrics = bench.run(args.seconds, traced=bool(args.trace))
    for line in bench.problems + bench.report.describe():
        print(f"# check failed: {line}", file=sys.stderr)
    absent = [k for k, v in metrics.items() if v is None]
    if absent:
        print(f"# absent: {', '.join(absent)}", file=sys.stderr)
    units = layertrace.UNITS if args.trace else END_TO_END_UNITS
    for k, v in metrics.items():
        if v is not None:
            print(f"{w.name} {k} {v:.6g} {units[k]}")
    if bench.report.max_bound_ratio:
        print(f"{w.name} largest consensus_sq / bound {bench.report.max_bound_ratio:.3f}")
    return {"correct": bench.correct, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items() if v is not None}}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is that run's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    line = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
