"""Benchmark of the adframe laboratory.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep-n3 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --all            # every workload, both modes

One process, no worker threads, closed loop: each op starts when the last
one has ended.  ``--trace 0`` runs whole passes of the workload for about
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs the
workload's fixed traced op set twice, untraced in a child process and
traced here, and prints the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it say the same for a reader.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
PROBE_DEADLINE_S = 3.0
CHILD_TIMEOUT_S = 170
WORKLOADS = ("sweep-n3", "triangle-n2", "payload-large")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MiB"))


class OpDeadline(BaseException):
    """Raised by the per-op timer; a BaseException so that no ``except
    Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


class Phase:
    """What one pass over a stream of ops recorded."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes: list[str] = []
        self.failures: list[tuple[str, str, str]] = []
        self.seconds = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.seconds


def run_ops(ops, deadline_s: float, phase: Phase | None = None,
            root=None) -> Phase:
    """Run every op of ``ops`` in turn, each timed alone and stopped at
    ``deadline_s``; add what happened to ``phase``."""
    if phase is None:
        phase = Phase()
    clock = time.perf_counter
    begin = clock()
    for op in ops:
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = op.run() if root is None else root(op.run)
            t1 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = op.outcome(result)
        except OpDeadline:
            t1 = clock()
            outcome = f"deadline {deadline_s:g} s"
        except Exception as exc:
            t1 = clock()
            outcome = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        phase.latencies.append(t1 - t0)
        phase.outcomes.append(outcome)
        if outcome != op.expected:
            phase.failures.append((op.label, op.expected, outcome))
    phase.seconds += clock() - begin
    return phase


def timed_phase(wl, seconds: float) -> Phase:
    """Whole passes, at least ``wl.min_passes`` of them, ending at the pass
    boundary nearest to ``seconds``."""
    phase = Phase()
    for done, ops in enumerate(wl.passes, start=1):
        run_ops(ops, wl.deadline_s, phase)
        next_end = phase.seconds * (done + 1) / done
        if done >= wl.min_passes and next_end - seconds >= seconds - phase.seconds:
            return phase


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM; ru_maxrss as fallback)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> str:
    import numpy
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, load average {load}, "
            f"BLAS/OpenMP threads 1")


def say(*parts) -> None:
    print("perfbench:", *parts, flush=True)


def child(args, workload: str, *extra) -> list[str]:
    """Run this script again with ``extra`` flags; return its stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return proc.stdout.splitlines()


def load_program():
    if not (SRC / "adframe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no adframe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adframe
    if Path(adframe.__file__).resolve().parent != SRC / "adframe":
        sys.exit(f"perfbench: imported adframe from {adframe.__file__}, not {SRC}")


def setup(args, scratch: Path):
    """Import the program, generate the inputs and warm up."""
    load_program()
    import workloads
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    except workloads.SetupError as exc:
        sys.exit(f"perfbench: {args.workload}: {exc}")
    warm = run_ops(wl.warmup, wl.deadline_s)
    # The op lists are the benchmark's, not the program's: keep the
    # collector from walking them again and again in the timed phase.
    gc.collect()
    gc.freeze()
    return wl, warm


def report_failures(phase: Phase, what: str) -> None:
    for label, expected, outcome in phase.failures[:5]:
        say(f"FAILED {what}: {label}: expected {expected!r}, got {outcome!r}")


def end_to_end(args, wl, warm, setup_self: float) -> dict:
    setups = [setup_self]
    for _ in range(args.setup_reps - 1):
        setups.append(float(child(args, wl.name, "--setup-only")[-1].split()[-1]))
    if args.ops:
        phase = run_ops(itertools.islice(wl.stream(), args.ops), wl.deadline_s)
    else:
        phase = timed_phase(wl, args.seconds)
    write_outcomes(args, phase)
    lat_ms = [x * 1000 for x in phase.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    failed = len(phase.failures)
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": phase.ops_per_s,
               "op_ms_p50": statistics.median(lat_ms),
               "op_ms_p90": p90,
               "peak_rss_mb": peak_rss_mb()}
    report_failures(warm, "warm-up")
    report_failures(phase, "op")
    say(f"{wl.name}: input {wl.size}")
    say(f"{wl.name}: set-up runs {', '.join(f'{s:.3f}' for s in setups)} s")
    say(f"{wl.name}: {phase.attempted} ops in {phase.seconds:.2f} s; "
        f"{sum(x > p90 for x in lat_ms)} samples lie beyond p90")
    for name, unit in END_TO_END:
        say(f"{wl.name}: {name} = {metrics[name]:.6g} {unit}")
    say(f"{wl.name}: fail_share = {failed / phase.attempted:.6g} share "
        f"({failed} of {phase.attempted})")
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in END_TO_END}
    return dict(correct=failed == 0 and not warm.failures,
                attempted=phase.attempted, failed=failed, metrics=result)


def write_outcomes(args, phase: Phase) -> None:
    if args.outcomes_file:
        Path(args.outcomes_file).write_text("\n".join(phase.outcomes) + "\n")


def per_layer(args, wl, warm, scratch: Path) -> dict:
    import tracer
    count = min(wl.traced_ops, args.ops or wl.traced_ops)
    ref_file = scratch / "untraced-outcomes.txt"
    untraced = json.loads(child(args, wl.name, "--trace", "0", "--setup-reps",
                                "1", "--ops", str(count), "--outcomes-file",
                                str(ref_file))[-1])
    untraced_ops_per_s = untraced["metrics"]["ops_per_s"]["value"]
    reference = ref_file.read_text().splitlines()

    tr = tracer.Tracer()
    tr.install()
    try:
        phase = run_ops(itertools.islice(wl.stream(), count), wl.deadline_s,
                        root=tr.root())
    finally:
        tr.uninstall()
    write_outcomes(args, phase)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{wl.name}-seed{args.seed}.npz"
    tr.write(spans)
    probe = run_ops(wl.probe, PROBE_DEADLINE_S)

    mismatches = sum(a != b for a, b in zip(reference, phase.outcomes))
    failed = len(phase.failures)
    metrics = tr.layer_metrics()
    metrics["bench.trace_overhead"] = (phase.ops_per_s / untraced_ops_per_s, "ratio")
    metrics["bench.trace_verdict_mismatches"] = (mismatches, "count")
    metrics["bench.fail_share"] = (failed / phase.attempted, "share")
    metrics["probe.mask64.failed"] = (len(probe.failures), "count")
    report_failures(warm, "warm-up")
    report_failures(phase, "traced op")
    for label, _, outcome in probe.failures:
        say(f"known defect probe: {label}: {outcome}")
    say(f"{wl.name}: traced {phase.attempted} ops in {phase.seconds:.2f} s, "
        f"untraced {untraced_ops_per_s:.6g} ops/s; spans in {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        say(f"{wl.name}: {name} = {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    correct = (failed == 0 and not warm.failures and mismatches == 0
               and len(reference) == count)
    return dict(correct=correct, attempted=phase.attempted, failed=failed,
                metrics=result)


def run_all(args) -> int:
    """Run every workload in both modes, each in its own process, and
    print every metric by name and unit."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            lines = child(args, workload, "--trace", trace)
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload with --trace 0 and --trace 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run this many ops instead of a timed phase")
    p.add_argument("--setup-reps", type=int, default=SETUP_REPS,
                   help="set-ups whose median is setup_s")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--outcomes-file", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl, warm = setup(args, scratch)
        setup_self = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(f"setup_s {setup_self!r}")
            return 0
        say(f"{args.workload} seed {args.seed}: {environment()}")
        if args.trace:
            result = per_layer(args, wl, warm, scratch)
        else:
            result = end_to_end(args, wl, warm, setup_self)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
