"""decoysim benchmark: one closed-loop client, one process, no threads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Request i+1 is sent only when request i has returned.  The program is
imported from ``src/`` of the checkout and called the way users call it:
``decoysim.cli.main`` in-process for ``sweep``, ``analyze`` and ``attack``,
the public library functions for ``compare``.  Every output is checked by
the workload's oracles and, for the default seed, against stored reference
fingerprints.

Times are reported at a reference host speed.  A shared host runs in
phases that slow all code by up to 2x, for bursts of a few requests and
for minutes at a time, which no averaging within one run removes.  So
before and after each call into the program, and each set-up sample, the
benchmark times a fixed pure-Python calibration kernel that never touches
decoysim, and scales the time by ``CALIBRATION_REFERENCE_S`` over the
kernel's mean time around it.  A change to the program moves the scaled
times as it moves the raw ones; a change in the host's speed mostly
cancels.  Raw values are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests untraced for half the time and then traced for the other half,
checks that both give the same fingerprints, and reports per-layer metrics
per traced request; spans are written to ``.bench_build/perfbench/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
TICK_BUDGETS = (1000, 8000)
TICK_REPEATS = 5
MIN_TAIL_BEYOND = 10
# Times are scaled to the host speed at which calibration_kernel() takes 0.8 ms,
# about its time on an idle 2-core Xeon.
CALIBRATION_REFERENCE_S = 0.8e-3
CALIBRATION_REPEATS = 3

# Runs in a fresh interpreter: import decoysim and load the workload's configs.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import decoysim
for path in sys.argv[1:]:
    decoysim.load_scenario(path)
print(time.perf_counter() - start)
"""


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    With n samples sorted ascending, that is the (n - 10)-th smallest, the
    (100 * (n - 10) / n)-th percentile.  Below 11 samples no percentile has
    ten beyond it, and the maximum is reported as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - MIN_TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def check_references(results, references: list[str]) -> None:
    """Fail every request whose fingerprint differs from its stored reference."""
    for index, (result, expected) in enumerate(zip(results, references)):
        if result.fingerprint != expected:
            result.problems.append(
                f"request {index} fingerprint {result.fingerprint} != reference {expected}"
            )


def load_references(workload: str) -> list[str]:
    return json.loads(REFERENCES.read_text())["workloads"][workload]


class _Cell:
    __slots__ = ("tick", "value")

    def __init__(self, tick: int, value: float):
        self.tick = tick
        self.value = value


def _kernel_loop() -> float:
    """Work shaped like a tick loop: small objects, list appends, short fsum windows."""
    cells, window, total = [], [], 0.0
    for tick in range(1200):
        value = (tick * 2654435761 % 1000003) * 1e-6
        cells.append(_Cell(tick, value))
        window.append(value)
        if len(window) >= 5:
            total += math.fsum(window[-5:])
    return total


def calibration_kernel() -> float:
    """Seconds a fixed pure-Python loop takes; it tracks the host's speed, not decoysim's.

    The loop runs once untimed first, so that the caches the previous
    request left behind do not count, and with the garbage collector off,
    so that the program's heap does not count either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel_loop()
        start = perf_counter()
        _kernel_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    return statistics.median(calibration_kernel() for _ in range(CALIBRATION_REPEATS))


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` scaled to the reference host speed by the kernel times around it."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (kernel_before + kernel_after)


@dataclass
class Measured:
    latencies: list[float]  # raw seconds per request
    scaled: list[float]  # seconds per request at the reference host speed
    results: list

    def runs_per_s(self) -> float:
        return sum(r.runs for r in self.results) / sum(self.scaled)


def measure(workload, seed: int, seconds: float, tracer=None, between=None) -> Measured:
    """Closed loop for `seconds`.

    Each call into the program is bracketed by calibration kernels, and its
    time is scaled by the reference over their mean: the nearest two
    samples follow bursts of a few requests, which a wider window misses.
    ``between(share)`` runs untimed after each request, with the share of
    `seconds` elapsed so far.
    """
    latencies, scaled, results = [], [], []
    begin = perf_counter()
    index = 0
    while index == 0 or perf_counter() - begin < seconds:
        request = workload.request(seed, index)
        with tracer.request(index) if tracer else contextlib.nullcontext():
            outputs, raw, reference = [], 0.0, 0.0
            kernel = calibration_kernel()
            for call in workload.calls(request):
                start = perf_counter()
                outputs.append(call())
                elapsed = perf_counter() - start
                after = calibration_kernel()
                raw += elapsed
                reference += at_reference(elapsed, kernel, after)
                kernel = after
            latencies.append(raw)
            scaled.append(reference)
            results.append(workload.check(request, outputs))
        if between is not None:
            between((perf_counter() - begin) / seconds)
        index += 1
    for problem in workload.finish():
        for result in results:
            result.problems.append(problem)
    return Measured(latencies, scaled, results)


class SetupSampler:
    """Set-up time in fresh processes: import decoysim and load the workload's configs.

    Samples are spread over the run, so that the median weighs every phase
    of a shared host's speed, not only the first seconds; each is scaled by
    the calibration kernel timed just before and just after it.
    """

    def __init__(self, configs):
        self.configs = configs
        self.times: list[float] = []
        self.scaled: list[float] = []
        self._sample()  # compiles bytecode and warms the file cache
        self.times.clear()
        self.scaled.clear()

    def _sample(self) -> None:
        before = host_speed()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *self.configs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        self.times.append(seconds)
        self.scaled.append(at_reference(seconds, before, host_speed()))

    def __call__(self, share: float) -> None:
        if len(self.times) < SETUP_REPEATS * share:
            self._sample()

    def medians(self) -> tuple[float, float]:
        """(scaled, raw) median set-up seconds."""
        while len(self.times) < SETUP_REPEATS:
            self._sample()
        return statistics.median(self.scaled), statistics.median(self.times)


def tick_cost_ratio(seed: int) -> float:
    """µs/tick of a defended run against a silent impersonator, 8000 ticks over 1000.

    The two budgets alternate and each run is scaled like a request, so a
    change in the host's speed between them does not show as a ratio.
    """
    import decoysim

    scenarios = [
        decoysim.load_scenario(
            "configs/decoy.cfg", ["adversary=impersonator", f"max_ticks={ticks}", f"seed={seed}"]
        )
        for ticks in TICK_BUDGETS
    ]
    times: list[list[float]] = [[] for _ in TICK_BUDGETS]
    for _ in range(TICK_REPEATS):
        for scenario, scaled in zip(scenarios, times):
            before = calibration_kernel()
            start = perf_counter()
            decoysim.attack_impersonate(scenario)
            scaled.append(at_reference(perf_counter() - start, before, calibration_kernel()))
    short, long = (statistics.median(t) / ticks for t, ticks in zip(times, TICK_BUDGETS))
    return long / short


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    source = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/decoysim/*.py"), *ROOT.glob("configs/*.cfg")]):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` inside it; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(workload_cls, seed: int) -> None:
    """One untimed request, with an index no measured request uses, so lazy set-up is done."""
    workload = workload_cls()
    request = workload.request(seed, -1)
    workload.check(request, workload.execute(request))


def end_to_end(name, workload_cls, seed, seconds):
    import workloads

    setup = SetupSampler(workload_cls.configs)
    warm_up(workload_cls, seed)
    run = measure(workload_cls(), seed, seconds, between=setup)
    if seed == workloads.DEFAULT_SEED:
        check_references(run.results, load_references(name))
    tail, percentile, n = tail_latency(run.scaled)
    setup_s, raw_setup_s = setup.medians()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "runs_per_s": metric(run.runs_per_s(), "1/s"),
        "request_p50_ms": metric(statistics.median(run.scaled) * 1e3, "ms"),
        "request_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    raw_tail = tail_latency(run.latencies)[0]
    notes = [
        f"request_tail_ms at p{percentile:.2f} of n={n} requests",
        f"raw: runs_per_s {sum(r.runs for r in run.results) / sum(run.latencies):.6g}, "
        f"request_p50_ms {statistics.median(run.latencies) * 1e3:.6g}, "
        f"request_tail_ms {raw_tail * 1e3:.6g}, setup_s {raw_setup_s:.6g}",
    ]
    return run.results, metrics, notes, True


def traced(name, workload_cls, seed, seconds):
    import workloads
    from tracer import Tracer

    ratio = tick_cost_ratio(seed)
    warm_up(workload_cls, seed)
    base = measure(workload_cls(), seed, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_run = measure(workload_cls(), seed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if seed == workloads.DEFAULT_SEED:
        references = load_references(name)
        check_references(base.results, references)
        check_references(traced_run.results, references)
    mismatched = [
        i for i, (a, b) in enumerate(zip(base.results, traced_run.results)) if a.fingerprint != b.fingerprint
    ]
    share = tracer.accounted_share()
    consistent = not mismatched and abs(share - 1.0) < 1e-6
    layers = tracer.layer_metrics(len(traced_run.results))
    metrics = {key: metric(value, unit) for key, (value, unit) in layers.items()}
    metrics["trace.overhead_ratio"] = metric(traced_run.runs_per_s() / base.runs_per_s(), "ratio")
    metrics["decoy.tick_cost_ratio"] = metric(ratio, "ratio")
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    notes = [
        f"traced {len(traced_run.results)} requests after {len(base.results)} untraced; "
        f"fingerprint mismatches at {mismatched[:5] or 'none'}",
        f"self times account for {share:.9f} of traced request time",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    return base.results + traced_run.results, metrics, notes, consistent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "decoysim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no decoysim sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    results, metrics, notes, consistent = run(
        args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds
    )
    failed = sum(1 for r in results if r.problems)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: error_rate {failed / len(results):.6g} ({failed}/{len(results)} requests)")
    for note in notes:
        print(note)
    for problem in list(dict.fromkeys(p for r in results for p in r.problems))[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
