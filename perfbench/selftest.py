"""Self-tests of the benchmark itself.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

Checks the tail-percentile rule, that a corrupted reference fingerprint
fails every request it covers, that the seed changes a workload's inputs
but not the shape of its requests, and that the tracer puts back every
function it wrapped.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def test_tail_is_highest_percentile_with_ten_beyond() -> None:
    value, percentile, n = run.tail_latency([float(v) for v in range(1, 101)])
    expect((value, percentile, n) == (90.0, 90.0, 100), f"n=100 gave {(value, percentile, n)}")
    rng = random.Random(5)
    for n in range(11, 400, 7):
        values = rng.sample(range(10**6), n)
        value, percentile, _ = run.tail_latency(values)
        beyond = sum(v > value for v in values)
        expect(beyond == run.MIN_TAIL_BEYOND, f"n={n}: {beyond} samples beyond the tail")
        expect(abs(percentile - 100.0 * (n - 10) / n) < 1e-9, f"n={n}: percentile {percentile}")
        next_up = sorted(values)[n - run.MIN_TAIL_BEYOND]
        expect(sum(v > next_up for v in values) < run.MIN_TAIL_BEYOND,
               f"n={n}: a higher percentile also has ten beyond it")
    expect(run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3), "fewer than 11 samples: max")


def test_corrupted_reference_fails_every_request() -> None:
    for name, workload_cls in workloads.WORKLOADS.items():
        references = run.load_references(name)
        results = run.measure(workload_cls(), workloads.DEFAULT_SEED, 0.0).results
        run.check_references(results, references)
        expect(all(not r.problems for r in results), f"{name}: true references failed")
        results = run.measure(workload_cls(), workloads.DEFAULT_SEED, 0.0).results
        corrupted = [("0" if ref[0] != "0" else "1") + ref[1:] for ref in references]
        run.check_references(results, corrupted)
        failed = sum(1 for r in results if r.problems)
        expect(failed / len(results) == 1.0, f"{name}: error rate {failed}/{len(results)} with corrupted references")


def _shape(request):
    if isinstance(request, (list, tuple)):
        return [
            "<seed>" if i and request[i - 1] == "--seed" else _shape(item)
            for i, item in enumerate(request)
        ]
    return "<int>" if isinstance(request, int) else request


def test_seed_changes_inputs_not_shape() -> None:
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls()
        for index in range(5):
            first = workload.request(1, index)
            again = workload.request(1, index)
            other = workload.request(2, index)
            expect(first == again, f"{name}: request {index} is not a function of the seed")
            expect(first != other, f"{name}: seeds 1 and 2 give the same request {index}")
            expect(_shape(first) == _shape(other), f"{name}: request {index} changes shape with the seed")
            expect(_shape(first) == _shape(workload.request(1, 0)), f"{name}: request {index} has its own shape")


def test_tracer_restores_every_function() -> None:
    import decoysim
    from decoysim import adversary, cli, engine

    before = (decoysim.replay_digest, cli.replay_digest, adversary.detect_stabilization,
              engine.Transcript.__dict__["entries"], engine.RngStream.__init__, cli.main)
    probe = tracer.Tracer()
    probe.install()
    wrapped = (decoysim.replay_digest, cli.replay_digest, adversary.detect_stabilization,
               engine.Transcript.__dict__["entries"], engine.RngStream.__init__, cli.main)
    probe.uninstall()
    after = (decoysim.replay_digest, cli.replay_digest, adversary.detect_stabilization,
             engine.Transcript.__dict__["entries"], engine.RngStream.__init__, cli.main)
    expect(all(w is not b for w, b in zip(wrapped, before)), "install left a probe unwrapped")
    expect(all(a is b for a, b in zip(after, before)), "uninstall left a wrapper behind")


def main() -> int:
    tests = [value for key, value in globals().items() if key.startswith("test_")]
    for test in tests:
        count = len(FAILURES)
        test()
        print(f"{'ok  ' if len(FAILURES) == count else 'FAIL'} {test.__name__}")
    for failure in FAILURES:
        print(f"  {failure}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
