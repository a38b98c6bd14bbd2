"""The four benchmark workloads: request inputs, program calls, oracles, fingerprints.

Every request of a workload has the same shape; only the generated inputs
(``--seed`` values, ``(a, b)`` pairs) change with the workload seed and the
request index.  ``calls`` lists the calls into the program that make up a
request, which are all the benchmark times; ``check`` then runs the
oracles on their captured outputs and computes
the request's fingerprint from parsed result fields and replay digests,
never from raw text.

Why each workload, and which layers it stresses and bypasses:

- ``sweep``: the recovery-rate command.  Decoy tick loop, channel,
  transcript appends, ``replay_digest``, config reload and one JSON record
  per run do nearly all the work; estimators and comparators do none.
- ``analyze``: the leakage-in-bits command.  Many short runs, so per-run
  set-up (three ``RngStream`` per run) is a large share; feature
  extraction and the MI and posterior estimators run; ``replay_digest``
  never does.
- ``compare``: the digitwise reduction over the four physical comparators
  plus the auditor; the tick loop, RNG streams and estimators do no work,
  so every decoy-side optimisation is bypassed here.
- ``attack``: jammer and impersonator sweeps plus one defended run against
  a silent impersonator that goes to timeout.  Same tick loop as ``sweep``,
  but the transcript is read every tick as well as appended to, and the
  actor hooks run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

import decoysim
from decoysim import cli, millionaires
from decoysim.engine import COMPARISON_PROTOCOLS

DEFAULT_SEED = 1

# sweep
SWEEP_RUNS = 50
NOISY_MIN_RECOVERY = 0.99
# analyze
ANALYZE_SAMPLES = 2000
# Acceptance criterion 3 holds the MI estimate to 0.05 bits of the analytic
# value at 10,000 samples.  The estimate's standard error grows as
# 1/sqrt(samples), so at ANALYZE_SAMPLES the same confidence allows 0.05 *
# sqrt(10000 / 2000) = 0.112 bits; 0.05 itself fails about one request in
# a few hundred on correct output.
MI_TOLERANCE_BITS = 0.05 * (10_000 / ANALYZE_SAMPLES) ** 0.5
# compare
COMPARE_BASE = 10
COMPARE_MAX = 999
COMPARE_B_STRIDE = 4
SCENARIO_DOMAIN = (1, 50)
SCENARIO_PAIRS = 2
# attack
ATTACK_RUNS = 20
ATTACK_TIMEOUT_TICKS = 4000


@dataclass
class Result:
    """What one request did: protocol runs, its fingerprint, failed oracles."""

    runs: int
    fingerprint: str
    problems: list[str] = field(default_factory=list)


def fingerprint(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def request_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``decoysim.cli.main`` in-process, stdout captured in memory."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _run_fields(record: dict) -> list:
    """Result fields of one ``run`` record that enter a fingerprint."""
    return [record["run_id"], record["seed"], record["digest"], record["outcome"]]


class Workload:
    name = ""
    configs: tuple[str, ...] = ()

    def request(self, seed: int, index: int):
        raise NotImplementedError

    def calls(self, request) -> list:
        """The timed part: zero-argument calls into the program, in order."""
        raise NotImplementedError

    def execute(self, request) -> list:
        return [call() for call in self.calls(request)]

    def check(self, request, output) -> Result:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Oracles over the whole workload run; problems fail every request."""
        return []


class CliWorkload(Workload):
    def calls(self, request):
        return [functools.partial(run_cli, argv) for argv in request]


class Sweep(CliWorkload):
    name = "sweep"
    configs = ("configs/noisy.cfg",)

    def __init__(self):
        self.noisy_runs = 0
        self.noisy_recovered = 0

    def request(self, seed, index):
        s = request_rng(self.name, seed, index).randrange(2**31)
        return [[
            "sweep", "--config", "configs/noisy.cfg", "--vary", "noise_sigma=0,0.05",
            "--runs", str(SWEEP_RUNS), "--format", "records", "--seed", str(s),
        ]]

    def check(self, request, output):
        [(code, text)] = output
        records = parse_records(text)
        problems = [] if code == 0 else [f"sweep exit code {code}"]
        runs = [r for r in records if r["record"] == "run"]
        aggregates = [r for r in records if r["record"] == "aggregate"]
        if len(runs) != 2 * SWEEP_RUNS or len(aggregates) != 2:
            problems.append(f"sweep printed {len(runs)} runs and {len(aggregates)} aggregates")
            return Result(2 * SWEEP_RUNS, fingerprint(records), problems)
        noiseless, noisy = runs[:SWEEP_RUNS], runs[SWEEP_RUNS:]
        if not all(r["outcome"].get("success") is True for r in noiseless):
            problems.append("a noiseless run did not recover the secret exactly")
        self.noisy_runs += len(noisy)
        self.noisy_recovered += sum(r["outcome"].get("success") is True for r in noisy)
        items = [_run_fields(r) for r in runs]
        items += [[a["vary"], a["success_rate"], a["failures"], a["distinct_digests"]] for a in aggregates]
        return Result(2 * SWEEP_RUNS, fingerprint(items), problems)

    def finish(self):
        if self.noisy_runs and self.noisy_recovered / self.noisy_runs < NOISY_MIN_RECOVERY:
            return [f"noisy recovery {self.noisy_recovered}/{self.noisy_runs} below {NOISY_MIN_RECOVERY}"]
        return []


class Analyze(CliWorkload):
    name = "analyze"
    configs = ("configs/sync_analysis.cfg", "configs/control_analysis.cfg")

    def request(self, seed, index):
        s = request_rng(self.name, seed, index).randrange(2**31)
        return [
            ["analyze", "--config", config, "--samples", str(ANALYZE_SAMPLES),
             "--format", "records", "--seed", str(s)]
            for config in self.configs
        ]

    def check(self, request, output):
        problems = []
        items = []
        for config, (code, text) in zip(self.configs, output):
            records = parse_records(text)
            if code != 0 or not records or records[-1]["record"] != "analysis":
                problems.append(f"analyze {config} exit code {code} without an analysis record")
                continue
            analysis = records[-1]
            if config.endswith("sync_analysis.cfg"):
                error = abs(analysis["mi_bits"] - analysis["analytic_bits"])
                if error > MI_TOLERANCE_BITS or analysis["verdict"] != "PASS":
                    problems.append(f"sync analysis off by {error:.4f} bits, verdict {analysis['verdict']}")
            elif analysis["verdict"] != "FAIL":
                problems.append("control analysis did not detect its leak")
            items.append([
                analysis["samples"], analysis["observed_feature"], repr(analysis["mi_bits"]),
                repr(analysis["analytic_bits"]), repr(analysis["max_prob"]), analysis["verdict"],
            ])
        return Result(len(self.configs) * ANALYZE_SAMPLES, fingerprint(items), problems)


class Attack(CliWorkload):
    name = "attack"
    configs = ("configs/decoy.cfg",)

    def request(self, seed, index):
        s = str(request_rng(self.name, seed, index).randrange(2**31))
        common = ["--config", "configs/decoy.cfg", "--format", "records", "--seed", s]
        return [
            ["sweep", *common, "--set", "adversary=jammer", "--runs", str(ATTACK_RUNS)],
            ["sweep", *common, "--set", "adversary=impersonator", "--set", "defense_enabled=false",
             "--runs", str(ATTACK_RUNS)],
            ["run", *common, "--set", "adversary=impersonator", "--set", f"max_ticks={ATTACK_TIMEOUT_TICKS}"],
        ]

    def check(self, request, output):
        (jam_code, jam_text), (imp_code, imp_text), (run_code, run_text) = output
        problems = []
        if (jam_code, imp_code, run_code) != (0, 0, 2):
            problems.append(f"attack exit codes {(jam_code, imp_code, run_code)}, expected (0, 0, 2)")
        jam = [r for r in parse_records(jam_text) if r["record"] == "run"]
        imp = [r for r in parse_records(imp_text) if r["record"] == "run"]
        defended = [r for r in parse_records(run_text) if r["record"] == "run"]
        if len(jam) != ATTACK_RUNS or len(imp) != ATTACK_RUNS or len(defended) != 1:
            problems.append("attack printed the wrong number of run records")
        if any(r["outcome"].get("adversary_learned") is not False for r in jam):
            problems.append("a jammer learned the secret")
        if any(r["outcome"].get("adversary_learned") is not True for r in imp):
            problems.append("an undefended sender kept her secret from a silent impersonator")
        if defended and not (defended[0]["outcome"].get("timeout") is True
                             and defended[0]["outcome"].get("adversary_learned") is False):
            problems.append("the defended run against a silent impersonator did not time out unharmed")
        items = [_run_fields(r) for r in jam + imp + defended]
        return Result(2 * ATTACK_RUNS + 1, fingerprint(items), problems)


def _expected_ordering(a: int, b: int) -> millionaires.Ordering:
    if a < b:
        return millionaires.Ordering.A_LESS
    if a > b:
        return millionaires.Ordering.A_GREATER
    return millionaires.Ordering.EQUAL


def _expected_invocations(a: int, b: int) -> int:
    width = len(str(max(a, b)))
    da, db = str(a).zfill(width), str(b).zfill(width)
    if a == b:
        return 2 * width
    prefix = next(i for i in range(width) if da[i] != db[i])
    return 2 * (prefix + 1)


class Compare(Workload):
    """Library calls only: ``compare_digitwise`` plus ``run_scenario`` on comparisons."""

    name = "compare"
    configs = ()
    SUBS = (
        millionaires.elevator_sub(COMPARE_BASE),
        millionaires.race_sub(COMPARE_BASE),
        millionaires.bitstring_sub(COMPARE_BASE),
        millionaires.vessels_sub(),
    )

    def request(self, seed, index):
        rng = request_rng(self.name, seed, index)
        a = rng.randrange(COMPARE_MAX + 1)
        n1, n2 = SCENARIO_DOMAIN
        pairs = [(a % n2 + 1, rng.randint(n1, n2)) for _ in range(SCENARIO_PAIRS)]
        return a, pairs, rng.randrange(2**31)

    def calls(self, request):
        return [functools.partial(self._compare, *request)]

    def _compare(self, a, pairs, seed):
        digitwise = []
        for sub in self.SUBS:
            for b in range(0, COMPARE_MAX + 1, COMPARE_B_STRIDE):
                outcome = decoysim.compare_digitwise(a, b, COMPARE_BASE, sub)
                digitwise.append((b, outcome, decoysim.audit_comparison(outcome, "digitwise")))
        scenarios = []
        for protocol in COMPARISON_PROTOCOLS:
            for x, y in pairs:
                scenario = decoysim.Scenario(
                    protocol=protocol, seed=seed, max_ticks=2000, hold_ticks=10,
                    secret_domain=SCENARIO_DOMAIN, party_secrets={"alice": x, "bob": y},
                )
                run = decoysim.run_scenario(scenario)
                findings = decoysim.audit_comparison(run.result, protocol, dt=scenario.dt)
                scenarios.append((x, y, run, decoysim.replay_digest(run.transcript), findings))
        return digitwise, scenarios

    def check(self, request, output):
        a = request[0]
        [(digitwise, scenarios)] = output
        problems = []
        items = []
        for b, outcome, findings in digitwise:
            invocations = [e.value for e in outcome.public_observables
                           if e.label == "subprotocol_invocations"]
            expected = _expected_invocations(a, b)
            if outcome.ordering is not _expected_ordering(a, b):
                problems.append(f"digitwise({a}, {b}) ordered {outcome.ordering.value}")
            if invocations != [expected] or [f.value for f in findings] != [expected // 2]:
                problems.append(f"digitwise({a}, {b}) audited {invocations}, expected {expected}")
            items.append([b, outcome.ordering.value, invocations])
        for x, y, run, digest, findings in scenarios:
            protocol = run.scenario.protocol
            expected = _expected_ordering(x, y)
            if protocol is decoysim.Protocol.ELEVATOR and x == y:
                expected = millionaires.Ordering.A_GREATER  # reported on the not-larger branch
            if run.result.ordering is not expected:
                problems.append(f"{protocol.value}({x}, {y}) ordered {run.result.ordering.value}")
            leaked = {f.quantity: f.value for f in findings}
            if protocol is decoysim.Protocol.ELEVATOR and leaked.get("b") != y:
                problems.append(f"elevator({x}, {y}) audit found b = {leaked.get('b')}")
            if protocol is decoysim.Protocol.VESSELS and leaked.get("b-a") != y - x:
                problems.append(f"vessels({x}, {y}) audit found b-a = {leaked.get('b-a')}")
            items.append([protocol.value, x, y, run.result.ordering.value, f"{digest:016x}",
                          repr(sorted(leaked.items()))])
        return Result(len(digitwise) + len(scenarios), fingerprint(items), problems)


WORKLOADS = {w.name: w for w in (Sweep, Analyze, Compare, Attack)}
