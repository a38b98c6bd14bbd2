"""Command-line front end: single runs, sweeps, adversary analyses, replay checks.

Exit codes: 0 protocol success, 1 config or usage error or a file that
cannot be read or written (or stdout closed before the report was written),
2 protocol-level failure (timeout, rejected recovery, successful disruption
or secret compromise).
Machine-readable mode (--format records) emits one JSON record per line;
every report carries the tool version and the fully resolved scenario so
a run can be replayed from its report alone.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import logging
import math
import os
import sys
import time
from typing import Iterator, Optional, TextIO

import numpy as np

from . import __version__
from . import adversary as adversary_mod
from .config import load_scenario
from .decoy import DecoyOutcome, present
from .engine import DECOY_PROTOCOLS, OK, AdversaryKind, Scenario, replay_digest
from .errors import ConfigError, DecoySimError, InsufficientSamples, InvalidScenario
from .millionaires import ComparisonOutcome
from .runner import RunOutcome, run_comparisons, run_passes, run_scenario

log = logging.getLogger("decoysim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROTOCOL = 2

# analyze's sample count on decoy configs, and its bound: peak memory
# grows by about 0.45 KB a sample.
DEFAULT_SAMPLES = 2000
MAX_SAMPLES = 10**6


def _configure_logging() -> None:
    """Log at DECOYSIM_LOG's level, a logging level name in any case (warning if unset)."""
    value = os.environ.get("DECOYSIM_LOG", "warning")
    level = logging.getLevelName(value.upper())  # a name's number; anything else stays a str
    if not isinstance(level, int):
        raise ConfigError(f"DECOYSIM_LOG must name a logging level such as debug, got {value!r}")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _emit(stream: TextIO, text: str) -> None:
    stream.write(text)
    if not text.endswith("\n"):
        stream.write("\n")


class _ReportFile:
    """The --out file, checked at once but opened at its first write: a config error spares it."""

    def __init__(self, path: str):
        self.path = path
        self.handle: Optional[TextIO] = None
        parent = os.path.dirname(path) or os.curdir
        if os.path.isdir(path) or not os.access(parent, os.W_OK):
            parent_error = errno.EACCES if os.path.isdir(parent) else errno.ENOENT
            code = errno.EISDIR if os.path.isdir(path) else parent_error
            raise OSError(code, os.strerror(code), path)

    def write(self, text: str) -> None:
        if self.handle is None:
            self.handle = open(self.path, "w", encoding="utf-8")
        self.handle.write(text)

    def flush(self) -> None:
        """Write out the report and close the file: the command's last step."""
        if self.handle is not None:
            self.handle.close()

    def close(self) -> None:
        """Close the file a failed command left open, unwritten rest dropped: main reported why."""
        if self.handle is not None:
            with contextlib.suppress(OSError):
                self.handle.close()


def _meta_record(scenario: Scenario) -> dict:
    return {
        "record": "meta",
        "version": __version__,
        "scenario": scenario.as_mapping(),
    }


def _assess(outcome: RunOutcome) -> tuple[dict, list, list[str], int]:
    """A run's outcome summary, leakage findings, report flags and exit code.

    A comparison's leak flags leave the exit code 0; every other run's
    summary, flags and exit code are _summarize's.
    """
    result = outcome.result
    if outcome.status == OK and isinstance(result, ComparisonOutcome):
        summary = {
            "kind": "comparison",
            "ordering": result.ordering.value,
            "alice_knows": result.alice_knows,
            "bob_knows": result.bob_knows,
            "notes": list(result.notes),
        }
        scenario = outcome.scenario
        findings = adversary_mod.audit_comparison(result, scenario.protocol, dt=scenario.dt)
        leaks = [f"leak:{f.quantity}" for f in findings if f.exceeds_comparison_bit]
        return summary, findings, leaks, EXIT_OK
    kind, values = "decoy" if isinstance(result, DecoyOutcome) else "attack", ()
    if outcome.status == OK:
        values = [getattr(result, name) for name in _RESULT_FIELDS[kind]]
    summary, flags, code = _summarize(outcome.status, kind, values)
    return summary, [], flags, code


# A decoy and an attack run's summary fields after "kind", in report order.
_FIELDS = {
    "decoy": ("recovered", "sender_secret", "success", "detected_tick", "announce_tick"),
    "attack": (
        "attack", "disrupted", "adversary_learned", "adversary_recovered", "receiver_recovered",
        "receiver_error", "timeout",
    ),
}
# The result field behind each summary field: an attack summary's "attack" is its result's kind.
_RESULT_FIELDS = {"decoy": _FIELDS["decoy"], "attack": ("kind", *_FIELDS["attack"][1:])}
# The attack fields that each fail a run, and the flag each raises.
_ATTACK_FLAGS = {
    "disrupted": "disrupted",
    "adversary_learned": "adversary-learned-secret",
    "timeout": "timeout",
}


def _summarize(status: str, kind: str, values) -> tuple[dict, list[str], int]:
    """A run's summary, flags and exit code, from its status and, if OK, its _FIELDS[kind] values.

    A failed run, a decoy run that recovered the wrong secret and an
    attack that disrupted the run, learned the secret or timed out each
    exit EXIT_PROTOCOL.
    """
    if status != OK:
        return {"kind": "error", "error": status}, [status], EXIT_PROTOCOL
    summary = {"kind": kind, **dict(zip(_FIELDS[kind], values))}
    if kind == "decoy":
        flags = [] if summary["success"] else ["recovery-mismatch"]
    else:
        flags = [flag for field, flag in _ATTACK_FLAGS.items() if summary[field]]
    return summary, flags, EXIT_PROTOCOL if flags else EXIT_OK


def _sweep_rows(scenario: Scenario, count: int) -> Iterator[tuple]:
    """Each run's seed, status, (summary, flags, exit code) and digest, in order.

    Comparison runs go one at a time through _assess.  Decoy runs are read
    off their kernel passes' outcome tables, each column a _FIELDS one
    (an attack's from adversary.attack_columns), and digests; an attack
    run's status is OK whatever it did, as run_scenario gives it.
    """
    if scenario.protocol not in DECOY_PROTOCOLS:
        for outcome in run_comparisons(scenario, count):
            summary, _, flags, code = _assess(outcome)
            yield outcome.scenario.seed, outcome.status, (summary, flags, code), outcome.digest
        return
    attacked = scenario.adversary in (AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR)
    kind = "attack" if attacked else "decoy"
    for batch in run_passes(scenario, count):
        table = batch.table
        if attacked:
            status = [OK] * len(batch)
            columns = map(adversary_mod.attack_columns(batch).__getitem__, _RESULT_FIELDS[kind])
        else:
            status, secrets = table.status.tolist(), np.asarray(batch.runs.secrets)
            columns = (
                present(table.recovered), secrets.tolist(), (table.recovered == secrets).tolist(),
                present(table.detected), present(table.announce),
            )
        summaries = map(_summarize, status, itertools.repeat(kind), zip(*columns))
        yield from zip(batch.runs.seeds, status, summaries, batch.digests)


def _run_record(run_id: int, protocol: str, seed: int, summary: dict, digest: int, flags) -> dict:
    return {
        "record": "run",
        "run_id": run_id,
        "protocol": protocol,
        "seed": seed,
        "outcome": summary,
        "digest": f"{digest:016x}",
        "flags": list(flags),
    }


def _print_text_report(
    stream: TextIO, outcome: RunOutcome, summary: dict, digest: int, findings, flags, wall_ms
) -> None:
    scenario = outcome.scenario
    _emit(stream, f"decoysim {__version__}")
    _emit(stream, "scenario: " + json.dumps(scenario.as_mapping(), sort_keys=True))
    if outcome.status != OK:
        _emit(stream, f"protocol failure: {outcome.status}: {outcome.detail}")
        return
    _emit(stream, "outcome: " + json.dumps(summary))
    _emit(stream, f"digest: {digest:016x}")
    if findings:
        _emit(stream, "findings:")
        for finding in findings:
            _emit(stream, f"  - {finding.description}")
    if flags:
        _emit(stream, "flags: " + ", ".join(flags))
    _emit(stream, f"ticks: {outcome.transcript.tick_count()}  wall_ms: {wall_ms:.2f}")


def cmd_run(args, stream: TextIO) -> int:
    scenario = _load(args)
    started = time.perf_counter()
    outcome = run_scenario(scenario)
    wall_ms = (time.perf_counter() - started) * 1e3
    if outcome.status != OK:
        log.warning("protocol failed: %s", outcome.detail)
    digest = outcome.digest
    summary, findings, flags, code = _assess(outcome)
    if args.format == "records":
        _emit(stream, json.dumps(_meta_record(scenario)))
        record = _run_record(0, scenario.protocol.value, scenario.seed, summary, digest, flags)
        _emit(stream, json.dumps(record))
    else:
        _print_text_report(stream, outcome, summary, digest, findings, flags, wall_ms)
    return code


def _parse_vary(spec: Optional[str]) -> list[tuple[Optional[str], Optional[str]]]:
    if not spec:
        return [(None, None)]
    if "=" not in spec:
        raise ConfigError(f"--vary must look like key=v1,v2,..., got {spec!r}")
    key, values = spec.split("=", 1)
    variants = [value.strip() for value in values.split(",") if value.strip()]
    if not variants:
        raise ConfigError(f"--vary {spec!r} lists no values")
    return [(key.strip(), value) for value in variants]


def cmd_sweep(args, stream: TextIO) -> int:
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    base = _load(args)
    variants = _parse_vary(args.vary)
    # Every variant is loaded before the first run, so a bad one fails before any output.
    scenarios = [base if key is None else _load(args, f"{key}={value}") for key, value in variants]
    for (vary_key, vary_value), scenario in zip(variants, scenarios):
        successes = 0
        failures = 0
        abs_errors: list[float] = []
        digests: list[str] = []
        protocol = scenario.protocol.value
        # Records go out as the runs come, one kernel pass of them at a time.
        rows = _sweep_rows(scenario, args.runs)
        for index, (seed, status, (summary, flags, code), digest) in enumerate(rows):
            # A run succeeds when `run` would exit 0 on it.
            successes += code == EXIT_OK
            if status != OK:
                failures += 1
            else:
                digests.append(f"{digest:016x}")
                if summary["kind"] == "decoy":
                    abs_errors.append(abs(summary["recovered"] - summary["sender_secret"]))
            if args.format == "records":
                record = _run_record(index, protocol, seed, summary, digest, flags)
                _emit(stream, json.dumps(record))
        sorted_errors = sorted(abs_errors)

        def percentile(q: float) -> Optional[float]:
            if not sorted_errors:
                return None
            position = min(len(sorted_errors) - 1, int(q * (len(sorted_errors) - 1)))
            return sorted_errors[position]

        aggregate = {
            "record": "aggregate",
            "vary": {vary_key: vary_value} if vary_key else None,
            "runs": args.runs,
            "success_rate": successes / args.runs,
            "failures": failures,
            "mean_abs_error": (
                math.fsum(abs_errors) / len(abs_errors) if abs_errors else None
            ),
            "p50_abs_error": percentile(0.50),
            "p90_abs_error": percentile(0.90),
            "distinct_digests": len(set(digests)),
        }
        if args.format == "records":
            _emit(stream, json.dumps(aggregate))
        else:
            label = f"{vary_key}={vary_value} " if vary_key else ""
            _emit(
                stream,
                f"sweep {label}runs={args.runs} success_rate={aggregate['success_rate']:.4f} "
                f"failures={failures} mean_abs_error={aggregate['mean_abs_error']}",
            )
    return EXIT_OK


def _analyze_decoy(args, scenario: Scenario, stream: TextIO) -> int:
    count = DEFAULT_SAMPLES if args.samples is None else args.samples
    if count < 1000:
        raise ConfigError(f"--samples must be >= 1000, got {count}")
    if count > MAX_SAMPLES:
        raise ConfigError(f"--samples must be <= {MAX_SAMPLES}, got {count}")
    features = adversary_mod.TranscriptFeatures.for_scenario(scenario)
    samples = adversary_mod.collect_transmission_samples(scenario, count)
    domain = scenario.secret_domain
    report = adversary_mod.estimate_own_run_posterior(samples, features, domain)
    analytic = adversary_mod.analytic_sum_mi(domain)
    excess = report.mi_bits - analytic
    leak_detected = excess > 0.1

    lines = [
        f"decoysim {__version__} analysis",
        "scenario: " + json.dumps(scenario.as_mapping(), sort_keys=True),
        f"samples: {report.samples_used}",
        f"feature quantization: stable total rounded to integers; "
        f"ramp duration in buckets of {features.bucket_width} ticks",
        f"observed feature: {report.observed_feature}",
        f"analytic sum-channel reference: {analytic:.6f} bits",
        f"estimated mi: {report.mi_bits:.6f} bits (excess {excess:+.6f})",
    ]
    if report.observed_feature and isinstance(report.observed_feature[0], int):
        total = report.observed_feature[0]
        analytic_posterior = adversary_mod.analytic_split_posterior(
            total, domain, max_key=domain[1]
        )
        if analytic_posterior:
            expected_max = max(analytic_posterior.values())
            # 3-sigma multinomial bound around the analytic conditional maximum
            sigma = math.sqrt(
                expected_max * (1.0 - expected_max) / max(1, report.matched_samples)
            )
            bound = expected_max + 3.0 * sigma
            status = "PASS" if report.max_prob <= bound else "FAIL"
            lines.append(
                f"posterior max_prob: {report.max_prob:.4f} "
                f"(analytic {expected_max:.4f}, 3-sigma bound {bound:.4f}) -> {status}"
            )
    verdict = (
        f"FAIL (leakage detected: {excess:+.3f} bits over the analytic reference)"
        if leak_detected
        else "PASS (no leakage beyond the analytic sum-channel reference)"
    )
    lines.append(f"verdict: {verdict}")

    if args.format == "records":
        _emit(stream, json.dumps(_meta_record(scenario)))
        _emit(
            stream,
            json.dumps(
                {
                    "record": "analysis",
                    "samples": report.samples_used,
                    "observed_feature": list(map(str, report.observed_feature)),
                    "mi_bits": report.mi_bits,
                    "analytic_bits": analytic,
                    "max_prob": report.max_prob,
                    "verdict": "FAIL" if leak_detected else "PASS",
                }
            ),
        )
    else:
        for line in lines:
            _emit(stream, line)
    return EXIT_OK


def _analyze_comparison(args, scenario: Scenario, stream: TextIO) -> int:
    if args.samples is not None:
        raise ConfigError(
            f"--samples applies only to decoy protocols; {scenario.protocol.value} "
            "is a comparison protocol, which analyze audits from one run"
        )
    outcome = run_scenario(scenario)
    if outcome.status != OK:
        raise DecoySimError(outcome.detail)
    _, findings, _, _ = _assess(outcome)
    if args.format == "records":
        _emit(stream, json.dumps(_meta_record(scenario)))
        _emit(
            stream,
            json.dumps(
                {
                    "record": "analysis",
                    "ordering": outcome.result.ordering.value,
                    "findings": [
                        {
                            "quantity": finding.quantity,
                            "value": str(finding.value),
                            "description": finding.description,
                            "exceeds_comparison_bit": finding.exceeds_comparison_bit,
                        }
                        for finding in findings
                    ],
                }
            ),
        )
    else:
        _emit(stream, f"decoysim {__version__} analysis")
        _emit(stream, "scenario: " + json.dumps(scenario.as_mapping(), sort_keys=True))
        _emit(stream, f"ordering: {outcome.result.ordering.value}")
        if findings:
            _emit(stream, "leakage findings:")
            for finding in findings:
                marker = " [exceeds one bit]" if finding.exceeds_comparison_bit else ""
                _emit(stream, f"  - {finding.description}{marker}")
        else:
            _emit(stream, "leakage findings: none")
    return EXIT_OK


def cmd_analyze(args, stream: TextIO) -> int:
    scenario = _load(args)
    if scenario.protocol in DECOY_PROTOCOLS:
        return _analyze_decoy(args, scenario, stream)
    return _analyze_comparison(args, scenario, stream)


def cmd_replay_check(args, stream: TextIO) -> int:
    scenario = _load(args)
    digests = [replay_digest(run_scenario(scenario).transcript) for _ in range(2)]
    matched = digests[0] == digests[1]
    rendered = [f"{digest:016x}" for digest in digests]
    if args.format == "records":
        _emit(
            stream,
            json.dumps(
                {
                    "record": "replay-check",
                    "digests": rendered,
                    "match": matched,
                    "version": __version__,
                }
            ),
        )
    else:
        _emit(stream, f"replay digests: {rendered[0]} {rendered[1]}")
        _emit(stream, "replay: MATCH" if matched else "replay: MISMATCH")
    return EXIT_OK if matched else EXIT_PROTOCOL


def _load(args, vary_override: Optional[str] = None) -> Scenario:
    # Later overrides win: --set, then --seed, then the --vary value.
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if vary_override is not None:
        overrides.append(vary_override)
    return load_scenario(args.config, overrides)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit EXIT_CONFIG rather than argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state in it.

    Its subcommands' parsers are of its class, so a usage error anywhere exits EXIT_CONFIG.
    """
    parser = _Parser(
        prog="decoysim",
        description="Deterministic simulator for physics-based secure comparison "
        "and decoy-based secret transmission, with adversary analysis.",
    )
    parser.add_argument("--version", action="version", version=f"decoysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a scenario field (repeatable)",
        )
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument(
            "--format", choices=("text", "records"), default="text", help="output format"
        )

    p_run = sub.add_parser("run", help="execute one scenario")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run many scenarios with derived seeds")
    common(p_sweep)
    p_sweep.add_argument("--runs", type=int, required=True, help="number of runs")
    p_sweep.add_argument(
        "--vary",
        default=None,
        metavar="KEY=V1,V2",
        help="repeat the sweep for each value of one scenario field",
    )

    p_analyze = sub.add_parser("analyze", help="posterior/MI or leakage analysis")
    common(p_analyze)
    p_analyze.add_argument(
        "--samples",
        type=int,
        default=None,
        help=f"sample runs for the decoy estimators (default {DEFAULT_SAMPLES}); "
        "not accepted on comparison protocols",
    )

    p_replay = sub.add_parser("replay-check", help="run twice and compare digests")
    common(p_replay)

    return parser


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "replay-check": cmd_replay_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    out_stream = sys.stdout
    try:
        _configure_logging()
        out_stream = _ReportFile(args.out) if args.out else sys.stdout
        code = handler(args, out_stream)
        out_stream.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point the descriptor
        # at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except (ConfigError, InvalidScenario, InsufficientSamples, OSError) as exc:
        print(f"decoysim: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DecoySimError as exc:
        print(f"decoysim: protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    finally:
        if out_stream is not sys.stdout:
            out_stream.close()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
