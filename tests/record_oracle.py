"""The per-run rendering of `sweep` that its columnar records must match, byte for byte.

`cmd_sweep` here is the command as it was before its run lines were
written from the outcome table's columns: every run gets its own summary
dict (`_summarize`), its own record dict (`_run_record`) and its own
`json.dumps`, and the aggregate is counted run by run.  Loading, `--vary`
parsing and output go through `decoysim.cli`, so swapping this function
into `cli._COMMANDS["sweep"]` gives the reference stdout, stderr and exit
code of any sweep command line.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterator, Optional, TextIO

import numpy as np

from decoysim import adversary as adversary_mod
from decoysim import cli
from decoysim.decoy import DecoyOutcome, present
from decoysim.engine import DECOY_PROTOCOLS, OK, AdversaryKind, Scenario
from decoysim.errors import ConfigError
from decoysim.millionaires import ComparisonOutcome
from decoysim.runner import RunOutcome, run_comparisons, run_passes

EXIT_OK, EXIT_PROTOCOL = 0, 2

# A decoy and an attack run's summary fields after "kind", in report order.
FIELDS = {
    "decoy": ("recovered", "sender_secret", "success", "detected_tick", "announce_tick"),
    "attack": (
        "attack", "disrupted", "adversary_learned", "adversary_recovered", "receiver_recovered",
        "receiver_error", "timeout",
    ),
}
# The result field behind each summary field: an attack summary's "attack" is its result's kind.
RESULT_FIELDS = {"decoy": FIELDS["decoy"], "attack": ("kind", *FIELDS["attack"][1:])}
# The attack fields that each fail a run, and the flag each raises.
ATTACK_FLAGS = {
    "disrupted": "disrupted",
    "adversary_learned": "adversary-learned-secret",
    "timeout": "timeout",
}


def assess(outcome: RunOutcome) -> tuple[dict, list, list[str], int]:
    """A run's outcome summary, leakage findings, report flags and exit code."""
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
        values = [getattr(result, name) for name in RESULT_FIELDS[kind]]
    summary, flags, code = summarize(outcome.status, kind, values)
    return summary, [], flags, code


def summarize(status: str, kind: str, values) -> tuple[dict, list[str], int]:
    """A run's summary, flags and exit code, from its status and, if OK, its FIELDS[kind] values."""
    if status != OK:
        return {"kind": "error", "error": status}, [status], EXIT_PROTOCOL
    summary = {"kind": kind, **dict(zip(FIELDS[kind], values))}
    if kind == "decoy":
        flags = [] if summary["success"] else ["recovery-mismatch"]
    else:
        flags = [flag for field, flag in ATTACK_FLAGS.items() if summary[field]]
    return summary, flags, EXIT_PROTOCOL if flags else EXIT_OK


def sweep_rows(scenario: Scenario, count: int) -> Iterator[tuple]:
    """Each run's seed, status, (summary, flags, exit code) and digest, in order."""
    if scenario.protocol not in DECOY_PROTOCOLS:
        for outcome in run_comparisons(scenario, count):
            summary, _, flags, code = assess(outcome)
            yield outcome.scenario.seed, outcome.status, (summary, flags, code), outcome.digest
        return
    attacked = scenario.adversary in (AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR)
    kind = "attack" if attacked else "decoy"
    for batch in run_passes(scenario, count):
        table = batch.table
        if attacked:
            status = [OK] * len(batch)
            columns = map(adversary_mod.attack_columns(batch).__getitem__, RESULT_FIELDS[kind])
        else:
            status, secrets = table.status.tolist(), np.asarray(batch.runs.secrets)
            columns = (
                present(table.recovered), secrets.tolist(), (table.recovered == secrets).tolist(),
                present(table.detected), present(table.announce),
            )
        summaries = map(summarize, status, itertools.repeat(kind), zip(*columns))
        yield from zip(batch.runs.seeds, status, summaries, batch.digests)


def run_record(run_id: int, protocol: str, seed: int, summary: dict, digest: int, flags) -> dict:
    return {
        "record": "run",
        "run_id": run_id,
        "protocol": protocol,
        "seed": seed,
        "outcome": summary,
        "digest": f"{digest:016x}",
        "flags": list(flags),
    }


def cmd_sweep(args, stream: TextIO) -> int:
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    base = cli._load(args)
    variants = cli._parse_vary(args.vary)
    scenarios = [
        base if key is None else cli._load(args, f"{key}={value}") for key, value in variants
    ]
    for (vary_key, vary_value), scenario in zip(variants, scenarios):
        successes = 0
        failures = 0
        abs_errors: list[float] = []
        digests: list[str] = []
        protocol = scenario.protocol.value
        rows = sweep_rows(scenario, args.runs)
        for index, (seed, status, (summary, flags, code), digest) in enumerate(rows):
            successes += code == EXIT_OK
            if status != OK:
                failures += 1
            else:
                digests.append(f"{digest:016x}")
                if summary["kind"] == "decoy":
                    abs_errors.append(abs(summary["recovered"] - summary["sender_secret"]))
            if args.format == "records":
                record = run_record(index, protocol, seed, summary, digest, flags)
                cli._emit(stream, json.dumps(record))
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
            cli._emit(stream, json.dumps(aggregate))
        else:
            label = f"{vary_key}={vary_value} " if vary_key else ""
            cli._emit(
                stream,
                f"sweep {label}runs={args.runs} success_rate={aggregate['success_rate']:.4f} "
                f"failures={failures} mean_abs_error={aggregate['mean_abs_error']}",
            )
    return EXIT_OK
