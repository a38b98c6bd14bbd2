"""Scenario dispatch: one entry point that runs any protocol deterministically.

Comparison protocols are pure functions; this module replays their public
observables into a Transcript (levels go through the additive channel so
they pick up measurement noise like any other public quantity) so that
every run, whatever the protocol, yields the same kind of public record.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from . import adversary as adversary_mod
from .channel import block_noise, measure_block
from .decoy import DecoyOutcome, RunBatch, Runs
from .engine import (
    DECOY_PROTOCOLS,
    OK,
    RECEIVER,
    SENDER,
    STREAM_NOISE,
    TIMEOUT,
    AdversaryKind,
    Protocol,
    Scenario,
    Transcript,
    replay_digest,
    seed_spans,
)
from .errors import VesselEmpty, VesselOverflow
from .millionaires import (
    ComparisonOutcome,
    compare_elevator,
    compare_race,
    compare_race_bitstring,
    compare_vessels,
)

RunResult = Union[DecoyOutcome, ComparisonOutcome, adversary_mod.AttackOutcome]


@dataclass
class RunOutcome:
    """Protocol-specific result plus the complete public transcript.

    `status` is OK or the name of the failure that ended the run
    (ProtocolTimeout, OutOfDomain, VesselEmpty, VesselOverflow), with
    `detail` saying why.  A failed run still carries its public record;
    a vessel abort has no result and an empty transcript.  A decoy run's
    result is row 0 of its kernel pass's table (attack_result's for an
    attack), and its transcript is the result's.
    """

    scenario: Scenario
    result: Optional[RunResult]
    transcript: Transcript
    status: str = OK
    detail: str = ""

    @property
    def digest(self) -> int:
        """replay_digest(self.transcript)."""
        return replay_digest(self.transcript)


def _even_track_length(scenario: Scenario) -> int:
    length = scenario.n2 - scenario.n1
    if length % 2:
        length += 1
    return max(2, length)


def _vessels_transcript(scenario: Scenario, outcome: ComparisonOutcome) -> Transcript:
    """Measure the published level series, one level per tick from tick 0, in one block."""
    levels = outcome.levels
    noise = block_noise(scenario.noise_sigma, scenario.stream(STREAM_NOISE), len(levels))
    transcript = Transcript()
    transcript.record_readings(0, measure_block([levels, np.zeros(len(levels))], noise))
    return transcript


def _comparison_run(scenario: Scenario) -> RunOutcome:
    a = scenario.secret_of(SENDER)
    b = scenario.secret_of(RECEIVER)
    protocol = scenario.protocol

    if protocol is Protocol.ELEVATOR:
        outcome = compare_elevator(a, b, n_floors=scenario.n2)
    elif protocol is Protocol.RACE:
        outcome = compare_race(a, b, n=_even_track_length(scenario), dt=scenario.dt)
    elif protocol is Protocol.RACE_BITSTRING:
        outcome = compare_race_bitstring(a, b, n=_even_track_length(scenario))
    elif protocol is Protocol.VESSELS:
        try:
            outcome = compare_vessels(a, b, observation_ticks=scenario.hold_ticks)
        except (VesselEmpty, VesselOverflow) as exc:
            return RunOutcome(scenario, None, Transcript(), type(exc).__name__, str(exc))
        return RunOutcome(scenario, outcome, _vessels_transcript(scenario, outcome))
    else:  # pragma: no cover - dispatch is exhaustive
        raise ValueError(f"not a comparison protocol: {protocol}")

    transcript = Transcript()
    if outcome.last_tick > scenario.max_ticks:  # refused before any event is built
        needs = f"protocol needs tick {outcome.last_tick} but max_ticks is {scenario.max_ticks}"
        return RunOutcome(scenario, outcome, transcript, TIMEOUT, needs)
    for event in outcome.public_observables:  # in tick order, as every comparator publishes
        transcript.mark(event.tick, f"{event.label}={event.value}")
    return RunOutcome(scenario=scenario, result=outcome, transcript=transcript)


def run_passes(scenario: Scenario, count: int) -> Iterator[RunBatch]:
    """The kernel passes of a decoy scenario's runs with engine.seed_spans' seeds, in order.

    The runs go through the kernel (adversary.adversary_runs) from spans
    of seeds and zero-stride secrets and keys, so memory does not grow
    with `count`.
    """
    for span in seed_spans(scenario, count):
        secret, key = scenario.party_secrets[SENDER], scenario.party_secrets.get(RECEIVER, 0)
        runs = Runs(span, np.broadcast_to(secret, len(span)), np.broadcast_to(key, len(span)))
        yield from adversary_mod.adversary_runs(scenario, runs)


def run_comparisons(scenario: Scenario, count: int) -> Iterator[RunOutcome]:
    """A comparison scenario's run with each of engine.seed_spans' seeds, in order."""
    for seed in itertools.chain.from_iterable(seed_spans(scenario, count)):
        yield _comparison_run(dataclasses.replace(scenario, seed=seed))


def run_scenario(scenario: Scenario) -> RunOutcome:
    """Validate and execute one scenario, dispatching on its protocol.

    A decoy run is row 0 of its kernel pass.  Raises InvalidScenario on
    bad inputs; every run that starts returns its outcome, failed or not.
    An attack run is OK whatever it did to the receiver: its result
    reports that.
    """
    if scenario.protocol not in DECOY_PROTOCOLS:
        return next(run_comparisons(scenario, 1))
    [batch] = run_passes(scenario, 1)
    attacked = scenario.adversary in (AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR)
    result = adversary_mod.attack_result(batch, 0) if attacked else batch.outcome(0)
    status, detail = (OK, "") if attacked else (result.status, result.detail)
    return RunOutcome(scenario, result, result.transcript, status, detail)
