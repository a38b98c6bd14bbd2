"""The closed-form honest run against the tick loop it replaces.

Without an actor `simulate_transmission` computes an honest or passive
run in closed form; an actor whose hooks do nothing forces the tick loop
on the same scenario.  The two must agree on every outcome field, every
transcript entry and the replay digest.
"""

import dataclasses
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from decoysim import AdversaryKind, Protocol, RampModel, Scenario, replay_digest
from decoysim.decoy import DecoyOutcome, simulate_transmission
from decoysim.engine import OK, OUT_OF_DOMAIN, TIMEOUT
from conftest import decoy_scenario


class _IdleActor:
    """An actor that does nothing; passing one forces the tick loop."""

    def on_tick(self, tick, channel, transcript):
        pass

    def on_reading(self, tick, reading):
        pass


def _public_fields(outcome: DecoyOutcome) -> dict:
    """Every outcome field but the transcript, floats by their bit pattern."""
    values = {}
    for f in dataclasses.fields(outcome):
        if f.name != "transcript":
            value = getattr(outcome, f.name)
            values[f.name] = value.hex() if isinstance(value, float) else value
    return values


def assert_paths_agree(scenario: Scenario) -> DecoyOutcome:
    closed = simulate_transmission(scenario)
    looped = simulate_transmission(scenario, actor=_IdleActor())
    assert _public_fields(closed) == _public_fields(looped)
    assert closed.transcript.entries == looped.transcript.entries
    assert closed.transcript == looped.transcript
    assert replay_digest(closed.transcript) == replay_digest(looped.transcript)
    return closed


@st.composite
def honest_scenarios(draw) -> Scenario:
    model = draw(st.sampled_from(list(RampModel)))
    n1 = draw(st.integers(1, 6))
    n2 = n1 + draw(st.integers(1, 30))
    hold = draw(st.integers(1, 12))
    # deterministic_rate needs max_ramp_ticks = (max_ticks - hold) // 6 >= N2
    floor = hold + 1 + (6 * n2 if model is RampModel.DETERMINISTIC_RATE else 0)
    tolerances = st.one_of(st.just(0.0), st.floats(0.0, float(n2)))
    adversary = draw(st.sampled_from(list(AdversaryKind)))
    secrets = {"alice": draw(st.integers(n1, n2))}
    if adversary is not AdversaryKind.IMPERSONATOR:
        secrets["bob"] = draw(st.integers(n1, n2))
    return Scenario(
        protocol=draw(st.sampled_from([Protocol.DECOY_FORCE, Protocol.DECOY_WAVE])),
        seed=draw(st.integers(0, 2**64 - 1)),
        max_ticks=floor + draw(st.integers(0, 300)),
        secret_domain=(n1, n2),
        party_secrets=secrets,
        ramp_model=model,
        hold_ticks=hold,
        epsilon_stab=draw(tolerances),
        noise_sigma=draw(tolerances),
        adversary=adversary,
        defense_enabled=draw(st.booleans()),
    )


@given(honest_scenarios())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_closed_form_matches_the_tick_loop(scenario):
    assert_paths_agree(scenario)


def test_noise_settling_before_the_sender_starts():
    # A defended sender waits for the announcement; large noise with a
    # wide tolerance settles first, so her ramp never starts.
    # Here it settles at the announcement tick itself, one tick before
    # she would start.
    scenario = decoy_scenario(seed=24, noise_sigma=50.0, epsilon_stab=100.0, hold_ticks=2)
    outcome = assert_paths_agree(scenario)
    assert outcome.status == OK and outcome.sender_start_tick is None
    assert outcome.detected_tick == outcome.announce_tick == 2


def test_window_on_the_tolerance_boundary():
    # A two-tick window sits exactly 2 * epsilon wide when epsilon is the
    # smallest tolerance the detector accepts it with.
    scenario = decoy_scenario(
        ramp_model=RampModel.SYNCHRONOUS,
        defense_enabled=False,
        noise_sigma=0.05,
        epsilon_stab=0.2,
        hold_ticks=2,
    )
    first = simulate_transmission(scenario)
    tick, key = first.detected_tick, first.receiver_key
    assert tick - 1 >= first.receiver_stabilize_tick  # the receiver adds exactly his key
    window = [value - key for _, value in first.transcript.measurements()[tick - 1 :]]
    mean = math.fsum(window) / 2
    tightest = max(max(window) - mean, mean - min(window))
    outcome = assert_paths_agree(dataclasses.replace(scenario, epsilon_stab=tightest))
    assert outcome.detected_tick == tick


def test_timeout():
    outcome = assert_paths_agree(decoy_scenario(max_ticks=5, hold_ticks=4))
    assert outcome.status == TIMEOUT
    assert len(outcome.transcript.measurements()) == 5


def test_out_of_domain_rejection():
    # Near 2^53 the public sum rounds: the receiver reads 2^53, one past N2.
    top = 2**53 - 1
    scenario = decoy_scenario(
        seed=0,
        secret_domain=(1, top),
        party_secrets={"alice": top, "bob": top},
        defense_enabled=False,
        max_ticks=400,
    )
    outcome = assert_paths_agree(scenario)
    assert outcome.status == OUT_OF_DOMAIN
    assert outcome.stable_estimate == 2.0**53


def test_zero_tolerance_under_noise_runs_the_whole_budget():
    outcome = assert_paths_agree(decoy_scenario(noise_sigma=0.05, epsilon_stab=0.0))
    assert outcome.status == TIMEOUT
    assert len(outcome.transcript.measurements()) == outcome.transcript.entries[-1].tick + 1 == 120


def test_closed_form_cost_is_linear_in_max_ticks():
    # Zero tolerance under noise never settles, so every run times out.
    def best_us_per_tick(max_ticks):
        scenario = decoy_scenario(noise_sigma=0.05, epsilon_stab=0.0, max_ticks=max_ticks)
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            outcome = simulate_transmission(scenario)
            best = min(best, time.perf_counter() - started)
            assert len(outcome.transcript.measurements()) == max_ticks
        return best * 1e6 / max_ticks

    short, long = best_us_per_tick(4000), best_us_per_tick(32000)
    assert long <= 2.0 * short, f"{long:.2f} us/tick at 32k vs {short:.2f} at 4k"
