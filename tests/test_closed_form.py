"""The closed-form kernel against the tick-by-tick oracle it replaces.

`simulate_transmission` computes every decoy run in closed form, under
any adversary; `tick_oracle.transmission` steps the same run one tick at
a time through the channel and the adversary's hooks.  The two must agree
on every outcome field, every transcript entry and the replay digest.  So
must the attack entry points and `tick_oracle.attack`, which reads the
attack flags off the oracle's run with its own rule.  A batch of runs
through `simulate_runs` must agree with the same runs made one at a time.
"""

import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tick_oracle
from decoysim import (
    AdversaryKind,
    Protocol,
    RampModel,
    RngStream,
    Scenario,
    attack_impersonate,
    attack_jam,
    detect_stabilization,
    generate_ramp,
    replay_digest,
    run_decoy_transmission,
    run_scenario,
)
from decoysim import channel, decoy, recover_secret
from decoysim.adversary import JAM_VALUE, attack_result
from decoysim.channel import measure_block
from decoysim.decoy import DecoyOutcome, Runs, simulate_runs, simulate_transmission
from decoysim.engine import (
    OK,
    OUT_OF_DOMAIN,
    STREAM_ADVERSARY,
    STREAM_RECEIVER,
    STREAM_SENDER,
    TIMEOUT,
)
from decoysim.errors import NonFiniteValue, OutOfDomain
from decoysim.runner import run_passes
from conftest import decoy_scenario, run_alone


def _fields(outcome) -> dict:
    """Every field of an outcome but its transcript, with its type, floats by their bit pattern."""
    values = {}
    for f in dataclasses.fields(outcome):
        if f.name != "transcript":
            value = getattr(outcome, f.name)
            values[f.name] = type(value), value.hex() if isinstance(value, float) else value
    return values


def _assert_agree(closed, looped) -> None:
    assert _fields(closed) == _fields(looped)
    assert closed.transcript.entries == looped.transcript.entries
    assert closed.transcript == looped.transcript
    assert replay_digest(closed.transcript) == replay_digest(looped.transcript)


def assert_paths_agree(scenario: Scenario, jam_value=None) -> DecoyOutcome:
    closed = simulate_transmission(scenario, jam_value)
    _assert_agree(closed, tick_oracle.transmission(scenario, jam_value))
    return closed


def assert_attacks_agree(scenario: Scenario, **options):
    attack = attack_jam if scenario.adversary is AdversaryKind.JAMMER else attack_impersonate
    closed = attack(scenario, **options)
    _assert_agree(closed, tick_oracle.attack(scenario, **options))
    return closed


@st.composite
def scenarios(draw, adversaries=st.sampled_from(list(AdversaryKind))) -> Scenario:
    model = draw(st.sampled_from(list(RampModel)))
    n1 = draw(st.integers(1, 6))
    n2 = n1 + draw(st.integers(1, 30))
    hold = draw(st.integers(1, 12))
    # deterministic_rate needs max_ramp_ticks = (max_ticks - hold) // 6 >= N2
    floor = hold + 1 + (6 * n2 if model is RampModel.DETERMINISTIC_RATE else 0)
    tolerances = st.one_of(st.just(0.0), st.floats(0.0, float(n2)))
    adversary = draw(adversaries)
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


@st.composite
def attacks(draw) -> tuple[Scenario, dict]:
    active = st.sampled_from([AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR])
    scenario = draw(scenarios(active))
    reach = 2.0 * scenario.n2
    if scenario.adversary is AdversaryKind.JAMMER:
        jam = st.one_of(st.sampled_from([-2.0, 0.0, -80.0, 3.0]), st.floats(-reach, reach))
        return scenario, {"jam_value": draw(jam)}
    key = st.one_of(st.sampled_from([4.0, 2.5, 0.0]), st.floats(-1.0, reach))
    return scenario, {"forge_announcement": draw(st.booleans()), "adversary_key": draw(key)}


@given(scenarios())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_closed_form_matches_the_tick_loop(scenario):
    assert_paths_agree(scenario)


@given(attacks())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_attacks_match_the_tick_loop(attack):
    scenario, options = attack
    assert_attacks_agree(scenario, **options)


@st.composite
def batches(draw) -> tuple[Scenario, Runs, float | None, float | None, int]:
    """A scenario, runs that differ from it in seed and secrets, jam value, forger key, pass size.

    An impersonator's runs have no key; it is silent or forges with one key for the batch.
    """
    scenario = draw(scenarios())
    n1, n2 = scenario.secret_domain
    impersonation = scenario.adversary is AdversaryKind.IMPERSONATOR
    seeds, secrets, keys = [], [], []
    for _ in range(draw(st.integers(1, 9))):
        seeds.append(draw(st.integers(0, 2**64 - 1)))
        secrets.append(draw(st.integers(n1, n2)))
        keys.append(None if impersonation else draw(st.integers(n1, n2)))
    jam_value = forger_key = None
    if scenario.adversary is AdversaryKind.JAMMER:
        reach = 2.0 * n2
        jam_value = draw(st.one_of(st.just(JAM_VALUE), st.floats(-reach, reach)))
    if impersonation:
        forger_key = draw(st.sampled_from([None, 4.0, 2.5, 0.0]))
    runs = Runs(seeds, secrets, keys)
    return scenario, runs, jam_value, forger_key, draw(st.integers(1, len(seeds)))


def _batched(
    scenario: Scenario, runs: Runs, jam_value, forger_key, per_pass: int
) -> tuple[list[decoy.RunBatch], list[DecoyOutcome]]:
    """The passes simulate_runs makes, taking per_pass runs at a time, and every run's outcome."""
    with mock.patch.object(decoy, "CELL_BUDGET", per_pass * scenario.max_ticks):
        passes = list(simulate_runs(scenario, runs, jam_value, forger_key))
    count = len(runs.seeds)
    sizes = [min(per_pass, count - start) for start in range(0, count, per_pass)]
    assert [len(batch) for batch in passes] == sizes
    return passes, [batch.outcome(row) for batch in passes for row in range(len(batch))]


@given(batches())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_batch_matches_its_runs_one_at_a_time(batch):
    scenario, runs, jam_value, forger_key, per_pass = batch
    _, outcomes = _batched(scenario, runs, jam_value, forger_key, per_pass)
    for index, outcome in enumerate(outcomes):
        alone = run_alone(scenario, runs, index)
        _assert_agree(outcome, simulate_transmission(alone, jam_value, forger_key))
        # What a run of the scenario does: the default jam value, and no forgery.
        if forger_key is None and jam_value in (None, JAM_VALUE):
            _assert_agree(run_scenario(alone).result, _entry_point(alone))


def _entry_point(scenario: Scenario):
    """The single-run entry point for the scenario's adversary, run with its defaults."""
    if scenario.adversary is AdversaryKind.JAMMER:
        return attack_jam(scenario)
    if scenario.adversary is AdversaryKind.IMPERSONATOR:
        return attack_impersonate(scenario)
    return run_decoy_transmission(scenario)


def test_seeds_in_shared_passes_match_the_entry_points():
    # run_passes is what a sweep runs: several seeds to a pass, each
    # outcome its row of the batch.
    noisy = dict(noise_sigma=0.05, epsilon_stab=0.025, hold_ticks=4)
    impersonated = dict(adversary=AdversaryKind.IMPERSONATOR, party_secrets={"alice": 3})
    seen = set()
    for options in (
        dict(noisy, max_ticks=60),
        dict(adversary=AdversaryKind.PASSIVE),
        dict(noisy, adversary=AdversaryKind.JAMMER, max_ticks=60),
        dict(noisy, adversary=AdversaryKind.JAMMER, max_ticks=100),
        impersonated,
        dict(impersonated, defense_enabled=False),
    ):
        scenario = decoy_scenario(seed=2**64 - 12, **options)
        kind = scenario.adversary
        with mock.patch.object(decoy, "CELL_BUDGET", 4 * scenario.max_ticks):
            batches = list(run_passes(scenario, 11))
        assert [len(batch) for batch in batches] == [4, 4, 3]
        rows = [(batch, row) for batch in batches for row in range(len(batch))]
        for index, (batch, row) in enumerate(rows):
            alone = dataclasses.replace(scenario, seed=scenario.seed + index)
            assert batch.runs.seeds[row] == alone.seed
            outcome = batch.outcome(row)
            if kind in (AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR):
                outcome = attack_result(batch, row)
            _assert_agree(outcome, _entry_point(alone))
            assert batch.digests[row] == replay_digest(outcome.transcript)
            run = run_scenario(alone)  # an attack run is OK whatever it did
            assert run.status == (outcome.status if isinstance(outcome, DecoyOutcome) else OK)
            assert run.digest == batch.digests[row]
            if isinstance(outcome, DecoyOutcome):
                seen.add(outcome.status)
            else:
                seen.add((outcome.kind, outcome.disrupted, outcome.timeout, outcome.adversary_learned))
    # Completed and timed-out runs, jams that did and did not disrupt, and
    # impersonators that did and did not learn the secret.
    assert seen == {
        OK,
        TIMEOUT,
        ("jam", True, False, False),
        ("jam", True, True, False),
        ("jam", False, False, False),
        ("impersonate", True, True, False),
        ("impersonate", True, True, True),
    }


@pytest.mark.parametrize("count", [10**18, 2**64])
def test_run_passes_memory_does_not_grow_with_its_count(count):
    # The seeds are a range and the secrets zero-stride views: the first
    # pass of a huge count costs what a pass alone costs, and its runs
    # read as alone.
    scenario = decoy_scenario(seed=5)
    per_pass = decoy.CELL_BUDGET // scenario.max_ticks

    def first_pass(of: int) -> tuple[decoy.RunBatch, int]:
        tracemalloc.start()
        try:
            batch = next(run_passes(scenario, of))
            return batch, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_pass = first_pass(per_pass)[1]
    batch, peak = first_pass(count)
    assert peak <= 2 * one_pass
    for row in range(3):
        alone = run_scenario(dataclasses.replace(scenario, seed=scenario.seed + row))
        assert batch.runs.seeds[row] == alone.scenario.seed
        _assert_agree(batch.outcome(row), alone.result)
        assert batch.digests[row] == alone.digest


@pytest.mark.parametrize(
    "adversary, jam_value",
    [(AdversaryKind.NONE, None), (AdversaryKind.JAMMER, JAM_VALUE)],
    ids=["honest", "jammer"],
)
def test_a_batch_spans_later_blocks_timeouts_and_passes(adversary, jam_value):
    # Tight tolerance under noise: most receivers detect only in a block
    # after the first, and one never does.
    scenario = decoy_scenario(
        noise_sigma=0.05, epsilon_stab=0.025, hold_ticks=4, max_ticks=100, adversary=adversary
    )
    runs = Runs(range(30), [3 + seed % 5 for seed in range(30)], [5] * 30)
    per_pass = 7
    passes, outcomes = _batched(scenario, runs, jam_value, None, per_pass)
    later, ends_everywhere = 0, False
    for start, batch in zip(range(0, len(runs.seeds), per_pass), passes):
        in_pass = runs._make(column[start : start + per_pass] for column in runs)
        first_block = int(decoy._plans(scenario, in_pass).stop.max())
        ends = {
            "first" if length <= first_block else "budget" if length == 100 else "later"
            for length in batch.lengths
        }
        # A pass whose runs end in the first block, a later one and at the budget.
        ends_everywhere |= ends == {"first", "later", "budget"}
        later += sum(
            outcome.detected_tick is not None and outcome.detected_tick >= first_block
            for outcome in outcomes[start : start + per_pass]
        )
        # Row i holds a reading for each of its run's lengths[i] ticks, then NaN.
        assert batch.readings.shape == (len(batch), max(batch.lengths))
        for row, length in zip(batch.readings, batch.lengths):
            assert np.isfinite(row[:length]).all() and np.isnan(row[length:]).all()
    assert later >= 10
    assert ends_everywhere
    assert any(outcome.status == TIMEOUT for outcome in outcomes)
    for index, outcome in enumerate(outcomes):
        alone = run_alone(scenario, runs, index)
        _assert_agree(outcome, simulate_transmission(alone, jam_value))


def _bits(values) -> list[str]:
    return [float(value).hex() for value in values]


def _oracle_set_up(scenario: Scenario, jam_value, forger_key):
    """The ramps tick_oracle.transmission builds for a run, by the stream each draws from.

    Its outcome comes with them.
    """
    ramps = {}

    def recorded(rng, *args, **kwargs):
        ramps[rng.stream_id] = ramp = generate_ramp(rng, *args, **kwargs)
        return ramp

    with mock.patch.object(tick_oracle, "generate_ramp", recorded):
        outcome = tick_oracle.transmission(scenario, jam_value, forger_key)
    return ramps, outcome


def _assert_columns_hold(columns: "decoy._Ramps", ramp, budget: int) -> None:
    """Run 0 of the columns is `ramp`: field by field, then every tick's value by bit pattern."""
    fields = (columns.target[0], columns.start[0], columns.stabilize[0])
    assert fields == (ramp.target, ramp.start_tick, ramp.stabilize_tick)
    if columns.schedules is not None:
        duration = columns.stabilize[0] - columns.start[0]
        assert _bits(columns.schedules[0, :duration]) == _bits(ramp.schedule)
    values = decoy._contributions(columns, [0], 0, budget)[0]
    assert _bits(values) == _bits(ramp.value_at(tick) for tick in range(budget))


def _assert_plan_is_the_oracles(scenario: Scenario, forger_key=None) -> None:
    scenario.validate()
    budget = scenario.max_ticks
    jam_value = JAM_VALUE if scenario.adversary is AdversaryKind.JAMMER else None
    ramps, looped = _oracle_set_up(scenario, jam_value, forger_key)
    runs = Runs.of(scenario)
    if scenario.adversary is AdversaryKind.IMPERSONATOR:
        runs = runs._replace(keys=[-1])  # out of every domain: the plan must not read it
    plans = decoy._plans(scenario, runs, forger_key)
    receiver, sender = ramps.get(STREAM_RECEIVER), ramps.get(STREAM_SENDER)
    if scenario.adversary is AdversaryKind.IMPERSONATOR:
        assert receiver is None
        (batch,) = simulate_runs(scenario, runs, forger_key=forger_key)
        assert batch.outcome(0).receiver_key is None
        other, announce = ramps.get(STREAM_ADVERSARY), budget
        if forger_key is not None:  # the forged tick is the adversary stream's first draw
            adversary = RngStream(scenario.seed, STREAM_ADVERSARY)
            announce = adversary.integers(1, scenario.receiver_start_max)
    else:
        assert plans.other.target[0] == scenario.party_secrets["bob"]
        other, announce = receiver, receiver.start_tick
    if other is None:
        assert not decoy._contributions(plans.other, [0], 0, budget).any()
    else:
        _assert_columns_hold(plans.other, other, budget)
    assert plans.announce[0] == announce
    assert looped.announce_tick in (None, announce)
    if sender is None:  # the run ended before the oracle's sender would start
        assert plans.sender.start[0] >= len(looped.transcript.measurements())
    else:
        _assert_columns_hold(plans.sender, sender, budget)
    if receiver is None:
        assert plans.stop[0] == budget
    elif sender is not None:
        settled = max(receiver.stabilize_tick, sender.stabilize_tick)
        assert plans.stop[0] == min(budget, settled + scenario.hold_ticks)
    assert (plans.noise is None) == (scenario.noise_sigma == 0.0)


def test_columnar_plans_are_the_tick_loops_set_up():
    # Every ramp model, defense on and off, every adversary (a silent
    # impersonator and forgers with and without a ramp), noise and none,
    # and a budget whose receiver always starts at tick 1.
    checked = 0
    for max_ticks, domain in ((120, (1, 8)), (20, (1, 2))):
        secrets = {"alice": 2, "bob": 1}
        base = decoy_scenario(max_ticks=max_ticks, secret_domain=domain, party_secrets=secrets)
        assert (base.receiver_start_max == 1) == (max_ticks == 20)
        for model, defended, noise, adversary in itertools.product(
            RampModel, (True, False), (0.0, 0.05), AdversaryKind
        ):
            scenario = dataclasses.replace(
                base, ramp_model=model, defense_enabled=defended, noise_sigma=noise
            )
            scenario = dataclasses.replace(scenario, adversary=adversary)
            if adversary is AdversaryKind.IMPERSONATOR:
                scenario = dataclasses.replace(scenario, party_secrets={"alice": 2})
            forger_keys = [None]
            if adversary is AdversaryKind.IMPERSONATOR:
                forger_keys += [4.0, 0.0]
            for seed, forger_key in itertools.product(range(4), forger_keys):
                _assert_plan_is_the_oracles(dataclasses.replace(scenario, seed=seed), forger_key)
                checked += 1
    assert checked == 2 * 3 * 2 * 2 * (3 + 3) * 4


def test_padded_random_ramps_are_each_ramps_own_cumsum():
    # The padded matrix gives each row the values one ramp computed on its
    # own gives: its cumsum, divided by its own pairwise sum, scaled.
    # Long ramps make numpy's pairwise sum differ from a sequential one.
    # generate_ramp, drawing from a live stream, gives the same schedule.
    for max_ramp in (1, 7, 66, 300):
        seeds = list(range(40))
        targets = np.array([1.0 + seed % 9 for seed in seeds]) * 2.0**-3
        rows = RngStream.seed_rows(seeds, [STREAM_SENDER])[:, 0]
        _, durations, padded = decoy._random_ramps(seeds, STREAM_SENDER, rows, max_ramp)
        schedules = decoy._ramp_schedules(padded, durations, targets)
        for seed, target, duration, row in zip(seeds, targets, durations, schedules):
            rng = RngStream(seed, STREAM_SENDER)
            assert duration == rng.integers(0, max_ramp)
            expected = []
            if duration:
                weights = rng.uniform(size=duration)
                partial = weights.cumsum() / float(weights.sum())
                expected = np.concatenate(([0.0], target * partial[:-1]))
            assert _bits(row[:duration]) == _bits(expected)
            ramp = generate_ramp(RngStream(seed, STREAM_SENDER), target, 0, max_ramp)
            assert _bits(ramp.schedule) == _bits(expected)
    # Weights that sum to zero (unreachable from a stream) climb evenly.
    flat = decoy._ramp_schedules(np.zeros((2, 4)), np.array([3, 0]), np.array([6.0, 1.0]))
    assert flat.tolist() == [[0.0, 2.0, 4.0, 6.0, 6.0], [0.0] * 5]


def test_random_ramp_draws_are_each_streams_generator_draws():
    # 100,000 streams with the edge seeds of a seed_rows pass of one, split
    # over (stream, start range, ramp bound) cases: decoy.cfg's and
    # noisy.cfg's receivers, budgets whose receiver draws no start, a start
    # range where Lemire redraws about half the rows, a sender, and forgers.
    rng = random.Random(16)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345, 2**40 + 7]
    while len(seeds) < 100_000:
        seeds.append(rng.getrandbits(rng.choice([16, 32, 33, 64])))
    cases = [
        (STREAM_RECEIVER, 32, 65),
        (STREAM_RECEIVER, 45, 91),
        (STREAM_RECEIVER, 1, 1),
        (STREAM_RECEIVER, 1, 2),
        (STREAM_RECEIVER, 1, 3),
        (STREAM_RECEIVER, 2**31 + 1, 4),
        (STREAM_SENDER, 1, 129),
        (STREAM_ADVERSARY, 32, 65),
        (STREAM_ADVERSARY, 1, 1),
    ]
    size = -(-len(seeds) // len(cases))
    for number, (stream, start_max, max_ramp) in enumerate(cases):
        chunk = seeds[number * size : (number + 1) * size]
        rows = RngStream.seed_rows(chunk, [stream])[:, 0]
        starts, durations, weights = decoy._random_ramps(chunk, stream, rows, max_ramp, start_max)
        expected_starts, expected_durations = [], []
        expected_weights = np.zeros_like(weights)
        for index, seed in enumerate(chunk):
            generator = np.random.default_rng([seed, stream])
            expected_starts.append(generator.integers(1, start_max, endpoint=True))
            expected_durations.append(duration := generator.integers(0, max_ramp, endpoint=True))
            expected_weights[index, :duration] = generator.random(duration)
        assert starts.tolist() == expected_starts, (stream, start_max, max_ramp)
        assert durations.tolist() == expected_durations, (stream, start_max, max_ramp)
        # Past its duration a row's weights are never read.
        drawn = np.where(np.arange(max_ramp) < durations[:, None], weights, 0.0)
        assert np.array_equal(drawn.view(np.uint64), expected_weights.view(np.uint64))
        assert {0, 1, max_ramp} <= set(expected_durations)


# A duration in [0, 39,649], the ramp bound at max_ticks 237,897, redraws
# when the low word of its product falls below 2^32 mod 39,650 = 39,647:
# about once in 108,000 streams.  RngStream.lemire found these seeds among
# 0 to 399,999; the receiver's start range, the forger's too, is [1, 19,824].
# The forger's seed runs as a forging impersonation.
LEMIRE_REDRAWS = {
    "sender's duration": (47_984, STREAM_SENDER, 0, "duration"),
    "receiver's duration": (51_016, STREAM_RECEIVER, 32, "duration"),
    "receiver's start": (206_376, STREAM_RECEIVER, 0, "start"),
    "forger's start": (4_970, STREAM_ADVERSARY, 0, "start"),
}


@pytest.mark.parametrize("case", LEMIRE_REDRAWS)
def test_a_draw_lemire_redraws_comes_from_the_streams_generator(case):
    seed, stream, shift, draw = LEMIRE_REDRAWS[case]
    scenario = decoy_scenario(max_ticks=237_897, seed=seed)
    forger_key = None
    if stream == STREAM_ADVERSARY:
        impersonated = dict(adversary=AdversaryKind.IMPERSONATOR, party_secrets={"alice": 3})
        scenario, forger_key = dataclasses.replace(scenario, **impersonated), 4.0
    span = scenario.receiver_start_max if draw == "start" else scenario.max_ramp_ticks + 1
    rows = RngStream.seed_rows([seed], [stream])[:, 0]
    word = RngStream.first_outputs(rows, 1)[:, 0] >> np.uint64(shift)
    assert RngStream.lemire(word, span)[1].tolist() == [True]
    built = []
    generator = RngStream._generator

    def recorded(rng):
        if rng._gen is None:
            built.append((rng.seed, rng.stream_id))
        return generator(rng)

    with mock.patch.object(RngStream, "_generator", recorded):
        (batch,) = simulate_runs(scenario, Runs.of(scenario), forger_key=forger_key)
    assert built == [(seed, stream)]
    looped = tick_oracle.transmission(scenario, forger_key=forger_key)
    _assert_agree(batch.outcome(0), looped)
    assert batch.digests[0] == replay_digest(looped.transcript)
    _assert_plan_is_the_oracles(scenario, forger_key)


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


def _arming_tick(scenario: Scenario, values: list[float]):
    """The first tick whose last max(1, hold // 2) readings settle at N1 - 0.5 or more."""
    watch = max(1, scenario.hold_ticks // 2)
    for tick in range(len(values)):
        level = detect_stabilization(values[: tick + 1], scenario.epsilon_stab, watch)
        if level is not None and level >= scenario.n1 - 0.5:
            return tick
    return None


def test_jammer_arming_after_the_detection_leaves_the_run_honest():
    # The sender is flat but the receiver still ramps when he detects, so
    # the raw total the jammer watches has not settled yet.
    scenario = decoy_scenario(
        adversary=AdversaryKind.JAMMER, defense_enabled=False, seed=0, hold_ticks=4
    )
    outcome = assert_paths_agree(scenario, jam_value=-2.0)
    values = [value for _, value in outcome.transcript.measurements()]
    assert _arming_tick(scenario, values) is None
    assert outcome.receiver_stabilize_tick > outcome.detected_tick
    assert outcome.status == OK and outcome.recovered == 3 and not outcome.jammed
    assert outcome.transcript == simulate_transmission(scenario).transcript


def test_jammer_arming_on_the_last_tick_never_jams():
    scenario = decoy_scenario(
        adversary=AdversaryKind.JAMMER,
        seed=67,
        max_ticks=49,
        hold_ticks=8,
        noise_sigma=0.05,
        epsilon_stab=0.04,
    )
    outcome = assert_paths_agree(scenario, jam_value=-2.0)
    values = [value for _, value in outcome.transcript.measurements()]
    assert _arming_tick(scenario, values) == scenario.max_ticks - 1
    assert outcome.status == TIMEOUT and not outcome.jammed


def test_three_term_sum_falls_back_to_fsum():
    # (a + b) + c rounds differently from the exact sum; fsum does not.  On
    # (1, 2^-53, 2^-110) the two TwoSum errors' own sum rounds, and
    # total + (e1 + e2) reads 1.0: only the fsum fallback gets it right.
    parts = [
        np.array([1.0, 1.0, 1.0]),
        np.array([1e-16, 2.0, 2.0**-53]),
        np.array([-1.0, 0.5, 2.0**-110]),
    ]
    assert measure_block(parts, None).values.tolist() == [1e-16, 3.5, 1.0000000000000002]
    # An exact tick keeps the float sum's bits, a negative zero included.
    [zero] = measure_block([np.array([-0.0])] * 3, None).values
    assert math.copysign(1.0, zero) == -1.0
    # Random triples over 2^-30..2^30: a third part that is unrelated, or
    # cancels a + b or a down to a part in 2^30 of its own size.
    rng = np.random.default_rng(24)
    shape = (50, 40)

    def spread():
        return rng.uniform(-1.0, 1.0, shape) * np.exp2(rng.integers(-30, 31, shape))

    a, b, c = spread(), spread(), spread()
    c = np.choose(rng.integers(0, 3, shape), [c, -(a + b) + c * 2.0**-30, -a + c * 2.0**-30])
    expected = [[math.fsum(cell) for cell in zip(*row)] for row in zip(a, b, c)]
    assert measure_block([a, b, c], None).values.tobytes() == np.array(expected).tobytes()


def test_inexact_jammed_ticks_take_fsum():
    scenario = decoy_scenario(
        adversary=AdversaryKind.JAMMER,
        seed=0,
        hold_ticks=2,
        epsilon_stab=30.0,
        party_secrets={"alice": 37, "bob": 58},
    )
    outcome = assert_paths_agree(scenario, jam_value=-2.7)
    assert outcome.jammed
    # Taking every three-term sum as exact changes the record.
    no_error = lambda a, b, total: np.zeros_like(total)
    with mock.patch.object(channel, "_two_sum_error", no_error):
        assert simulate_transmission(scenario, -2.7).transcript != outcome.transcript


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "seed, key, recovered",
    [
        (5, math.nan, 3),
        (5, -1.0, 3),
        (5, 0.0, 3),
        (5, 1e308, None),
        (2, 1e308, None),
        (5, math.inf, NonFiniteValue),
    ],
)
def test_forger_edge_keys(seed, key, recovered):
    # A key that is not > 0 forges the announcement alone, so the defended
    # sender ramps and the impersonator reads her secret; a ramp to 1e308
    # swamps it, and an infinite key is no contribution the channel takes.
    # Seed 2's forger ramps for 7 of 19 ticks: its schedule row's unread
    # cells overflow, without a warning.
    scenario = decoy_scenario(
        adversary=AdversaryKind.IMPERSONATOR, party_secrets={"alice": 3}, seed=seed
    )
    options = dict(forge_announcement=True, adversary_key=key)
    if recovered is NonFiniteValue:
        with pytest.raises(NonFiniteValue):
            attack_impersonate(scenario, **options)
        with pytest.raises(NonFiniteValue):
            tick_oracle.attack(scenario, **options)
    else:
        assert assert_attacks_agree(scenario, **options).adversary_recovered == recovered


def test_rejected_first_window_does_not_end_the_search():
    # Near 2^53 the forger's own contribution rounds the public sum: the
    # first settled window reads as 2^53, past N2; a later one reads N2.
    top = 2**53 - 1
    scenario = decoy_scenario(
        adversary=AdversaryKind.IMPERSONATOR,
        seed=8,
        secret_domain=(1, top),
        party_secrets={"alice": top},
        defense_enabled=False,
    )
    reads = []
    with mock.patch.object(decoy, "recover_secrets", _recorder(decoy.recover_secrets, reads)):
        attack = assert_attacks_agree(scenario, forge_announcement=True, adversary_key=3.0)
    assert attack.adversary_recovered == top and attack.adversary_learned
    # The kernel's first call reads its candidate windows in order; the oracle reads last.
    assert reads[0] is None and reads[-1] == top


def _forger_near_the_top(max_ticks: int) -> Scenario:
    """A forger whose ramp near 2^53 rounds the public sum: a long streak of rejected windows."""
    top = 2**53 - 1
    return decoy_scenario(
        adversary=AdversaryKind.IMPERSONATOR,
        seed=7,
        secret_domain=(1, top),
        party_secrets={"alice": top},
        defense_enabled=False,
        max_ticks=max_ticks,
    )


def test_rejected_windows_streak_matches_the_tick_loop():
    # About 50 windows are rejected before the forger reads N2.
    scenario = _forger_near_the_top(2000)
    attack = assert_attacks_agree(scenario, forge_announcement=True, adversary_key=3.0)
    assert attack.adversary_recovered == 2**53 - 1 and attack.adversary_learned


@pytest.mark.parametrize("max_ticks", [2000, 8000, 32000])
def test_impersonator_search_reads_cells_linear_in_the_budget(max_ticks):
    # Each rejected window is searched past on a short span, not the whole
    # row again: at 32,000 ticks 871 windows are rejected, and a search of
    # the whole row each time read 27.9 million cells.
    searched = []
    search = decoy._first_settled

    def counted(values, *args):
        searched.append(values.size)
        return search(values, *args)

    with mock.patch.object(decoy, "_first_settled", counted):
        attack = attack_impersonate(
            _forger_near_the_top(max_ticks), forge_announcement=True, adversary_key=3.0
        )
    assert attack.adversary_recovered == 2**53 - 1
    assert len(searched) > 40 and sum(searched) <= 2 * max_ticks


def test_impersonator_pass_without_a_rejection_searches_once():
    # attack's undefended impersonator sweep: every run reads its secret
    # on its first settled window, so the pass makes one search.
    scenario = decoy_scenario(
        adversary=AdversaryKind.IMPERSONATOR, defense_enabled=False, max_ticks=400
    )
    calls = []
    search = decoy._first_settled

    def counted(values, *args):
        calls.append(values.shape)
        return search(values, *args)

    with mock.patch.object(decoy, "_first_settled", counted):
        [batch] = run_passes(scenario, 100)
    assert calls == [(100, 400)]
    assert batch.table.adversary_learned.all()


def _recorder(function, results: list):
    """recover_secrets, recording what it reads off its first element, if any: None if rejected."""

    def recorded(*args):
        values, rejected = function(*args)
        if len(values):
            results.append(None if rejected[0] else int(values[0]))
        return values, rejected

    return recorded


def _best_us_per_tick(run, max_ticks: int) -> float:
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        outcome = run(max_ticks)
        best = min(best, time.perf_counter() - started)
        assert len(outcome.transcript.measurements()) == max_ticks
    return best * 1e6 / max_ticks


def _assert_linear(run) -> None:
    short, long = _best_us_per_tick(run, 4000), _best_us_per_tick(run, 32000)
    assert long <= 2.0 * short, f"{long:.2f} us/tick at 32k vs {short:.2f} at 4k"


def test_closed_form_cost_is_linear_in_max_ticks():
    # Zero tolerance under noise never settles, so every run times out.
    _assert_linear(
        lambda max_ticks: simulate_transmission(
            decoy_scenario(noise_sigma=0.05, epsilon_stab=0.0, max_ticks=max_ticks)
        )
    )


def test_noisy_jammer_cost_is_linear_in_max_ticks():
    # Neither the jammer nor the receiver ever settles at zero tolerance.
    def run(max_ticks):
        scenario = decoy_scenario(
            adversary=AdversaryKind.JAMMER, noise_sigma=0.05, epsilon_stab=0.0, max_ticks=max_ticks
        )
        return attack_jam(scenario)

    _assert_linear(run)


def test_forging_impersonator_cost_is_linear_in_max_ticks():
    def run(max_ticks):
        scenario = decoy_scenario(
            adversary=AdversaryKind.IMPERSONATOR, party_secrets={"alice": 3}, max_ticks=max_ticks
        )
        return attack_impersonate(scenario, forge_announcement=True)

    _assert_linear(run)


def _settled_windows(row, width, epsilon, floor):
    """Each window of `row` that the exact detector settles at `floor` or higher: (end, level)."""
    for column in range(len(row) - width + 1):
        level = detect_stabilization(row[column : column + width].tolist(), epsilon, width)
        if level is not None and level >= floor:
            yield column + width - 1, level


def _settled_by_brute_force(values, width, epsilon, floor) -> list:
    """_first_settled's answer, as _hits gives it, from the exact detector on every window."""
    return [next(_settled_windows(row, width, epsilon, floor), None) for row in values]


def _read_by_brute_force(values, own, width, epsilon, floor, domain, sigma) -> list:
    """_impersonator_reads' answer: each row's first settled window recover_secret accepts."""
    found = []
    for row, own_row in zip(values, own):
        read = -1
        for end, level in _settled_windows(row, width, epsilon, floor):
            try:
                read = recover_secret(level + own_row[end], own_row[end], domain, sigma)
                break
            except OutOfDomain:
                continue
        found.append(read)
    return found


def _hits(columns) -> list:
    """_first_settled's columns as one entry per row: (last column, level), or None."""
    hit, end, level = columns
    return [(e, v) if h else None for h, e, v in zip(hit.tolist(), end.tolist(), level.tolist())]


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def settle_searches(draw):
    """Values, window width, tolerance and floor for _first_settled.

    Each row sits on a level (the floor, one ulp either side of it, or
    above it) plus offsets of 0, +-epsilon, +-2 epsilon or anything
    between, and with or without Gaussian noise, at magnitudes up to
    about 2^52.  The tolerance then becomes one window's tightest
    tolerance, the floor its exact mean, or both, each nudged by an ulp.
    """
    width = draw(st.integers(1, 6))
    # Often a single window per row, so that the nudged window decides.
    columns = max(0, width + draw(st.one_of(st.just(0), st.integers(-2, 24))))
    rows = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 1e-3, 2.0**40, 3.0e15]))
    floor = scale * draw(st.sampled_from([0.5, 1.0, 2.5]))
    epsilon = scale * draw(st.sampled_from([0.0, 0.25, 0.1, 2.0**-20]))
    sigma = scale * draw(st.sampled_from([0.0, 0.05, 0.01]))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, columns))
    levels = st.sampled_from([floor, _ulps(floor, -1), _ulps(floor, 1), floor + epsilon, 3 * floor])
    offsets = st.sampled_from([0.0, epsilon, -epsilon, 2 * epsilon, -2 * epsilon])
    if epsilon:
        offsets |= st.floats(-3 * epsilon, 3 * epsilon)
    values = np.array(
        [
            draw(levels) + np.array(draw(st.lists(offsets, min_size=columns, max_size=columns)))
            for _ in range(rows)
        ]
    ).reshape(rows, columns) + sigma * noise
    if columns >= width:
        row = draw(st.integers(0, rows - 1))
        column = draw(st.one_of(st.just(0), st.integers(0, columns - width)))
        window = values[row, column : column + width].tolist()
        mean = math.fsum(window) / width
        retarget = draw(st.sampled_from(["epsilon", "floor", "both"]))
        if retarget != "floor":
            tightest = max(max(window) - mean, mean - min(window))
            epsilon = max(0.0, _ulps(tightest, draw(st.sampled_from([0, -1, 1]))))
        if retarget != "epsilon":
            floor = _ulps(mean, draw(st.sampled_from([0, -1, 1])))
    return values, width, epsilon, floor


@settings(max_examples=600, deadline=None, derandomize=True)
@given(settle_searches())
def test_first_settled_is_the_exact_scan_of_every_window(search):
    # The spread, floor and mean tests only drop windows the exact
    # detector rejects: the first settled window is the brute-force one.
    values, width, epsilon, floor = search
    found = _hits(decoy._first_settled(values, width, epsilon, floor))
    expected = _settled_by_brute_force(values, width, epsilon, floor)
    assert repr(found) == repr(expected)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(settle_searches(), st.booleans(), st.data())
def test_impersonator_reads_the_first_settled_window_it_does_not_reject(search, zero, data):
    # A domain whose top is one of the drawn values, so that some settled
    # windows lie above it and are rejected, and some below it.  Each row
    # reads what a scan of every window, recovering each settled one in
    # turn, first reads, at zero tolerance and at the drawn one.
    values, width, epsilon, floor = search
    epsilon = 0.0 if zero else epsilon
    finite = values[np.isfinite(values)].tolist() or [floor]
    top = min(2**53, math.floor(data.draw(st.sampled_from(finite), label="top")))
    domain = (min(0, top), top)
    sigma = data.draw(st.sampled_from([0.0, 0.01, 0.25]), label="sigma")
    seed = data.draw(st.integers(0, 2**32 - 1), label="own seed")
    high = data.draw(st.sampled_from([0.0, 3.0]), label="own ramp's top")
    own = np.random.default_rng(seed).uniform(0.0, high, values.shape)
    found = decoy._impersonator_reads(values, own, width, epsilon, floor, domain, sigma)
    assert found.tolist() == _read_by_brute_force(values, own, width, epsilon, floor, domain, sigma)


# Flat windows whose fsum mean misses their value, so that the exact
# detector rejects them at zero tolerance: (width, value).
_UNSETTLED_FLAT = [(3, 884295128254041.2), (5, 1852357561398350.2), (6, 1083569804167152.8)]


@pytest.mark.parametrize("width, value", _UNSETTLED_FLAT)
def test_zero_tolerance_rejects_a_flat_window_whose_mean_misses_its_value(width, value):
    assert math.fsum([value] * width) / width != value
    settled = 7.0
    values = np.array(
        [
            [value] * (3 * width),  # alone
            [value] * width + [settled] * (2 * width),  # followed by a settled window
            [settled] * width + [value] * (2 * width),  # after one
        ]
    )
    first_settled = [None, (2 * width - 1, settled), (width - 1, settled)]
    assert _hits(decoy._first_settled(values[:1, :width], width, 0.0, 0.5)) == [None]
    assert _hits(decoy._first_settled(values, width, 0.0, 0.5)) == first_settled
    assert _settled_by_brute_force(values, width, 0.0, 0.5) == first_settled


@pytest.mark.parametrize("width, value", _UNSETTLED_FLAT)
def test_impersonator_reads_past_a_rejected_window_and_a_flat_one_that_misses(width, value):
    # Domain [1, 8]: a window flat at 9.0 settles and is rejected, one at
    # 7.0 is read, and one flat at `value` never settles at zero tolerance.
    rejected, read = 9.0, 7.0
    values = np.array(
        [
            [value] * (3 * width),  # never settles
            [value] * width + [rejected] * width + [read] * width,  # rejected, then read
            [rejected] * width + [value] * (2 * width),  # rejected, then none
            [rejected] * (width + 1) + [read] * (2 * width - 1),  # rejected twice, then read
        ]
    )
    own = np.zeros_like(values)
    args = (values, own, width, 0.0, 0.5, (1, 8), 0.0)
    assert decoy._impersonator_reads(*args).tolist() == [-1, 7, -1, 7]
    assert _read_by_brute_force(*args) == [-1, 7, -1, 7]


def test_impersonator_reads_a_window_that_overlaps_a_rejected_one():
    # At tolerance 1 the first window settles at 8.6, past the domain's
    # top of 8 by more than 0.5; the one starting a tick later, at 8.4, is
    # read.  A row whose rejected window is its last reads nothing, and
    # noise widens what recover_secrets accepts to 0.5 + 4 sigma.
    values = np.array([[9.0, 8.4, 8.4, 8.4], [0.0, 9.0, 8.4, 8.4]])
    own = np.full_like(values, 2.0)
    for sigma, reads in ((0.0, [8, -1]), (0.05, [8, 8])):
        args = (values, own, 3, 1.0, 0.5, (1, 8), sigma)
        assert decoy._impersonator_reads(*args).tolist() == reads
        assert _read_by_brute_force(*args) == reads
