"""Ramp generation, stabilization detection, recovery, end-to-end transmission."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoysim import (
    AdversaryKind,
    InvalidTarget,
    OutOfDomain,
    Protocol,
    RampModel,
    RngStream,
    detect_stabilization,
    generate_ramp,
    recover_secret,
    run_decoy_transmission,
    run_scenario,
)
from decoysim import decoy
from decoysim.decoy import IN_BUSINESS, Runs, simulate_runs
from decoysim.engine import STREAM_NOISE, STREAM_RECEIVER, STREAM_SENDER
from conftest import decoy_scenario, sync_scenario, with_seed


def _rng(seed=0) -> RngStream:
    return RngStream(seed, 0)


class TestGenerateRamp:
    def test_synchronous_jumps_at_start(self):
        ramp = generate_ramp(_rng(), 7.0, 10, 20, RampModel.SYNCHRONOUS)
        assert ramp.stabilize_tick == 10
        assert ramp.value_at(9) == 0.0
        assert ramp.value_at(10) == 7.0
        assert ramp.value_at(500) == 7.0

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_nonpositive_target_rejected(self, bad):
        with pytest.raises(InvalidTarget):
            generate_ramp(_rng(), bad, 0, 10)

    def test_random_ramps_satisfy_invariants(self):
        # property oracle over 10^4 generated ramps
        rng = _rng(7)
        for i in range(10_000):
            target = 1.0 + (i % 97)
            ramp = generate_ramp(rng, target, start_tick=i % 5, max_ramp_ticks=25)
            ramp.check_invariants()
            assert ramp.stabilize_tick <= ramp.start_tick + 25
            assert ramp.value_at(ramp.start_tick - 1) == 0.0
            assert ramp.value_at(ramp.stabilize_tick) == target

    def test_random_ramp_is_nondecreasing_and_hits_target(self):
        rng = _rng(3)
        ramp = generate_ramp(rng, 12.0, 4, 40)
        values = [ramp.value_at(t) for t in range(0, ramp.stabilize_tick + 5)]
        assert values == sorted(values)
        assert values[-1] == 12.0

    def test_deterministic_rate_duration_scales_with_target(self):
        for target in (1, 3, 8):
            ramp = generate_ramp(
                _rng(), float(target), 0, 100,
                RampModel.DETERMINISTIC_RATE, ticks_per_unit=4,
            )
            assert ramp.stabilize_tick == 4 * target
            ramp.check_invariants()

    def test_deterministic_rate_requires_rate(self):
        with pytest.raises(ValueError):
            generate_ramp(_rng(), 3.0, 0, 100, RampModel.DETERMINISTIC_RATE)


class TestDetectStabilization:
    def test_constant_window_true(self):
        assert detect_stabilization([8, 8, 8, 8, 8], 0.0, 5) == 8.0

    def test_still_ramping_false(self):
        assert detect_stabilization([6, 7, 8], 0.0, 3) is None

    def test_short_window_false(self):
        assert detect_stabilization([8, 8], 0.0, 5) is None

    def test_only_the_tail_matters(self):
        assert detect_stabilization([1, 5, 9, 9, 9], 0.0, 3) == 9.0

    def test_window_settled_at_zero_is_a_level(self):
        assert detect_stabilization([0.0, 0.0, 0.0], 0.0, 3) == 0.0
        assert detect_stabilization([0.0, 0.0, 0.0], 0.0, 3) is not None

    def test_noisy_constant_window_mostly_detected(self):
        # Monte-Carlo: eps = 4*sigma, hold 20 -> detection rate >= 0.99
        sigma = 0.1
        rng = RngStream(31337, 2)
        hits = 0
        trials = 1000
        for _ in range(trials):
            window = [8.0 + sigma * rng.normal() for _ in range(20)]
            hits += detect_stabilization(window, 4 * sigma, 20) is not None
        assert hits / trials >= 0.99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            detect_stabilization([1.0], 0.0, 0)
        with pytest.raises(ValueError):
            detect_stabilization([1.0], -0.1, 1)


class TestRecoverSecret:
    def test_exact_subtraction(self):
        assert recover_secret(8.0, 5.0, (1, 100)) == 3

    def test_rounds_to_nearest(self):
        assert recover_secret(8.3, 5.0, (1, 100)) == 3

    def test_half_ties_round_down(self):
        assert recover_secret(8.5, 5.0, (1, 100)) == 3
        assert recover_secret(9.5, 5.0, (1, 100)) == 4

    def test_whole_values_near_2_to_the_53_are_exact(self):
        top = 2**53 - 1
        assert recover_secret(float(top), 0.0, (1, top)) == top
        assert recover_secret(float(2**52 + 1), 0.0, (1, top)) == 2**52 + 1

    def test_half_ties_round_down_near_2_to_the_52(self):
        assert recover_secret(2.0**51 + 0.5, 0.0, (1, 2**53)) == 2**51
        assert recover_secret(2.0**52 - 0.5, 0.0, (1, 2**53)) == 2**52 - 1

    def test_clamps_to_domain_edge_within_tolerance(self):
        assert recover_secret(5.5, 5.0, (1, 100)) == 1

    def test_far_value_raises_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            recover_secret(120.0, 5.0, (1, 100))
        with pytest.raises(OutOfDomain):
            recover_secret(5.0, 5.0, (2, 100))

    def test_noise_widens_the_acceptance_band(self):
        # distance to the domain edge is 1.2: inside 0.5 + 4*0.25, outside 0.5
        assert recover_secret(10.2, 5.0, (1, 4), noise_sigma=0.25) == 4
        with pytest.raises(OutOfDomain):
            recover_secret(10.2, 5.0, (1, 4), noise_sigma=0.0)


def _recover_by_rule(total: float, own_key: float, domain, sigma: float):
    """recover_secret's rule on one value in Python ints: (value, None) or (None, message)."""
    diff = total - own_key
    n1, n2 = domain
    nearest = min(max(int(diff) if diff.is_integer() else math.ceil(diff - 0.5), n1), n2)
    distance = abs(diff - nearest)
    if distance > 0.5 + 4.0 * sigma:
        return None, (
            f"recovered value {diff!r} is {distance:.3f} away from the nearest "
            f"domain element {nearest}; transmission corrupted"
        )
    return nearest, None


@st.composite
def recoveries(draw):
    """Totals, own keys, a domain and a noise level for recover_secrets.

    The differences cover x.5 ties, whole values from 2^52 to 2^53, the
    distances 0.5 + 4 sigma from each domain bound exactly and one ulp
    either side, and anything finite; sigma is 0 or a binary fraction, so
    that those distances are exact.
    """
    n1 = draw(st.integers(1, 10))
    n2 = draw(st.one_of(st.integers(n1 + 1, n1 + 200), st.integers(n1 + 1, 2**53)))
    sigma = draw(st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.05]))
    reach = 0.5 + 4.0 * sigma
    edges = [n1 - reach, n2 + reach]
    edges += [math.nextafter(edge, way) for edge in edges for way in (-math.inf, math.inf)]
    diffs = st.one_of(
        st.integers(-(2**51), 2**51).map(lambda k: k + 0.5),
        st.integers(n1, n1 + 50).map(lambda k: k + 0.5),
        st.integers(2**52, 2**53).map(float),
        st.sampled_from(edges),
        st.floats(-(2.0**54), 2.0**54),
    )
    size = draw(st.integers(1, 8))
    totals = draw(st.lists(diffs, min_size=size, max_size=size))
    # Most keys are 0, so that the differences are the totals exactly.
    keys = st.sampled_from([0.0, 0.0, 0.0, 5.0, 2.0**52])
    keys = draw(st.lists(keys, min_size=size, max_size=size))
    return [t + k for t, k in zip(totals, keys)], keys, (n1, n2), sigma


@given(recoveries())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_recover_secrets_is_recover_secret_value_for_value(case):
    totals, keys, domain, sigma = case
    values, rejected = decoy.recover_secrets(np.array(totals), np.array(keys), domain, sigma)
    assert values.dtype == np.int64 and rejected.dtype == bool
    for total, key, value, rejects in zip(totals, keys, values.tolist(), rejected.tolist()):
        expected, message = _recover_by_rule(total, key, domain, sigma)
        assert (None if rejects else value) == expected
        if expected is None:
            with pytest.raises(OutOfDomain) as raised:
                recover_secret(total, key, domain, sigma)
            assert str(raised.value) == message
        else:
            assert recover_secret(total, key, domain, sigma) == expected


def test_recover_secrets_edge_cases():
    # A tie rounds down, and exactly 0.5 + 4 sigma past a bound is still
    # accepted, one ulp more is not; 2^52 + 1 is its own nearest integer.
    totals = np.array([8.5, 101.5, math.nextafter(101.5, 102), -0.5])
    values, rejected = decoy.recover_secrets(totals, np.zeros(4), (1, 100), 0.25)
    assert (values.tolist(), rejected.tolist()) == ([8, 100, 100, 1], [False, False, True, False])
    values, rejected = decoy.recover_secrets(np.array([2.0**52 + 1]), np.zeros(1), (1, 2**53), 0.0)
    assert (values.tolist(), rejected.tolist()) == ([2**52 + 1], [False])


class TestRunDecoyTransmission:
    def test_synchronous_noiseless_recovers_and_tail_is_sum(self):
        outcome = run_decoy_transmission(sync_scenario())
        assert outcome.recovered == 3
        values = [value for _, value in outcome.transcript.measurements()]
        assert all(value == 8.0 for value in values[-3:])

    def test_random_ramp_recovers_across_seeds(self):
        for seed in range(1000):
            outcome = run_decoy_transmission(with_seed(decoy_scenario(), seed))
            assert outcome.recovered == outcome.sender_secret

    def test_random_ramp_recovers_small_grid(self):
        for fa in range(1, 9):
            for fb in range(1, 9):
                scenario = decoy_scenario(
                    secret_domain=(1, 8), party_secrets={"alice": fa, "bob": fb}
                )
                assert run_decoy_transmission(scenario).recovered == fa

    def test_defense_stabilizes_strictly_after_announcement(self):
        for seed in range(200):
            outcome = run_decoy_transmission(with_seed(decoy_scenario(), seed))
            assert outcome.announce_tick is not None
            assert outcome.sender_stabilize_tick > outcome.announce_tick
            assert outcome.sender_start_tick > outcome.announce_tick

    def test_announcement_is_in_the_transcript(self):
        outcome = run_decoy_transmission(decoy_scenario())
        tags = [tag for _, tag in outcome.transcript.announcements()]
        assert IN_BUSINESS in tags

    def test_transcript_depends_on_sum_only(self):
        # synchronous noiseless: (3,5) and (4,4) have identical public records
        a = run_decoy_transmission(sync_scenario(party_secrets={"alice": 3, "bob": 5}))
        b = run_decoy_transmission(sync_scenario(party_secrets={"alice": 4, "bob": 4}))
        assert a.transcript.measurements() == b.transcript.measurements()
        assert a.recovered == 3 and b.recovered == 4

    def test_wave_variant_announces_parameters_and_recovers(self):
        outcome = run_decoy_transmission(
            sync_scenario(protocol=Protocol.DECOY_WAVE)
        )
        assert outcome.recovered == 3
        first_tag = outcome.transcript.announcements()[0][1]
        assert first_tag.startswith("wave-params")

    def test_tight_budget_times_out(self):
        scenario = decoy_scenario(max_ticks=5, hold_ticks=4)
        outcome = run_decoy_transmission(scenario)
        assert outcome.status == "ProtocolTimeout"
        assert outcome.recovered is None and not outcome.success
        assert len(outcome.transcript) > 0

    def test_noisy_run_is_deterministic_and_correct(self):
        scenario = decoy_scenario(
            noise_sigma=0.05, epsilon_stab=0.2, hold_ticks=50, max_ticks=600
        )
        first = run_decoy_transmission(scenario)
        second = run_decoy_transmission(scenario)
        assert first.recovered == 3
        assert first.transcript == second.transcript

    def test_deterministic_rate_control_recovers(self):
        scenario = decoy_scenario(
            secret_domain=(1, 8),
            party_secrets={"alice": 3, "bob": 5},
            ramp_model=RampModel.DETERMINISTIC_RATE,
        )
        outcome = run_decoy_transmission(scenario)
        assert outcome.recovered == 3

    def test_active_adversary_rejected_here(self):
        scenario = decoy_scenario(adversary=AdversaryKind.JAMMER)
        with pytest.raises(ValueError, match="attack"):
            run_decoy_transmission(scenario)


def test_exhaustive_noiseless_correctness_small():
    # scaled-down twin of the acceptance sweep: [1,12]^2, one seed
    base = decoy_scenario(secret_domain=(1, 12))
    for fa in range(1, 13):
        for fb in range(1, 13):
            scenario = dataclasses.replace(
                base, party_secrets={"alice": fa, "bob": fb}
            )
            outcome = run_decoy_transmission(scenario)
            assert outcome.recovered == fa, (fa, fb)


def test_recovery_uses_windowed_mean_under_noise():
    # the averaging window keeps the estimate within rounding distance
    scenario = decoy_scenario(
        noise_sigma=0.05, epsilon_stab=0.2, hold_ticks=50, max_ticks=600, seed=17
    )
    outcome = run_decoy_transmission(scenario)
    assert abs(outcome.stable_estimate - outcome.sender_secret) < 0.5


def test_tick_cost_is_linear_in_max_ticks():
    # A defended sender facing a silent impersonator never sees an
    # announcement, so every run uses its whole tick budget.
    def best_us_per_tick(max_ticks):
        scenario = decoy_scenario(
            adversary=AdversaryKind.IMPERSONATOR,
            party_secrets={"alice": 3},
            max_ticks=max_ticks,
        )
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            outcome = run_scenario(scenario)
            best = min(best, time.perf_counter() - started)
            assert len(outcome.transcript.measurements()) == max_ticks
        return best * 1e6 / max_ticks

    short, long = best_us_per_tick(4000), best_us_per_tick(32000)
    assert long <= 2.0 * short, f"{long:.2f} us/tick at 32k vs {short:.2f} at 4k"


class TestStreamsAreLazy:
    """A pass seeds only the streams it draws from and builds only the generators its runs use."""

    @staticmethod
    def _generators_built(monkeypatch, scenario, count=20) -> list[int]:
        """The stream id of each generator built as `count` runs of `scenario` go through a pass."""
        built = []
        generator = RngStream._generator

        def recorded(stream):
            if stream._gen is None:
                built.append(stream.stream_id)
            return generator(stream)

        monkeypatch.setattr(RngStream, "_generator", recorded)
        secrets = scenario.party_secrets
        runs = Runs(range(count), [secrets["alice"]] * count, [secrets["bob"]] * count)
        (batch,) = simulate_runs(scenario, runs)
        assert len(batch) == count
        return built

    def test_noiseless_batch_builds_no_noise_generator(self, monkeypatch):
        noiseless = decoy_scenario(noise_sigma=0.0, epsilon_stab=0.2)
        assert STREAM_NOISE not in self._generators_built(monkeypatch, noiseless)
        noisy = dataclasses.replace(noiseless, noise_sigma=0.05)
        assert self._generators_built(monkeypatch, noisy).count(STREAM_NOISE) == 20

    @pytest.mark.parametrize("model", [RampModel.SYNCHRONOUS, RampModel.DETERMINISTIC_RATE])
    def test_passes_build_no_generator_for_their_ramps(self, model, monkeypatch):
        # The receiver's start is a synchronous or rate pass's only draw,
        # made for the whole pass in array operations.  A random-ramp pass
        # reads each receiver's and sender's raw outputs once instead; only a
        # stream Lemire would redraw builds its generator, and none of these
        # 200 seeds does.
        scenario = decoy_scenario(ramp_model=model, secret_domain=(1, 8), defense_enabled=False)
        assert self._generators_built(monkeypatch, scenario, 200) == []
        drawn = []
        outputs = RngStream.first_outputs

        def recorded(rows, count):
            drawn.extend(rows.tolist())
            return outputs(rows, count)

        monkeypatch.setattr(RngStream, "first_outputs", staticmethod(recorded))
        random_ramps = dataclasses.replace(scenario, ramp_model=RampModel.RANDOM_RAMP)
        assert self._generators_built(monkeypatch, random_ramps, 200) == []
        streams = RngStream.seed_rows(range(200), [STREAM_RECEIVER, STREAM_SENDER])
        assert sorted(drawn) == sorted(streams.reshape(-1, 4).tolist())

    @pytest.mark.parametrize("defended", [True, False])
    def test_sender_facing_a_silent_impersonator_is_decoded_without_a_generator(
        self, defended, monkeypatch
    ):
        built, drawn = [], []

        class Recorded(RngStream):
            def __init__(self, seed, stream_id, row=None):
                built.append(stream_id)
                super().__init__(seed, stream_id, row)

            @staticmethod
            def first_outputs(rows, count):
                drawn.extend(rows.tolist())
                return RngStream.first_outputs(rows, count)

        monkeypatch.setattr(decoy, "RngStream", Recorded)
        scenario = decoy_scenario(
            adversary=AdversaryKind.IMPERSONATOR,
            party_secrets={"alice": 3},
            defense_enabled=defended,
        )
        run_scenario(scenario)
        # The receiver's start comes from the pass's array draw, a noiseless
        # run has no noise stream, and the sender's ramp is decoded from her
        # stream's raw outputs, also where she never moves because the
        # defense waits for an announcement that never comes: no RngStream
        # is built.
        assert built == []
        assert drawn == RngStream.seed_rows([scenario.seed], [STREAM_SENDER])[0].tolist()
