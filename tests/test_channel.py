"""Additive channel: superposition exactness, noise behaviour, split invisibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoysim import ChannelState, NonFiniteValue, Reading, RngStream

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _noise_rng() -> RngStream:
    return RngStream(99, 2)


class TestSetContribution:
    def test_single_contributor(self):
        state = ChannelState()
        state.set_contribution("alice", 3.0)
        assert state.superpose() == 3.0

    def test_replacement_not_accumulation(self):
        state = ChannelState()
        state.set_contribution("alice", 3.0)
        state.set_contribution("alice", 4.0)
        assert state.superpose() == 4.0

    def test_two_contributors_add(self):
        state = ChannelState()
        state.set_contribution("alice", 3.0)
        state.set_contribution("bob", 5.0)
        assert state.superpose() == 8.0

    def test_negative_contribution_allowed(self):
        state = ChannelState()
        state.set_contribution("alice", 3.0)
        state.set_contribution("bob", 5.0)
        state.set_contribution("eve", -2.0)
        assert state.superpose() == 6.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        state = ChannelState()
        with pytest.raises(NonFiniteValue):
            state.set_contribution("alice", bad)


class TestSuperpose:
    def test_empty_sum_is_zero(self):
        assert ChannelState().superpose() == 0.0

    @given(st.lists(finite_values, max_size=16))
    @settings(max_examples=200)
    def test_additivity_matches_fsum(self, values):
        state = ChannelState()
        for i, value in enumerate(values):
            state.set_contribution(f"c{i}", value)
        exact = math.fsum(values)
        assert state.superpose() == exact
        # the naive left-to-right sum may differ, but only at ulp scale of
        # the running magnitude (standard sequential-summation bound)
        naive = sum(values)
        magnitude = math.fsum(abs(value) for value in values)
        tolerance = 16 * np.spacing(max(1.0, magnitude))
        assert abs(naive - exact) <= tolerance


class TestMeasure:
    def test_noiseless_is_bit_exact_and_typed(self):
        state = ChannelState(noise_sigma=0.0)
        state.set_contribution("alice", 3.0)
        state.set_contribution("bob", 5.0)
        reading = state.measure(_noise_rng())
        assert isinstance(reading, Reading)
        assert reading == 8.0

    def test_noise_is_replayable(self):
        def run():
            rng = RngStream(5, 2)
            state = ChannelState(noise_sigma=0.1)
            state.set_contribution("alice", 3.0)
            state.set_contribution("bob", 5.0)
            return [float(state.measure(rng)) for _ in range(50)]

        first, second = run(), run()
        assert first == second
        assert any(abs(value - 8.0) > 0 for value in first)

    def test_split_invisibility(self):
        # equal sums -> identical noiseless measurements, whatever the split
        splits = [{"alice": 3.0, "bob": 5.0}, {"alice": 4.0, "bob": 4.0},
                  {"alice": 1.0, "bob": 7.0}, {"alice": 8.0}]
        readings = []
        for split in splits:
            state = ChannelState(noise_sigma=0.0)
            for who, value in split.items():
                state.set_contribution(who, value)
            readings.append(float(state.measure(_noise_rng())))
        assert len(set(readings)) == 1

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=8),
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_split_invisibility_integer_property(self, left, right):
        # force equal sums by appending the difference to the right split
        right = right + [sum(left) - sum(right)]
        state_a, state_b = ChannelState(), ChannelState()
        for i, value in enumerate(left):
            state_a.set_contribution(f"l{i}", float(value))
        for i, value in enumerate(right):
            state_b.set_contribution(f"r{i}", float(value))
        assert float(state_a.measure(_noise_rng())) == float(
            state_b.measure(_noise_rng())
        )

    def test_noise_sample_mean_is_centered(self):
        # Monte-Carlo check: mean of (measure - superpose) within 3 sigma/sqrt(n)
        n = 100_000
        sigma = 0.1
        rng = RngStream(2024, 2)
        state = ChannelState(noise_sigma=sigma)
        state.set_contribution("alice", 3.0)
        state.set_contribution("bob", 5.0)
        errors = [float(state.measure(rng)) - 8.0 for _ in range(n)]
        bound = 3.0 * sigma / math.sqrt(n)
        assert abs(math.fsum(errors) / n) <= bound

    def test_zero_sigma_consumes_no_noise_draws(self):
        rng = RngStream(7, 2)
        baseline = rng.normal()
        state = ChannelState(noise_sigma=0.0)
        state.set_contribution("alice", 1.0)
        rng2 = RngStream(7, 2)
        for _ in range(10):
            state.measure(rng2)
        assert rng2.normal() == baseline
