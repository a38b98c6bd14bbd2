"""Split enumeration, posterior/MI estimators, active attacks."""

import dataclasses
import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decoysim import (
    AdversaryKind,
    InsufficientSamples,
    InvalidScenario,
    NonFiniteValue,
    RampModel,
    Reading,
    TranscriptFeatures,
    Transcript,
    analytic_split_posterior,
    analytic_sum_mi,
    attack_impersonate,
    attack_jam,
    collect_transmission_samples,
    enumerate_splits,
    estimate_mutual_information,
    estimate_posterior,
    load_scenario,
    replay_digest,
    run_decoy_transmission,
    run_scenario,
)
from decoysim import adversary, decoy
from decoysim.adversary import (
    EMPTY,
    SILENT,
    STABLE,
    UNSTABLE,
    FeatureColumns,
    adversary_runs,
    attack_columns,
    estimate_own_run_posterior,
)
from decoysim.decoy import IN_BUSINESS, Runs, simulate_runs, simulate_transmission
from conftest import decoy_scenario, run_alone, sync_scenario, with_seed

ANALYTIC_SUM_MI_1_8 = 0.7023191426459228  # frozen from the enumeration oracle


def brute_force_splits(total, domain, max_key=None):
    n1, n2 = domain
    out = []
    for fa in range(n1, n2 + 1):
        fb = total - fa
        if fb >= 1 and (max_key is None or fb <= max_key):
            out.append((fa, fb))
    return tuple(out)


class TestEnumerateSplits:
    def test_example_seven_pairs(self):
        splits = enumerate_splits(8, (1, 7))
        assert splits.pairs == tuple((i, 8 - i) for i in range(1, 8))

    def test_one_decoy_catastrophe(self):
        splits = enumerate_splits(2, (1, 100))
        assert splits.pairs == ((1, 1),)

    def test_empty_set_is_legal(self):
        assert enumerate_splits(2, (5, 9)).pairs == ()

    def test_brute_force_oracle_random_cases(self):
        rng = random.Random(3)
        for _ in range(300):
            n1 = rng.randint(1, 20)
            n2 = n1 + rng.randint(1, 40)
            total = rng.randint(2, 80)
            max_key = rng.choice([None, n2, rng.randint(1, 50)])
            assert (
                enumerate_splits(total, (n1, n2), max_key=max_key).pairs
                == brute_force_splits(total, (n1, n2), max_key=max_key)
            )

    def test_growing_domain_never_shrinks_the_split_set(self):
        total = 30
        sizes = []
        for n2 in range(5, 60, 5):
            sizes.append(len(enumerate_splits(total, (1, n2))))
        assert sizes == sorted(sizes)

    def test_bounded_key_prunes_low_secrets(self):
        unbounded = enumerate_splits(16, (1, 8))
        bounded = enumerate_splits(16, (1, 8), max_key=8)
        assert len(unbounded) == 8
        assert bounded.pairs == ((8, 8),)


class TestAnalyticOracles:
    def test_sum_mi_matches_frozen_value(self):
        assert abs(analytic_sum_mi((1, 8)) - ANALYTIC_SUM_MI_1_8) < 1e-12

    def test_sum_mi_independent_enumeration(self):
        # second oracle, different construction: explicit probability tables
        values = range(1, 9)
        p_t = {}
        for s in values:
            for k in values:
                p_t[s + k] = p_t.get(s + k, 0) + 1 / 64
        h_t = -sum(p * math.log2(p) for p in p_t.values())
        assert abs(analytic_sum_mi((1, 8)) - (h_t - 3.0)) < 1e-12

    @pytest.mark.parametrize(
        "secret_domain, key_domain",
        [
            ((1, 8), (1, 8)),
            ((1, 100), (1, 100)),
            ((1, 8), (1, 3)),
            ((2, 9), (5, 7)),
            ((3, 4), (1, 50)),
            ((1, 30), (10, 11)),
            ((7, 20), (1, 100)),
            ((40, 41), (3, 90)),
            ((5, 60), (2, 17)),
        ],
    )
    def test_sum_mi_is_the_enumeration_bit_for_bit(self, secret_domain, key_domain):
        # The oracle counts every (secret, total) pair and sums each entropy
        # over its Counter, whose order is each outcome's first occurrence.
        (s1, s2), (k1, k2) = secret_domain, key_domain
        joint = Counter((s, s + k) for s in range(s1, s2 + 1) for k in range(k1, k2 + 1))
        n = sum(joint.values())

        def entropy(counts) -> float:
            return -sum((c / n) * math.log2(c / n) for c in counts)

        h_s = entropy(Counter(s for s, _ in joint.elements()).values())
        h_t = entropy(Counter(t for _, t in joint.elements()).values())
        enumerated = h_s + h_t - entropy(joint.values())
        assert repr(analytic_sum_mi(secret_domain, key_domain)) == repr(enumerated)

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
    )
    @pytest.mark.parametrize(
        "secret_domain, key_domain", [((1, 127), None), ((1, 8), (2, 5)), ((0, 100), (1, 120))]
    )
    def test_sum_mi_of_numpy_bounds_is_the_python_ints_value(
        self, dtype, secret_domain, key_domain
    ):
        # Small numpy bounds once wrapped the pair count with only a RuntimeWarning
        # (uint8 (1, 200) gave -1768.0 bits), and int64 ones returned an np.float64.
        as_numpy = None if key_domain is None else tuple(map(dtype, key_domain))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = analytic_sum_mi(tuple(map(dtype, secret_domain)), as_numpy)
        expected = analytic_sum_mi(secret_domain, key_domain)
        assert (type(found), repr(found)) == (float, repr(expected))

    def test_sum_mi_memory_does_not_grow_with_the_domain(self):
        # Counting the 4 * 10^6 pairs of (1, 2000) took over 500 MB.
        tracemalloc.start()
        try:
            analytic_sum_mi((1, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_entropy_sums_are_pinned_bit_for_bit(self):
        # repr round-trips a float, so a change to a sum's order or expression shows.
        rng = random.Random(2024)
        pairs = []
        for _ in range(3000):
            secret = rng.randint(1, 6)
            pairs.append((secret, secret + rng.randint(1, 6)))
        assert repr(analytic_sum_mi((1, 8))) == "0.7023191426459228"
        assert repr(analytic_sum_mi((1, 100))) == "0.7211650140991868"
        assert repr(estimate_mutual_information(pairs)) == "0.710884769041269"

    def test_split_posterior_uniform_over_consistent_set(self):
        posterior = analytic_split_posterior(8, (1, 8), max_key=8)
        assert set(posterior) == set(range(1, 8))
        assert all(abs(p - 1 / 7) < 1e-12 for p in posterior.values())

    def test_split_posterior_empty_when_impossible(self):
        assert analytic_split_posterior(2, (5, 9)) == {}


class TestMutualInformation:
    def test_identity_mapping_is_three_bits(self):
        pairs = [(s, s) for s in range(8) for _ in range(1250)]
        assert abs(estimate_mutual_information(pairs) - 3.0) < 0.05

    def test_independent_pairs_near_zero(self):
        rng = np.random.default_rng(77)
        pairs = list(zip(rng.integers(0, 8, 10_000), rng.integers(0, 8, 10_000)))
        assert abs(estimate_mutual_information(pairs)) <= 0.02

    def test_requires_minimum_samples(self):
        with pytest.raises(InsufficientSamples):
            estimate_mutual_information([(0, 0)] * 999)

    def test_synthetic_sum_channel_matches_analytic(self):
        rng = np.random.default_rng(2025)
        s = rng.integers(1, 9, 10_000)
        k = rng.integers(1, 9, 10_000)
        pairs = list(zip(s.tolist(), (s + k).tolist()))
        estimate = estimate_mutual_information(pairs)
        assert abs(estimate - ANALYTIC_SUM_MI_1_8) <= 0.05


class TestTranscriptFeatures:
    def test_empty_and_silent_branches(self):
        features = TranscriptFeatures(hold_ticks=3, noise_sigma=0.0, bucket_width=2)
        assert features(Transcript()) == ("empty",)
        silent = attack_impersonate(
            decoy_scenario(
                adversary=AdversaryKind.IMPERSONATOR, party_secrets={"alice": 3}
            )
        ).transcript
        assert features(silent) == ("silent",)

    def test_stable_run_yields_total_and_bucket(self):
        scenario = sync_scenario()
        features = TranscriptFeatures.for_scenario(scenario)
        feature = features(run_decoy_transmission(scenario).transcript)
        assert feature[0] == 8
        assert isinstance(feature[1], int)

    def test_never_flat_run_is_unstable(self):
        features = TranscriptFeatures(hold_ticks=4, noise_sigma=0.0, bucket_width=1)
        transcript = Transcript()
        for tick in range(6):
            transcript.record_measurement(tick, Reading(float(tick)))
        assert features(transcript) == ("unstable",)


def _features_by_walk(features: TranscriptFeatures, values: list) -> tuple:
    """The features computed value by value, as their definition reads."""
    if not values:
        return ("empty",)
    tol = features.tolerance
    first_active = next((i for i, v in enumerate(values) if abs(v) > tol), None)
    if first_active is None:
        return ("silent",)
    flat_onset = 0
    for index in range(1, len(values)):
        if abs(values[index] - values[index - 1]) > tol:
            flat_onset = index
    if len(values) - flat_onset < features.hold_ticks:
        return ("unstable",)
    stable_total = round(math.fsum(values[flat_onset:]) / (len(values) - flat_onset))
    return (int(stable_total), max(0, flat_onset - first_active) // features.bucket_width)


@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1e-9, 2e-9, 3.0, 3.0000000001]),
            st.floats(-1e6, 1e6),
        ),
        max_size=40,
    ),
    hold=st.integers(1, 6),
    sigma=st.sampled_from([0.0, 0.05, 1.0]),
    width=st.integers(1, 5),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_array_features_match_the_value_walk(values, hold, sigma, width):
    features = TranscriptFeatures(hold_ticks=hold, noise_sigma=sigma, bucket_width=width)
    transcript = Transcript()
    for tick, value in enumerate(values):
        transcript.record_measurement(tick, Reading(value))
    assert features(transcript) == _features_by_walk(features, values)


_READINGS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 2e-9, 3.0, 3.0000000001]), st.floats(-1e6, 1e6)
)


@st.composite
def reading_rows(draw) -> list:
    """One run's readings: empty, silent, flat after a ramp, or anything."""
    kind = draw(st.sampled_from(["empty", "silent", "flat", "any"]))
    if kind == "empty":
        return []
    if kind == "silent":
        return draw(st.lists(st.sampled_from([0.0, -0.0, 1e-9, -1e-9]), min_size=1, max_size=20))
    if kind == "flat":
        ramp = draw(st.lists(_READINGS, max_size=10))
        return ramp + [draw(_READINGS)] * draw(st.integers(1, 10))
    return draw(st.lists(_READINGS, min_size=1, max_size=30))


@given(
    rows=st.lists(reading_rows(), min_size=1, max_size=8),
    extra=st.integers(0, 3),
    pad=st.sampled_from([math.nan, 0.0, 5.0]),
    hold=st.integers(1, 6),
    sigma=st.sampled_from([0.0, 0.05, 1.0]),
    width=st.integers(1, 5),
)
@settings(max_examples=300, deadline=None, derandomize=True)
# Arrays 0 and 1 wide, where no pair of neighbours can jump.
@example(rows=[[], []], extra=0, pad=math.nan, hold=1, sigma=0.0, width=1)
@example(rows=[[], [4.0]], extra=0, pad=0.0, hold=1, sigma=0.0, width=1)
@example(rows=[[]], extra=1, pad=5.0, hold=1, sigma=0.0, width=1)
@example(rows=[[2.0], [0.0]], extra=0, pad=math.nan, hold=2, sigma=0.05, width=2)
def test_batched_features_match_one_transcript_at_a_time(rows, extra, pad, hold, sigma, width):
    features = TranscriptFeatures(hold_ticks=hold, noise_sigma=sigma, bucket_width=width)
    padded = np.full((len(rows), max(map(len, rows)) + extra), pad)
    for index, values in enumerate(rows):
        padded[index, : len(values)] = values
    columns = features.columns(padded, np.array([len(values) for values in rows]))
    assert all(column.dtype == np.int64 for column in columns)
    batched = columns.tuples()
    # A one-word feature's total and bucket read 0, so equal features have equal columns.
    one_word = columns.kind != STABLE
    assert not (columns.total[one_word].any() or columns.bucket[one_word].any())
    for values, feature in zip(rows, batched):
        transcript = Transcript()
        for tick, value in enumerate(values):
            transcript.record_measurement(tick, Reading(value))
        assert feature == features(transcript) == _features_by_walk(features, values)


# Tails whose stable total columns takes from math.fsum, as (noise_sigma,
# tail): exact halves, which round half to even; a mean just off a half
# that the row's float sum rounds onto it; and tails near 2^53, where a
# float sum of the readings rounds too.
_NEAR_HALF_TAILS = {
    "2.5 gives 2": (0.0, [2.5] * 3),
    "3.5 gives 4": (0.0, [3.5] * 4),
    "just above 2.5": (
        0.0,
        [2.500000000000001, 2.5, 2.4999999999999996, 2.5000000000000004, 2.5000000000000004],
    ),
    "flat at 2^53 - 1": (0.0, [2.0**53 - 1] * 3),
    "within noise of 2^53": (1.0, [2.0**53 - k for k in (1, 2, 0, 0, 0, 1, 3)]),
}


@pytest.mark.parametrize("sigma, tail", _NEAR_HALF_TAILS.values(), ids=list(_NEAR_HALF_TAILS))
def test_stable_totals_near_a_half_are_the_value_walks(sigma, tail):
    features = TranscriptFeatures(hold_ticks=3, noise_sigma=sigma, bucket_width=1)
    rows = [[0.0, 1.0] + tail, tail]  # after a ramp, and from the first tick
    padded = np.full((2, len(tail) + 3), math.nan)
    for index, values in enumerate(rows):
        padded[index, : len(values)] = values
    lengths = np.array([len(values) for values in rows])
    for values, feature in zip(rows, features.columns(padded, lengths).tuples()):
        assert feature == _features_by_walk(features, values)
        assert feature[0] == round(math.fsum(tail) / len(tail))


def test_array_features_match_the_value_walk_on_runs():
    for scenario in (sync_scenario(), decoy_scenario(noise_sigma=0.05, epsilon_stab=0.2)):
        features = TranscriptFeatures.for_scenario(scenario)
        for sample_seed in range(20):
            transcript = run_decoy_transmission(with_seed(scenario, sample_seed)).transcript
            values = [value for _, value in transcript.measurements()]
            assert features(transcript) == _features_by_walk(features, values)


class _ColumnSamples:
    """A sample set given by its columns: all that estimate_posterior reads of TranscriptSamples."""

    def __init__(self, secrets: np.ndarray, columns: FeatureColumns):
        self.runs = Runs(range(len(secrets)), secrets, secrets)
        self.columns = columns

    def __len__(self) -> int:
        return len(self.runs.seeds)

    def feature_columns(self, features) -> FeatureColumns:
        return self.columns


class _ObservedColumns:
    """Features that read `seen` off every observed transcript."""

    def __init__(self, seen: FeatureColumns):
        self.seen = seen

    def columns(self, values, lengths) -> FeatureColumns:
        return self.seen


_FEATURE_ROWS = st.one_of(
    st.tuples(st.sampled_from([EMPTY, SILENT, UNSTABLE]), st.just(0), st.just(0)),
    st.tuples(
        st.just(STABLE),
        st.integers(-3, 20) | st.integers(-(2**63), 2**63 - 1),
        st.integers(0, 4) | st.integers(0, 2**40),
    ),
)


@given(
    alphabet=st.lists(_FEATURE_ROWS, min_size=1, max_size=6, unique=True),
    unseen=_FEATURE_ROWS,
    domain_size=st.integers(1, 5),
    count=st.integers(1000, 1600),
    seed=st.integers(0, 2**32 - 1),
    observe_unseen=st.booleans(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_column_counts_match_counters(alphabet, unseen, domain_size, count, seed, observe_unseen):
    # The posterior and MI counted on int64 columns are the Counter counts of
    # (secret, feature tuple) pairs, and the MI is estimate_mutual_information's
    # bit for bit, whatever the features' kinds, totals and buckets.
    rng = np.random.default_rng(seed)
    n1, n2 = 2, 1 + domain_size
    secrets = rng.integers(n1, n2, count, endpoint=True)
    rows = np.array(alphabet, dtype=np.int64)[rng.integers(0, len(alphabet), count)]
    columns = FeatureColumns(*rows.T.copy())
    observed = unseen if observe_unseen else alphabet[int(rng.integers(len(alphabet)))]
    seen = FeatureColumns(*np.array([observed], dtype=np.int64).T.copy())
    report = estimate_posterior(
        _ColumnSamples(secrets, columns), Transcript(), _ObservedColumns(seen), (n1, n2), 1
    )

    pairs = list(zip(secrets.tolist(), columns.tuples()))
    [observed_feature] = seen.tuples()
    matched = Counter(secret for secret, feature in pairs if feature == observed_feature)
    total = sum(matched.values())
    expected = {s: (matched[s] / total if total else 1.0 / domain_size) for s in range(n1, n2 + 1)}
    assert repr(report.mi_bits) == repr(estimate_mutual_information(pairs))
    assert report.posterior == expected
    assert list(report.posterior) == list(range(n1, n2 + 1))
    assert report.matched_samples == total
    assert report.observed_feature == observed_feature
    assert report.samples_used == count


@given(
    missing=st.sets(st.integers(1, 7)),
    outside=st.sets(st.sampled_from([-2, 0, 8, 9])),
    count=st.integers(1000, 1300),
    min_per_class=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from([7, 2**53]),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sample_check_names_the_first_short_secret(
    missing, outside, count, min_per_class, seed, top
):
    # Secrets missing from the samples, short ones and ones outside the domain
    # [1, 7]: the check raises on the first secret a Counter finds short.  On
    # [1, 2^53] it must stop there too: a walk of the domain would not end.
    drawn = sorted(set(range(1, 8)) - missing | outside)
    assume(drawn)
    secrets = np.random.default_rng(seed).choice(drawn, count)
    class_counts = Counter(secrets.tolist())
    short = next((s for s in range(1, top + 1) if class_counts[s] < min_per_class), None)
    samples = _ColumnSamples(secrets, FeatureColumns(*np.zeros((3, count), np.int64)))
    seen = _ObservedColumns(FeatureColumns(*np.zeros((3, 1), np.int64)))
    if short is None:
        estimate_posterior(samples, Transcript(), seen, (1, top), min_per_class).check_invariants()
        return
    message = (
        f"need >= {min_per_class} samples for every secret in [1, {top}]; "
        f"secret {short} has {class_counts[short]}"
    )
    with pytest.raises(InsufficientSamples, match=re.escape(message) + "$"):
        estimate_posterior(samples, Transcript(), seen, (1, top), min_per_class)


def test_posteriors_report_the_public_estimators_mi(monkeypatch):
    # Both posteriors take mi_bits from one call of estimate_mutual_information.
    scenario = sync_scenario(seed=300)
    samples = collect_transmission_samples(scenario, 2000)
    features = TranscriptFeatures.for_scenario(scenario)
    observed = run_decoy_transmission(scenario).transcript
    domain = scenario.secret_domain
    returned = []

    def counted(pairs, *args, **kwargs):
        returned.append(estimate_mutual_information(pairs, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(adversary, "estimate_mutual_information", counted)
    for estimate in (
        lambda: estimate_posterior(samples, observed, features, domain),
        lambda: estimate_own_run_posterior(samples, features, domain),
    ):
        returned.clear()
        report = estimate()
        assert len(returned) == 1
        assert report.mi_bits is returned[0]


def test_matched_samples_outside_the_domain_are_not_counted():
    # 200 samples of each secret 1-7 and 1,000 of secret 0, all with the
    # observed feature: only the 1,400 in the domain (1, 7) count.
    secrets = np.repeat(np.arange(8), [1000] + [200] * 7)
    samples = _ColumnSamples(secrets, FeatureColumns(*np.zeros((3, len(secrets)), np.int64)))
    seen = _ObservedColumns(FeatureColumns(*np.zeros((3, 1), np.int64)))
    report = estimate_posterior(samples, Transcript(), seen, (1, 7), 100)
    assert report.posterior == {secret: 1 / 7 for secret in range(1, 8)}
    assert report.matched_samples == 1400
    report.check_invariants()


class TestEstimatePosterior:
    def test_synchronous_posterior_uniform_over_split_set(self):
        scenario = sync_scenario(seed=500)
        samples = collect_transmission_samples(scenario, 2500)
        features = TranscriptFeatures.for_scenario(scenario)
        observed = run_decoy_transmission(scenario).transcript
        report = estimate_posterior(samples, observed, features, scenario.secret_domain)
        analytic = analytic_split_posterior(8, (1, 8), max_key=8)
        sigma = math.sqrt((1 / 7) * (6 / 7) / report.matched_samples)
        for secret, expected in analytic.items():
            assert abs(report.posterior[secret] - expected) <= 3 * sigma, secret
        assert report.posterior[8] == 0.0
        assert abs(sum(report.posterior.values()) - 1.0) <= 1e-9

    def test_coverage_requirement(self):
        scenario = sync_scenario(seed=501)
        samples = collect_transmission_samples(scenario, 300)
        features = TranscriptFeatures.for_scenario(scenario)
        observed = run_decoy_transmission(scenario).transcript
        with pytest.raises(InsufficientSamples):
            estimate_posterior(samples, observed, features, scenario.secret_domain)

    def test_unseen_feature_falls_back_to_prior(self):
        scenario = sync_scenario(seed=502)
        samples = collect_transmission_samples(scenario, 1200)
        features = TranscriptFeatures.for_scenario(scenario)
        report = estimate_posterior(
            samples, Transcript(), features, scenario.secret_domain, min_per_class=100
        )
        assert report.observed_feature == ("empty",)
        assert all(abs(p - 1 / 8) < 1e-12 for p in report.posterior.values())
        assert report.notes

    def test_deterministic_rate_control_concentrates(self):
        control = decoy_scenario(
            secret_domain=(1, 8),
            party_secrets={"alice": 3, "bob": 5},
            ramp_model=RampModel.DETERMINISTIC_RATE,
            seed=600,
        )
        samples = collect_transmission_samples(control, 2500)
        features = TranscriptFeatures.for_scenario(control)
        observed = run_decoy_transmission(control).transcript
        report = estimate_posterior(samples, observed, features, control.secret_domain)
        assert report.max_prob >= 0.9
        assert report.mi_bits > analytic_sum_mi((1, 8)) + 1.0


class TestAttackJam:
    def _jam_scenario(self, **overrides):
        return decoy_scenario(
            adversary=AdversaryKind.JAMMER,
            ramp_model=RampModel.SYNCHRONOUS,
            defense_enabled=False,
            hold_ticks=4,
            **overrides,
        )

    def test_negative_jam_corrupts_recovery(self):
        outcome = attack_jam(self._jam_scenario(), jam_value=-2.0)
        assert outcome.disrupted
        assert outcome.adversary_learned is False
        assert outcome.receiver_recovered == 1 or outcome.receiver_error is not None

    def test_null_jam_leaves_transmission_intact(self):
        outcome = attack_jam(self._jam_scenario(), jam_value=0.0)
        assert outcome.receiver_recovered == 3
        assert not outcome.disrupted

    def test_jam_within_rounding_reaches_the_medium_but_does_not_disrupt(self):
        scenario = self._jam_scenario()
        for jam_value in (0.3, -0.3):
            assert simulate_transmission(scenario, jam_value=jam_value).jammed
            outcome = attack_jam(scenario, jam_value=jam_value)
            assert (outcome.receiver_recovered, outcome.receiver_error) == (3, None)
            assert not outcome.disrupted

    def test_large_jam_triggers_rejection(self):
        outcome = attack_jam(self._jam_scenario(), jam_value=-80.0)
        assert outcome.receiver_error in ("out_of_domain", "protocol_timeout")
        assert outcome.disrupted

    def test_jammer_learns_nothing_posterior_unchanged(self):
        # identical seeds: the jammer-adjusted total equals the passive total,
        # so its posterior over the secret is the passive posterior
        jam_value = -2.0
        jammed = attack_jam(self._jam_scenario(seed=4242), jam_value=jam_value)
        passive = run_decoy_transmission(
            dataclasses.replace(
                self._jam_scenario(seed=4242), adversary=AdversaryKind.PASSIVE
            )
        )
        tail = lambda tr: [v for _, v in tr.measurements()][-2:]
        jam_total = tail(jammed.transcript)[-1]
        passive_total = tail(passive.transcript)[-1]
        assert jam_total - jam_value == passive_total
        domain = (1, 100)
        assert analytic_split_posterior(
            round(jam_total - jam_value), domain
        ) == analytic_split_posterior(round(passive_total), domain)

    @pytest.mark.parametrize("jam_value", [math.inf, -math.inf, math.nan])
    def test_non_finite_jam_is_rejected(self, jam_value):
        with pytest.raises(NonFiniteValue):
            attack_jam(self._jam_scenario(), jam_value=jam_value)

    def test_requires_jammer_scenario(self):
        with pytest.raises(InvalidScenario):
            attack_jam(decoy_scenario())


class TestAttackImpersonate:
    def _imp_scenario(self, **overrides):
        fields = dict(
            adversary=AdversaryKind.IMPERSONATOR,
            secret_domain=(1, 8),
            party_secrets={"alice": 3},
        )
        fields.update(overrides)
        return decoy_scenario(**fields)

    def test_defense_off_naive_sender_is_read(self):
        for seed in range(30):
            outcome = attack_impersonate(
                with_seed(self._imp_scenario(defense_enabled=False), seed)
            )
            assert outcome.adversary_recovered == 3
            assert outcome.adversary_learned

    def test_defense_on_silent_adversary_times_out(self):
        for seed in range(30):
            outcome = attack_impersonate(with_seed(self._imp_scenario(), seed))
            assert outcome.timeout
            assert outcome.adversary_recovered is None
            assert not outcome.adversary_learned
            assert all(v == 0.0 for _, v in outcome.transcript.measurements())

    def test_defense_on_forged_announcement_still_leaks(self):
        outcome = attack_impersonate(
            self._imp_scenario(), forge_announcement=True, adversary_key=4.0
        )
        assert outcome.adversary_recovered == 3
        assert outcome.adversary_learned
        assert outcome.forged_announce_tick is not None

    def test_forged_run_has_announcement_in_transcript(self):
        outcome = attack_impersonate(
            self._imp_scenario(), forge_announcement=True, adversary_key=4.0
        )
        assert any(tag == "in-business" for _, tag in outcome.transcript.announcements())

    def test_requires_impersonator_scenario(self):
        with pytest.raises(InvalidScenario):
            attack_impersonate(decoy_scenario())


class TestCollectSamples:
    def test_sample_count_and_coverage(self):
        scenario = sync_scenario(seed=700)
        samples = collect_transmission_samples(scenario, 400)
        assert len(samples) == 400
        secrets = {secret for secret, _ in samples}
        assert secrets == set(range(1, 9))

    def test_sampling_is_deterministic(self):
        scenario = sync_scenario(seed=701)
        first = collect_transmission_samples(scenario, 50)
        second = collect_transmission_samples(scenario, 50)
        assert [s for s, _ in first] == [s for s, _ in second]
        assert all(a == b for (_, a), (_, b) in zip(first, second))

    def test_samples_are_the_transcripts_of_single_runs(self):
        for scenario in (
            sync_scenario(seed=702),
            decoy_scenario(adversary=AdversaryKind.JAMMER, secret_domain=(1, 8), seed=703),
            decoy_scenario(
                adversary=AdversaryKind.IMPERSONATOR,
                secret_domain=(1, 8),
                party_secrets={"alice": 3},
                defense_enabled=False,
            ),
        ):
            samples = collect_transmission_samples(scenario, 30)
            features = TranscriptFeatures.for_scenario(scenario)
            assert samples.feature_columns(features).tuples() == [features(t) for _, t in samples]
            for index, (secret, transcript) in enumerate(samples):
                assert type(secret) is int
                alone = run_alone(scenario, samples.runs, index)
                assert secret == alone.party_secrets["alice"]
                assert transcript.entries == run_scenario(alone).transcript.entries

    def test_working_set_stays_that_of_one_run(self):
        # Long runs go through the kernel one at a time and no pass outlives
        # the next, so 64 samples need no more memory than the longest run's
        # kernel pass alone, which builds no transcript.
        scenario = decoy_scenario(max_ticks=200_000, seed=704, secret_domain=(1, 8))
        features = TranscriptFeatures.for_scenario(scenario)
        runs = collect_transmission_samples(scenario, 64).runs
        lengths = [batch.lengths[0] for batch in simulate_runs(scenario, runs)]

        def peak(action) -> int:
            tracemalloc.start()
            try:
                action()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = run_alone(scenario, runs, lengths.index(max(lengths)))
        one_run = peak(lambda: list(simulate_runs(alone, Runs.of(alone))))
        samples = peak(
            lambda: collect_transmission_samples(scenario, 64).feature_columns(features)
        )
        assert samples <= 2 * one_run

    @pytest.mark.parametrize(
        "seed",
        [
            np.uint64(2**64 - 1),
            np.uint64(2**64 - 10),
            np.uint64(2**64 - 11),
            np.int64(2**63 - 1),
            np.int32(7),
        ],
        ids=repr,
    )
    def test_a_numpy_seed_samples_as_its_int(self, seed):
        # The sample seeds rise from seed + 1 by the runner's seed rule: a
        # numpy seed neither wraps nor overflows, and past 2^64 - 1 it
        # raises what its int raises.
        base = load_scenario(str(Path(__file__).parent.parent / "configs" / "sync_analysis.cfg"))

        def sampled(seed, count=10):
            try:
                runs = collect_transmission_samples(dataclasses.replace(base, seed=seed), count).runs
            except InvalidScenario as exc:
                return str(exc)
            return [list(column) for column in runs]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampled(seed) == sampled(int(seed))
            assert sampled(seed, 0) == [[], [], []]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"adversary": AdversaryKind.JAMMER},
            {"adversary": AdversaryKind.IMPERSONATOR, "party_secrets": {"alice": 3}},
        ],
        ids=["honest", "jammer", "impersonator"],
    )
    def test_a_sample_pass_builds_no_outcome_table(self, overrides):
        # feature_columns reads each pass's readings and lengths alone.  The
        # outcome table is built at its first read, once, and every reader
        # reads the same one whichever reads first.
        scenario = decoy_scenario(secret_domain=(1, 8), seed=705, **overrides)
        features = TranscriptFeatures.for_scenario(scenario)
        samples = collect_transmission_samples(scenario, 1200)
        batches, recoveries = [], []
        kernel, recover = decoy._closed_form, decoy.recover_secrets

        def recorded(*args):
            batches.append(kernel(*args))
            return batches[-1]

        def counted(*args):
            recoveries.append(len(args[0]))
            return recover(*args)

        receives = scenario.adversary is not AdversaryKind.IMPERSONATOR
        with mock.patch.object(decoy, "_closed_form", recorded):
            with mock.patch.object(decoy, "recover_secrets", counted):
                columns = samples.feature_columns(features)
        assert len(batches) == 3 and len(columns.kind) == 1200
        assert not any("table" in batch.__dict__ for batch in batches)
        assert recoveries == [] or not receives  # an impersonator's reads recover in the kernel

        def read(batch, order):
            found = {
                "digests": lambda: batch.digests,
                "transcripts": lambda: [batch.transcript(i) for i in range(len(batch))],
                "attack columns": lambda: attack_columns(batch),
                "outcomes": lambda: [batch.outcome(i) for i in range(len(batch))],
            }
            return {name: found[name]() for name in order}

        order = ["digests", "transcripts", "attack columns", "outcomes"]
        for batch, again in zip(batches, adversary_runs(scenario, samples.runs)):
            recoveries.clear()
            with mock.patch.object(decoy, "recover_secrets", counted):
                first = read(batch, order[:3])
            assert len(recoveries) == receives  # one recovery pass; none without a receiver
            assert "table" in batch.__dict__ and batch.table is batch.table
            assert read(again, order[::-1]) == {**first, **read(batch, order[3:])}

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"adversary": AdversaryKind.JAMMER},
            {"adversary": AdversaryKind.IMPERSONATOR, "party_secrets": {"alice": 3}},
        ],
        ids=["honest", "jammer", "impersonator"],
    )
    def test_iterated_samples_and_digests_recover_nothing(self, overrides):
        # A transcript and a digest read each run's announce tick from its
        # pass's plans, as the table does, so neither builds the table or
        # recovers a secret; what they read agrees with the table.
        scenario = decoy_scenario(secret_domain=(1, 8), seed=705, **overrides)
        samples = collect_transmission_samples(scenario, 1200)
        batches, recoveries, in_kernel = [], [], []
        kernel, recover = decoy._closed_form, decoy.recover_secrets

        def recorded(*args):
            in_kernel.append(True)  # an impersonator's reads recover inside the kernel
            batches.append(kernel(*args))
            in_kernel.pop()
            return batches[-1]

        def counted(*args):
            if not in_kernel:
                recoveries.append(len(args[0]))
            return recover(*args)

        with mock.patch.object(decoy, "_closed_form", recorded):
            with mock.patch.object(decoy, "recover_secrets", counted):
                transcripts = [transcript for _, transcript in samples]
                digests = [digest for batch in batches for digest in batch.digests]
        assert len(batches) == 3 and len(transcripts) == 1200
        assert recoveries == []
        assert not any("table" in batch.__dict__ for batch in batches)
        assert digests == [replay_digest(transcript) for transcript in transcripts]
        ticks = [tick for batch in batches for tick in batch.table.announce.tolist()]
        announced = [
            [tick for tick, tag in transcript.announcements() if tag == IN_BUSINESS]
            for transcript in transcripts
        ]
        assert announced == [[] if tick < 0 else [tick] for tick in ticks]

    def test_timeout_transcripts_are_still_samples(self):
        scenario = decoy_scenario(
            adversary=AdversaryKind.IMPERSONATOR,
            secret_domain=(1, 8),
            party_secrets={"alice": 3},
        )
        samples = collect_transmission_samples(scenario, 40)
        assert len(samples) == 40
        assert all(len(transcript) > 0 for _, transcript in samples)
