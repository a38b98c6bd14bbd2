"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is pinned to an explicit oracle: exhaustive integer
comparison, brute-force enumeration, the exact sum-channel mutual
information computed by enumeration, or replay-digest equality.  Sizes and
tolerances are fixed here, not tuned at runtime.
"""

import dataclasses
import functools
import math
import random
import time

from decoysim import (
    AdversaryKind,
    Ordering,
    Protocol,
    RampModel,
    Scenario,
    TranscriptFeatures,
    analytic_split_posterior,
    analytic_sum_mi,
    attack_impersonate,
    audit_comparison,
    collect_transmission_samples,
    compare_digitwise,
    compare_elevator,
    compare_race,
    compare_race_bitstring,
    compare_vessels,
    estimate_posterior,
    replay_digest,
    run_decoy_transmission,
    run_scenario,
)
from decoysim.millionaires import bitstring_sub, elevator_sub, race_sub, vessels_sub
from conftest import decoy_scenario, random_scenario, sync_scenario


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_decoy_correctness_exhaustive():
    """Exhaustive [1,100]^2 x 3 seeds, noiseless RandomRamp: 100% recovery."""
    base = decoy_scenario(secret_domain=(1, 100), ramp_model=RampModel.RANDOM_RAMP)
    started = time.perf_counter()
    runs = 0
    for fa in range(1, 101):
        for fb in range(1, 101):
            for seed in range(3):
                scenario = dataclasses.replace(
                    base, seed=seed, party_secrets={"alice": fa, "bob": fb}
                )
                outcome = run_decoy_transmission(scenario)
                assert outcome.recovered == fa, (fa, fb, seed, outcome.recovered)
                runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 30_000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"30000/30000 exact recoveries in {elapsed:.1f}s")


def test_criterion_2_split_invisibility():
    """Synchronous noiseless (3,5) and (4,4): identical stable-phase measurements."""
    run_a = run_decoy_transmission(sync_scenario(party_secrets={"alice": 3, "bob": 5}))
    run_b = run_decoy_transmission(sync_scenario(party_secrets={"alice": 4, "bob": 4}))
    measurements_a = run_a.transcript.measurements()
    measurements_b = run_b.transcript.measurements()
    # the entire public records coincide, stable phase included
    assert measurements_a == measurements_b
    stable_a = [v for _, v in measurements_a][-3:]
    assert stable_a == [8.0, 8.0, 8.0]
    _report(2, "equal-sum runs produce byte-identical public measurements")


def test_criterion_3_passive_adversary_security():
    """Synchronous [1,8]: 10^4 samples match the enumerated I(S;S+K) within 0.05."""
    scenario = sync_scenario(seed=1000)
    analytic = analytic_sum_mi(scenario.secret_domain)
    samples = collect_transmission_samples(scenario, 10_000)
    features = TranscriptFeatures.for_scenario(scenario)
    observed = run_decoy_transmission(scenario).transcript
    report = estimate_posterior(samples, observed, features, scenario.secret_domain)

    mi_error = report.mi_bits - analytic
    assert abs(mi_error) <= 0.05, f"mi {report.mi_bits} vs analytic {analytic}"

    # posterior against the analytic conditional maximum for the observed total
    total = report.observed_feature[0]
    assert total == 8
    conditional = analytic_split_posterior(total, scenario.secret_domain, max_key=8)
    expected_max = max(conditional.values())
    sigma = math.sqrt(expected_max * (1 - expected_max) / report.matched_samples)
    assert abs(report.max_prob - expected_max) <= 3 * sigma
    _report(
        3,
        f"mi {report.mi_bits:.4f} vs analytic {analytic:.4f} "
        f"(err {mi_error:+.4f}); max_prob {report.max_prob:.4f} "
        f"within 3 sigma of {expected_max:.4f}",
    )


def test_criterion_4_negative_control_detects_leakage():
    """Deterministic-rate ramps must blow past the analytic baseline by >= 1 bit."""
    analytic = analytic_sum_mi((1, 8))
    control = decoy_scenario(
        secret_domain=(1, 8),
        party_secrets={"alice": 3, "bob": 5},
        ramp_model=RampModel.DETERMINISTIC_RATE,
        seed=2000,
    )
    control_samples = collect_transmission_samples(control, 10_000)
    control_features = TranscriptFeatures.for_scenario(control)
    control_observed = run_decoy_transmission(control).transcript
    control_report = estimate_posterior(
        control_samples, control_observed, control_features, control.secret_domain
    )
    assert control_report.mi_bits >= analytic + 1.0

    # estimator-sanity invariant: the control sits >= 1 bit above the
    # random-ramp default at the same sample size
    default = decoy_scenario(
        secret_domain=(1, 8), party_secrets={"alice": 3, "bob": 5}, seed=3000
    )
    default_samples = collect_transmission_samples(default, 10_000)
    default_features = TranscriptFeatures.for_scenario(default)
    default_observed = run_decoy_transmission(default).transcript
    default_report = estimate_posterior(
        default_samples, default_observed, default_features, default.secret_domain
    )
    assert control_report.mi_bits - default_report.mi_bits >= 1.0
    _report(
        4,
        f"control mi {control_report.mi_bits:.3f} >= analytic {analytic:.3f} + 1.0; "
        f"random-ramp default {default_report.mi_bits:.3f}",
    )


def test_criterion_5_millionaires_exhaustive_grids():
    """All comparators match sign(a-b) under the documented tie conventions."""
    started = time.perf_counter()
    checked = 0
    for a in range(1, 51):
        for b in range(1, 51):
            expected = (
                Ordering.A_LESS if a < b else Ordering.A_GREATER
            )  # elevator collapses ties onto the not-larger branch
            assert compare_elevator(a, b, n_floors=50).ordering is expected
            checked += 1
    for a in range(1, 31):
        for b in range(1, 31):
            sign = (
                Ordering.A_LESS
                if a < b
                else Ordering.A_GREATER if a > b else Ordering.EQUAL
            )
            assert compare_race(a, b, 60).ordering is sign
            assert compare_race_bitstring(a, b, 60).ordering is sign
            checked += 2
    for a in range(1, 51):
        for b in range(1, 51):
            sign = (
                Ordering.A_LESS
                if a < b
                else Ordering.A_GREATER if a > b else Ordering.EQUAL
            )
            assert compare_vessels(a, b, 10).ordering is sign
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(5, f"{checked} grid comparisons matched the integer oracle in {elapsed:.1f}s")


def test_criterion_6_digitwise_reduction_exhaustive():
    """[0,999]^2 base 10 through each physical sub-protocol: 100% agreement."""
    started = time.perf_counter()
    subs = {
        "elevator": functools.lru_cache(maxsize=None)(elevator_sub(10)),
        "race": functools.lru_cache(maxsize=None)(race_sub(10)),
        "vessels": functools.lru_cache(maxsize=None)(vessels_sub()),
    }
    for name, sub in subs.items():
        for a in range(1000):
            for b in range(1000):
                result = compare_digitwise(a, b, 10, sub).ordering
                expected = (
                    Ordering.A_LESS
                    if a < b
                    else Ordering.A_GREATER if a > b else Ordering.EQUAL
                )
                assert result is expected, (name, a, b)
    # the bit-string twin of the race, on a denser-than-unit subgrid
    bitstring = functools.lru_cache(maxsize=None)(bitstring_sub(10))
    for a in range(0, 1000, 3):
        for b in range(0, 1000, 3):
            expected = (
                Ordering.A_LESS
                if a < b
                else Ordering.A_GREATER if a > b else Ordering.EQUAL
            )
            assert compare_digitwise(a, b, 10, bitstring).ordering is expected
    elapsed = time.perf_counter() - started
    _report(6, f"3x10^6 digitwise comparisons matched in {elapsed:.0f}s")


def test_criterion_7_vessels_leakage_finding():
    """Auditor slope equals b-a exactly, and the leak is flagged as > 1 bit."""
    for a in range(1, 51):
        for b in range(1, 51):
            outcome = compare_vessels(a, b, 10)
            findings = audit_comparison(outcome, Protocol.VESSELS)
            assert len(findings) == 1
            assert findings[0].value == float(b - a), (a, b)
            assert findings[0].exceeds_comparison_bit
    _report(7, "slope finding exact for all 2500 noiseless runs, flagged > 1 bit")


def test_criterion_8_mitm_defense():
    """Naive sender is read 100%; defended sender times out and leaks nothing."""
    # defense off: the silent impersonator reads the secret every time
    for index in range(100):
        secret = 1 + index % 8
        scenario = decoy_scenario(
            secret_domain=(1, 8),
            party_secrets={"alice": secret},
            adversary=AdversaryKind.IMPERSONATOR,
            defense_enabled=False,
            seed=9000 + index,
        )
        outcome = attack_impersonate(scenario)
        assert outcome.adversary_recovered == secret, index

    # defense on: every run times out with an all-zero public record
    base = decoy_scenario(
        secret_domain=(1, 8),
        party_secrets={"alice": 3},
        adversary=AdversaryKind.IMPERSONATOR,
        defense_enabled=True,
        seed=9500,
    )
    for index in range(100):
        scenario = dataclasses.replace(
            base, seed=9500 + index, party_secrets={"alice": 1 + index % 8}
        )
        outcome = attack_impersonate(scenario)
        assert outcome.timeout
        assert outcome.adversary_recovered is None
        assert all(value == 0.0 for _, value in outcome.transcript.measurements())

    # and the posterior over the secret from those timeout transcripts is
    # uniform within 3-sigma multinomial error
    samples = collect_transmission_samples(base, 2000)
    features = TranscriptFeatures.for_scenario(base)
    observed = attack_impersonate(base).transcript
    report = estimate_posterior(samples, observed, features, base.secret_domain)
    assert report.observed_feature == ("silent",)
    uniform = 1.0 / 8.0
    sigma = math.sqrt(uniform * (1 - uniform) / report.matched_samples)
    for secret, probability in report.posterior.items():
        assert abs(probability - uniform) <= 3 * sigma, secret
    _report(
        8,
        "defense-off read 100/100; defense-on timeout 100/100 with posterior "
        f"uniform within 3 sigma (max dev {max(abs(p - uniform) for p in report.posterior.values()):.4f})",
    )


def _digest_of(scenario: Scenario) -> int:
    return replay_digest(run_scenario(scenario).transcript)


def test_criterion_9_determinism_100_random_scenarios():
    """Every scenario, run twice, produces identical transcript digests."""
    rng = random.Random(424242)
    for index in range(100):
        scenario = random_scenario(rng)
        assert _digest_of(scenario) == _digest_of(scenario), (index, scenario)
    _report(9, "100/100 random scenarios replayed digest-identical")


def test_criterion_10_noise_robustness():
    """sigma=0.05, hold=50, windowed-mean recovery: >= 99% success over 10^3 runs."""
    base = decoy_scenario(
        noise_sigma=0.05,
        epsilon_stab=0.2,  # 4 * sigma
        hold_ticks=50,
        max_ticks=600,
    )
    successes = 0
    runs = 1000
    for seed in range(runs):
        outcome = run_decoy_transmission(dataclasses.replace(base, seed=seed))
        if outcome.success:
            successes += 1
    rate = successes / runs
    assert rate >= 0.99, f"success rate {rate:.3f}"
    _report(10, f"noisy recovery succeeded in {successes}/{runs} runs ({rate:.1%})")
