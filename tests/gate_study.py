"""How often statistical gates of the tier-1 suite fail at seeds they were not written for.

Runs, at 300 seeds each, the scenario, the sample count and the bound of

- acceptance criterion 3 (test_acceptance.py, seed 1000): the
  synchronous control, 10,000 samples, |MI - analytic| within 0.05 bits,
  and `max_prob` within 3 sigma of the analytic conditional maximum;
- acceptance criterion 4 (seeds 2000 and 3000): the deterministic-rate
  control and the random-ramp default, 10,000 samples each, the control's
  MI at least the analytic value plus 1 bit, and at least 1 bit above the
  default's (which runs at the control's seed + 1000);
- acceptance criterion 8's uniform-posterior check (seed 9500): the
  defended sender against a silent impersonator, 2,000 samples, every
  secret's posterior within 3 sigma of 1/8;
- acceptance criterion 10 (seeds 0 to 999): the noisy channel (sigma 0.05,
  tolerance 0.2, hold 50, 600 ticks), 1,000 runs at consecutive seeds,
  at least 99% of them recovering the secret; a study seed is the first
  of its 1,000;
- TestEstimatePosterior::test_synchronous_posterior_uniform_over_split_set
  (test_adversary.py, seed 500): the synchronous control, 2,500 samples,
  the posterior of each secret of the split set of 8 within 3 sigma of 1/7,
  and secret 8's at 0.

Only the seed varies.  Each gate's margin is the quantity its test bounds,
in the test's units, so a gate fails where the margin passes its bound.
The name keeps the script out of the suite.  Run it from the root of a
checkout:

    PYTHONPATH=src:tests python tests/gate_study.py [--seeds 300]
"""

from __future__ import annotations

import argparse
import functools
import math
import statistics
from typing import Callable, NamedTuple

import numpy as np

from decoysim import (
    AdversaryKind,
    RampModel,
    TranscriptFeatures,
    analytic_split_posterior,
    analytic_sum_mi,
    attack_impersonate,
    collect_transmission_samples,
    estimate_posterior,
    run_decoy_transmission,
)
from decoysim.runner import run_passes
from conftest import decoy_scenario, sync_scenario

BOUND_SIGMA = 3.0
# Far enough apart that no two seeds' sample runs share a seed.
SEED_STRIDE = 10_000
ANALYTIC_MI = analytic_sum_mi((1, 8))


def _report(scenario, n_samples: int):
    """estimate_posterior on n_samples of `scenario`, observing the scenario's own run."""
    samples = collect_transmission_samples(scenario, n_samples)
    features = TranscriptFeatures.for_scenario(scenario)
    observed = run_decoy_transmission(scenario).transcript
    return estimate_posterior(samples, observed, features, scenario.secret_domain)


@functools.cache  # both gates of a criterion read one run per seed
def _criterion_3(seed: int):
    return _report(sync_scenario(seed=seed), 10_000)


def mi_error(seed: int) -> float:
    """Criterion 3: |MI - analytic I(S; S+K)|, in bits."""
    return abs(_criterion_3(seed).mi_bits - ANALYTIC_MI)


def max_prob_deviation(seed: int) -> float:
    """Criterion 3: |max_prob - the analytic conditional maximum for total 8|, in sigma."""
    report = _criterion_3(seed)
    assert report.observed_feature[0] == 8
    expected = max(analytic_split_posterior(8, (1, 8), max_key=8).values())
    sigma = math.sqrt(expected * (1 - expected) / report.matched_samples)
    return abs(report.max_prob - expected) / sigma


@functools.cache  # both gates of a criterion read one run per seed
def _criterion_4_control(seed: int) -> float:
    scenario = decoy_scenario(
        secret_domain=(1, 8),
        party_secrets={"alice": 3, "bob": 5},
        ramp_model=RampModel.DETERMINISTIC_RATE,
        seed=seed,
    )
    return _report(scenario, 10_000).mi_bits


def control_excess(seed: int) -> float:
    """Criterion 4: the control's MI less the analytic value, in bits."""
    return _criterion_4_control(seed) - ANALYTIC_MI


def control_over_default(seed: int) -> float:
    """Criterion 4: the control's MI less the random-ramp default's at seed + 1000, in bits."""
    secrets = {"alice": 3, "bob": 5}
    scenario = decoy_scenario(secret_domain=(1, 8), party_secrets=secrets, seed=seed + 1000)
    return _criterion_4_control(seed) - _report(scenario, 10_000).mi_bits


def noisy_success_rate(seed: int) -> float:
    """Criterion 10: the share of 1,000 noisy runs at seeds seed, seed + 1, ... that recover."""
    scenario = decoy_scenario(
        noise_sigma=0.05, epsilon_stab=0.2, hold_ticks=50, max_ticks=600, seed=seed
    )
    successes = 0
    for batch in run_passes(scenario, 1000):  # the runs of run_decoy_transmission, by the pass
        successes += int(np.count_nonzero(batch.table.recovered == np.asarray(batch.runs.secrets)))
    return successes / 1000


def silent_impersonator_margin(seed: int) -> float:
    """Criterion 8: the largest deviation of a secret's posterior from 1/8, in sigma."""
    base = decoy_scenario(
        secret_domain=(1, 8),
        party_secrets={"alice": 3},
        adversary=AdversaryKind.IMPERSONATOR,
        defense_enabled=True,
        seed=seed,
    )
    samples = collect_transmission_samples(base, 2000)
    features = TranscriptFeatures.for_scenario(base)
    report = estimate_posterior(samples, attack_impersonate(base).transcript, features, (1, 8))
    assert report.observed_feature == ("silent",)
    uniform = 1.0 / 8.0
    sigma = math.sqrt(uniform * (1 - uniform) / report.matched_samples)
    return max(abs(p - uniform) for p in report.posterior.values()) / sigma


def split_set_margin(seed: int) -> float:
    """The split-set test: secrets 1-7's largest deviation from 1/7, in sigma; inf if 8 shows."""
    scenario = sync_scenario(seed=seed)
    samples = collect_transmission_samples(scenario, 2500)
    features = TranscriptFeatures.for_scenario(scenario)
    observed = run_decoy_transmission(scenario).transcript
    report = estimate_posterior(samples, observed, features, scenario.secret_domain)
    if report.posterior[8] != 0.0:
        return math.inf
    analytic = analytic_split_posterior(8, (1, 8), max_key=8)
    sigma = math.sqrt((1 / 7) * (6 / 7) / report.matched_samples)
    return max(abs(report.posterior[s] - p) for s, p in analytic.items()) / sigma


class Gate(NamedTuple):
    own_seed: int
    margin: Callable[[int], float]
    bound: float
    at_most: bool  # the margin must be at most the bound; else at least
    unit: str


GATES = {
    "criterion 3 |MI - analytic|": Gate(1000, mi_error, 0.05, True, "bits"),
    "criterion 3 max_prob": Gate(1000, max_prob_deviation, BOUND_SIGMA, True, "sigma"),
    "criterion 4 control - analytic": Gate(2000, control_excess, 1.0, False, "bits"),
    "criterion 4 control - default": Gate(2000, control_over_default, 1.0, False, "bits"),
    "criterion 8 uniform posterior": Gate(
        9500, silent_impersonator_margin, BOUND_SIGMA, True, "sigma"
    ),
    "criterion 10 noisy success rate": Gate(0, noisy_success_rate, 0.99, False, "share"),
    "split-set posterior": Gate(500, split_set_margin, BOUND_SIGMA, True, "sigma"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=300)
    count = parser.parse_args().seeds
    for name, gate in GATES.items():
        seeds = [gate.own_seed + SEED_STRIDE * k for k in range(1, count + 1)]
        margins = [gate.margin(seed) for seed in seeds]
        passes = (lambda m: m <= gate.bound) if gate.at_most else (lambda m: m >= gate.bound)
        failed = [(s, m) for s, m in zip(seeds, margins) if not passes(m)]
        q1, median, q3 = statistics.quantiles(margins, n=4, method="inclusive")
        worst, worst_seed = (max if gate.at_most else min)(zip(margins, seeds))
        print(
            f"{name} (seed {gate.own_seed}): {len(failed)}/{count} failed "
            f"({len(failed) / count:.1%}) against {'<=' if gate.at_most else '>='} "
            f"{gate.bound:g} {gate.unit}; margin min {min(margins):.4g}, q1 {q1:.4g}, "
            f"median {median:.4g}, q3 {q3:.4g}, max {max(margins):.4g}, worst at seed "
            f"{worst_seed}; own seed {gate.margin(gate.own_seed):.4g}"
        )
        for seed, margin in failed:
            print(f"  failed at seed {seed}: {margin:.4g} {gate.unit}")


if __name__ == "__main__":
    main()
