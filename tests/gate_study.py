"""How often two posterior gates of the tier-1 suite fail at seeds they were not written for.

Runs, at 300 seeds each, the scenario and the bound of

- acceptance criterion 8's uniform-posterior check (test_acceptance.py,
  seed 9500): the defended sender against a silent impersonator, 2,000
  samples, every secret's posterior within 3 sigma of 1/8;
- TestEstimatePosterior::test_synchronous_posterior_uniform_over_split_set
  (test_adversary.py, seed 500): the synchronous control, 2,500 samples,
  the posterior of each secret of the split set of 8 within 3 sigma of 1/7,
  and secret 8's at 0.

Only the seed varies.  Each gate's margin is its largest deviation in
sigma, so it fails where the margin exceeds 3.  The name keeps the script
out of the suite.  Run it from the root of a checkout:

    PYTHONPATH=src:tests python tests/gate_study.py [--seeds 300]
"""

from __future__ import annotations

import argparse
import math
import statistics

from decoysim import (
    AdversaryKind,
    TranscriptFeatures,
    analytic_split_posterior,
    attack_impersonate,
    collect_transmission_samples,
    estimate_posterior,
    run_decoy_transmission,
)
from conftest import decoy_scenario, sync_scenario

BOUND_SIGMA = 3.0
# Far enough apart that no two seeds' sample runs share a seed.
SEED_STRIDE = 10_000


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


GATES = {
    "criterion 8 uniform posterior (seed 9500)": (9500, silent_impersonator_margin),
    "split-set posterior (seed 500)": (500, split_set_margin),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=300)
    count = parser.parse_args().seeds
    for name, (own_seed, margin_of) in GATES.items():
        seeds = [own_seed + SEED_STRIDE * k for k in range(1, count + 1)]
        margins = [margin_of(seed) for seed in seeds]
        failed = [(m, s) for m, s in zip(margins, seeds) if m > BOUND_SIGMA]
        q1, median, q3 = statistics.quantiles(margins, n=4, method="inclusive")
        worst, worst_seed = max(zip(margins, seeds))
        print(
            f"{name}: {len(failed)}/{count} failed ({len(failed) / count:.1%}) at "
            f"{BOUND_SIGMA:g} sigma; margin min {min(margins):.2f}, q1 {q1:.2f}, "
            f"median {median:.2f}, q3 {q3:.2f}, max {worst:.2f} (seed {worst_seed}); "
            f"own seed {margin_of(own_seed):.2f}"
        )


if __name__ == "__main__":
    main()
