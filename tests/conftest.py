"""Shared scenario factories for the test suite."""

import dataclasses
import random

import pytest

from decoysim import AdversaryKind, Protocol, RampModel, Scenario
from decoysim.decoy import Runs


def decoy_scenario(**overrides) -> Scenario:
    """A small, fast decoy-transmission scenario; override freely."""
    fields = dict(
        protocol=Protocol.DECOY_FORCE,
        seed=42,
        dt=1.0,
        max_ticks=120,
        secret_domain=(1, 100),
        party_secrets={"alice": 3, "bob": 5},
        ramp_model=RampModel.RANDOM_RAMP,
        hold_ticks=3,
        epsilon_stab=0.0,
        noise_sigma=0.0,
        adversary=AdversaryKind.NONE,
        defense_enabled=True,
    )
    fields.update(overrides)
    return Scenario(**fields)


def sync_scenario(**overrides) -> Scenario:
    """Synchronous idealized-control variant (zero leakage by construction)."""
    fields = dict(
        ramp_model=RampModel.SYNCHRONOUS,
        defense_enabled=False,
        secret_domain=(1, 8),
        party_secrets={"alice": 3, "bob": 5},
    )
    fields.update(overrides)
    return decoy_scenario(**fields)


def vessels_scenario(**overrides) -> Scenario:
    fields = dict(
        protocol=Protocol.VESSELS,
        secret_domain=(1, 50),
        party_secrets={"alice": 5, "bob": 3},
        hold_ticks=10,
    )
    fields.update(overrides)
    return decoy_scenario(**fields)


def random_scenario(rng: random.Random) -> Scenario:
    """One scenario of acceptance criterion 9, drawn from `rng`."""
    protocol = rng.choice(list(Protocol))
    n1 = rng.randint(1, 5)
    n2 = n1 + rng.randint(3, 30)
    secrets = {"alice": rng.randint(n1, n2), "bob": rng.randint(n1, n2)}
    noise = rng.choice([0.0, 0.0, 0.05])
    adversary = AdversaryKind.NONE
    if protocol in (Protocol.DECOY_FORCE, Protocol.DECOY_WAVE):
        adversary = rng.choice(
            [AdversaryKind.NONE, AdversaryKind.PASSIVE, AdversaryKind.JAMMER,
             AdversaryKind.IMPERSONATOR]
        )
        if adversary is AdversaryKind.IMPERSONATOR:
            secrets = {"alice": secrets["alice"]}
    return Scenario(
        protocol=protocol,
        seed=rng.getrandbits(63),
        dt=rng.choice([1.0, 0.5]),
        max_ticks=rng.randint(80, 200),
        secret_domain=(n1, n2),
        party_secrets=secrets,
        ramp_model=rng.choice([RampModel.SYNCHRONOUS, RampModel.RANDOM_RAMP]),
        hold_ticks=rng.randint(2, 6),
        epsilon_stab=4 * noise,
        noise_sigma=noise,
        adversary=adversary,
        defense_enabled=rng.choice([True, False]),
    )


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return dataclasses.replace(scenario, seed=seed)


def one_run(scenario: Scenario) -> Runs:
    """The scenario's own run as a batch of one, the columns simulate_transmission passes."""
    secrets = scenario.party_secrets
    return Runs([scenario.seed], [secrets["alice"]], [secrets.get("bob")])


def run_alone(scenario: Scenario, runs: Runs, index: int) -> Scenario:
    """`scenario` with run `index`'s seed and secrets: a key unless an impersonator receives."""
    secrets = {"alice": int(runs.secrets[index])}
    if scenario.adversary is not AdversaryKind.IMPERSONATOR:
        secrets["bob"] = int(runs.keys[index])
    return dataclasses.replace(scenario, seed=runs.seeds[index], party_secrets=secrets)


@pytest.fixture
def tmp_config(tmp_path):
    """Write config text to a temp file and return its path."""

    def _write(text: str, name: str = "scenario.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write
