"""Write tests/golden_digests.json: the pinned (status, digest) of fixed scenarios.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden_digests.py

The corpus covers every configs/*.cfg, the 100 scenarios of acceptance
criterion 9, and a grid of seeded runs over every decoy protocol x
adversary x ramp model x defense setting plus the comparison protocols,
with budgets and noise chosen so that timeouts and vessel aborts occur
too.  Three more groups jam with other values (``attack_jam`` with jam
value +3, 0 and -80; upward jams make receivers reject the transmission
as out of domain); their rows pin the attack's ``receiver_error`` (or
"ok") in place of the run status.  The forging groups run
``attack_impersonate`` with a forged announcement, the defense on and
off, under every noise level; their rows pin what the impersonator
recovered (``null`` for nothing) in place of the run status.
The scenarios are a pure function of this file; the corpus stores one
``[status, digest]`` row per scenario, in order, and
test_golden_digests.py replays it.  Regenerate only for an intended
change to the public record, and say why in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

from decoysim import (
    EMPTY_TRANSCRIPT_DIGEST,
    AdversaryKind,
    Protocol,
    RampModel,
    Scenario,
    attack_impersonate,
    attack_jam,
    load_scenario,
    replay_digest,
    run_scenario,
)
from decoysim.engine import COMPARISON_PROTOCOLS

from conftest import random_scenario

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).with_name("golden_digests.json")
RUNS_PER_GROUP = 200
# A vessel abort stops before any level is published: its record is the
# empty transcript, so only its status is pinned.
VESSEL_ABORTS = ("VesselEmpty", "VesselOverflow")
JAM_GROUP = "decoy_force/jammer/random_ramp/defense=True/jam_value="
# group name -> jam value; the +3 group was the first and keeps its name
JAM_VALUES = {f"{JAM_GROUP}{value:g}": value for value in (3.0, 0.0, -80.0)}
FORGED = "/forged"
# The forger's own key, picked by seed: a whole key, a fractional one and
# none at all (a forger that announces but never ramps).
FORGER_KEYS = (4.0, 2.5, 0.0)
# (noise_sigma, epsilon_stab): noiseless, the usual 4-sigma window, and a
# window too tight to settle in, which often times out.
NOISE_LEVELS = ((0.0, 0.0), (0.05, 0.2), (0.05, 0.01))


def _decoy_group(name: str, base: Scenario) -> list[Scenario]:
    rng = random.Random(name)
    scenarios = []
    for _ in range(RUNS_PER_GROUP):
        noise, epsilon = rng.choice(NOISE_LEVELS)
        secrets = {"alice": rng.randint(1, 8), "bob": rng.randint(1, 8)}
        if base.adversary is AdversaryKind.IMPERSONATOR:
            del secrets["bob"]
        scenarios.append(Scenario(
            protocol=base.protocol, seed=rng.getrandbits(63), max_ticks=rng.randint(55, 80),
            secret_domain=(1, 8), party_secrets=secrets, ramp_model=base.ramp_model,
            hold_ticks=rng.choice([3, 6]), epsilon_stab=epsilon, noise_sigma=noise,
            adversary=base.adversary, defense_enabled=base.defense_enabled,
        ))
    return scenarios


def _comparison_group(protocol: Protocol) -> list[Scenario]:
    rng = random.Random(protocol.value)
    return [
        Scenario(
            protocol=protocol, seed=rng.getrandbits(63), dt=rng.choice([1.0, 0.5, 0.01]),
            max_ticks=rng.randint(500, 2000), secret_domain=(1, 100),
            party_secrets={"alice": rng.randint(1, 100), "bob": rng.randint(1, 100)},
            hold_ticks=rng.choice([3, 10, 150, 400]), noise_sigma=rng.choice([0.0, 0.05]),
        )
        for _ in range(RUNS_PER_GROUP)
    ]


def groups() -> dict[str, list[Scenario]]:
    """Every corpus group's scenarios, in corpus order."""
    out = {"configs": [load_scenario(path) for path in sorted(ROOT.glob("configs/*.cfg"))]}
    rng = random.Random(424242)
    out["criterion_9"] = [random_scenario(rng) for _ in range(100)]
    for protocol, adversary, ramp_model, defense in itertools.product(
        (Protocol.DECOY_FORCE, Protocol.DECOY_WAVE), AdversaryKind, RampModel, (True, False)
    ):
        name = f"{protocol.value}/{adversary.value}/{ramp_model.value}/defense={defense}"
        base = Scenario(protocol=protocol, adversary=adversary, ramp_model=ramp_model,
                        defense_enabled=defense)
        out[name] = _decoy_group(name, base)
    base = Scenario(protocol=Protocol.DECOY_FORCE, adversary=AdversaryKind.JAMMER)
    for name in JAM_VALUES:
        out[name] = _decoy_group(name, base)
    for protocol, ramp_model, defense in itertools.product(
        (Protocol.DECOY_FORCE, Protocol.DECOY_WAVE), RampModel, (True, False)
    ):
        name = f"{protocol.value}/impersonator/{ramp_model.value}/defense={defense}{FORGED}"
        base = Scenario(protocol=protocol, adversary=AdversaryKind.IMPERSONATOR,
                        ramp_model=ramp_model, defense_enabled=defense)
        out[name] = _decoy_group(name, base)
    for protocol in COMPARISON_PROTOCOLS:
        out[protocol.value] = _comparison_group(protocol)
    return out


def pinned_row(group: str, scenario: Scenario) -> list:
    """``[status, digest]`` as the corpus stores it."""
    if group in JAM_VALUES:
        attack = attack_jam(scenario, jam_value=JAM_VALUES[group])
        return [attack.receiver_error or "ok", f"{replay_digest(attack.transcript):016x}"]
    if group.endswith(FORGED):
        key = FORGER_KEYS[scenario.seed % len(FORGER_KEYS)]
        attack = attack_impersonate(scenario, forge_announcement=True, adversary_key=key)
        return [attack.adversary_recovered, f"{replay_digest(attack.transcript):016x}"]
    outcome = run_scenario(scenario)
    digest = replay_digest(outcome.transcript)
    if outcome.status in VESSEL_ABORTS:
        assert digest == EMPTY_TRANSCRIPT_DIGEST, scenario
        return [outcome.status, None]
    return [outcome.status, f"{digest:016x}"]


def main() -> int:
    blocks = []
    statuses: dict[str, int] = {}
    for name, scenarios in groups().items():
        rows = [pinned_row(name, scenario) for scenario in scenarios]
        for status, _ in rows:
            statuses[str(status)] = statuses.get(str(status), 0) + 1
        body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
        blocks.append(f"  {json.dumps(name)}: [\n{body}\n  ]")
    CORPUS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    counts = dict(sorted(statuses.items()))
    print(f"wrote {sum(statuses.values())} runs to {CORPUS.name}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
