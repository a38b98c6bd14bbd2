"""Replay identity across versions: every corpus scenario keeps its status and digest.

tests/golden_digests.json pins ``[status, digest]`` for the scenarios
listed by make_golden_digests.groups(); a vessel abort is pinned by its
status alone, the jam-value groups by the receiver's error and the
forging groups by what the impersonator recovered.  A decoy run's digest
is also checked as its kernel pass hashes it, without a transcript, and
every field of the attack groups' results is pinned by one hash.
"""

import dataclasses
import hashlib
import json
from unittest import mock

import pytest

from decoysim import attack_impersonate, attack_jam, decoy, replay_digest, run_scenario
from decoysim.engine import DECOY_PROTOCOLS, STREAM_ADVERSARY
from make_golden_digests import (
    CORPUS,
    FORGED,
    FORGER_KEYS,
    JAM_VALUES,
    groups,
    pinned_row,
    render,
)

GROUPS = groups()
PINNED = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_group():
    assert list(PINNED) == list(GROUPS)


def test_corpus_file_is_its_rows_rendered():
    # With every row pinned by the tests below, regenerating the corpus
    # writes the same bytes.
    assert render(PINNED) == CORPUS.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", list(GROUPS))
def test_golden_digests(name):
    scenarios = GROUPS[name]
    assert len(PINNED[name]) == len(scenarios)
    for index, (scenario, expected) in enumerate(zip(scenarios, PINNED[name])):
        assert pinned_row(name, scenario) == expected, (name, index, scenario)


def _is_decoy(scenario) -> bool:
    return scenario.protocol in DECOY_PROTOCOLS


@pytest.mark.parametrize("name", [name for name in GROUPS if any(map(_is_decoy, GROUPS[name]))])
def test_batch_digests_are_the_pinned_digests(name):
    # Each decoy run's kernel pass hashes its row without a transcript; that
    # digest is the pinned one and replay_digest of the built transcript.
    batches = []
    closed_form = decoy._closed_form

    def recorded(*args):
        batches.append(closed_form(*args))
        return batches[-1]

    with mock.patch.object(decoy, "_closed_form", recorded):
        for index, scenario in enumerate(GROUPS[name]):
            if not _is_decoy(scenario):
                continue
            batches.clear()
            assert pinned_row(name, scenario) == PINNED[name][index]
            [batch] = batches
            digest = batch.digest(0)
            assert f"{digest:016x}" == PINNED[name][index][1], (name, index, scenario)
            assert replay_digest(batch.transcript(0)) == digest


# sha256 of repr([every AttackOutcome field but the transcript]), run by
# run, over the first 40 scenarios of each jammer and impersonator group.
# A change to how any field follows from the run changes it.
ATTACK_FIELDS_SHA256 = "2d1505210a4e7a6af11b2fbc13ebf00c5beaaf116ad03d7f43cb8e364daae161"


def test_attack_outcome_fields_are_pinned():
    # The corpus pins one field of an attack; the tick oracle builds its
    # attack results with the package's own rule.  This pins them all.
    digest = hashlib.sha256()
    for name, scenarios in GROUPS.items():
        if "/jammer/" not in name and "/impersonator/" not in name:
            continue
        for scenario in scenarios[:40]:
            if name in JAM_VALUES:
                attack = attack_jam(scenario, jam_value=JAM_VALUES[name])
            elif name.endswith(FORGED):
                key = FORGER_KEYS[scenario.seed % len(FORGER_KEYS)]
                attack = attack_impersonate(scenario, forge_announcement=True, adversary_key=key)
                # The forged tick is the adversary stream's first draw.
                first = scenario.stream(STREAM_ADVERSARY).integers(1, scenario.receiver_start_max)
                assert attack.forged_announce_tick == first, (name, scenario)
            else:
                attack = run_scenario(scenario).result
            fields = dataclasses.fields(attack)
            values = [getattr(attack, f.name) for f in fields if f.name != "transcript"]
            digest.update(repr(values).encode())
    assert digest.hexdigest() == ATTACK_FIELDS_SHA256
