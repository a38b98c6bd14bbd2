"""Replay identity across versions: every corpus scenario keeps its status and digest.

tests/golden_digests.json pins ``[status, digest]`` for the scenarios
listed by make_golden_digests.groups(); a vessel abort is pinned by its
status alone, the jam-value groups by the receiver's error and the
forging groups by what the impersonator recovered.  A decoy run's digest
is also checked as its kernel pass hashes it, without a transcript.
"""

import json
from unittest import mock

import pytest

from decoysim import decoy, replay_digest
from decoysim.engine import DECOY_PROTOCOLS
from make_golden_digests import CORPUS, groups, pinned_row

GROUPS = groups()
PINNED = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_group():
    assert list(PINNED) == list(GROUPS)


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
