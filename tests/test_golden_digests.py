"""Replay identity across versions: every corpus scenario keeps its status and digest.

tests/golden_digests.json pins ``[status, digest]`` for the scenarios
listed by make_golden_digests.groups(); a vessel abort is pinned by its
status alone, the jam-value groups by the receiver's error and the
forging groups by what the impersonator recovered.
"""

import json

import pytest

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
