"""Random streams, transcript semantics, replay digest, scenario validation."""

import dataclasses
import hashlib
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoysim import (
    EMPTY_TRANSCRIPT_DIGEST,
    Announcement,
    InvalidScenario,
    Mark,
    Measurement,
    Ordering,
    Protocol,
    Reading,
    RngStream,
    Scenario,
    Transcript,
    replay_digest,
    run_scenario,
)
from decoysim.channel import Readings, measure_block
from conftest import decoy_scenario, vessels_scenario, with_seed

# The receiver's widest start range, at the largest budget validate() allows.
LARGEST_START_RANGE = Scenario(
    Protocol.DECOY_FORCE, max_ticks=10**7, hold_ticks=1
).receiver_start_max


class TestRngStream:
    def test_same_seed_same_stream_replays(self):
        a = RngStream(123, 0)
        b = RngStream(123, 0)
        assert [a.normal() for _ in range(10)] == [b.normal() for _ in range(10)]

    def test_distinct_stream_ids_are_independent(self):
        a = RngStream(123, 0)
        b = RngStream(123, 1)
        assert [a.normal() for _ in range(10)] != [b.normal() for _ in range(10)]

    def test_integers_inclusive_range(self):
        stream = RngStream(7, 0)
        draws = {stream.integers(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_negative_seed_wraps_to_u64(self):
        assert RngStream(-1, 0).seed == 2**64 - 1

    def test_bulk_integers_are_successive_single_draws(self):
        for low, high in [(1, 2), (1, 8), (3, 100), (1, 2**32), (1, 2**53)]:
            single, bulk = RngStream(99, 4), RngStream(99, 4)
            one_by_one = [single.integers(low, high) for _ in range(3000)]
            assert bulk.integers(low, high, 3000) == one_by_one
            assert bulk.integers(low, high) == single.integers(low, high)

    def test_generator_is_default_rng_of_seed_and_stream(self):
        # A stream built on its own derives its row in a seed_rows pass of
        # one pair, so this checks the edge seeds and a few thousand mixed
        # one- and two-word ones; the 100,000 pairs go through one batch in
        # test_seed_rows_give_default_rng_of_seed_and_stream.
        rng = random.Random(11)
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        pairs = [(seed, stream) for seed in edges for stream in range(5)]
        pairs += [(-1, stream) for stream in range(5)]  # -1 wraps to 2^64 - 1
        while len(pairs) < 3_000:
            pairs.append((rng.getrandbits(rng.choice([16, 32, 33, 64])), rng.randrange(5)))
        for seed, stream in pairs:
            state = RngStream(seed, stream)._generator().bit_generator.state
            expected = np.random.default_rng([seed % 2**64, stream]).bit_generator.state
            assert state == expected, (seed, stream)

    def test_seed_rows_give_default_rng_of_seed_and_stream(self):
        # One batch mixing one- and two-word seeds, every stream of each:
        # the generator a row seeds has default_rng's state, which a row
        # PCG64 misreads (one not C-contiguous, say) would not give.
        rng = random.Random(12)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        while len(seeds) < 20_000:
            seeds.append(rng.getrandbits(rng.choice([16, 32, 33, 64])))
        rows = RngStream.seed_rows(seeds, range(5))
        assert rows.shape == (len(seeds), 5, 4)
        for seed, seed_rows in zip(seeds, rows):
            for stream, row in enumerate(seed_rows):
                state = RngStream(seed, stream, row)._generator().bit_generator.state
                expected = np.random.default_rng([seed, stream]).bit_generator.state
                assert state == expected, (seed, stream)

    def test_seed_rows_of_one_pair_and_of_negative_seeds(self):
        for seed in [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345, 2**40 + 7]:
            for stream in range(5):
                (row,), = RngStream.seed_rows([seed], [stream])
                state = RngStream(seed, stream, row)._generator().bit_generator.state
                assert state == np.random.default_rng([seed, stream]).bit_generator.state
        # A negative seed wraps to 64 bits, as RngStream(seed, ...) does.
        negative, wrapped = [-1, -(2**63), -5], [2**64 - 1, 2**63, 2**64 - 5]
        rows = RngStream.seed_rows(negative, [0, 3])
        assert np.array_equal(rows, RngStream.seed_rows(wrapped, [0, 3]))
        stream = RngStream(-1, 3, rows[0, 1])
        assert stream.seed == 2**64 - 1
        expected = np.random.default_rng([2**64 - 1, 3]).standard_normal(8)
        assert stream.normal(8).tolist() == expected.tolist()

    def test_first_integers_are_each_streams_first_draw(self):
        # 100,000 streams with the edge seeds of a seed_rows pass of one,
        # drawing the start range of sync_analysis.cfg.
        rng = random.Random(13)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345, 2**40 + 7]
        while len(seeds) < 100_000:
            seeds.append(rng.getrandbits(rng.choice([16, 32, 33, 64])))
        rows = RngStream.seed_rows(seeds, [1])[:, 0]
        drawn = RngStream.first_integers(seeds, 1, rows, 1, 9)
        assert drawn.dtype == np.int64
        expected = [
            np.random.default_rng([seed, 1]).integers(1, 9, endpoint=True) for seed in seeds
        ]
        assert drawn.tolist() == expected

    @pytest.mark.parametrize(
        "low, high, redraws",
        [
            (1, 1, False),  # one value: no draw at all
            (1, LARGEST_START_RANGE, None),  # redraws about once in 5,000 rows
            (1, 2**31 + 1, True),  # 2^32 mod the range is 2^31 - 1: about half the rows redraw
            (0, 2**32 - 1, False),  # the whole 32-bit output, never rejected
            (1, 2**33, True),  # numpy's 64-bit method: every row draws from its generator
        ],
    )
    def test_first_integers_fall_back_to_the_generator_where_lemire_redraws(
        self, low, high, redraws
    ):
        built = []

        class Recorded(RngStream):
            def __init__(self, seed, stream_id, row=None):
                built.append(seed)
                super().__init__(seed, stream_id, row)

        rng = random.Random(14)
        seeds = [rng.getrandbits(64) for _ in range(2_000)]
        rows = RngStream.seed_rows(seeds, [3])[:, 0]
        drawn = Recorded.first_integers(seeds, 3, rows, low, high).tolist()
        expected = [
            np.random.default_rng([seed, 3]).integers(low, high, endpoint=True) for seed in seeds
        ]
        assert drawn == expected
        assert redraws is None or bool(built) == redraws
        if high == 2**31 + 1:
            assert 800 <= len(built) <= 1200, len(built)

    def test_import_and_config_leave_numpy_random_unloaded(self):
        # numpy.random is imported on the first draw, not by importing
        # decoysim or reading a config.
        code = (
            "import sys, decoysim\n"
            "decoysim.load_scenario(sys.argv[1])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        )
        root = Path(__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "-c", code, str(root / "configs" / "decoy.cfg")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        assert completed.returncode == 0, completed.stderr


class TestTranscript:
    def test_measurement_requires_channel_reading(self):
        transcript = Transcript()
        with pytest.raises(TypeError):
            transcript.record_measurement(0, 3.0)
        transcript.record_measurement(0, Reading(3.0))
        assert transcript.measurements() == [(0, 3.0)]

    def test_ticks_must_not_decrease(self):
        transcript = Transcript()
        transcript.mark(5, "x")
        with pytest.raises(ValueError):
            transcript.mark(4, "y")

    def test_ties_keep_insertion_order(self):
        transcript = Transcript()
        transcript.announce(1, "first")
        transcript.announce(1, "second")
        assert [entry.tag for entry in transcript] == ["first", "second"]

    def test_announcements_list_tick_and_tag_in_order(self):
        transcript = Transcript()
        assert transcript.announcements() == []
        transcript.announce(0, "wave-params")
        transcript.record_measurement(1, Reading(2.0))
        transcript.announce(3, "in-business")
        transcript.announce(5, "in-business")
        assert transcript.announcements() == [
            (0, "wave-params"), (3, "in-business"), (5, "in-business")
        ]

    def test_entries_view_is_immutable(self):
        transcript = Transcript()
        transcript.mark(0, "a")
        entries = transcript.entries
        assert isinstance(entries, tuple)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    @settings(max_examples=100)
    def test_sorted_tick_sequences_are_accepted(self, ticks):
        transcript = Transcript()
        for tick in sorted(ticks):
            transcript.announce(tick, "t")
        recorded = [entry.tick for entry in transcript]
        assert recorded == sorted(recorded)


def _entry_walk_digest(entries) -> int:
    """The replay digest computed one entry at a time, as the format defines it."""
    h = hashlib.blake2b(digest_size=8)
    for entry in entries:
        if isinstance(entry, Measurement):
            h.update(b"M")
            h.update(struct.pack("<q", entry.tick))
            h.update(struct.pack("<d", entry.value))
        else:
            kind = b"A" if isinstance(entry, Announcement) else b"K"
            payload = (entry.tag if isinstance(entry, Announcement) else entry.label).encode()
            h.update(kind)
            h.update(struct.pack("<q", entry.tick))
            h.update(struct.pack("<I", len(payload)))
            h.update(payload)
    return int.from_bytes(h.digest(), "little")


def _block(*values: float) -> Readings:
    return measure_block([np.array(values), np.zeros(len(values))], None)


def _mixed_transcript() -> Transcript:
    """Events before, between and after measurements; scalar and bulk appends."""
    transcript = Transcript()
    transcript.announce(0, "wave-params omega=1.0 phi=0.0")
    transcript.record_readings(0, _block(0.0, 0.25, -1.5))
    transcript.mark(2, "level=3")
    transcript.record_measurement(3, Reading(-0.0))
    transcript.announce(4, "in-business")
    transcript.announce(4, "héllo")
    transcript.record_readings(4, _block(1e300, math.pi, 5e-324))
    transcript.record_readings(7, _block())
    transcript.record_measurement(7, Reading(8.0))
    transcript.mark(9, "done")
    transcript.announce(9, "trailing")
    return transcript


class TestColumnarTranscript:
    EXPECTED = [
        Announcement(0, "wave-params omega=1.0 phi=0.0"),
        Measurement(0, 0.0),
        Measurement(1, 0.25),
        Measurement(2, -1.5),
        Mark(2, "level=3"),
        Measurement(3, -0.0),
        Announcement(4, "in-business"),
        Announcement(4, "héllo"),
        Measurement(4, 1e300),
        Measurement(5, math.pi),
        Measurement(6, 5e-324),
        Measurement(7, 8.0),
        Mark(9, "done"),
        Announcement(9, "trailing"),
    ]

    def test_entries_keep_their_order(self):
        transcript = _mixed_transcript()
        assert transcript.entries == tuple(self.EXPECTED)
        assert list(transcript) == self.EXPECTED
        assert len(transcript) == len(self.EXPECTED)
        assert all(type(e.value) is float for e in transcript.entries if isinstance(e, Measurement))

    def test_measurements_and_announcements(self):
        transcript = _mixed_transcript()
        expected = [(e.tick, e.value) for e in self.EXPECTED if isinstance(e, Measurement)]
        assert transcript.measurements() == expected
        assert transcript.values().tolist() == [value for _, value in expected]
        assert transcript.announcements() == [
            (0, "wave-params omega=1.0 phi=0.0"), (4, "in-business"), (4, "héllo"), (9, "trailing")
        ]

    def test_digest_matches_the_entry_walk(self):
        transcript = _mixed_transcript()
        assert replay_digest(transcript) == _entry_walk_digest(self.EXPECTED)

    def test_bulk_and_scalar_appends_are_equal(self):
        scalar = Transcript()
        for tick, value in enumerate([1.0, 2.0, 3.0]):
            scalar.record_measurement(tick, Reading(value))
        bulk = Transcript()
        bulk.record_readings(0, _block(1.0, 2.0, 3.0))
        assert bulk == scalar
        assert replay_digest(bulk) == replay_digest(scalar)

    def test_equality_sees_event_positions(self):
        before = Transcript()
        before.mark(0, "x")
        before.record_measurement(0, Reading(1.0))
        after = Transcript()
        after.record_measurement(0, Reading(1.0))
        after.mark(0, "x")
        assert before != after
        assert len(before) == len(after) == 2

    def test_bulk_append_accepts_only_readings(self):
        transcript = Transcript()
        with pytest.raises(TypeError):
            transcript.record_readings(0, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            transcript.record_readings(0, [Reading(1.0)])
        assert len(transcript) == 0

    def test_bulk_append_keeps_ticks_non_decreasing(self):
        transcript = Transcript()
        transcript.mark(5, "x")
        with pytest.raises(ValueError):
            transcript.record_readings(4, _block(1.0))
        transcript.record_readings(5, _block(1.0, 2.0))
        with pytest.raises(ValueError):
            transcript.announce(5, "late")
        assert transcript.measurements() == [(5, 1.0), (6, 2.0)]


def _random_transcript(rng: random.Random) -> Transcript:
    transcript = Transcript()
    tick = 0
    for _ in range(rng.randrange(1, 12)):
        tick += rng.randrange(0, 3)
        kind = rng.randrange(3)
        if kind == 0:
            transcript.record_measurement(tick, Reading(rng.uniform(-50, 50)))
        elif kind == 1:
            transcript.announce(tick, f"tag-{rng.randrange(5)}")
        else:
            transcript.mark(tick, f"mark-{rng.randrange(5)}")
    return transcript


class TestReplayDigest:
    def test_empty_transcript_digest_constant(self):
        assert replay_digest(Transcript()) == EMPTY_TRANSCRIPT_DIGEST
        # independent oracle: the blake2b-8 digest of no input
        oracle = int.from_bytes(hashlib.blake2b(digest_size=8).digest(), "little")
        assert EMPTY_TRANSCRIPT_DIGEST == oracle

    def test_copy_has_equal_digest(self):
        rng = random.Random(0)
        transcript = _random_transcript(rng)
        copy = Transcript()
        for entry in transcript:
            if isinstance(entry, Measurement):
                copy.record_measurement(entry.tick, Reading(entry.value))
            elif isinstance(entry, Announcement):
                copy.announce(entry.tick, entry.tag)
            else:
                copy.mark(entry.tick, entry.label)
        assert transcript == copy
        assert replay_digest(transcript) == replay_digest(copy)

    def test_one_ulp_perturbation_changes_digest(self):
        # 1000 random transcripts; nudge one measurement by one ulp each
        rng = random.Random(1234)
        changed = 0
        for _ in range(1000):
            transcript = _random_transcript(rng)
            measurements = [
                (i, e) for i, e in enumerate(transcript.entries)
                if isinstance(e, Measurement)
            ]
            if not measurements:
                changed += 1  # nothing to perturb; skip without failing the rate
                continue
            index, victim = measurements[rng.randrange(len(measurements))]
            perturbed = Transcript()
            for i, entry in enumerate(transcript.entries):
                if i == index:
                    nudged = math.nextafter(victim.value, math.inf)
                    perturbed.record_measurement(entry.tick, Reading(nudged))
                elif isinstance(entry, Measurement):
                    perturbed.record_measurement(entry.tick, Reading(entry.value))
                elif isinstance(entry, Announcement):
                    perturbed.announce(entry.tick, entry.tag)
                else:
                    perturbed.mark(entry.tick, entry.label)
            if replay_digest(perturbed) != replay_digest(transcript):
                changed += 1
        assert changed == 1000


class TestScenarioValidation:
    def test_zero_max_ticks_is_invalid(self):
        with pytest.raises(InvalidScenario, match="max_ticks"):
            decoy_scenario(max_ticks=0).validate()

    def test_inverted_domain_names_the_field(self):
        with pytest.raises(InvalidScenario, match="secret_domain"):
            decoy_scenario(secret_domain=(10, 2)).validate()

    def test_secret_outside_domain(self):
        with pytest.raises(InvalidScenario, match="party_secrets.alice"):
            decoy_scenario(
                secret_domain=(1, 4), party_secrets={"alice": 9, "bob": 2}
            ).validate()

    def test_domain_must_start_at_one_or_higher(self):
        with pytest.raises(InvalidScenario, match="N1"):
            decoy_scenario(secret_domain=(0, 5)).validate()

    @pytest.mark.parametrize("party", ["Alice", "carol", "eve"])
    def test_unknown_party_is_named(self, party):
        # Decoy and comparison scenarios alike have two parties, alice and bob.
        for scenario in (decoy_scenario, vessels_scenario):
            with pytest.raises(InvalidScenario, match=rf"^party_secrets\.{party}: unknown party"):
                scenario(party_secrets={"alice": 3, "bob": 5, party: 4}).validate()

    @pytest.mark.parametrize("secret", [3.5, "3", math.nan])
    def test_a_secret_that_is_not_an_integer_is_invalid(self, secret):
        # 3.5 would ramp to 3.5 and still report success on recovering 3.
        for scenario in (decoy_scenario, vessels_scenario):
            with pytest.raises(InvalidScenario) as raised:
                scenario(party_secrets={"alice": secret, "bob": 5}).validate()
            assert str(raised.value) == f"party_secrets.alice: must be an integer, got {secret!r}"

    def test_missing_receiver_key(self):
        with pytest.raises(InvalidScenario, match="bob"):
            decoy_scenario(party_secrets={"alice": 3}).validate()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(noise_sigma=101.0), "noise_sigma"),
            (dict(epsilon_stab=1e308), "epsilon_stab"),
            (dict(protocol=Protocol.RACE, dt=1e-320), "N2 / dt"),
            (dict(secret_domain=(1, 2**53 + 1)), "secret_domain"),
        ],
    )
    def test_values_past_the_domain_bounds_are_invalid(self, overrides, field):
        with pytest.raises(InvalidScenario, match=field):
            decoy_scenario(**overrides).validate()

    @pytest.mark.parametrize(
        "protocol", [Protocol.ELEVATOR, Protocol.RACE_BITSTRING, Protocol.VESSELS]
    )
    def test_per_tick_comparisons_cap_the_budget_at_10_to_the_6(self, protocol):
        # One public event per tick costs about 0.4 KB once recorded, so
        # 10^7 ticks would need about 4 GB; the race publishes one mark.
        vessels_scenario(protocol=protocol, max_ticks=10**6).validate()
        message = f"max_ticks must be <= 10\\^6 for {protocol.value}, .* got 1000001"
        with pytest.raises(InvalidScenario, match=message):
            vessels_scenario(protocol=protocol, max_ticks=10**6 + 1).validate()
        vessels_scenario(protocol=Protocol.RACE, max_ticks=10**7).validate()

    def test_comparison_rejects_active_adversary(self):
        from decoysim import AdversaryKind

        with pytest.raises(InvalidScenario, match="active"):
            vessels_scenario(adversary=AdversaryKind.JAMMER).validate()


class TestRunScenario:
    def test_vessels_example_greater_with_nonempty_transcript(self):
        outcome = run_scenario(vessels_scenario())
        assert outcome.result.ordering is Ordering.A_GREATER
        assert len(outcome.transcript) > 0

    def test_vessels_transcript_measures_the_published_levels(self):
        outcome = run_scenario(vessels_scenario())
        levels = [(event.tick, event.value) for event in outcome.result.public_observables]
        assert outcome.transcript.measurements() == levels

    def test_invalid_scenario_raises_before_running(self):
        with pytest.raises(InvalidScenario):
            run_scenario(decoy_scenario(max_ticks=0))

    def test_decoy_replay_is_byte_identical(self):
        scenario = decoy_scenario(seed=42)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.transcript == second.transcript
        assert replay_digest(first.transcript) == replay_digest(second.transcript)

    @pytest.mark.parametrize(
        "protocol",
        [Protocol.DECOY_FORCE, Protocol.DECOY_WAVE, Protocol.ELEVATOR, Protocol.VESSELS],
    )
    def test_determinism_across_protocols(self, protocol):
        scenario = decoy_scenario(
            protocol=protocol,
            secret_domain=(1, 30),
            party_secrets={"alice": 4, "bob": 9},
            seed=777,
        )
        digests = {replay_digest(run_scenario(scenario).transcript) for _ in range(3)}
        assert len(digests) == 1

    def test_transcript_ticks_are_monotone(self):
        for seed in range(5):
            outcome = run_scenario(with_seed(decoy_scenario(), seed))
            ticks = [entry.tick for entry in outcome.transcript]
            assert ticks == sorted(ticks)

    def test_privacy_firewall_entries_hold_primitives_only(self):
        outcome = run_scenario(decoy_scenario())
        for entry in outcome.transcript:
            if isinstance(entry, Measurement):
                assert type(entry.value) is float
            else:
                payload = getattr(entry, "tag", None) or getattr(entry, "label", None)
                assert isinstance(payload, str)

    def test_run_outcome_carries_scenario_and_status(self):
        outcome = run_scenario(decoy_scenario())
        assert outcome.status == "ok"
        assert outcome.scenario.protocol is Protocol.DECOY_FORCE

    def test_failed_runs_return_status_and_transcript(self):
        timeout = run_scenario(decoy_scenario(max_ticks=5, hold_ticks=4))
        assert timeout.status == "ProtocolTimeout"
        assert len(timeout.transcript.measurements()) == 5
        drained = vessels_scenario(
            party_secrets={"alice": 50, "bob": 1}, hold_ticks=300, max_ticks=400
        )
        abort = run_scenario(drained)
        assert (abort.status, abort.result) == ("VesselEmpty", None)
        assert replay_digest(abort.transcript) == EMPTY_TRANSCRIPT_DIGEST


def test_scenario_replace_derives_new_runs():
    base = decoy_scenario()
    shifted = dataclasses.replace(base, seed=base.seed + 1)
    a = replay_digest(run_scenario(base).transcript)
    b = replay_digest(run_scenario(shifted).transcript)
    assert a != b
