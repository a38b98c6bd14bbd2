"""Deterministic discrete-time core: seeded streams, transcript, replay digest.

Everything a run does flows through these types.  Two runs of the same
scenario must produce byte-identical transcripts; the replay digest is how
that claim gets checked cheaply.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import numbers
import struct
from array import array
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .channel import Reading, Readings
from .errors import InvalidScenario


class Protocol(enum.Enum):
    DECOY_FORCE = "decoy_force"
    DECOY_WAVE = "decoy_wave"
    ELEVATOR = "elevator"
    RACE = "race"
    RACE_BITSTRING = "race_bitstring"
    VESSELS = "vessels"


class RampModel(enum.Enum):
    SYNCHRONOUS = "synchronous"
    RANDOM_RAMP = "random_ramp"
    # Leaky-by-design negative control: the sender ramps with a fixed
    # per-tick increment, so her ramp duration is proportional to her
    # secret.  Used to prove the leakage estimator actually detects leaks.
    DETERMINISTIC_RATE = "deterministic_rate"


class AdversaryKind(enum.Enum):
    NONE = "none"
    PASSIVE = "passive"
    JAMMER = "jammer"
    IMPERSONATOR = "impersonator"


DECOY_PROTOCOLS = (Protocol.DECOY_FORCE, Protocol.DECOY_WAVE)
COMPARISON_PROTOCOLS = (
    Protocol.ELEVATOR,
    Protocol.RACE,
    Protocol.RACE_BITSTRING,
    Protocol.VESSELS,
)
# These comparisons publish up to one event per tick (a door, a write, a
# level), at about 0.4 KB of peak memory each once the run is recorded, so
# their budget is capped lower: about 0.45 GB at the cap.
PER_TICK_COMPARISONS = (Protocol.ELEVATOR, Protocol.RACE_BITSTRING, Protocol.VESSELS)
MAX_PER_TICK_COMPARISON_TICKS = 10**6

# Fixed stream labels: enabling an adversary or noise must never perturb
# the draws any other consumer sees.
STREAM_SENDER = 0
STREAM_RECEIVER = 1
STREAM_NOISE = 2
STREAM_ADVERSARY = 3
STREAM_SAMPLER = 4

_U64 = (1 << 64) - 1

# A run's status: OK, or the name of the failure that ended it.
OK = "ok"
TIMEOUT = "ProtocolTimeout"
OUT_OF_DOMAIN = "OutOfDomain"


class RngStream:
    """One independent deterministic random stream.

    The underlying generator is keyed purely by (seed, stream_id), so any
    consumer can be re-created in isolation and replays are bit-exact.  It
    is built on the first draw: a run creates several streams, and a
    noiseless run never draws from its noise stream.  Its seed words are
    the stream's `row` of :meth:`seed_rows`: a kernel pass derives the rows
    of all its streams at once, and a stream built without one derives
    its own.  A pass reads start ticks and random ramps straight from the
    rows (first_integers, first_outputs), with a stream only where Lemire
    redraws.
    """

    def __init__(self, seed: int, stream_id: int, row: Optional[np.ndarray] = None):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id)
        self._row = row
        self._gen: Optional[np.random.Generator] = None

    @staticmethod
    def seed_rows(seeds: Sequence[int], stream_ids: Sequence[int]) -> np.ndarray:
        """What numpy's SeedSequence derives for every (seed, stream) pair, in one array pass.

        Entry [i, j] is ``SeedSequence([seeds[i], stream_ids[j]]).generate_state(4,
        np.uint64)``, the four words PCG64 seeds itself from, as a C-contiguous
        row.  Seeds wrap to 64 bits as in ``RngStream``; stream ids are single
        32-bit words.  The entropy, 1-2 seed words and the stream id, is
        zero-padded to the pool of 4 words, mixed, and the state drawn from the
        pool, each step one uint32 array operation over all pairs.
        """
        seeds = np.array([int(seed) & _U64 for seed in seeds], dtype=np.uint64)
        streams = np.array(stream_ids, dtype=np.uint32)
        count = len(seeds) * len(streams)
        # Word k of every pair's entropy in row k: the seed's words, then the stream id.
        halves = seeds.view(np.uint32).reshape(len(seeds), 1, 2)  # low word first
        low, high = halves[..., 0], halves[..., 1]
        one_word = high == 0
        pool = np.zeros((4, len(seeds), len(streams)), dtype=np.uint32)
        pool[0] = low
        pool[1] = high + streams * one_word
        pool[2] = streams * ~one_word
        pool = pool.reshape(4, count)
        pool ^= _HASH_A[:4]
        pool *= _HASH_A[1:5]
        pool ^= pool >> _XSHIFT
        # Each step mixes the source word, hashed once per other word, into
        # the others, in place; the source's own row is computed in passing
        # and put back.
        hashed, mixed = np.empty_like(pool), np.empty_like(pool)
        for source, xor, mult in _POOL_MIXES:
            np.bitwise_xor(pool[source], xor, out=hashed)
            hashed *= mult
            hashed ^= hashed >> _XSHIFT
            hashed *= _MIX_R
            np.multiply(pool, _MIX_L, out=mixed)
            mixed -= hashed
            mixed ^= mixed >> _XSHIFT
            mixed[source] = pool[source]
            pool, mixed = mixed, pool
        state = np.concatenate((pool, pool))
        state ^= _HASH_B[:8]
        state *= _HASH_B[1:9]
        state ^= state >> _XSHIFT
        # Word pairs, lowest first, as uint64: numpy's own little-endian view.
        words = np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)
        return words.reshape(len(seeds), len(streams), 4)

    @classmethod
    def first_integers(
        cls, seeds: Sequence[int], stream_id: int, rows: np.ndarray, low: int, high: int
    ) -> np.ndarray:
        """Each stream's first integers(low, high) draw, for a pass of streams at once, as int64.

        Entry i is ``RngStream(seeds[i], stream_id, rows[i]).integers(low,
        high)``, where rows[i] is the stream's row of seed_rows.  PCG64 is
        a 128-bit LCG with XSL-RR output (O'Neill 2014): seeding steps the
        zero state, adds the seed and steps again, and a draw steps once
        more.  numpy bounds the low 32 bits of that output (lemire); rows
        it would redraw, and ranges wider than 32 bits, draw from their
        generator instead.
        """
        w0, w1, w2, w3 = (rows[:, k] for k in range(4))
        one = np.uint64(1)
        inc = (w2 << one | w3 >> np.uint64(63), w3 << one | one)
        state = _pcg_add(inc, (w0, w1))
        for _ in range(2):
            state = _pcg_add(_pcg_times_multiplier(state), inc)
        high_word, low_word = state
        rotation = high_word >> np.uint64(58)
        xored = high_word ^ low_word
        output = xored >> rotation | xored << (np.uint64(64) - rotation & np.uint64(63))
        span = high - low + 1
        values, redraw = cls.lemire(output, min(span, 1 << 32))
        values += low
        redraw |= span > 1 << 32  # numpy's 64-bit method
        for index in np.flatnonzero(redraw).tolist():
            values[index] = cls(seeds[index], stream_id, rows[index]).integers(low, high)
        return values

    @staticmethod
    def lemire(words: np.ndarray, spans) -> tuple[np.ndarray, np.ndarray]:
        """numpy's draws in [0, span) from the words' low 32 bits, as int64, and where they redraw.

        Lemire's method (ACM TOMACS 29, 2019), for spans up to 2^32, which
        broadcast against the words: the high word of draw * span, drawn
        again while the low word is below 2^32 mod span.
        """
        spans = np.asarray(spans, dtype=np.uint64)
        scaled = (words & _LOW32) * spans
        redraw = (scaled & _LOW32) < _TWO32 % spans
        return (scaled >> _SHIFT32).view(np.int64), redraw

    @staticmethod
    def first_outputs(rows: np.ndarray, count: int) -> np.ndarray:
        """The first `count` PCG64 outputs of each stream, given by its row of seed_rows, as rows.

        One PCG64 and one random_raw call per stream, and no Generator.
        """
        seeded = _derived_seed_sequence()
        outputs = [np.random.PCG64(seeded(row)).random_raw(count) for row in rows]
        return np.array(outputs, dtype=np.uint64).reshape(len(rows), count)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            if self._row is None:
                self._row = self.seed_rows([self.seed], [self.stream_id])[0, 0]
            self._gen = np.random.Generator(np.random.PCG64(_derived_seed_sequence()(self._row)))
        return self._gen

    def normal(self, size: int | None = None):
        """One standard normal draw, or `size` of them as an array (the same values)."""
        if size is None:
            return float(self._generator().standard_normal())
        return self._generator().standard_normal(size)

    def uniform(self, size: int | None = None):
        if size is None:
            return float(self._generator().random())
        return self._generator().random(size)

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integer in the inclusive range [low, high], or `size` of them as a list.

        The list holds the values that many single draws give, in order.
        """
        if size is None:
            return int(self._generator().integers(low, high, endpoint=True))
        return self._generator().integers(low, high, size, endpoint=True).tolist()


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant, init * mult**k mod 2^32 for k < count, as a column."""
    constants = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(count)]
    return np.array(constants, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants.  Mixing the pool into itself hashes each
# source word once per other word, so the 4 fills and 12 mixes use 17
# consecutive constants of the first hash, and 8 output words 9 of the second.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
# 0-d arrays, which numpy combines with an array faster than its scalars.
_MIX_L, _MIX_R, _XSHIFT = (np.array(value, np.uint32) for value in (0xCA01F9DD, 0x4973F715, 16))


def _pool_mixes() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per source word, the hash constants of its mix into each other word (0 for itself)."""
    mixes, k = [], 4
    for source in range(4):
        xor, mult = np.zeros((4, 1), np.uint32), np.zeros((4, 1), np.uint32)
        for target in range(4):
            if target != source:
                xor[target], mult[target] = _HASH_A[k], _HASH_A[k + 1]
                k += 1
        mixes.append((source, xor, mult))
    return mixes


_POOL_MIXES = _pool_mixes()

# PCG64's 128-bit multiplier as high and low 64-bit words, and the low-word mask.
_PCG_MULT_HIGH, _PCG_MULT_LOW = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32, _SHIFT32, _TWO32 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1 << 32)


def _pcg_add(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128, each a pair of uint64 arrays (high word, low word)."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg_times_multiplier(state: tuple) -> tuple[np.ndarray, np.ndarray]:
    """state * PCG64's multiplier mod 2^128, in 32-bit halves where a product overflows."""
    high, low = state
    # The high word of low * _PCG_MULT_LOW, from the four products of halves.
    a_low, a_high = low & _LOW32, low >> _SHIFT32
    b_low, b_high = _PCG_MULT_LOW & _LOW32, _PCG_MULT_LOW >> _SHIFT32
    middle = a_high * b_low + (a_low * b_low >> _SHIFT32)
    middle_too = a_low * b_high + (middle & _LOW32)
    carried = a_high * b_high + (middle >> _SHIFT32) + (middle_too >> _SHIFT32)
    return carried + high * _PCG_MULT_LOW + low * _PCG_MULT_HIGH, low * _PCG_MULT_LOW


@functools.cache
def _derived_seed_sequence() -> type:
    """A seed sequence that hands PCG64 a row from RngStream.seed_rows.

    Defined on first use, so importing decoysim does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeedSequence(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for 4 uint64 words and reads them straight from the
            # array's memory; seed_rows' rows are C-contiguous, so as they are.
            return self.row

    return DerivedSeedSequence


# --- transcript -----------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    tick: int
    value: float


@dataclass(frozen=True)
class Announcement:
    tick: int
    tag: str


@dataclass(frozen=True)
class Mark:
    tick: int
    label: str


TranscriptEntry = Union[Measurement, Announcement, Mark]


class Transcript:
    """Append-only record of everything that happened in public space.

    Measurements are stored as two columns, ticks and values; announcements
    and marks sit in a sparse event list, each with the number of
    measurements recorded before it, so the entry order is kept exactly.
    Ticks may never decrease.  Measurements must be
    :class:`~decoysim.channel.Reading` instances (or, in bulk,
    :class:`~decoysim.channel.Readings`), i.e. values that came out of the
    channel's public measurement operation; raw floats and arrays are
    rejected so private contribution values cannot be smuggled into the
    public record.
    """

    def __init__(self):
        self._ticks = array("q")
        self._values = array("d")
        self._events: list[tuple[int, Union[Announcement, Mark]]] = []
        self._last_tick = 0

    def _check_tick(self, tick: int) -> int:
        tick = int(tick)
        if tick < 0:
            raise ValueError("tick must be non-negative")
        if tick < self._last_tick:
            raise ValueError(
                f"transcript ticks must be non-decreasing "
                f"(got {tick} after {self._last_tick})"
            )
        self._last_tick = tick
        return tick

    def record_measurement(self, tick: int, reading: Reading) -> None:
        if not isinstance(reading, Reading):
            raise TypeError(
                "transcripts only accept channel Readings as measurements; "
                "got " + type(reading).__name__
            )
        self._ticks.append(self._check_tick(tick))
        self._values.append(reading)

    def record_readings(self, first_tick: int, readings: Readings) -> None:
        """Append a block of readings, one per tick from `first_tick` on."""
        if not isinstance(readings, Readings):
            raise TypeError(
                "transcripts only accept channel Readings as measurements; "
                "got " + type(readings).__name__
            )
        if not len(readings):
            return
        first_tick = self._check_tick(first_tick)
        last_tick = self._check_tick(first_tick + len(readings) - 1)
        self._ticks.frombytes(np.arange(first_tick, last_tick + 1, dtype=np.int64).tobytes())
        self._values.frombytes(np.ascontiguousarray(readings.values, np.float64).tobytes())

    def announce(self, tick: int, tag: str) -> None:
        announcement = Announcement(self._check_tick(tick), str(tag))
        self._events.append((len(self._values), announcement))

    def mark(self, tick: int, label: str) -> None:
        self._events.append((len(self._values), Mark(self._check_tick(tick), str(label))))

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        entries: list[TranscriptEntry] = []
        start = 0
        for index, event in self._events:
            entries.extend(map(Measurement, self._ticks[start:index], self._values[start:index]))
            entries.append(event)
            start = index
        entries.extend(map(Measurement, self._ticks[start:], self._values[start:]))
        return tuple(entries)

    def measurements(self) -> list[tuple[int, float]]:
        return list(zip(self._ticks, self._values))

    def values(self) -> np.ndarray:
        """The measured values, in order, as a new float64 array."""
        return np.array(self._values, dtype=np.float64)

    def announcements(self) -> list[tuple[int, str]]:
        return [(e.tick, e.tag) for _, e in self._events if isinstance(e, Announcement)]

    def __len__(self) -> int:
        return len(self._values) + len(self._events)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            self._ticks == other._ticks
            and self._values == other._values
            and self._events == other._events
        )


class BuiltOnRead:
    """A dataclass field given as its value or as a zero-argument builder, run on its first read.

    The built value replaces the builder, so every read returns the same
    object.  The field has no default.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:  # a dataclass asking for a default: there is none
            raise AttributeError(self.slot[1:])
        value = instance.__dict__[self.slot]
        if callable(value):
            value = instance.__dict__[self.slot] = value()
        return value

    def __set__(self, instance, value) -> None:
        instance.__dict__[self.slot] = value


# Digest of an empty transcript; fixed for the life of the format.
EMPTY_TRANSCRIPT_DIGEST = 0xB4B2797457A0A6E4

# One measurement's digest bytes: b"M", the tick as <q, the value as <d.
_MEASUREMENT_RECORD = np.dtype([("kind", "S1"), ("tick", "<i8"), ("value", "<f8")])


def _event_bytes(event: Union[Announcement, Mark]) -> bytes:
    if isinstance(event, Announcement):
        kind, payload = b"A", event.tag.encode("utf-8")
    else:
        kind, payload = b"K", event.label.encode("utf-8")
    return kind + struct.pack("<qI", event.tick, len(payload)) + payload


def _spliced_digest(
    packed: memoryview, events: Sequence[tuple[int, Union[Announcement, Mark]]]
) -> int:
    """blake2b-64 of the measurement records in `packed` with each event's record spliced in.

    Each event goes after the number of measurements recorded before it,
    as a Transcript keeps them, so the bytes are the entries' in order.
    """
    size = _MEASUREMENT_RECORD.itemsize
    h = hashlib.blake2b(digest_size=8)
    start = 0
    for index, event in events:
        h.update(packed[start : index * size])
        h.update(_event_bytes(event))
        start = index * size
    h.update(packed[start:])
    return int.from_bytes(h.digest(), "little")


def row_digests(
    readings: np.ndarray,
    lengths: Sequence[int],
    events: Sequence[Sequence[tuple[int, Union[Announcement, Mark]]]],
) -> list[int]:
    """replay_digest of a transcript per row of `readings`, without building the transcripts.

    Row i's transcript holds its first lengths[i] readings, one a tick
    from tick 0, with events[i] spliced in as a Transcript keeps them.
    Every row's measurement records are packed in one array, and each row
    hashes its slice of it with its event records.
    """
    size = _MEASUREMENT_RECORD.itemsize
    records = np.empty(readings.shape, dtype=_MEASUREMENT_RECORD)
    records["kind"] = b"M"
    records["tick"] = np.arange(readings.shape[1])
    records["value"] = readings
    packed = memoryview(records.reshape(-1).view(np.uint8))
    digests = []
    for row, (length, row_events) in enumerate(zip(lengths, events)):
        first = row * readings.shape[1] * size
        digests.append(_spliced_digest(packed[first : first + length * size], row_events))
    return digests


def replay_digest(transcript: Transcript) -> int:
    """64-bit digest of the full entry sequence.

    A pure function of the entries: equal transcripts hash equal, and any
    change -- down to one ulp of one measurement -- changes the digest
    with overwhelming probability.  Float payloads are hashed by their
    IEEE-754 bit pattern, never by a decimal rendering.  The measurement
    records are packed in one array and the event records spliced in
    between them, which hashes the same bytes as one entry at a time.
    """
    records = np.empty(len(transcript._values), dtype=_MEASUREMENT_RECORD)
    records["kind"] = b"M"
    records["tick"] = transcript._ticks
    records["value"] = transcript._values
    return _spliced_digest(memoryview(records.tobytes()), transcript._events)


# --- scenario --------------------------------------------------------------

SENDER = "alice"
RECEIVER = "bob"
ADVERSARY = "eve"


@dataclass(frozen=True)
class Scenario:
    """Complete description of one protocol run.

    Every run is a pure function of this record; the seed pins all
    randomness (party ramps, noise, adversary behaviour) through
    per-consumer streams.
    """

    protocol: Protocol
    seed: int = 0
    dt: float = 1.0
    max_ticks: int = 400
    secret_domain: tuple[int, int] = (1, 100)
    party_secrets: Mapping[str, int] = field(default_factory=dict)
    ramp_model: RampModel = RampModel.RANDOM_RAMP
    hold_ticks: int = 3
    epsilon_stab: float = 0.0
    noise_sigma: float = 0.0
    adversary: AdversaryKind = AdversaryKind.NONE
    defense_enabled: bool = True

    # -- derived quantities --------------------------------------------

    @property
    def n1(self) -> int:
        return self.secret_domain[0]

    @property
    def n2(self) -> int:
        return self.secret_domain[1]

    @property
    def max_ramp_ticks(self) -> int:
        """Tick budget for one party's ramp, derived from the run budget.

        Leaves room for the receiver's start offset, both ramps, the hold
        window and detection slack inside max_ticks.
        """
        return max(1, (self.max_ticks - self.hold_ticks) // 6)

    @property
    def receiver_start_max(self) -> int:
        return max(1, self.max_ramp_ticks // 2)

    def stream(self, stream_id: int) -> RngStream:
        return RngStream(self.seed, stream_id)

    def with_seed(self, seed: int) -> "Scenario":
        """``dataclasses.replace(self, seed=seed)`` as a copy of the fields.

        The generated __init__ only sets the fields, so skipping it saves its
        cost and changes nothing.
        """
        scenario = object.__new__(Scenario)
        scenario.__dict__.update(self.__dict__, seed=seed)
        return scenario

    def secret_of(self, party: str) -> int:
        return int(self.party_secrets[party])

    def validate(self) -> None:
        """Raise InvalidScenario naming the first violated invariant."""
        n1, n2 = self.secret_domain
        if not (n1 >= 1):
            raise InvalidScenario(f"secret_domain: N1 must be >= 1, got {n1}")
        if not (n2 > n1):
            raise InvalidScenario(f"secret_domain: N2 must exceed N1, got [{n1}, {n2}]")
        if not (n2 <= 2**53):  # float64 channel values hold every secret exactly
            raise InvalidScenario(f"secret_domain: N2 must be <= 2^53, got {n2}")
        if not (self.hold_ticks > 0):
            raise InvalidScenario(f"hold_ticks must be > 0, got {self.hold_ticks}")
        if not (self.max_ticks > self.hold_ticks):
            raise InvalidScenario(
                f"max_ticks must exceed hold_ticks, got "
                f"max_ticks={self.max_ticks} hold_ticks={self.hold_ticks}"
            )
        if not (self.max_ticks <= 10**7):  # ramp arrays grow with the budget
            raise InvalidScenario(f"max_ticks must be <= 10^7, got {self.max_ticks}")
        if not (self.dt > 0):
            raise InvalidScenario(f"dt must be positive, got {self.dt}")
        if not (self.noise_sigma >= 0):
            raise InvalidScenario(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (self.epsilon_stab >= 0):
            raise InvalidScenario(f"epsilon_stab must be >= 0, got {self.epsilon_stab}")
        for name in ("dt", "noise_sigma", "epsilon_stab"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidScenario(f"{name} must be finite, got {getattr(self, name)}")
        # Noise or a tolerance wider than the domain makes every reading meaningless.
        for name in ("noise_sigma", "epsilon_stab"):
            value = getattr(self, name)
            if not (value <= n2):
                raise InvalidScenario(f"{name} must be <= N2 ({n2}), got {value}")
        if not math.isfinite(n2 / self.dt):
            raise InvalidScenario(f"dt: N2 / dt must be finite, got {n2} / {self.dt}")
        if not (0 <= self.seed <= _U64):
            raise InvalidScenario(f"seed must lie in [0, 2^64), got {self.seed}")
        for party, secret in self.party_secrets.items():
            if party not in (SENDER, RECEIVER):
                raise InvalidScenario(f"party_secrets.{party}: unknown party (alice or bob)")
            if not isinstance(secret, numbers.Integral):
                raise InvalidScenario(f"party_secrets.{party}: must be an integer, got {secret!r}")
            if not (n1 <= int(secret) <= n2):
                raise InvalidScenario(
                    f"party_secrets.{party}: {secret} outside secret_domain [{n1}, {n2}]"
                )
        if self.protocol in DECOY_PROTOCOLS:
            if SENDER not in self.party_secrets:
                raise InvalidScenario("party_secrets.alice required for decoy protocols")
            if (
                RECEIVER not in self.party_secrets
                and self.adversary is not AdversaryKind.IMPERSONATOR
            ):
                raise InvalidScenario(
                    "party_secrets.bob required unless the adversary impersonates him"
                )
            if (
                self.ramp_model is RampModel.DETERMINISTIC_RATE
                and self.max_ramp_ticks < self.n2
            ):
                raise InvalidScenario(
                    "deterministic_rate needs max_ramp_ticks >= N2 "
                    f"(have {self.max_ramp_ticks}, need {self.n2}); raise max_ticks"
                )
        else:
            for party in (SENDER, RECEIVER):
                if party not in self.party_secrets:
                    raise InvalidScenario(
                        f"party_secrets.{party} required for comparison protocols"
                    )
            if self.adversary in (AdversaryKind.JAMMER, AdversaryKind.IMPERSONATOR):
                raise InvalidScenario(
                    "active adversaries are only modeled for the decoy protocols"
                )
            if (
                self.protocol in PER_TICK_COMPARISONS
                and self.max_ticks > MAX_PER_TICK_COMPARISON_TICKS
            ):
                raise InvalidScenario(
                    f"max_ticks must be <= 10^6 for {self.protocol.value}, which publishes "
                    f"an event per tick, got {self.max_ticks}"
                )

    def as_mapping(self) -> dict:
        """Flat mapping with config-file field names (for reports), in field order."""
        return {f.name: _report_value(getattr(self, f.name)) for f in fields(self)}


def _report_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Mapping):
        return {k: int(v) for k, v in value.items()}
    return value
