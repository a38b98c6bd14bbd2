"""Decoy-based secret transmission over the additive channel.

The sender ramps a random contribution up to her secret value, the
receiver does the same with his private key, and once the public total
goes flat the receiver subtracts his own contribution to read the secret.
Everything an eavesdropper can see is the per-tick public measurement plus
the receiver's "in business" announcement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .channel import Readings, block_noise, measure_block
from .engine import (
    OK,
    OUT_OF_DOMAIN,
    RECEIVER,
    SENDER,
    STREAM_ADVERSARY,
    STREAM_NOISE,
    STREAM_RECEIVER,
    STREAM_SENDER,
    TIMEOUT,
    DECOY_PROTOCOLS,
    AdversaryKind,
    Announcement,
    BuiltOnRead,
    Protocol,
    RampModel,
    RngStream,
    Scenario,
    Transcript,
    row_digests,
)
from .errors import InvalidTarget, NonFiniteValue, OutOfDomain

IN_BUSINESS = "in-business"
# The acoustic variant's publicly agreed wave parameters.  Both parties
# share one frequency and phase, so superposition reduces exactly to
# amplitude addition and omega/phi are public metadata only.
WAVE_PARAMS = "wave-params omega=1.0 phi=0.0"


@dataclass(frozen=True)
class RampProcess:
    """A party's private contribution as a function of the tick index.

    `schedule` stores the pre-target values for ticks
    [start_tick, stabilize_tick); outside that range the value is 0 before
    the start and exactly `target` from stabilize_tick on.
    """

    target: float
    start_tick: int
    stabilize_tick: int
    schedule: tuple[float, ...]

    def value_at(self, tick: int) -> float:
        if tick < self.start_tick:
            return 0.0
        if tick >= self.stabilize_tick:
            return self.target
        return self.schedule[tick - self.start_tick]

    def check_invariants(self) -> None:
        assert self.target > 0
        assert self.start_tick <= self.stabilize_tick
        assert len(self.schedule) == self.stabilize_tick - self.start_tick
        previous = 0.0
        for value in self.schedule:
            assert 0.0 <= value <= self.target
            assert value >= previous
            previous = value


def generate_ramp(
    rng: RngStream,
    target: float,
    start_tick: int,
    max_ramp_ticks: int,
    model: RampModel = RampModel.RANDOM_RAMP,
    ticks_per_unit: Optional[int] = None,
) -> RampProcess:
    """Build one party's ramp-up plan.

    Synchronous plans jump straight to the target at start_tick.  Random
    plans draw a stabilization tick uniformly in
    [start_tick, start_tick + max_ramp_ticks] and fill the gap with
    uniform increments renormalized to land exactly on the target.  The
    deterministic-rate variant (negative control) climbs by a fixed amount
    per tick, so its duration is proportional to the target.
    """
    if not (target > 0):
        raise InvalidTarget(f"ramp target must be positive, got {target}")
    if max_ramp_ticks < 1:
        raise ValueError("max_ramp_ticks must be >= 1")
    target = float(target)

    if model is RampModel.SYNCHRONOUS:
        return RampProcess(target, start_tick, start_tick, ())

    if model is RampModel.DETERMINISTIC_RATE:
        if ticks_per_unit is None or ticks_per_unit < 1:
            raise ValueError("deterministic_rate needs ticks_per_unit >= 1")
        duration = max(1, int(round(ticks_per_unit * target)))
        schedule = tuple((target * np.arange(duration, dtype=np.float64) / duration).tolist())
        return RampProcess(target, start_tick, start_tick + duration, schedule)

    duration = rng.integers(0, max_ramp_ticks)
    weights = rng.uniform(size=(1, duration))
    schedule = _ramp_schedules(weights, np.array([duration]), np.array([target]))[0, :duration]
    return RampProcess(target, start_tick, start_tick + duration, tuple(schedule.tolist()))


def _random_ramps(
    seeds: Sequence[int], stream_id: int, rows: np.ndarray, max_ramp: int, start_max: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the streams (seeds[i], stream_id) draw for random ramps: starts, durations, weights.

    Stream i, whose row of seed_rows is rows[i], draws a start in
    [1, start_max], a duration in [0, max_ramp] and that many uniform
    weights, the first durations[i] of weights row i, as its generator
    would.  They are decoded from its first PCG64 outputs: numpy's 32-bit
    draws bound the low, then the high half of output 1 (RngStream.lemire;
    a range of one value draws nothing), and weight j is (x >> 11) * 2^-53
    of output j + 2.  A stream Lemire would redraw draws from its generator.
    """
    outputs = RngStream.first_outputs(rows, max_ramp + 1)
    halves = np.array([0, 32 if start_max > 1 else 0], dtype=np.uint64)
    spans = np.array([start_max, max_ramp + 1], dtype=np.uint64)
    drawn, redraws = RngStream.lemire(outputs[:, :1] >> halves, spans)
    starts, durations = drawn[:, 0] + 1, drawn[:, 1]
    weights = (outputs[:, 1:] >> np.uint64(11)) * 2.0**-53
    for index in dict.fromkeys(redraws.nonzero()[0].tolist()):  # each redrawing row once
        rng = RngStream(seeds[index], stream_id, rows[index])
        starts[index] = rng.integers(1, start_max)
        durations[index] = duration = rng.integers(0, max_ramp)
        weights[index, :duration] = rng.uniform(size=duration)
    return starts, durations, weights


def _ramp_schedules(weights: np.ndarray, durations: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Ramps' schedules, as rows, from their weights, the first durations[i] of row i.

    Row i's first durations[i] values climb from 0 by those weights
    renormalized to land exactly on targets[i], one value per tick from the
    start until the ramp settles; the values after them are never read.
    Each row's weights are summed on their own with numpy's pairwise sum;
    the running sums, the division and the scaling then run on the padded
    rows: add.accumulate adds along a row in order, as one ramp's cumsum
    does, so a row's values do not depend on what follows them.
    """
    lengths = durations.tolist()
    totals = [np.add.reduce(row[:d]) if d else 1.0 for row, d in zip(weights, lengths)]
    for index, total in enumerate(totals):
        if total <= 0.0:  # unreachable in practice; keeps the math total
            weights[index, : lengths[index]], totals[index] = 1.0, lengths[index]
    partial = np.add.accumulate(weights, axis=1)
    partial /= np.array(totals)[:, None]
    # The value on the start tick is 0; the j-th later tick carries the j-th partial sum.
    schedules = np.zeros((len(weights), weights.shape[1] + 1))
    with np.errstate(over="ignore"):  # only cells past a ramp's duration can overflow
        np.multiply(targets[:, None], partial, out=schedules[:, 1:])
    return schedules


def detect_stabilization(
    window: Sequence[float], epsilon_stab: float, hold_ticks: int
) -> Optional[float]:
    """Mean of the last hold_ticks values if all sit within +-epsilon of it, else None."""
    if hold_ticks < 1:
        raise ValueError("hold_ticks must be >= 1")
    if epsilon_stab < 0:
        raise ValueError("epsilon_stab must be >= 0")
    if len(window) < hold_ticks:
        return None
    tail = window[-hold_ticks:]
    mean = math.fsum(tail) / hold_ticks
    if (max(tail) - mean) <= epsilon_stab and (mean - min(tail)) <= epsilon_stab:
        return mean
    return None


def recover_secret(
    total: float,
    own_key: float,
    secret_domain: tuple[int, int],
    noise_sigma: float = 0.0,
) -> int:
    """Subtract the private key from the public total and snap to the domain.

    Ties between two equally near integers round down.  If even the
    nearest domain element is further than 0.5 + 4*noise_sigma away the
    transmission is considered corrupted (jamming, gross noise) and
    OutOfDomain is raised.
    """
    total = float(total)
    own_key = float(own_key)
    if not (math.isfinite(total) and math.isfinite(own_key)):
        raise ValueError("total and own_key must be finite")
    diff = total - own_key
    n1, n2 = secret_domain
    # From 2^52 on every float is whole and diff - 0.5 would round.
    nearest = min(max(int(diff) if diff.is_integer() else math.ceil(diff - 0.5), n1), n2)
    distance = abs(diff - nearest)
    if distance > 0.5 + 4.0 * noise_sigma:
        raise OutOfDomain(
            f"recovered value {diff!r} is {distance:.3f} away from the nearest "
            f"domain element {nearest}; transmission corrupted"
        )
    return int(nearest)


@dataclass
class DecoyOutcome:
    """Result of one transmission run plus replay diagnostics.

    `status` is OK, TIMEOUT (no stabilization within max_ticks) or
    OUT_OF_DOMAIN (the recovery rejected the transmission); a failed run
    has no recovered value and `detail` says why it failed.  `jammed`
    says whether a jammer's force reached the medium, and
    `adversary_recovered` is what an impersonator read, if anything.
    `transcript` may be given as a zero-argument builder, which runs on
    the first read.
    """

    recovered: Optional[int]
    sender_secret: int
    receiver_key: Optional[int]
    transcript: Transcript = BuiltOnRead()
    detected_tick: Optional[int]
    stable_estimate: Optional[float]
    announce_tick: Optional[int]
    sender_start_tick: Optional[int]
    sender_stabilize_tick: Optional[int]
    receiver_stabilize_tick: Optional[int]
    status: str = OK
    detail: str = ""
    jammed: bool = False
    adversary_recovered: Optional[int] = None

    @property
    def success(self) -> bool:
        return self.recovered == self.sender_secret


# The padded arrays of one kernel pass hold about this many cells at most:
# a batch goes through CELL_BUDGET // max_ticks runs at a time, and a run
# whose tick budget alone is larger goes through on its own.
CELL_BUDGET = 1 << 16


class Runs(NamedTuple):
    """The len(seeds) runs of a batch as columns: what sets each apart from the scenario."""

    seeds: Sequence[int]
    secrets: Sequence[int]  # the sender's
    keys: Sequence[int]  # the receiver's, unread where an impersonator takes his place


def check_transmission(
    scenario: Scenario, jam_value: Optional[float] = None, forger_key: Optional[float] = None
) -> None:
    """Raise what simulate_transmission raises for these arguments before it runs."""
    scenario.validate()
    if scenario.protocol not in DECOY_PROTOCOLS:
        raise ValueError(f"not a transmission protocol: {scenario.protocol}")
    if (jam_value is not None and scenario.adversary is not AdversaryKind.JAMMER) or (
        forger_key is not None and scenario.adversary is not AdversaryKind.IMPERSONATOR
    ):
        raise ValueError("a jam value needs a jammer scenario, a forger key an impersonator one")
    if jam_value is not None and not math.isfinite(jam_value):
        raise NonFiniteValue(f"jam value is not finite: {jam_value!r}")


def simulate_transmission(
    scenario: Scenario, jam_value: Optional[float] = None, forger_key: Optional[float] = None
) -> DecoyOutcome:
    """Run one transmission, under any adversary, in closed form.

    An active adversary comes in as data: a jammer scenario's `jam_value`
    is the force it adds once the public total goes flat, and an
    impersonator scenario's `forger_key` makes it forge the announcement
    (None for a silent one).  The forged tick is the first draw of the
    run's adversary stream; with a key > 0 the forger then ramps to it
    from that tick, drawn as the receiver's random ramp is.  The receiver
    takes part unless the scenario's adversary impersonates him.  Each
    reading is what the channel measures: the fsum of the contributions
    on the medium plus noise.  Two contributions add exactly as ``a + b``;
    with a jammer's third, ``(a + b) + c`` is used on the ticks where both
    TwoSum error terms are zero and math.fsum on the others.  A run whose
    receiver never detects stabilization within max_ticks, or rejects what
    he recovers, still returns its outcome, with that status.  The run is
    a batch of one for the kernel simulate_runs uses.
    """
    check_transmission(scenario, jam_value, forger_key)
    secrets = scenario.party_secrets
    runs = Runs([scenario.seed], [secrets[SENDER]], [secrets.get(RECEIVER)])
    return _closed_form(scenario, runs, jam_value, forger_key).outcome(0)


def simulate_runs(
    scenario: Scenario,
    runs: Runs,
    jam_value: Optional[float] = None,
    forger_key: Optional[float] = None,
) -> Iterator["RunBatch"]:
    """Run transmissions that share `scenario` but for their seeds and secrets.

    Yields one RunBatch per kernel pass, in order, over at most
    max(1, CELL_BUDGET // max_ticks) runs each; each pass takes its slice
    of every column.  A run's outcome and transcript are those
    simulate_transmission gives for `scenario` with the run's seed and
    party secrets in place, and the same `jam_value` and `forger_key`.
    Nothing is checked here: each run's scenario must pass
    check_transmission with them.
    """
    size = max(1, CELL_BUDGET // scenario.max_ticks)
    for start in range(0, len(runs.seeds), size):
        pass_runs = runs._make(c[start : start + size] for c in runs)
        yield _closed_form(scenario, pass_runs, jam_value, forger_key)


class _Ramps(NamedTuple):
    """One party's ramp in every run of a pass, as columns.

    Run i's contribution is 0 before start[i] and target[i] from
    stabilize[i] on.  In between it is the first stabilize[i] - start[i]
    values of schedules[i], which only ramps that climb have.  A party
    that never moves starts at the tick budget.
    """

    target: np.ndarray
    start: np.ndarray
    stabilize: np.ndarray
    schedules: Optional[np.ndarray] = None


class _Plans(NamedTuple):
    """A pass's open-loop part, per run: its parties' ramps and when its second party announces."""

    runs: Runs  # the pass's columns, from which the plans are drawn
    sender: _Ramps
    # The second party on the medium, whose own contribution its listener
    # subtracts: the receiver, a forger, or nobody.
    other: _Ramps
    announce: np.ndarray  # the second party's announcement tick (the budget for none)
    noise: Optional[list[RngStream]]  # None when the channel is noiseless
    stop: np.ndarray  # where each run's first block of readings ends


def _plans(scenario: Scenario, runs: Runs, forger_key: Optional[float] = None) -> _Plans:
    """Every run's plan, drawn from its (seed, stream) streams as generate_ramp would.

    A pass seeds only the streams it draws from, and draws for all its runs
    at once: the receiver's start alone (RngStream.first_integers), or the
    random ramps (_random_ramps), the forger's among them.  Only the noise
    streams build a generator.
    """
    budget, hold, model = scenario.max_ticks, scenario.hold_ticks, scenario.ramp_model
    max_ramp, start_max = scenario.max_ramp_ticks, scenario.receiver_start_max
    receives = scenario.adversary is not AdversaryKind.IMPERSONATOR
    randomized = model is RampModel.RANDOM_RAMP
    streams = [STREAM_RECEIVER]
    if scenario.noise_sigma > 0.0:
        streams.append(STREAM_NOISE)
    if randomized:
        streams.append(STREAM_SENDER)
    if forger_key is not None:
        streams.append(STREAM_ADVERSARY)
    seeds = runs.seeds
    rows = dict(zip(streams, RngStream.seed_rows(seeds, streams).transpose(1, 0, 2)))
    keys = np.asarray(runs.keys, dtype=np.float64) if receives else None
    # The receiver's start is drawn from his stream whether or not he shows
    # up, so an impersonation run is tick-aligned with its honest twin.
    if receives and randomized:  # his ramp draws from his stream after the start
        receiver_start, durations, weights = _random_ramps(
            seeds, STREAM_RECEIVER, rows[STREAM_RECEIVER], max_ramp, start_max
        )
        schedules = _ramp_schedules(weights, durations, keys)
        other = _Ramps(keys, receiver_start, receiver_start + durations, schedules)
    else:
        receiver_start = RngStream.first_integers(
            seeds, STREAM_RECEIVER, rows[STREAM_RECEIVER], 1, start_max
        )
    announce = receiver_start
    if not receives:
        # A silent impersonator announces at the budget and never moves; a
        # forger announces on its stream's first draw, the receiver's start
        # draw, and with a key > 0 ramps to it as he would.
        never = np.full(len(seeds), budget)
        other, announce = _Ramps(np.zeros(len(seeds)), never, never), never
        if forger_key is not None:
            announce, durations, weights = _random_ramps(
                seeds, STREAM_ADVERSARY, rows[STREAM_ADVERSARY], max_ramp, start_max
            )
            if forger_key > 0.0:
                keys = np.full(len(seeds), forger_key)
                schedules = _ramp_schedules(weights, durations, keys)
                other = _Ramps(keys, announce, announce + durations, schedules)
    elif not randomized:
        # The deterministic-rate control only makes the *sender* leaky; the
        # receiver jumps so the observable ramp duration is the sender's alone.
        other = _Ramps(keys, receiver_start, receiver_start)
    targets = np.asarray(runs.secrets, dtype=np.float64)
    if model is RampModel.SYNCHRONOUS:
        # Idealized control: both parties move at one public tick, so
        # nobody's force is ever observable alone.
        sender = _Ramps(targets, receiver_start, receiver_start)
    else:
        start = np.zeros(len(seeds), dtype=np.int64)
        if scenario.defense_enabled:
            start = np.minimum(announce + 1, budget)
        if model is RampModel.DETERMINISTIC_RATE:
            ticks_per_unit = max(1, max_ramp // scenario.n2)
            durations = np.maximum(1, np.rint(ticks_per_unit * targets)).astype(np.int64)
            # generate_ramp's float operations, target * step / duration, on padded rows.
            steps = np.arange(durations.max(), dtype=np.float64)
            schedules = targets[:, None] * steps / durations[:, None]
            sender = _Ramps(targets, start, start + durations, schedules)
        else:
            moves = (start < budget).nonzero()[0]  # a sender who never moves draws nothing
            durations = np.zeros(len(seeds), dtype=np.int64)
            weights = np.zeros((len(seeds), max_ramp))
            movers = list(itertools.compress(seeds, start < budget))
            _, durations[moves], weights[moves] = _random_ramps(
                movers, STREAM_SENDER, rows[STREAM_SENDER][moves], max_ramp
            )
            schedules = _ramp_schedules(weights, durations, targets)
            sender = _Ramps(targets, start, start + durations, schedules)
    noise = None
    if scenario.noise_sigma > 0.0:
        noise = list(map(RngStream, seeds, itertools.repeat(STREAM_NOISE), rows[STREAM_NOISE]))
    # An impersonation always runs its whole budget; an honest run's first
    # block ends hold ticks after both ramps (his start is early enough for
    # hers to begin within the budget) have settled.
    stop = np.full(len(seeds), budget)
    if receives:
        stop = np.minimum(budget, np.maximum(sender.stabilize, other.stabilize) + hold)
    return _Plans(runs, sender, other, announce, noise, stop)


class RunBatch:
    """One kernel pass: its runs' public readings in one array, and what each run did.

    Row i of `readings` holds run i's reading for every tick from 0 to
    lengths[i] - 1, then NaN.  Transcripts and outcomes are built only
    when asked for; the replay digests of the pass are hashed from the
    readings at the first digest asked for, and need no transcript.
    """

    def __init__(
        self,
        scenario: Scenario,
        readings: np.ndarray,
        lengths: list[int],
        plans: _Plans,
        detected: list[Optional[tuple[int, float]]],
        jam_from: list[int],
        adversary_recovered: list[Optional[int]],
    ):
        self.scenario = scenario
        self.readings = readings
        self.lengths = lengths
        self._plans = plans
        self._detected = detected
        self._jam_from = jam_from
        self._adversary_recovered = adversary_recovered
        self._digests: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self.lengths)

    def _announce_tick(self, index: int) -> Optional[int]:
        tick = int(self._plans.announce[index])
        return tick if tick < self.lengths[index] else None

    def _events(self, index: int) -> list[tuple[int, Announcement]]:
        """Run `index`'s announcements, each after the number of readings before it."""
        events = []
        if self.scenario.protocol is Protocol.DECOY_WAVE:
            events.append((0, Announcement(0, WAVE_PARAMS)))
        announce_tick = self._announce_tick(index)
        if announce_tick is not None:
            events.append((announce_tick, Announcement(announce_tick, IN_BUSINESS)))
        return events

    def transcript(self, index: int) -> Transcript:
        values = Readings(self.readings[index, : self.lengths[index]])
        transcript = Transcript()
        start = 0
        for count, event in self._events(index):
            transcript.record_readings(start, values[start:count])
            transcript.announce(event.tick, event.tag)
            start = count
        transcript.record_readings(start, values[start:])
        return transcript

    def digest(self, index: int) -> int:
        """replay_digest(self.transcript(index)), without building the transcript."""
        if self._digests is None:
            events = [self._events(row) for row in range(len(self))]
            self._digests = row_digests(self.readings, self.lengths, events)
        return self._digests[index]

    def outcome(self, index: int) -> DecoyOutcome:
        scenario, plans, length = self.scenario, self._plans, self.lengths[index]
        receives = scenario.adversary is not AdversaryKind.IMPERSONATOR
        receiver_key = int(plans.runs.keys[index]) if receives else None
        detected_tick = estimate = recovered = None
        status, detail = TIMEOUT, f"no stabilization detected within {scenario.max_ticks} ticks"
        if self._detected[index] is not None:
            detected_tick, estimate = self._detected[index]
            recovered, detail = _recover(scenario, estimate, float(receiver_key))
            status = OK if recovered is not None else OUT_OF_DOMAIN
        sender_start = int(plans.sender.start[index])
        moved = sender_start < length
        return DecoyOutcome(
            recovered=recovered,
            sender_secret=int(plans.runs.secrets[index]),
            receiver_key=receiver_key,
            transcript=functools.partial(self.transcript, index),
            detected_tick=detected_tick,
            stable_estimate=estimate,
            announce_tick=self._announce_tick(index),
            sender_start_tick=sender_start if moved else None,
            sender_stabilize_tick=int(plans.sender.stabilize[index]) if moved else None,
            receiver_stabilize_tick=(
                None if receiver_key is None else int(plans.other.stabilize[index])
            ),
            status=status,
            detail=detail,
            jammed=self._jam_from[index] < length,
            adversary_recovered=self._adversary_recovered[index],
        )


def _window_extremes(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of every run of `width` consecutive values along the last axis, by doubling."""
    high = low = values
    span = 1
    while 2 * span <= width:
        high = np.maximum(high[..., :-span], high[..., span:])
        low = np.minimum(low[..., :-span], low[..., span:])
        span *= 2
    rest = width - span  # two overlapping spans cover the window
    if rest:
        high = np.maximum(high[..., :-rest], high[..., rest:])
        low = np.minimum(low[..., :-rest], low[..., rest:])
    return high, low


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """Sum of every run of `width` consecutive values along the last axis, by power-of-two spans."""
    count = values.shape[-1] - width + 1
    sums, spans, span, offset = None, values, 1, 0
    while True:
        if width & span:  # the window's next span, after the shorter ones already added
            part = spans[..., offset : offset + count]
            sums = part.copy() if sums is None else sums + part
            offset += span
        if 2 * span > width:
            return sums
        spans = spans[..., :-span] + spans[..., span:]
        span *= 2


def mean_slack(width: int, magnitude: np.ndarray) -> np.ndarray:
    """Twice how far a float mean of n <= width values may lie from fsum's mean of them.

    With u = 2^-53 and A = `magnitude`, the values' largest magnitude, a
    float sum of `width` values (zeros past the n) in any order is within
    (width - 1) u n A of the exact sum.  Its mean, divided and rounded, is
    so within width u A of the exact mean, and fsum's mean (rounded, then
    divided) within 2 u A: (width + 2) u A to first order.  width + 3
    covers the higher-order terms and 2^-1022 the rounding of subnormals.
    """
    return 2.0 * (width + 3) * 2.0**-53 * magnitude + 2.0**-1022


def _may_settle(
    values: np.ndarray, high: np.ndarray, low: np.ndarray, width: int, epsilon: float, floor: float
) -> np.ndarray:
    """False for each window the exact detector surely rejects, judged by its approximate mean.

    The window's float mean lies within half of `slack` (mean_slack) of
    the detector's (fsum, rounded, then divided).  The detector needs
    max - mean and mean - min to round to at most epsilon, so to be at
    most epsilon (1 + 2^-53) plus half the smallest subnormal, and mean
    >= floor; a window is rejected only where the approximate mean misses
    a test by more than the slack and the tests' own rounding.
    """
    means = _window_sums(values, width) / width
    slack = mean_slack(width, np.maximum(np.abs(high), np.abs(low)))
    tolerance = (epsilon + slack) * (1.0 + 2.0**-40)
    return (high - means <= tolerance) & (means - low <= tolerance) & (means + slack >= floor)


def _first_settled(values: np.ndarray, width: int, epsilon: float, floor: float, read=None) -> list:
    """Per row of `values`, the first window of `width` values that settles at `floor` or higher.

    A row's entry is read(row, last column, level) of the first such
    window for which that is not None (by default the pair (last column,
    level)), or None.  With a tolerance, only windows that pass necessary
    conditions go to the exact detector: spread within 2 * epsilon,
    highest value near the floor and an approximate mean that leaves room
    to settle (_may_settle).  With none, the test is exact: a window the
    detector accepts is flat at some v, and its mean is fsum([v] * width)
    / width, where fsum is the correctly rounded v * width; that mean can
    miss v (884295128254041.2 at width 3).  So without a reader no window
    goes to the detector.  (Where v * width overflows, the detector's
    fsum raises, and here the window is rejected.)
    """
    found: list = [None] * len(values)
    if values.shape[1] < width:
        return found
    high, low = _window_extremes(values, width)
    # Slack for rounding: a window the exact detector accepts always passes.
    passing = high - low <= 2.0 * epsilon * (1.0 + 1e-9)  # false on an infinite window
    if epsilon > 0.0:
        passing &= high >= floor * (1.0 - 1e-9)
        passing &= _may_settle(values, high, low, width, epsilon, floor)
    else:
        passing &= ((high * width) / width == high) & (high >= floor)
        if read is None:
            rows, columns = np.arange(len(values)), passing.argmax(axis=1)
            levels = high[rows, columns] + 0.0  # fsum's sum of zeros is +0.0
            return [
                (column + width - 1, level) if hit else None
                for hit, column, level in zip(
                    passing[rows, columns].tolist(), columns.tolist(), levels.tolist()
                )
            ]
    for row, column in enumerate(passing.argmax(axis=1).tolist()):
        if not passing[row, column]:
            continue
        later = None  # the row's other candidates, found once the first one fails
        while column is not None:
            window = values[row, column : column + width].tolist()
            level = detect_stabilization(window, epsilon, width)
            if level is not None and level >= floor:
                end = column + width - 1
                found[row] = (end, level) if read is None else read(row, end, level)
                if found[row] is not None:
                    break
            if later is None:
                later = iter((column + 1 + np.flatnonzero(passing[row, column + 1 :])).tolist())
            column = next(later, None)
    return found


def _contributions(ramps: _Ramps, rows: list[int], first: int, size: int) -> np.ndarray:
    """Row j holds run rows[j]'s ramp value on each tick from `first` to first + size - 1."""
    ticks = np.arange(first, first + size)
    target, stabilize = ramps.target[rows, None], ramps.stabilize[rows, None]
    out = np.where(ticks >= stabilize, target, 0.0)
    if ramps.schedules is not None:
        steps = ticks - ramps.start[rows, None]
        climbing = (steps >= 0) & (ticks < stabilize)
        if climbing.any():  # a schedule reaches into the block
            # Each climbing cell's value, by its flat index into the schedule rows.
            row_starts = np.array(rows)[:, None] * ramps.schedules.shape[1]
            cells = np.where(climbing, steps, 0) + row_starts
            out = np.where(climbing, ramps.schedules.take(cells), out)
    return out


def _jam(
    parts: list[np.ndarray],
    noise: Optional[np.ndarray],
    first: int,
    rows: list[int],
    jam_from: list[int],
    jam_value: float,
    watched: np.ndarray,
    watch: int,
    epsilon: float,
    floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """A block's readings with each jammer's force, which joins the tick after its watch settles.

    Sets jam_from[row] for each run whose jammer arms in this block.
    `watched` holds each run's last watch - 1 readings before the block;
    its successor is returned with the readings.
    """
    size = parts[0].shape[1]
    stop = first + size

    def measure() -> np.ndarray:
        jam = np.zeros((len(rows), size))
        for index, row in enumerate(rows):
            if jam_from[row] < stop:
                jam[index, max(jam_from[row] - first, 0) :] = jam_value
        return measure_block([*parts, jam], noise).values

    unarmed = [index for index, row in enumerate(rows) if jam_from[row] >= stop]
    if not unarmed:
        return measure(), watched
    everyone = len(unarmed) == len(rows)
    readings = measure_block(parts, noise).values if everyone else measure()
    seen = np.concatenate((watched, readings), 1)
    hits = _first_settled(seen if everyone else seen[unarmed], watch, epsilon, floor)
    for index, hit in zip(unarmed, hits):
        if hit is not None:  # a detection on or before this tick ends the run unjammed
            jam_from[rows[index]] = first - watched.shape[1] + hit[0] + 1
    if any(hits):
        readings = measure()
    return readings, seen[:, seen.shape[1] - watch + 1 :]


def _closed_form(
    scenario: Scenario, runs: Runs, jam_value: Optional[float], forger_key: Optional[float]
) -> RunBatch:
    """A batch of decoy runs that differ only in seed and secrets, in blocks of ticks.

    Each party's effect on the channel is open-loop once one trigger tick
    is known.  The sender starts when the receiver does for the
    synchronous control, at once without the defense, and the tick after
    the first announcement (the receiver's or a forged one) with it.  The
    jam value and the forger key hold for every run of the pass; a forger
    with a key > 0 ramps from its announcement tick.  A jammer arms on the
    first window of max(1, hold // 2) raw readings that settles, and its
    force joins from the next tick, unless the receiver detected first.  So
    the readings are the contributions' sum plus noise: ``a + b``, or
    ``(a + b) + c`` where TwoSum shows that sum exact and math.fsum on the
    other ticks, the same values the channel's fsum gives.

    Every run takes each draw from its own (seed, stream) generators, in
    tick order, so where the blocks end changes no reading, and a run
    reads the same in any batch as alone.  The first block runs until
    hold ticks after the last ramp of the batch settles; the runs whose
    receivers have not yet detected stabilization go on into blocks that
    double in length, each block one runs-by-ticks array searched at
    once.  An impersonation always runs its whole budget, in one block,
    and the impersonator reads the first settled window of ``reading -
    own ramp`` that recover_secret does not reject.
    """
    budget, hold, epsilon = scenario.max_ticks, scenario.hold_ticks, scenario.epsilon_stab
    sigma = scenario.noise_sigma
    floor = scenario.n1 - 0.5
    watch = max(1, hold // 2)
    plans = _plans(scenario, runs, forger_key)
    count = len(runs.seeds)
    jam_from = [budget] * count  # where each jammer's force joins
    detected: list[Optional[tuple[int, float]]] = [None] * count
    adversary_recovered: list[Optional[int]] = [None] * count
    blocks = []
    rows = list(range(count))  # the runs still going, in order
    # Their receivers' last hold - 1 window values and jammers' last
    # watch - 1 readings, which the next block follows on from.
    window = None
    watched = np.zeros((count, 0)) if jam_value is not None else None
    first, stop = 0, int(plans.stop.max())
    while True:
        parts = [
            _contributions(plans.sender, rows, first, stop - first),
            _contributions(plans.other, rows, first, stop - first),
        ]
        noise = None
        if sigma > 0.0:
            noise = np.array([block_noise(sigma, plans.noise[row], stop - first) for row in rows])
        if watched is None:
            readings = measure_block(parts, noise).values
        else:
            readings, watched = _jam(
                parts, noise, first, rows, jam_from, jam_value, watched, watch, epsilon, floor
            )
        blocks.append((rows, first, readings))
        values = readings - parts[1]
        held = 0 if window is None else window.shape[1]
        if held:
            values = np.concatenate((window, values), 1)
        if scenario.adversary is AdversaryKind.IMPERSONATOR:  # it reads one block of the whole run

            def read(row, column, level):
                return _recover(scenario, level, float(parts[1][row, column]))[0]

            adversary_recovered = _first_settled(values, hold, epsilon, floor, read)
            break
        undetected = []
        for index, hit in enumerate(_first_settled(values, hold, epsilon, floor)):
            if hit is None:
                undetected.append(index)
            else:
                detected[rows[index]] = (first - held + hit[0], hit[1])
        if not undetected or stop == budget:
            break
        if len(undetected) < len(rows):
            rows = [rows[index] for index in undetected]
            values = values[undetected]
            if watched is not None:
                watched = watched[undetected]
        window = values[:, values.shape[1] - hold + 1 :]
        first, stop = stop, min(budget, 2 * stop)

    lengths = [budget if hit is None else hit[0] + 1 for hit in detected]
    width = max(lengths)
    if len(blocks) == 1:
        readings = blocks[0][2][:, :width]
    else:
        readings = np.full((count, width), np.nan)
        for rows, first, block in blocks:
            into = slice(None) if len(rows) == count else rows
            readings[into, first : first + block.shape[1]] = block[:, : width - first]
    if min(lengths) < width:
        readings[np.arange(width) >= np.array(lengths)[:, None]] = np.nan
    return RunBatch(scenario, readings, lengths, plans, detected, jam_from, adversary_recovered)


def _recover(scenario: Scenario, level: float, own: float) -> tuple[Optional[int], str]:
    """What a listener adding `own` reads off a settled level, or why it cannot."""
    try:
        return recover_secret(level + own, own, scenario.secret_domain, scenario.noise_sigma), ""
    except OutOfDomain as exc:
        return None, str(exc)


def run_decoy_transmission(scenario: Scenario) -> DecoyOutcome:
    """Run one honest (or passively observed) transmission end to end."""
    if scenario.adversary not in (AdversaryKind.NONE, AdversaryKind.PASSIVE):
        raise ValueError(
            "active adversaries run through the attack entry points, "
            f"not run_decoy_transmission (got {scenario.adversary})"
        )
    return simulate_transmission(scenario)
