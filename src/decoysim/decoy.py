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
    OutOfDomain is raised.  This is recover_secrets on one run.
    """
    total = float(total)
    own_key = float(own_key)
    if not (math.isfinite(total) and math.isfinite(own_key)):
        raise ValueError("total and own_key must be finite")
    nearest, rejected = recover_secrets(
        np.array([total]), np.array([own_key]), secret_domain, noise_sigma
    )
    nearest = int(nearest[0])
    if rejected[0]:
        diff = total - own_key
        raise OutOfDomain(
            f"recovered value {diff!r} is {abs(diff - nearest):.3f} away from the nearest "
            f"domain element {nearest}; transmission corrupted"
        )
    return nearest


def recover_secrets(
    totals: np.ndarray, own_keys: np.ndarray, secret_domain: tuple[int, int], noise_sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """recover_secret on arrays of finite values: each nearest domain element, and which it rejects.

    From 2^52 on every float is whole and diff - 0.5 would round, so a
    whole difference is its own nearest integer.  The elements come as
    int64; the domain's bounds are at most 2^53.
    """
    diffs = totals - own_keys
    whole = diffs == np.floor(diffs)
    nearest = np.where(whole, diffs, np.ceil(diffs - 0.5)).clip(*secret_domain)
    return nearest.astype(np.int64), np.abs(diffs - nearest) > 0.5 + 4.0 * noise_sigma


@dataclass
class DecoyOutcome:
    """Result of one transmission run plus replay diagnostics.

    `status` is OK, TIMEOUT (no stabilization within max_ticks) or
    OUT_OF_DOMAIN (the recovery rejected the transmission); a failed run
    has no recovered value and `detail` says why it failed.  `jammed`
    says whether a jammer's force reached the medium, and
    `adversary_recovered` is what an impersonator read, if anything.
    """

    recovered: Optional[int]
    sender_secret: int
    receiver_key: Optional[int]
    transcript: Transcript
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

    @classmethod
    def of(cls, scenario: Scenario) -> "Runs":
        """The scenario's own run as a batch of one."""
        secrets = scenario.party_secrets
        return cls([scenario.seed], [secrets[SENDER]], [secrets.get(RECEIVER)])


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
    on the medium plus noise, computed by measure_block.  A run whose
    receiver never detects stabilization within max_ticks, or rejects what
    he recovers, still returns its outcome, with that status.  The run is
    row 0 of simulate_runs on its own columns (Runs.of).
    """
    check_transmission(scenario, jam_value, forger_key)
    return next(simulate_runs(scenario, Runs.of(scenario), jam_value, forger_key)).outcome(0)


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
    start = np.zeros(len(seeds), dtype=np.int64)  # where a ramping sender starts
    if scenario.defense_enabled:
        start = np.minimum(announce + 1, budget)
    if model is RampModel.SYNCHRONOUS:
        # Idealized control: both parties move at one public tick, so
        # nobody's force is ever observable alone.
        sender = _Ramps(targets, receiver_start, receiver_start)
    elif model is RampModel.DETERMINISTIC_RATE:
        ticks_per_unit = max(1, max_ramp // scenario.n2)
        durations = np.maximum(1, np.rint(ticks_per_unit * targets)).astype(np.int64)
        # generate_ramp's float operations, target * step / duration, on padded rows.
        steps = np.arange(durations.max(), dtype=np.float64)
        schedules = targets[:, None] * steps / durations[:, None]
        sender = _Ramps(targets, start, start + durations, schedules)
    else:  # a sender who never moves (her start is the budget) has a ramp no tick reads
        _, durations, weights = _random_ramps(seeds, STREAM_SENDER, rows[STREAM_SENDER], max_ramp)
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


class Outcomes(NamedTuple):
    """What every run of a kernel pass did, as columns: row i is run i's.

    A run without a value holds -1 in an integer column (present reads
    it as None) and NaN in `estimate`.  The attack flags, computed in
    RunBatch.table alone, hold for the pass's adversary and mean nothing
    for an honest run.
    """

    status: np.ndarray  # OK, TIMEOUT or OUT_OF_DOMAIN
    recovered: np.ndarray  # what the receiver recovered, in an OK run
    detected: np.ndarray  # the tick the receiver detected stabilization on
    estimate: np.ndarray  # the stable level he read then
    announce: np.ndarray  # the tick the second party announced on, within the run
    jammed: np.ndarray  # whether a jammer's force reached the medium
    adversary_recovered: np.ndarray  # what an impersonator read
    disrupted: np.ndarray  # the receiver failed or misread; under a jammer, only where jammed
    adversary_learned: np.ndarray  # the adversary read the sender's secret
    timeout: np.ndarray  # the receiver never detected stabilization


class RunBatch:
    """One kernel pass: its runs' public readings in one array, and what each run did.

    Row i of `readings` holds run i's reading for every tick from 0 to
    lengths[i] - 1, then NaN.  `found` holds what the pass's searches
    found, as columns: each receiver's detected tick and level, what an
    impersonator read, and, after the jam value, the tick each jammer's
    force joins on.  `table`, every run's outcome as columns, is computed
    from them at its first read, as `digests` is hashed from the readings
    at its first; a pass read only for its readings builds neither.
    `outcome(i)` is run i's row of the table as a DecoyOutcome.
    """

    def __init__(
        self, scenario: Scenario, readings: np.ndarray, lengths: np.ndarray, plans: _Plans, found
    ):
        self.scenario = scenario
        self.readings = readings
        self.lengths = lengths
        self.runs = plans.runs
        self._plans = plans
        self._found = found

    def __len__(self) -> int:
        return len(self.lengths)

    def _events(self, announce_tick: int) -> list[tuple[int, Announcement]]:
        """A run's announcements, each after the number of readings before it."""
        events = []
        if self.scenario.protocol is Protocol.DECOY_WAVE:
            events.append((0, Announcement(0, WAVE_PARAMS)))
        if announce_tick >= 0:
            events.append((announce_tick, Announcement(announce_tick, IN_BUSINESS)))
        return events

    def transcript(self, index: int) -> Transcript:
        values = Readings(self.readings[index, : self.lengths[index]])
        transcript = Transcript()
        start = 0
        for count, event in self._events(int(self._announce[index])):
            transcript.record_readings(start, values[start:count])
            transcript.announce(event.tick, event.tag)
            start = count
        transcript.record_readings(start, values[start:])
        return transcript

    @functools.cached_property
    def digests(self) -> list[int]:
        """replay_digest(self.transcript(i)) of every run i, without building the transcripts."""
        ticks = self._announce.tolist()
        events = {tick: self._events(tick) for tick in set(ticks)}  # runs share their events
        return row_digests(self.readings, self.lengths, list(map(events.__getitem__, ticks)))

    @functools.cached_property
    def _announce(self) -> np.ndarray:
        """Each run's announce tick, -1 where its announcement falls past its readings."""
        return np.where(self._plans.announce < self.lengths, self._plans.announce, -1)

    @functools.cached_property
    def table(self) -> Outcomes:
        """The outcome table: what the receiver recovers where he detected, and the attack flags."""
        detected, estimate, read, jam_value, armed = self._found
        scenario, runs, lengths = self.scenario, self.runs, self.lengths
        status, recovered = np.full(len(self), TIMEOUT), np.full(len(self), -1)
        seen = (detected >= 0).nonzero()[0]
        if len(seen):  # only a receiver detects
            keys = np.asarray(runs.keys, dtype=np.float64)[seen]
            domain, sigma = scenario.secret_domain, scenario.noise_sigma
            nearest, rejected = recover_secrets(estimate[seen] + keys, keys, domain, sigma)
            status[seen] = np.where(rejected, OUT_OF_DOMAIN, OK)
            recovered[seen] = np.where(rejected, -1, nearest)
        jammed = armed < lengths
        secrets = np.asarray(runs.secrets, dtype=np.int64)
        disrupted = (status != OK) | (recovered != secrets)
        if jam_value is not None:
            disrupted &= jammed & (jam_value != 0.0)
        return Outcomes(
            status, recovered, detected, estimate, self._announce, jammed, read,
            disrupted, read == secrets, status == TIMEOUT,
        )

    def outcome(self, index: int) -> DecoyOutcome:
        """Run `index`'s row of the table, with its parties' ticks and its transcript."""
        scenario, plans, table, length = self.scenario, self._plans, self.table, self.lengths[index]
        sigma = scenario.noise_sigma
        receives = scenario.adversary is not AdversaryKind.IMPERSONATOR
        receiver_key = int(plans.runs.keys[index]) if receives else None
        ints = table.recovered, table.detected, table.announce, table.adversary_recovered
        recovered, detected_tick, announce_tick, read = present(np.array([c[index] for c in ints]))
        status = str(table.status[index])
        detail, estimate = f"no stabilization detected within {scenario.max_ticks} ticks", None
        if detected_tick is not None:
            detail, estimate = "", float(table.estimate[index])
        if status == OUT_OF_DOMAIN:  # recover_secret's message
            try:
                recover_secret(estimate + receiver_key, receiver_key, scenario.secret_domain, sigma)
            except OutOfDomain as exc:
                detail = str(exc)
        sender_start = int(plans.sender.start[index])
        moved = sender_start < length
        return DecoyOutcome(
            recovered=recovered,
            sender_secret=int(plans.runs.secrets[index]),
            receiver_key=receiver_key,
            transcript=self.transcript(index),
            detected_tick=detected_tick,
            stable_estimate=estimate,
            announce_tick=announce_tick,
            sender_start_tick=sender_start if moved else None,
            sender_stabilize_tick=int(plans.sender.stabilize[index]) if moved else None,
            receiver_stabilize_tick=(
                None if receiver_key is None else int(plans.other.stabilize[index])
            ),
            status=status,
            detail=detail,
            jammed=bool(table.jammed[index]),
            adversary_recovered=read,
        )


def present(cells: np.ndarray) -> list[Optional[int]]:
    """Integer cells of an outcome table as ints, None where a run has no value (-1)."""
    return [None if value < 0 else value for value in cells.tolist()]


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


def _first_settled(
    values: np.ndarray, width: int, epsilon: float, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of `values`, the first window of `width` values that settles at `floor` or higher.

    Returns columns: whether row i has such a window, and its last column
    and its level, which are unread and 0.0 where it has none.  A window
    holding NaN never settles.  With a tolerance, only windows that pass
    necessary conditions go to detect_stabilization's test: spread within
    2 * epsilon, highest value near the floor and an approximate mean that
    leaves room to settle (_may_settle).  Every row's first such window
    takes the test in one round, and a row's next one only where it
    failed.  With none, the test is exact:
    a window the detector accepts is flat at some v, and its mean is
    fsum([v] * width) / width, where fsum is the correctly rounded
    v * width; that mean can miss v (884295128254041.2 at width 3).  So
    no window goes to the detector.  (Where v * width overflows, the
    detector's fsum raises, and here the window is rejected.)
    """
    count = len(values)
    hit, end, level = np.zeros(count, dtype=bool), np.zeros(count, dtype=np.int64), np.zeros(count)
    if values.shape[1] < width:
        return hit, end, level
    high, low = _window_extremes(values, width)
    # Slack for rounding: a window the exact detector accepts always passes.
    passing = high - low <= 2.0 * epsilon * (1.0 + 1e-9)  # false on an infinite window
    if epsilon > 0.0:
        passing &= high >= floor * (1.0 - 1e-9)
        passing &= _may_settle(values, high, low, width, epsilon, floor)
    else:
        passing &= ((high * width) / width == high) & (high >= floor)
        # A window's level is its value; + 0.0 as fsum's sum of zeros is +0.0.
        rows, columns = np.arange(count), passing.argmax(axis=1)
        hit = passing[rows, columns]
        return hit, columns + width - 1, np.where(hit, high[rows, columns] + 0.0, 0.0)
    rows, columns = np.arange(count), passing.argmax(axis=1)
    while True:
        left = passing[rows, columns]
        rows, columns = rows[left], columns[left]
        if not len(rows):
            return hit, end, level
        windows = values[rows[:, None], columns[:, None] + np.arange(width)].tolist()
        means = np.array(list(map(math.fsum, windows))) / width
        most, least = high[rows, columns], low[rows, columns]
        settled = (most - means <= epsilon) & (means - least <= epsilon) & (means >= floor)
        done = rows[settled]
        hit[done], end[done], level[done] = True, columns[settled] + width - 1, means[settled]
        rows, columns = rows[~settled], columns[~settled]
        passing[rows, columns] = False  # the next round tries each row's next candidate
        columns = passing[rows].argmax(axis=1)


def _impersonator_reads(
    values: np.ndarray, own: np.ndarray, width: int, epsilon: float, floor: float, domain, sigma
) -> np.ndarray:
    """What an impersonator reads off each row of `values`, readings less its `own` ramp; -1: none.

    It reads the first settled window whose level recover_secrets does not
    reject.  The first search reads every row whole.  A row whose window
    it rejects is searched again from that window's second column, over
    2 * width columns, a span that doubles past each miss: so however many
    windows a row rejects, its searches read a few times its columns.
    """
    count, ticks = values.shape
    read, rows = np.full(count, -1), np.arange(count)
    first, span, block = np.zeros(count, dtype=np.int64), np.full(count, ticks), values
    while True:
        hit, end, level = _first_settled(block, width, epsilon, floor)
        found = hit.nonzero()[0]
        own_read = own[rows[found], first[found] + end[found]]
        nearest, rejected = recover_secrets(level[found] + own_read, own_read, domain, sigma)
        read[rows[found]] = np.where(rejected, -1, nearest)
        # A rejected row goes on past its window's first column, a missing one past its span.
        again = ~hit & (first + span < ticks)
        again[found] = rejected
        first = np.where(hit, first + end - width + 2, first + span - width + 1)[again]
        span, rows = np.where(hit, 2 * width, 2 * span)[again], rows[again]
        if not len(rows):
            return read
        columns = first[:, None] + np.arange(span.max())
        inside = columns < np.minimum(first + span, ticks)[:, None]
        block = np.where(inside, values[rows[:, None], np.minimum(columns, ticks - 1)], np.nan)


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
    rows: np.ndarray,
    jam: _Ramps,
    before: np.ndarray,
    watch: int,
    epsilon: float,
    floor: float,
) -> np.ndarray:
    """A block's readings with the jammers' force, which joins the tick after a watch settles.

    `jam` is that force as ramps that jump to the jam value on their
    stabilize tick, the budget until the jammer arms; a jammer that arms
    in this block gets its tick there.  `before` holds each run's readings
    on the (at most) watch - 1 ticks before the block.
    """
    size = parts[0].shape[1]

    def measure() -> np.ndarray:
        return measure_block([*parts, _contributions(jam, rows, first, size)], noise).values

    unarmed = (jam.stabilize[rows] >= first + size).nonzero()[0]
    if not len(unarmed):
        return measure()
    everyone = len(unarmed) == len(rows)
    readings = measure_block(parts, noise).values if everyone else measure()
    seen = np.concatenate((before, readings), 1)
    hit, end, _ = _first_settled(seen if everyone else seen[unarmed], watch, epsilon, floor)
    # A detection on or before this tick ends the run unjammed.
    jam.stabilize[rows[unarmed[hit]]] = first - before.shape[1] + end[hit] + 1
    return measure() if hit.any() else readings


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
    first window of max(1, hold // 2) raw readings that settles, unless
    the receiver detected first, and its force is a third ramp that jumps
    to the jam value on the next tick.  So the readings are measure_block's
    sums of the contributions plus noise, the values the channel gives.

    Every run takes each draw from its own (seed, stream) generators, in
    tick order, so where the blocks end changes no reading, and a run
    reads the same in any batch as alone.  The pass keeps its readings in
    one runs-by-ticks array: the first block, which runs until hold ticks
    after the last ramp of the batch settles, and then blocks that double
    in length for the runs whose receivers have not yet detected
    stabilization, each appending its columns (NaN for the runs already
    stopped).  Every window search reads that array, a receiver's reaching
    back hold - 1 ticks before the block.  An impersonation always runs
    its whole budget, in one block, and the impersonator reads the first
    settled window of ``reading - own ramp`` that recover_secrets does not
    reject (_impersonator_reads).
    """
    budget, hold, epsilon = scenario.max_ticks, scenario.hold_ticks, scenario.epsilon_stab
    sigma, floor, domain = scenario.noise_sigma, scenario.n1 - 0.5, scenario.secret_domain
    watch = max(1, hold // 2)
    plans = _plans(scenario, runs, forger_key)
    count = len(runs.seeds)
    never = np.full(count, budget)
    jam = _Ramps(np.full(count, 0.0 if jam_value is None else jam_value), never, never)
    detected, estimate = np.full(count, -1), np.full(count, np.nan)
    read = np.full(count, -1)  # what an impersonator reads
    rows = np.arange(count)  # the runs still going, in order
    readings = np.zeros((count, 0))
    first, stop = 0, int(plans.stop.max())
    while True:
        back = max(0, first - hold + 1)  # where the block's first receiver window starts
        own = _contributions(plans.other, rows, back, stop - back)
        parts = [_contributions(plans.sender, rows, first, stop - first), own[:, first - back :]]
        noise = None
        if sigma > 0.0:
            streams = map(plans.noise.__getitem__, rows.tolist())
            noise = np.array([block_noise(sigma, stream, stop - first) for stream in streams])
        if jam_value is None:
            block = measure_block(parts, noise).values
        else:
            before = readings[rows, max(0, first - watch + 1) : first]
            block = _jam(parts, noise, first, rows, jam, before, watch, epsilon, floor)
        if first:
            readings = np.concatenate((readings, np.full((count, stop - first), np.nan)), 1)
            readings[rows, first:stop] = block
        else:
            readings = block
        del parts, noise, block
        values = readings[rows, back:stop] - own
        if scenario.adversary is AdversaryKind.IMPERSONATOR:  # it reads one block of the whole run
            read = _impersonator_reads(values, own, hold, epsilon, floor, domain, sigma)
            break
        hit, end, level = _first_settled(values, hold, epsilon, floor)
        detected[rows[hit]], estimate[rows[hit]] = back + end[hit], level[hit]
        rows = rows[~hit]
        if not len(rows) or stop == budget:
            break
        first, stop = stop, min(budget, 2 * stop)

    lengths = np.where(detected < 0, budget, detected + 1)
    width = lengths.max()
    readings = readings[:, :width]
    readings[np.arange(width) >= lengths[:, None]] = np.nan
    found = detected, estimate, read, jam_value, jam.stabilize
    return RunBatch(scenario, readings, lengths, plans, found)


def run_decoy_transmission(scenario: Scenario) -> DecoyOutcome:
    """Run one honest (or passively observed) transmission end to end."""
    if scenario.adversary not in (AdversaryKind.NONE, AdversaryKind.PASSIVE):
        raise ValueError(
            "active adversaries run through the attack entry points, "
            f"not run_decoy_transmission (got {scenario.adversary})"
        )
    return simulate_transmission(scenario)
