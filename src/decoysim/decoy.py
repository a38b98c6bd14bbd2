"""Decoy-based secret transmission over the additive channel.

The sender ramps a random contribution up to her secret value, the
receiver does the same with his private key, and once the public total
goes flat the receiver subtracts his own contribution to read the secret.
Everything an eavesdropper can see is the per-tick public measurement plus
the receiver's "in business" announcement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import ChannelState, Readings, measure_pair
from .engine import (
    OK,
    OUT_OF_DOMAIN,
    RECEIVER,
    SENDER,
    STREAM_NOISE,
    STREAM_RECEIVER,
    STREAM_SENDER,
    TIMEOUT,
    DECOY_PROTOCOLS,
    AdversaryKind,
    Protocol,
    RampModel,
    RngStream,
    Scenario,
    Transcript,
)
from .errors import InvalidTarget, OutOfDomain

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

    def values(self, first: int, stop: int) -> np.ndarray:
        """value_at(tick) for every tick in [first, stop), as an array."""
        ramp_from = min(max(self.start_tick, first), stop)
        flat_from = min(max(self.stabilize_tick, first), stop)
        out = np.zeros(stop - first)
        out[ramp_from - first : flat_from - first] = self.schedule[
            ramp_from - self.start_tick : flat_from - self.start_tick
        ]
        out[flat_from - first :] = self.target
        return out

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
    if duration == 0:
        return RampProcess(target, start_tick, start_tick, ())
    weights = rng.uniform(size=duration)
    total_weight = float(np.sum(weights))
    if total_weight <= 0.0:  # unreachable in practice; keeps the math total
        weights = np.ones(duration)
        total_weight = float(duration)
    partial = np.cumsum(weights) / total_weight
    # value at start_tick is 0; the j-th later tick carries the j-th partial sum
    schedule = (0.0, *(target * partial[:-1]).tolist())
    return RampProcess(target, start_tick, start_tick + duration, schedule)


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
    nearest = min(max(math.ceil(diff - 0.5), n1), n2)
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
    has no recovered value and `detail` says why it failed.
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

    @property
    def success(self) -> bool:
        return self.recovered == self.sender_secret


def _receiver_ramp_model(model: RampModel) -> RampModel:
    # The deterministic-rate control only makes the *sender* leaky; the
    # receiver jumps so the observable ramp duration is the sender's alone.
    if model is RampModel.DETERMINISTIC_RATE:
        return RampModel.SYNCHRONOUS
    return model


class _Run:
    """What both ways of running a transmission set up and report alike."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng_sender = scenario.stream(STREAM_SENDER)
        self.rng_noise = scenario.stream(STREAM_NOISE)
        rng_receiver = scenario.stream(STREAM_RECEIVER)
        self.transcript = Transcript()
        if scenario.protocol is Protocol.DECOY_WAVE:
            self.transcript.announce(0, WAVE_PARAMS)
        self.sender_secret = scenario.secret_of(SENDER)
        # Drawn from the receiver's stream whether or not he shows up, so an
        # impersonation run is tick-aligned with its honest twin.
        self.receiver_start = rng_receiver.integers(1, scenario.receiver_start_max)
        self.receiver_key: Optional[int] = None
        self.receiver_ramp: Optional[RampProcess] = None
        if scenario.adversary is not AdversaryKind.IMPERSONATOR:
            self.receiver_key = scenario.secret_of(RECEIVER)
            self.receiver_ramp = generate_ramp(
                rng_receiver,
                float(self.receiver_key),
                self.receiver_start,
                scenario.max_ramp_ticks,
                _receiver_ramp_model(scenario.ramp_model),
            )

    def sender_ramp(self, start_tick: int) -> RampProcess:
        scenario = self.scenario
        return generate_ramp(
            self.rng_sender,
            float(self.sender_secret),
            start_tick,
            scenario.max_ramp_ticks,
            scenario.ramp_model,
            ticks_per_unit=max(1, scenario.max_ramp_ticks // scenario.n2),
        )

    def settled(self, level: Optional[float]) -> bool:
        """Whether the receiver's window settled at a level worth reading."""
        return level is not None and level >= self.scenario.n1 - 0.5

    def finish(
        self,
        sender_ramp: Optional[RampProcess],
        announce_tick: Optional[int],
        detected_tick: Optional[int] = None,
        estimate: Optional[float] = None,
    ) -> DecoyOutcome:
        """The outcome: a timeout without a detection, else what the receiver recovers."""
        scenario = self.scenario
        status, detail, recovered = OK, "", None
        if detected_tick is None:
            status = TIMEOUT
            detail = f"no stabilization detected within {scenario.max_ticks} ticks"
        else:
            key = float(self.receiver_key)
            try:
                recovered = recover_secret(
                    estimate + key, key, scenario.secret_domain, scenario.noise_sigma
                )
            except OutOfDomain as exc:
                status, detail = OUT_OF_DOMAIN, str(exc)
        receiver_ramp = self.receiver_ramp
        return DecoyOutcome(
            recovered=recovered,
            sender_secret=self.sender_secret,
            receiver_key=self.receiver_key,
            transcript=self.transcript,
            detected_tick=detected_tick,
            stable_estimate=estimate,
            announce_tick=announce_tick,
            sender_start_tick=sender_ramp.start_tick if sender_ramp else None,
            sender_stabilize_tick=sender_ramp.stabilize_tick if sender_ramp else None,
            receiver_stabilize_tick=receiver_ramp.stabilize_tick if receiver_ramp else None,
            status=status,
            detail=detail,
        )


def simulate_transmission(scenario: Scenario, actor=None) -> DecoyOutcome:
    """Run one transmission.

    `actor`, when given, is an active adversary with two hooks:
    ``on_tick(tick, channel, transcript)`` runs before the public
    measurement (it may push a contribution or forge an announcement) and
    ``on_reading(tick, reading)`` runs after it.  The receiver takes part
    unless the scenario's adversary impersonates him.  A run whose
    receiver never detects stabilization within max_ticks, or rejects what
    he recovers, still returns its outcome, with that status.

    Without an actor the run is computed in closed form; with one it
    steps through the tick loop.  Both give the same outcome and the same
    transcript.
    """
    scenario.validate()
    if scenario.protocol not in DECOY_PROTOCOLS:
        raise ValueError(f"not a transmission protocol: {scenario.protocol}")
    run = _Run(scenario)
    if actor is None:
        return _closed_form(run)
    return _tick_loop(run, actor)


def _tick_loop(run: _Run, actor) -> DecoyOutcome:
    """One tick at a time, with the actor's hooks around each public measurement."""
    scenario = run.scenario
    transcript = run.transcript
    channel = ChannelState(scenario.noise_sigma)
    receiver_start = run.receiver_start
    receiver_ramp = run.receiver_ramp
    sender_ramp: Optional[RampProcess] = None
    synchronized = scenario.ramp_model is RampModel.SYNCHRONOUS
    announce_seen_tick: Optional[int] = None
    window: list[float] = []

    def sender_may_start(tick: int) -> bool:
        if synchronized:
            # Idealized control: both parties move at one public tick, so
            # nobody's force is ever observable alone.
            return tick >= receiver_start
        if not scenario.defense_enabled:
            return True
        return announce_seen_tick is not None and tick > announce_seen_tick

    for tick in range(scenario.max_ticks):
        # 1. sender
        if sender_ramp is None and sender_may_start(tick):
            sender_ramp = run.sender_ramp(receiver_start if synchronized else tick)
        if sender_ramp is not None:
            channel.set_contribution(SENDER, sender_ramp.value_at(tick))

        # 2. receiver
        receiver_value = 0.0
        if receiver_ramp is not None and tick >= receiver_start:
            if tick == receiver_start:
                transcript.announce(tick, IN_BUSINESS)
            receiver_value = receiver_ramp.value_at(tick)
            channel.set_contribution(RECEIVER, receiver_value)

        # 3. adversary
        actor.on_tick(tick, channel, transcript)

        # 4. public measurement
        reading = channel.measure(run.rng_noise)
        transcript.record_measurement(tick, reading)
        actor.on_reading(tick, float(reading))

        # The sender reads announcements off the public record; a forged
        # one is indistinguishable from the real thing.
        if announce_seen_tick is None:
            announce_seen_tick = transcript.first_announcement(IN_BUSINESS)

        # 5. receiver-side detection: he subtracts his own known schedule
        # and waits for the remainder to go flat for hold_ticks.
        if receiver_ramp is not None:
            window.append(float(reading) - receiver_value)
            level = detect_stabilization(window, scenario.epsilon_stab, scenario.hold_ticks)
            if run.settled(level):
                return run.finish(sender_ramp, announce_seen_tick, tick, level)

    return run.finish(sender_ramp, announce_seen_tick)


def _window_extremes(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of every run of `width` consecutive values, by doubling."""
    high = low = values
    span = 1
    while 2 * span <= width:
        high = np.maximum(high[:-span], high[span:])
        low = np.minimum(low[:-span], low[span:])
        span *= 2
    rest = width - span  # two overlapping spans cover the window
    if rest:
        high = np.maximum(high[:-rest], high[rest:])
        low = np.minimum(low[:-rest], low[rest:])
    return high, low


def _closed_form(run: _Run) -> DecoyOutcome:
    """An honest or passively observed run, computed in blocks of ticks.

    Nothing but the two parties reaches the channel, and the sender's
    start tick is known in advance: when the receiver starts for the
    synchronous control, at once without the defense, and the tick after
    his announcement with it.  So the readings are the ramps' sum plus
    noise, built in blocks that double in length until the receiver
    detects stabilization.  Only windows that pass a necessary condition
    (spread within 2 * epsilon, highest value near the arming level) go
    to the exact detector, in tick order.
    """
    scenario = run.scenario
    transcript = run.transcript
    budget = scenario.max_ticks
    hold = scenario.hold_ticks
    epsilon = scenario.epsilon_stab
    receiver_start = run.receiver_start
    receiver_ramp = run.receiver_ramp
    if scenario.ramp_model is RampModel.SYNCHRONOUS:
        sender_start = receiver_start
    elif not scenario.defense_enabled:
        sender_start = 0
    elif receiver_ramp is not None:
        sender_start = receiver_start + 1
    else:  # the defended sender waits for an announcement nobody makes
        sender_start = budget
    sender_ramp = run.sender_ramp(sender_start) if sender_start < budget else None
    parties = [ramp for ramp in (sender_ramp, receiver_ramp) if ramp is not None]
    # Slack for rounding: a window the exact detector accepts always passes.
    spread_limit = 2.0 * epsilon * (1.0 + 1e-9)
    level_floor = (scenario.n1 - 0.5) * (1.0 - 1e-9)

    blocks: list[np.ndarray] = []
    window = np.zeros(0)  # the receiver's last hold - 1 window values
    first = 0
    stop = min(budget, max([ramp.stabilize_tick for ramp in parties], default=0) + hold)
    detected_tick = estimate = None
    while detected_tick is None:
        silent = np.zeros(stop - first)  # an absent party contributes 0
        sender = sender_ramp.values(first, stop) if sender_ramp else silent
        receiver = receiver_ramp.values(first, stop) if receiver_ramp else silent
        readings = measure_pair(sender, receiver, scenario.noise_sigma, run.rng_noise)
        blocks.append(readings.values)
        if receiver_ramp is not None:
            window = np.concatenate((window, readings.values - receiver))
            if len(window) >= hold:
                high, low = _window_extremes(window, hold)
                passing = np.flatnonzero((high - low <= spread_limit) & (high >= level_floor))
                # window index j holds the tick stop - len(window) + j
                for j in passing.tolist():
                    level = detect_stabilization(window[j : j + hold].tolist(), epsilon, hold)
                    if run.settled(level):
                        detected_tick = stop - len(window) + j + hold - 1
                        estimate = level
                        break
            window = window[len(window) - hold + 1 :]
        if stop == budget:
            break
        first, stop = stop, min(budget, 2 * stop)

    last_tick = budget - 1 if detected_tick is None else detected_tick
    values = Readings(np.concatenate(blocks)[: last_tick + 1])
    announce_tick = None
    if receiver_ramp is not None and receiver_start <= last_tick:
        announce_tick = receiver_start
        transcript.record_readings(0, values[:receiver_start])
        transcript.announce(receiver_start, IN_BUSINESS)
        transcript.record_readings(receiver_start, values[receiver_start:])
    else:
        transcript.record_readings(0, values)
    if sender_ramp is not None and sender_ramp.start_tick > last_tick:
        sender_ramp = None
    return run.finish(sender_ramp, announce_tick, detected_tick, estimate)


def run_decoy_transmission(scenario: Scenario) -> DecoyOutcome:
    """Run one honest (or passively observed) transmission end to end."""
    if scenario.adversary not in (AdversaryKind.NONE, AdversaryKind.PASSIVE):
        raise ValueError(
            "active adversaries run through the attack entry points, "
            f"not run_decoy_transmission (got {scenario.adversary})"
        )
    return simulate_transmission(scenario)
