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
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import Readings, block_noise, measure_block
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


@dataclass(frozen=True)
class Forgery:
    """A receiver impersonator's forged announcement and, with a key, its own ramp.

    The ramp starts on the announcement tick and climbs to the key.
    """

    tick: int
    ramp: Optional[RampProcess]


def simulate_transmission(
    scenario: Scenario, jam_value: Optional[float] = None, forgery: Optional[Forgery] = None
) -> DecoyOutcome:
    """Run one transmission, under any adversary, in closed form.

    An active adversary comes in as data: a jammer scenario's `jam_value`
    is the force it adds once the public total goes flat, and an
    impersonator scenario's `forgery` is its forged announcement (None for
    a silent one).  The receiver takes part unless the scenario's
    adversary impersonates him.  Each reading is what the channel
    measures: the fsum of the contributions on the medium plus noise.  Two
    contributions add exactly as ``a + b``; with a jammer's third,
    ``(a + b) + c`` is used on the ticks where both TwoSum error terms are
    zero and math.fsum on the others.  A run whose receiver never detects
    stabilization within max_ticks, or rejects what he recovers, still
    returns its outcome, with that status.
    """
    scenario.validate()
    if scenario.protocol not in DECOY_PROTOCOLS:
        raise ValueError(f"not a transmission protocol: {scenario.protocol}")
    if (jam_value is not None and scenario.adversary is not AdversaryKind.JAMMER) or (
        forgery is not None and scenario.adversary is not AdversaryKind.IMPERSONATOR
    ):
        raise ValueError("a jam value needs a jammer scenario, a forgery an impersonator one")
    if jam_value is not None and not math.isfinite(jam_value):
        raise NonFiniteValue(f"jam value is not finite: {jam_value!r}")
    return _closed_form(scenario, jam_value, forgery)


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


def _settled(
    values: np.ndarray, first_tick: int, width: int, epsilon: float, floor: float
) -> Iterator[tuple[int, float]]:
    """(last tick, level) of every window that settles at `floor` or higher, in tick order.

    `values[0]` was read on `first_tick`.  Only windows that pass a
    necessary condition (spread within 2 * epsilon, highest value near the
    floor) go to the exact detector.
    """
    if len(values) < width:
        return
    high, low = _window_extremes(values, width)
    # Slack for rounding: a window the exact detector accepts always passes.
    passing = (high - low <= 2.0 * epsilon * (1.0 + 1e-9)) & (high >= floor * (1.0 - 1e-9))
    for j in np.flatnonzero(passing).tolist():
        level = detect_stabilization(values[j : j + width].tolist(), epsilon, width)
        if level is not None and level >= floor:
            yield first_tick + j + width - 1, level


def _with_jam(
    parts: list[np.ndarray], first: int, jam_from: int, jam_value: Optional[float]
) -> list[np.ndarray]:
    """A block's contributions from tick `first` on, plus the jammer's force from `jam_from` on."""
    size = len(parts[0])
    if jam_from >= first + size:
        return parts
    jam = np.zeros(size)
    jam[max(0, jam_from - first) :] = jam_value
    return [*parts, jam]


def _closed_form(
    scenario: Scenario, jam_value: Optional[float], forgery: Optional[Forgery]
) -> DecoyOutcome:
    """Every decoy run, computed in blocks of ticks.

    Each party's effect on the channel is open-loop once one trigger tick
    is known.  The sender starts when the receiver does for the
    synchronous control, at once without the defense, and the tick after
    the first announcement (the receiver's or a forged one) with it.  A
    forger ramps from its announcement tick.  A jammer arms on the first
    window of max(1, hold // 2) raw readings that settles, and its force
    joins from the next tick, unless the receiver detected first.  So the
    readings are the contributions' sum plus noise: ``a + b``, or
    ``(a + b) + c`` where TwoSum shows that sum exact and math.fsum on the
    other ticks, the same values the channel's fsum gives.  They are built
    in blocks that double in length until the receiver detects
    stabilization; an impersonation always runs its whole budget, in one
    block, and the impersonator reads the first settled window of
    ``reading - own ramp`` that recover_secret does not reject.
    """
    budget, hold, epsilon = scenario.max_ticks, scenario.hold_ticks, scenario.epsilon_stab
    floor = scenario.n1 - 0.5
    rng_receiver = scenario.stream(STREAM_RECEIVER)
    rng_noise = scenario.stream(STREAM_NOISE)
    # Drawn from the receiver's stream whether or not he shows up, so an
    # impersonation run is tick-aligned with its honest twin.
    receiver_start = rng_receiver.integers(1, scenario.receiver_start_max)
    receiver_key = receiver_ramp = None
    if scenario.adversary is not AdversaryKind.IMPERSONATOR:
        receiver_key = scenario.secret_of(RECEIVER)
        # The deterministic-rate control only makes the *sender* leaky; the
        # receiver jumps so the observable ramp duration is the sender's alone.
        model = scenario.ramp_model
        if model is RampModel.DETERMINISTIC_RATE:
            model = RampModel.SYNCHRONOUS
        receiver_ramp = generate_ramp(
            rng_receiver, float(receiver_key), receiver_start, scenario.max_ramp_ticks, model
        )
    # The second party on the medium, whose own contribution its listener
    # subtracts, and its announcement tick (the budget for none).
    if receiver_ramp is not None:
        other, announce_tick = receiver_ramp, receiver_start
    elif forgery is not None:
        other, announce_tick = forgery.ramp, forgery.tick
    else:
        other, announce_tick = None, budget
    if scenario.ramp_model is RampModel.SYNCHRONOUS:
        # Idealized control: both parties move at one public tick, so
        # nobody's force is ever observable alone.
        sender_start = receiver_start
    elif not scenario.defense_enabled:
        sender_start = 0
    else:
        sender_start = announce_tick + 1
    sender_secret = scenario.secret_of(SENDER)
    sender_ramp = None
    if sender_start < budget:
        sender_ramp = generate_ramp(
            scenario.stream(STREAM_SENDER),
            float(sender_secret),
            sender_start,
            scenario.max_ramp_ticks,
            scenario.ramp_model,
            ticks_per_unit=max(1, scenario.max_ramp_ticks // scenario.n2),
        )

    watching = jam_value is not None
    jam_from = budget
    blocks: list[np.ndarray] = []
    window = np.zeros(0)  # the receiver's last hold - 1 window values
    watched = np.zeros(0)  # the jammer's last watch - 1 readings
    watch = max(1, hold // 2)
    first = 0
    stop = budget
    if receiver_ramp is not None:
        stop = min(budget, max(r.stabilize_tick for r in (sender_ramp, receiver_ramp) if r) + hold)
    detected_tick = estimate = None
    while True:
        parts = [
            ramp.values(first, stop) if ramp else np.zeros(stop - first)
            for ramp in (sender_ramp, other)
        ]
        noise = block_noise(scenario.noise_sigma, rng_noise, stop - first)
        contributions = _with_jam(parts, first, jam_from, jam_value)
        readings = measure_block(contributions, noise).values
        if watching:
            watched = np.concatenate((watched, readings))
            armed = next(_settled(watched, stop - len(watched), watch, epsilon, floor), None)
            watched = watched[len(watched) - watch + 1 :]
            if armed is not None:  # a detection on or before this tick ends the run unjammed
                watching, jam_from = False, armed[0] + 1
                contributions = _with_jam(parts, first, jam_from, jam_value)
                readings = measure_block(contributions, noise).values
        blocks.append(readings)
        if receiver_ramp is not None:
            window = np.concatenate((window, readings - parts[1]))
            hit = next(_settled(window, stop - len(window), hold, epsilon, floor), None)
            if hit is not None:
                detected_tick, estimate = hit
                break
            window = window[len(window) - hold + 1 :]
        if stop == budget:
            break
        first, stop = stop, min(budget, 2 * stop)

    last_tick = budget - 1 if detected_tick is None else detected_tick
    values = Readings(np.concatenate(blocks)[: last_tick + 1])
    adversary_recovered = None
    if receiver_ramp is None:  # the impersonator reads, on one block of the whole run
        own = parts[1]
        for tick, level in _settled(values.values - own, 0, hold, epsilon, floor):
            adversary_recovered, _ = _recover(scenario, level, float(own[tick]))
            if adversary_recovered is not None:
                break
    transcript = Transcript()
    if scenario.protocol is Protocol.DECOY_WAVE:
        transcript.announce(0, WAVE_PARAMS)
    if announce_tick <= last_tick:
        transcript.record_readings(0, values[:announce_tick])
        transcript.announce(announce_tick, IN_BUSINESS)
        transcript.record_readings(announce_tick, values[announce_tick:])
    else:
        announce_tick = None
        transcript.record_readings(0, values)
    if sender_ramp is not None and sender_ramp.start_tick > last_tick:
        sender_ramp = None
    recovered, status, detail = None, TIMEOUT, f"no stabilization detected within {budget} ticks"
    if detected_tick is not None:
        recovered, detail = _recover(scenario, estimate, float(receiver_key))
        status = OK if recovered is not None else OUT_OF_DOMAIN
    return DecoyOutcome(
        recovered=recovered,
        sender_secret=sender_secret,
        receiver_key=receiver_key,
        transcript=transcript,
        detected_tick=detected_tick,
        stable_estimate=estimate,
        announce_tick=announce_tick,
        sender_start_tick=sender_ramp.start_tick if sender_ramp else None,
        sender_stabilize_tick=sender_ramp.stabilize_tick if sender_ramp else None,
        receiver_stabilize_tick=receiver_ramp.stabilize_tick if receiver_ramp else None,
        status=status,
        detail=detail,
        jammed=jam_from <= last_tick,
        adversary_recovered=adversary_recovered,
    )


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
