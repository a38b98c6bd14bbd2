"""The tick-by-tick reference for every decoy run.

`transmission` takes the arguments of `decoy.simulate_transmission` and
steps the run one tick at a time: the parties set their contributions on
a `ChannelState`, the adversary's hooks (`_JammerActor`,
`_ImpersonatorActor`) run around each public measurement, the sender
reads announcements off the transcript, and the receiver tests his window
after every reading.  The closed form must give the same outcome and the
same transcript.  `attack` is what `attack_jam` or `attack_impersonate`
gives with the same options: it steps the run through `transmission` and
reads the attack flags off that run with a rule of its own, so the
kernel's flags are checked against a reference that does not share them.
"""

from __future__ import annotations

from typing import Optional

from decoysim.adversary import JAM_VALUE, AttackOutcome, _ImpersonatorActor, _JammerActor
from decoysim.channel import ChannelState
from decoysim.decoy import (
    IN_BUSINESS,
    WAVE_PARAMS,
    DecoyOutcome,
    detect_stabilization,
    generate_ramp,
    recover_secret,
)
from decoysim.engine import (
    OK,
    OUT_OF_DOMAIN,
    RECEIVER,
    SENDER,
    STREAM_ADVERSARY,
    STREAM_NOISE,
    STREAM_RECEIVER,
    STREAM_SENDER,
    TIMEOUT,
    AdversaryKind,
    Protocol,
    RampModel,
    Scenario,
    Transcript,
)
from decoysim.errors import OutOfDomain


class IdleActor:
    """A passive or absent adversary: hooks that do nothing."""

    def on_tick(self, tick, channel, transcript):
        pass

    def on_reading(self, tick, reading):
        pass


def _first_announcement(transcript: Transcript) -> Optional[int]:
    ticks = [tick for tick, tag in transcript.announcements() if tag == IN_BUSINESS]
    return min(ticks, default=None)


def transmission(
    scenario: Scenario, jam_value: Optional[float] = None, forger_key: Optional[float] = None
) -> DecoyOutcome:
    scenario.validate()
    rng_sender = scenario.stream(STREAM_SENDER)
    rng_noise = scenario.stream(STREAM_NOISE)
    rng_receiver = scenario.stream(STREAM_RECEIVER)
    transcript = Transcript()
    if scenario.protocol is Protocol.DECOY_WAVE:
        transcript.announce(0, WAVE_PARAMS)
    sender_secret = scenario.secret_of(SENDER)
    receiver_start = rng_receiver.integers(1, scenario.receiver_start_max)
    receiver_key = receiver_ramp = None
    if scenario.adversary is not AdversaryKind.IMPERSONATOR:
        receiver_key = scenario.secret_of(RECEIVER)
        model = scenario.ramp_model
        if model is RampModel.DETERMINISTIC_RATE:
            model = RampModel.SYNCHRONOUS
        receiver_ramp = generate_ramp(
            rng_receiver, float(receiver_key), receiver_start, scenario.max_ramp_ticks, model
        )
    if jam_value is not None:
        actor = _JammerActor(jam_value, scenario)
    elif scenario.adversary is AdversaryKind.IMPERSONATOR:
        # A forger draws its tick from its own stream, then a random ramp to a key > 0.
        forged_tick = forger_ramp = None
        if forger_key is not None:
            rng_adversary = scenario.stream(STREAM_ADVERSARY)
            forged_tick = rng_adversary.integers(1, scenario.receiver_start_max)
            if forger_key > 0.0:
                forger_ramp = generate_ramp(
                    rng_adversary, forger_key, forged_tick, scenario.max_ramp_ticks
                )
        actor = _ImpersonatorActor(scenario, forged_tick, forger_ramp)
    else:
        actor = IdleActor()

    channel = ChannelState(scenario.noise_sigma)
    sender_ramp = None
    synchronized = scenario.ramp_model is RampModel.SYNCHRONOUS
    announce_seen_tick = None
    window: list[float] = []
    detected_tick = estimate = None

    def sender_may_start(tick: int) -> bool:
        if synchronized:
            return tick >= receiver_start
        if not scenario.defense_enabled:
            return True
        return announce_seen_tick is not None and tick > announce_seen_tick

    for tick in range(scenario.max_ticks):
        # 1. sender
        if sender_ramp is None and sender_may_start(tick):
            sender_ramp = generate_ramp(
                rng_sender,
                float(sender_secret),
                receiver_start if synchronized else tick,
                scenario.max_ramp_ticks,
                scenario.ramp_model,
                ticks_per_unit=max(1, scenario.max_ramp_ticks // scenario.n2),
            )
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
        reading = channel.measure(rng_noise)
        transcript.record_measurement(tick, reading)
        actor.on_reading(tick, float(reading))
        if announce_seen_tick is None:
            announce_seen_tick = _first_announcement(transcript)

        # 5. receiver-side detection
        if receiver_ramp is not None:
            window.append(float(reading) - receiver_value)
            level = detect_stabilization(window, scenario.epsilon_stab, scenario.hold_ticks)
            if level is not None and level >= scenario.n1 - 0.5:
                detected_tick, estimate = tick, level
                break

    status, detail, recovered = OK, "", None
    if detected_tick is None:
        status = TIMEOUT
        detail = f"no stabilization detected within {scenario.max_ticks} ticks"
    else:
        key = float(receiver_key)
        try:
            recovered = recover_secret(
                estimate + key, key, scenario.secret_domain, scenario.noise_sigma
            )
        except OutOfDomain as exc:
            status, detail = OUT_OF_DOMAIN, str(exc)
    return DecoyOutcome(
        recovered=recovered,
        sender_secret=sender_secret,
        receiver_key=receiver_key,
        transcript=transcript,
        detected_tick=detected_tick,
        stable_estimate=estimate,
        announce_tick=announce_seen_tick,
        sender_start_tick=sender_ramp.start_tick if sender_ramp else None,
        sender_stabilize_tick=sender_ramp.stabilize_tick if sender_ramp else None,
        receiver_stabilize_tick=receiver_ramp.stabilize_tick if receiver_ramp else None,
        status=status,
        detail=detail,
        jammed=getattr(actor, "jammed", False),
        adversary_recovered=getattr(actor, "recovered", None),
    )


def attack(
    scenario: Scenario,
    jam_value: float = JAM_VALUE,
    forge_announcement: bool = False,
    adversary_key: float = 4.0,
) -> AttackOutcome:
    """The scenario's attack, with the options and defaults of its entry point, by the tick loop.

    The receiver is disrupted when he does not end the run holding the
    sender's secret, but a jammer disrupts him only if a force other than
    zero reached the medium; the run timed out when he detected nothing;
    the adversary learned the secret when what it read is the secret.
    """
    jam = scenario.adversary is AdversaryKind.JAMMER
    if jam:
        run = transmission(scenario, jam_value=float(jam_value))
    else:
        run = transmission(scenario, forger_key=float(adversary_key) if forge_announcement else None)
    disrupted = not run.success
    if jam:
        disrupted = disrupted and run.jammed and jam_value != 0.0
    errors = {OUT_OF_DOMAIN: "out_of_domain", TIMEOUT: "protocol_timeout"}
    return AttackOutcome(
        kind="jam" if jam else "impersonate",
        transcript=run.transcript,
        disrupted=disrupted,
        adversary_learned=run.adversary_recovered == run.sender_secret,
        adversary_recovered=run.adversary_recovered,
        receiver_recovered=run.recovered,
        receiver_error=errors.get(run.status),
        timeout=run.detected_tick is None,
        forged_announce_tick=None if jam else run.announce_tick,
    )
