"""The build-everything reference for the four comparators and the base-m reduction.

Each function here simulates its protocol the long way, as the
comparators did before they decided in closed form: each builds its whole
public record up front, the bit string sorts every write of both programs
(those after the decision tick included), and the vessels step the level
tick by tick, aborting on the first tick that runs dry or overflows.  The
closed-form comparators must give equal outcomes (ordering, knowledge,
notes and the same public list) and raise the same aborts with the same
messages.  The reduction here takes both numbers' zero-padded digit lists
up front and builds its record as it goes; the place-value reduction must
make the same sub-comparator calls and give equal outcomes and errors.

`audit_comparison` is the auditor as it stood when its findings were
frozen dataclasses and it searched the record with a generator: the
auditor must give the same findings, field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from decoysim.engine import Protocol
from decoysim.errors import DomainError, VesselEmpty, VesselOverflow
from decoysim.millionaires import (
    ComparisonOutcome,
    Ordering,
    PublicEvent,
    SubComparator,
)


def _knowledge(ordering: Ordering) -> tuple[str, str]:
    if ordering is Ordering.A_LESS:
        return "my number is smaller", "my number is larger"
    if ordering is Ordering.A_GREATER:
        return "my number is larger", "my number is smaller"
    return "the numbers are equal", "the numbers are equal"


def compare_elevator(a: int, b: int, n_floors: int) -> ComparisonOutcome:
    """One party rides the elevator down; the other watches her own floor.

    Bob boards at floor b (the car is his private space) and rides down
    with the doors opening at every floor strictly below b.  Alice watches
    floor a: if the doors ever open there, his number is larger.  Equal
    values are indistinguishable from a > b inside the protocol, so they
    are reported on the not-larger branch with a note.
    """
    if not (1 <= a <= n_floors and 1 <= b <= n_floors):
        raise DomainError(
            f"floors must lie in [1, {n_floors}], got a={a} b={b}"
        )
    observables = [
        PublicEvent(tick=step, label="doors_open", value=floor)
        for step, floor in enumerate(range(b - 1, 0, -1), start=1)
    ]
    if a < b:
        ordering = Ordering.A_LESS
        alice_knows = "my number is smaller"
        bob_knows = "my number is larger"
        notes: tuple[str, ...] = ("alice saw the doors open",)
    else:
        ordering = Ordering.A_GREATER
        alice_knows = "my number is not smaller"
        bob_knows = "my number is not larger"
        notes = ("alice never saw the doors open",)
        if a == b:
            notes += ("equal values are reported on the not-larger branch",)
    return ComparisonOutcome(
        ordering=ordering,
        alice_knows=alice_knows,
        bob_knows=bob_knows,
        public_observables=observables,
        notes=notes,
    )


def compare_race(a: int, b: int, n: int, dt: float = 1.0) -> ComparisonOutcome:
    """Run toward each other; first to the midpoint leaves a mark and turns back.

    Speeds are the private numbers, so the first arrival has the larger
    one.  The mark appearing at the midpoint is the public event; its tick
    pins down the faster speed for anyone timing it.
    """
    if a < 1 or b < 1:
        raise DomainError(f"speeds must be >= 1, got a={a} b={b}")
    if n < 2 or n % 2 != 0:
        raise DomainError(f"track length must be even and >= 2, got {n}")
    if not (dt > 0):
        raise DomainError(f"dt must be positive, got {dt}")
    half = n // 2
    time_a = half / a
    time_b = half / b
    mark_tick = math.ceil(min(time_a, time_b) / dt)
    observables = [PublicEvent(tick=mark_tick, label="mark", value=half)]
    if time_a < time_b:
        ordering = Ordering.A_GREATER
    elif time_a > time_b:
        ordering = Ordering.A_LESS
    else:
        ordering = Ordering.EQUAL
        observables.append(PublicEvent(tick=mark_tick, label="mark", value=half))
    alice, bob = _knowledge(ordering)
    notes = ("both parties arrived together",) if ordering is Ordering.EQUAL else ()
    return ComparisonOutcome(ordering, alice, bob, observables, notes)


def compare_race_bitstring(a: int, b: int, n: int) -> ComparisonOutcome:
    """The race as two programs zeroing a shared bit string from both ends.

    Alice rewrites one symbol per a ticks left to right, Bob one per b
    ticks right to left; whoever completes n/2 replacements writes an X
    and stops, and the program that stops first belongs to the *smaller*
    number.  The string's evolution is public.
    """
    if a < 1 or b < 1:
        raise DomainError(f"periods must be >= 1, got a={a} b={b}")
    if n < 2 or n % 2 != 0:
        raise DomainError(f"string length must be even and >= 2, got {n}")
    half = n // 2
    finish_a = a * half
    finish_b = b * half
    decision_tick = min(finish_a, finish_b)

    cells = ["1"] * n
    events: list[PublicEvent] = []
    writes = []
    for j in range(1, half + 1):
        symbol = "X" if j == half else "0"
        writes.append((a * j, j - 1, symbol))         # alice, left to right
        writes.append((b * j, n - j, symbol))         # bob, right to left
    for tick, position, symbol in sorted(writes):
        if tick > decision_tick:
            break  # everything freezes once the first program stops
        cells[position] = symbol
        events.append(PublicEvent(tick=tick, label="write", value=f"{position}:{symbol}"))
    events.append(
        PublicEvent(tick=decision_tick, label="final_string", value="".join(cells))
    )

    if finish_a < finish_b:
        ordering = Ordering.A_LESS
    elif finish_a > finish_b:
        ordering = Ordering.A_GREATER
    else:
        ordering = Ordering.EQUAL
    alice, bob = _knowledge(ordering)
    notes = (
        ("both programs stopped on the same tick; their X symbols meet at the center",)
        if ordering is Ordering.EQUAL
        else ()
    )
    return ComparisonOutcome(ordering, alice, bob, events, notes)


def compare_vessels(
    a: int,
    b: int,
    observation_ticks: int,
    initial_level: float = 10_000.0,
    capacity: float = 20_000.0,
) -> ComparisonOutcome:
    """Pump out at rate a, pump in at rate b, and watch the shared level.

    A falling level means a > b, a rising one a < b.  A perfectly flat
    level (not discussed by the physical story) is reported as Equal.  The
    run aborts if the system runs dry or overflows before the observation
    window ends.
    """
    if a < 1 or b < 1:
        raise DomainError(f"pump rates must be >= 1, got a={a} b={b}")
    if observation_ticks < 1:
        raise DomainError(f"observation_ticks must be >= 1, got {observation_ticks}")
    if not (0 < initial_level < capacity):
        raise DomainError("initial_level must lie strictly inside (0, capacity)")
    drift = float(b - a)
    levels = []
    for tick in range(observation_ticks + 1):
        level = initial_level + drift * tick
        if level <= 0.0:
            raise VesselEmpty(f"vessels ran dry at tick {tick}")
        if level >= capacity:
            raise VesselOverflow(f"vessels overflowed at tick {tick}")
        levels.append(level)
    observables = [
        PublicEvent(tick=tick, label="level", value=level)
        for tick, level in enumerate(levels)
    ]
    if levels[-1] < levels[0]:
        ordering = Ordering.A_GREATER
    elif levels[-1] > levels[0]:
        ordering = Ordering.A_LESS
    else:
        ordering = Ordering.EQUAL
    alice, bob = _knowledge(ordering)
    notes = (
        ("flat level: the physical story does not cover equal rates",)
        if ordering is Ordering.EQUAL
        else ()
    )
    return ComparisonOutcome(ordering, alice, bob, observables, notes)



def digits_base(x: int, m: int, width: int) -> list[int]:
    """Most-significant-first digits of x in base m, zero-padded to width."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        x, out[i] = divmod(x, m)
    if x:
        raise DomainError(f"value does not fit in {width} base-{m} digits")
    return out


def compare_digitwise(
    a: int, b: int, m: int, sub_comparator: SubComparator
) -> ComparisonOutcome:
    """Compare digit by digit, most significant first, via a physical sub-protocol.

    Both numbers are written out in as many base-m digits as the larger
    needs, each digit shifted by +1 into the sub-protocol's domain.  Each
    round runs the sub-protocol in both argument orders; a tie moves on to
    the next digit, a strict inequality decides.
    """
    if a < 0 or b < 0:
        raise DomainError(f"values must be >= 0, got a={a} b={b}")
    if m < 2:
        raise DomainError(f"base must be >= 2, got {m}")
    width = 1
    while m**width <= max(a, b):
        width += 1
    digits_a = digits_base(a, m, width)
    digits_b = digits_base(b, m, width)

    invocations = 0
    events: list[PublicEvent] = []
    ordering = Ordering.EQUAL
    for round_index, (da, db) in enumerate(zip(digits_a, digits_b)):
        forward = sub_comparator(da + 1, db + 1)
        backward = sub_comparator(db + 1, da + 1)
        invocations += 2
        if forward.ordering is Ordering.A_LESS:
            ordering = Ordering.A_LESS
        elif backward.ordering is Ordering.A_LESS:
            ordering = Ordering.A_GREATER
        elif (
            forward.ordering is Ordering.EQUAL
            and backward.ordering is Ordering.EQUAL
        ) or (
            forward.ordering is Ordering.A_GREATER
            and backward.ordering is Ordering.A_GREATER
        ):
            continue  # genuine tie on this digit
        else:
            raise DomainError(
                "sub-comparator returned inconsistent results "
                f"({forward.ordering} / {backward.ordering})"
            )
        events.append(
            PublicEvent(tick=round_index, label="deciding_round", value=round_index)
        )
        break
    events.append(
        PublicEvent(tick=invocations, label="subprotocol_invocations", value=invocations)
    )
    alice, bob = _knowledge(ordering)
    return ComparisonOutcome(ordering, alice, bob, events, (), invocations)


@dataclass(frozen=True)
class LeakageFinding:
    """One quantity the public record gives away beyond the comparison bit."""

    protocol: str
    quantity: str
    value: object
    description: str
    exceeds_comparison_bit: bool


def audit_comparison(
    outcome: ComparisonOutcome, protocol: Protocol | str, dt: float = 1.0
) -> list[LeakageFinding]:
    """Inspect a comparison's public observables for over-leakage."""
    tag = protocol.value if isinstance(protocol, Protocol) else str(protocol)
    findings: list[LeakageFinding] = []

    if tag == Protocol.VESSELS.value:
        levels = outcome.levels
        if len(levels) >= 2:
            slope = math.fsum(np.diff(levels)) / (len(levels) - 1)
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="b-a",
                    value=slope,
                    description=f"difference leaked: b-a = {slope:g} "
                    "(per-tick drift of the public level series)",
                    exceeds_comparison_bit=True,
                )
            )
        return findings
    observables = outcome.public_observables
    if tag == Protocol.ELEVATOR.value:
        doors = [event for event in observables if event.label == "doors_open"]
        findings.append(
            LeakageFinding(
                protocol=tag,
                quantity="b",
                value=len(doors) + 1,
                description=f"descending party's number leaked: b = {len(doors) + 1} "
                "(one door event per floor below the boarding floor)",
                exceeds_comparison_bit=True,
            )
        )
    elif tag == Protocol.RACE.value:
        marks = [event for event in observables if event.label == "mark"]
        if marks:
            mark_tick = marks[0].tick
            half = float(marks[0].value)
            upper: Optional[float]
            lower = half / (mark_tick * dt)
            upper = half / ((mark_tick - 1) * dt) if mark_tick > 1 else None
            lo_int = math.ceil(lower - 1e-12)
            hi_int = math.floor((upper - 1e-12)) if upper is not None else None
            exact = hi_int is not None and lo_int == hi_int
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="max(a,b)",
                    value=lo_int if exact else (lo_int, hi_int),
                    description=(
                        f"mark appeared at tick {mark_tick}: the faster speed is "
                        + (f"exactly {lo_int}" if exact else f"in [{lo_int}, {hi_int}]")
                    ),
                    exceeds_comparison_bit=True,
                )
            )
    elif tag == Protocol.RACE_BITSTRING.value:
        finals = [event for event in observables if event.label == "final_string"]
        if finals:
            text = finals[0].value
            left = len(text) - len(text.lstrip("0X"))
            right = len(text) - len(text.rstrip("0X"))
            half = len(text) // 2
            slower = min(left, right)
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="progress(a, b)",
                    value=(left, right),
                    description=(
                        f"string shows per-party progress {left}/{right} of {half}: "
                        "the slower-to-faster period ratio lies in "
                        f"[{half}/{slower + 1}, {half}/{max(slower, 1)}]"
                        if slower < half
                        else "both programs finished together"
                    ),
                    exceeds_comparison_bit=True,
                )
            )
    elif tag == "digitwise":
        count = next(
            (event for event in observables if event.label == "subprotocol_invocations"), None
        )
        if count is not None:
            invocations = int(count.value)
            rounds = invocations // 2
            findings.append(
                LeakageFinding(
                    tag,
                    "common_prefix_rounds",
                    rounds,
                    f"{invocations} sub-protocol invocations reveal that the "
                    f"numbers agree on the first {rounds - 1} digits"
                    if outcome.ordering is not Ordering.EQUAL
                    else f"{invocations} invocations: all digits compared equal",
                    invocations > 2,
                )
            )
    return findings
