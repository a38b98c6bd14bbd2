"""Physical comparison protocols: elevator, race track, communicating vessels.

Each comparator simulates the physical procedure, returns the ordering,
the single bit each party walks away with, and the list of values that
were physically observable outside the private spaces.  That observable
list is what the auditor later inspects for over-leakage; party-visible
fields never contain the other side's number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .errors import DomainError, VesselEmpty, VesselOverflow


class Ordering(Enum):
    A_LESS = "a_less"
    A_GREATER = "a_greater"
    EQUAL = "equal"


class PublicEvent(NamedTuple):
    """One physically observable event: when, what, and the visible value."""

    tick: int
    label: str
    value: object


@dataclass
class ComparisonOutcome:
    ordering: Ordering
    alice_knows: str
    bob_knows: str
    public_observables: list[PublicEvent] = field(default_factory=list)
    notes: tuple[str, ...] = ()

    def party_view(self) -> tuple:
        """Everything the parties themselves learn (excludes auditor data)."""
        return (self.ordering, self.alice_knows, self.bob_knows, self.notes)


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


# --- base-m reduction -------------------------------------------------------


def digits_base(x: int, m: int, width: int) -> list[int]:
    """Most-significant-first digits of x in base m, zero-padded to width."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        x, out[i] = divmod(x, m)
    if x:
        raise DomainError(f"value does not fit in {width} base-{m} digits")
    return out


SubComparator = Callable[[int, int], ComparisonOutcome]


def compare_digitwise(
    a: int, b: int, m: int, sub_comparator: SubComparator
) -> ComparisonOutcome:
    """Compare digit by digit, most significant first, via a physical sub-protocol.

    Digits are shifted by +1 before each sub-protocol call so they satisfy
    the positive-value preconditions (floors, speeds, pump rates).  Each
    round runs the sub-protocol in both argument orders: a one-sided
    protocol like the elevator only ever reports "not larger", and the
    swapped run is what separates a genuine tie (continue to the next
    digit) from a strict inequality (decide).  The invocation count is a
    public observable -- it gives away the length of the common digit
    prefix.
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
    return ComparisonOutcome(ordering, alice, bob, events, ())


# Ready-made sub-comparators for the base-m reduction.


def elevator_sub(m: int) -> SubComparator:
    return lambda x, y: compare_elevator(x, y, n_floors=m)


def race_sub(m: int) -> SubComparator:
    return lambda x, y: compare_race(x, y, n=2 * m)


def bitstring_sub(m: int) -> SubComparator:
    return lambda x, y: compare_race_bitstring(x, y, n=2 * m)


def vessels_sub(observation_ticks: int = 4) -> SubComparator:
    return lambda x, y: compare_vessels(x, y, observation_ticks=observation_ticks)
