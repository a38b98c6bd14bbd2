"""Physical comparison protocols: elevator, race track, communicating vessels.

Each comparator simulates the physical procedure, returns the ordering,
the single bit each party walks away with, and the list of values that
were physically observable outside the private spaces.  That observable
list is what the auditor later inspects for over-leakage; party-visible
fields never contain the other side's number.

The comparators decide first and publish on demand: the ordering, the
parties' knowledge, the notes and the tick of the last public event are
computed in closed form, and the public record is built on its first
read.  The base-m reduction reads only orderings, and a run that needs
more ticks than its budget is refused before anything is built.
"""

from __future__ import annotations

import bisect
import math
import operator
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

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


Observables = Union[list[PublicEvent], Callable[[], list[PublicEvent]]]


class ComparisonOutcome:
    """A comparison's result: ordering, each party's knowledge, notes and public record.

    `public_observables` may be given as the list itself or as a
    zero-argument callable that builds it on the first read (the list is
    then kept, so every read returns the same object).  `last_tick` is
    the tick of the last public event, 0 when there is none; a caller
    that passes a builder passes it too, so the budget can be checked
    without building anything.  A comparator that publishes one level a
    tick from tick 0, and nothing else, passes `levels` instead: a
    zero-argument callable that gives them as an array, from which the
    "level" events are built on their first read.
    """

    __slots__ = (
        "ordering", "alice_knows", "bob_knows", "notes", "last_tick", "_observables", "_levels"
    )

    def __init__(
        self,
        ordering: Ordering,
        alice_knows: str,
        bob_knows: str,
        public_observables: Optional[Observables] = None,
        notes: tuple[str, ...] = (),
        last_tick: Optional[int] = None,
        levels: Optional[Callable[[], np.ndarray]] = None,
    ) -> None:
        self.ordering = ordering
        self.alice_knows = alice_knows
        self.bob_knows = bob_knows
        self.notes = notes
        self._observables = public_observables
        self._levels = levels
        if last_tick is None:
            last_tick = max((event.tick for event in self.public_observables), default=0)
        self.last_tick = last_tick

    @property
    def public_observables(self) -> list[PublicEvent]:
        if self._observables is None:
            levels = [] if self._levels is None else self._levels().tolist()
            self._observables = [
                PublicEvent(tick, "level", level) for tick, level in enumerate(levels)
            ]
        elif callable(self._observables):
            self._observables = self._observables()
        return self._observables

    @property
    def levels(self) -> np.ndarray:
        """The values of the "level" events, in order, as a float64 array."""
        if self._levels is not None:
            return self._levels()
        events = self.public_observables
        return np.array([event.value for event in events if event.label == "level"], np.float64)

    def party_view(self) -> tuple:
        """Everything the parties themselves learn (excludes auditor data)."""
        return (self.ordering, self.alice_knows, self.bob_knows, self.notes)

    def _fields(self) -> tuple:
        return (self.ordering, self.alice_knows, self.bob_knows, self.public_observables, self.notes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            "ComparisonOutcome(ordering={!r}, alice_knows={!r}, bob_knows={!r}, "
            "public_observables={!r}, notes={!r})".format(*self._fields())
        )


# The members, read once: on Python 3.11 every `Ordering.X` lookup runs Python code.
_A_LESS, _A_GREATER, _EQUAL = Ordering.A_LESS, Ordering.A_GREATER, Ordering.EQUAL
# Each ordering with what the parties of a symmetric comparison know of it.
_LESS = (_A_LESS, "my number is smaller", "my number is larger")
_GREATER = (_A_GREATER, "my number is larger", "my number is smaller")
_TIE = (_EQUAL, "the numbers are equal", "the numbers are equal")


def _verdict(x, y) -> tuple[Ordering, str, str]:
    """(ordering, alice_knows, bob_knows): A_LESS if x < y, A_GREATER if x > y, else EQUAL."""
    if x < y:
        return _LESS
    if x > y:
        return _GREATER
    return _TIE


def compare_elevator(a: int, b: int, n_floors: int) -> ComparisonOutcome:
    """One party rides the elevator down; the other watches her own floor.

    Bob boards at floor b (the car is his private space) and rides down
    with the doors opening at every floor strictly below b.  Alice watches
    floor a: if the doors ever open there, his number is larger.  Equal
    values are indistinguishable from a > b inside the protocol, so they
    are reported on the not-larger branch with a note.  The doors open
    at floor b - t on tick t, so the last door event is on tick b - 1.
    The floors are taken as Python ints (a numpy integer as its value).
    """
    try:
        a, b = operator.index(a), operator.index(b)
    except TypeError:
        raise DomainError(f"floors must be integers, got a={a!r} b={b!r}") from None
    if not (1 <= a <= n_floors and 1 <= b <= n_floors):
        raise DomainError(
            f"floors must lie in [1, {n_floors}], got a={a} b={b}"
        )
    if a < b:
        ordering = _A_LESS
        alice_knows = "my number is smaller"
        bob_knows = "my number is larger"
        notes: tuple[str, ...] = ("alice saw the doors open",)
    else:
        ordering = _A_GREATER
        alice_knows = "my number is not smaller"
        bob_knows = "my number is not larger"
        notes = ("alice never saw the doors open",)
        if a == b:
            notes += ("equal values are reported on the not-larger branch",)
    return ComparisonOutcome(
        ordering, alice_knows, bob_knows, partial(_door_events, b), notes, b - 1
    )


def _door_events(b: int) -> list[PublicEvent]:
    return [PublicEvent(tick=step, label="doors_open", value=b - step) for step in range(1, b)]


def compare_race(a: int, b: int, n: int, dt: float = 1.0) -> ComparisonOutcome:
    """Run toward each other; first to the midpoint leaves a mark and turns back.

    Speeds are the private numbers, so the first arrival has the larger
    one.  The mark appearing at the midpoint is the public event; its tick
    pins down the faster speed for anyone timing it.  The track length
    is taken as a Python int (a numpy integer as its value).
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"track length must be an integer, got {n!r}") from None
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
    ordering, alice, bob = _verdict(time_b, time_a)  # the larger speed arrives first
    notes = ("both parties arrived together",) if ordering is _EQUAL else ()
    marks = 2 if ordering is _EQUAL else 1  # both runners leave one
    return ComparisonOutcome(
        ordering, alice, bob, partial(_marks, mark_tick, half, marks), notes, mark_tick
    )


def _marks(tick: int, half: int, count: int) -> list[PublicEvent]:
    return [PublicEvent(tick=tick, label="mark", value=half)] * count


def compare_race_bitstring(a: int, b: int, n: int) -> ComparisonOutcome:
    """The race as two programs zeroing a shared bit string from both ends.

    Alice rewrites one symbol per a ticks left to right, Bob one per b
    ticks right to left; whoever completes n/2 replacements writes an X
    and stops, and the program that stops first belongs to the *smaller*
    number.  The string's evolution is public, and it freezes on the
    decision tick min(a, b) * n/2.  The periods and the length are taken
    as Python ints (a numpy integer as its value).
    """
    try:
        a, b, n = operator.index(a), operator.index(b), operator.index(n)
    except TypeError:
        message = f"periods must be integers, as must the length, got a={a!r} b={b!r} n={n!r}"
        raise DomainError(message) from None
    if a < 1 or b < 1:
        raise DomainError(f"periods must be >= 1, got a={a} b={b}")
    if n < 2 or n % 2 != 0:
        raise DomainError(f"string length must be even and >= 2, got {n}")
    ordering, alice, bob = _verdict(a, b)
    notes = (
        ("both programs stopped on the same tick; their X symbols meet at the center",)
        if ordering is _EQUAL
        else ()
    )
    decision_tick = min(a, b) * (n // 2)
    return ComparisonOutcome(
        ordering, alice, bob, partial(_bitstring_events, a, b, n), notes, decision_tick
    )


def _bitstring_events(a: int, b: int, n: int) -> list[PublicEvent]:
    """Every write up to the decision tick, in tick order, then the frozen string.

    Alice's j-th write lands on cell j - 1 at tick a*j, Bob's on cell
    n - j at tick b*j; the n/2-th is an X, the others a 0.  Their cells
    never meet, and on a shared tick Alice's write (the lower cell) comes
    first.
    """
    half = n // 2
    decision_tick = min(a, b) * half
    done_a = min(half, decision_tick // a)
    done_b = min(half, decision_tick // b)

    def symbol(j: int) -> str:
        return "X" if j == half else "0"

    events = [PublicEvent(a * j, "write", f"{j - 1}:{symbol(j)}") for j in range(1, done_a + 1)]
    events += [PublicEvent(b * j, "write", f"{n - j}:{symbol(j)}") for j in range(1, done_b + 1)]
    events.sort(key=attrgetter("tick"))  # stable: Alice first on a shared tick
    left = "0" * done_a if done_a < half else "0" * (half - 1) + "X"
    right = "0" * done_b if done_b < half else "X" + "0" * (half - 1)
    final = left + "1" * (n - done_a - done_b) + right
    events.append(PublicEvent(tick=decision_tick, label="final_string", value=final))
    return events


# The vessels' level before either pump runs, unless a caller sets another.
VESSEL_INITIAL_LEVEL = 10_000.0


def compare_vessels(
    a: int,
    b: int,
    observation_ticks: int,
    initial_level: float = VESSEL_INITIAL_LEVEL,
    capacity: float = 20_000.0,
) -> ComparisonOutcome:
    """Pump out at rate a, pump in at rate b, and watch the shared level.

    A falling level means a > b, a rising one a < b.  A perfectly flat
    level (not discussed by the physical story) is reported as Equal.  The
    run aborts if the system runs dry or overflows before the observation
    window ends.  The level on tick t is initial_level + (b - a) * t, one
    public level per tick from tick 0 to observation_ticks.
    """
    if a < 1 or b < 1:
        raise DomainError(f"pump rates must be >= 1, got a={a} b={b}")
    if observation_ticks < 1:
        raise DomainError(f"observation_ticks must be >= 1, got {observation_ticks}")
    if not (0 < initial_level < capacity):
        raise DomainError("initial_level must lie strictly inside (0, capacity)")
    drift = _drift(a, b)
    final_level = initial_level + drift * observation_ticks
    if final_level <= 0.0 or final_level >= capacity:

        def outside(tick: int) -> bool:
            level = initial_level + drift * tick
            return level <= 0.0 or level >= capacity

        # The rounded level is monotone in the tick and starts inside, so
        # the first tick outside is a bisection away.
        tick = bisect.bisect_left(range(observation_ticks + 1), True, key=outside)
        if initial_level + drift * tick <= 0.0:
            raise VesselEmpty(f"vessels ran dry at tick {tick}")
        raise VesselOverflow(f"vessels overflowed at tick {tick}")
    ordering, alice, bob = _verdict(initial_level, final_level)  # a rising level means a < b
    notes = (
        ("flat level: the physical story does not cover equal rates",)
        if ordering is _EQUAL
        else ()
    )
    levels = partial(vessel_levels, a, b, observation_ticks, initial_level)
    return ComparisonOutcome(ordering, alice, bob, None, notes, observation_ticks, levels)


def vessel_levels(
    a: int, b: int, observation_ticks: int, initial_level: float = VESSEL_INITIAL_LEVEL
) -> np.ndarray:
    """The public level on each tick from 0 to observation_ticks, as compare_vessels publishes.

    initial_level + (b - a) * tick, the float operations of compare_vessels' own checks.
    """
    return initial_level + _drift(a, b) * np.arange(observation_ticks + 1, dtype=np.float64)


def _drift(a: int, b: int) -> float:
    """The level's change per tick: b - a as ints, exactly (a numpy unsigned b - a wraps)."""
    try:
        return float(operator.index(b) - operator.index(a))
    except TypeError:
        raise DomainError(f"pump rates must be integers, got a={a!r} b={b!r}") from None


# --- base-m reduction -------------------------------------------------------


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
    prefix.  The digits are read by place value, from the largest power
    of m that the larger number reaches (1 when both are below m).  The
    numbers and the base are taken as Python ints (a numpy integer as its
    value); anything else is a DomainError.
    """
    try:
        a, b, m = operator.index(a), operator.index(b), operator.index(m)
    except TypeError:
        raise DomainError(f"values and base must be integers, got {a!r}, {b!r}, {m!r}") from None
    if a < 0 or b < 0:
        raise DomainError(f"values must be >= 0, got a={a} b={b}")
    if m < 2:
        raise DomainError(f"base must be >= 2, got {m}")
    top = max(a, b)
    place = 1
    while place * m <= top:
        place *= m
    invocations = 0
    verdict = _TIE
    while place:
        da = a // place % m + 1
        db = b // place % m + 1
        forward = sub_comparator(da, db).ordering
        backward = sub_comparator(db, da).ordering
        invocations += 2
        if forward is _A_LESS:
            verdict = _LESS
            break
        if backward is _A_LESS:
            verdict = _GREATER
            break
        if forward is not backward or not (forward is _EQUAL or forward is _A_GREATER):
            raise DomainError(
                f"sub-comparator returned inconsistent results ({forward} / {backward})"
            )
        place //= m  # genuine tie on this digit
    events = partial(_digitwise_events, invocations, verdict is not _TIE)
    return ComparisonOutcome(*verdict, events, (), invocations)


def _digitwise_events(invocations: int, decided: bool) -> list[PublicEvent]:
    """The deciding round, when a digit decided, then the invocation count.

    Each event is built by tuple.__new__, which skips PublicEvent's Python-level __new__.
    """
    count = tuple.__new__(PublicEvent, (invocations, "subprotocol_invocations", invocations))
    if not decided:
        return [count]
    round_index = invocations // 2 - 1
    return [tuple.__new__(PublicEvent, (round_index, "deciding_round", round_index)), count]


# Ready-made sub-comparators for the base-m reduction.  Each looks its
# comparator up in this module on every call, so a wrapper installed on the
# module after the sub-comparator was made (a tracer's, say) sees the calls.


def elevator_sub(m: int) -> SubComparator:
    return lambda x, y: compare_elevator(x, y, n_floors=m)


def race_sub(m: int) -> SubComparator:
    return lambda x, y: compare_race(x, y, n=2 * m)


def bitstring_sub(m: int) -> SubComparator:
    return lambda x, y: compare_race_bitstring(x, y, n=2 * m)


def vessels_sub(observation_ticks: int = 4) -> SubComparator:
    return lambda x, y: compare_vessels(x, y, observation_ticks=observation_ticks)
