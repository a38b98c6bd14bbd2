"""Comparison protocols against the integer oracle, plus leakage audits."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoysim import (
    DomainError,
    Ordering,
    Protocol,
    VesselEmpty,
    VesselOverflow,
    audit_comparison,
    compare_digitwise,
    compare_elevator,
    compare_race,
    compare_race_bitstring,
    compare_vessels,
)
from decoysim import millionaires
from decoysim.adversary import LeakageFinding
from decoysim.engine import TIMEOUT
from decoysim.millionaires import (
    ComparisonOutcome,
    PublicEvent,
    bitstring_sub,
    elevator_sub,
    race_sub,
    vessel_levels,
    vessels_sub,
)
from decoysim.runner import run_scenario

import comparator_oracle as oracle
from conftest import vessels_scenario


def sign_oracle(a: int, b: int) -> Ordering:
    if a < b:
        return Ordering.A_LESS
    if a > b:
        return Ordering.A_GREATER
    return Ordering.EQUAL


def elevator_oracle(a: int, b: int) -> Ordering:
    # documented tie convention: equality collapses onto the a >= b branch
    return Ordering.A_LESS if a < b else Ordering.A_GREATER


INTEGER_DTYPES = (
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64
)


@st.composite
def numpy_integers(draw, low: int, count: int, high: float = math.inf):
    """`count` values of one numpy integer dtype, each in [low, min(high, the dtype's max)]."""
    dtype = draw(st.sampled_from(INTEGER_DTYPES))
    high = min(high, int(np.iinfo(dtype).max))
    return [dtype(draw(st.integers(low, high))) for _ in range(count)]


def assert_numpy_integers_compare_as_python_ints(comparator, *args):
    """The comparator gives numpy integer arguments the Python ints' outcome, raising no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a wrapped numpy product warns
        found = _outcome_or_abort(comparator, *args)
    as_ints = [int(arg) if isinstance(arg, np.integer) else arg for arg in args]
    expected = _outcome_or_abort(comparator, *as_ints)
    # The repr shows each event's tick and value with its type.
    assert (found, repr(found)) == (expected, repr(expected))
    if isinstance(expected, ComparisonOutcome):
        assert type(found.last_tick) is int
        assert found.last_tick == expected.last_tick


class TestElevator:
    def test_smaller_a_sees_doors(self):
        outcome = compare_elevator(3, 7, n_floors=10)
        assert outcome.ordering is Ordering.A_LESS

    def test_larger_a_never_sees_doors(self):
        outcome = compare_elevator(7, 3, n_floors=10)
        assert outcome.ordering is Ordering.A_GREATER

    def test_tie_collapses_with_annotation(self):
        outcome = compare_elevator(5, 5, n_floors=10)
        assert outcome.ordering is Ordering.A_GREATER
        assert any("not-larger branch" in note for note in outcome.notes)

    def test_door_events_are_every_floor_below_b(self):
        outcome = compare_elevator(2, 6, n_floors=10)
        floors = [event.value for event in outcome.public_observables]
        assert floors == [5, 4, 3, 2, 1]

    def test_out_of_range_floors(self):
        with pytest.raises(DomainError):
            compare_elevator(0, 3, n_floors=10)
        with pytest.raises(DomainError):
            compare_elevator(3, 11, n_floors=10)
        with pytest.raises(DomainError, match="floors must be integers"):
            compare_elevator(2.5, 3, n_floors=10)

    def test_exhaustive_grid_matches_oracle(self):
        for a in range(1, 21):
            for b in range(1, 21):
                outcome = compare_elevator(a, b, n_floors=20)
                assert outcome.ordering is elevator_oracle(a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(numpy_integers(1, 2, high=24), st.integers(1, 20))
    @example([np.uint8(3), np.uint8(5)], 10)  # once published its door values as np.uint8
    def test_numpy_floors_give_the_python_ints_outcome(self, floors, n_floors):
        assert_numpy_integers_compare_as_python_ints(compare_elevator, *floors, n_floors)


class TestRace:
    def test_faster_is_greater(self):
        assert compare_race(4, 2, 100).ordering is Ordering.A_GREATER

    def test_equal_speeds_tie(self):
        assert compare_race(5, 5, 100).ordering is Ordering.EQUAL

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            compare_race(0, 1, 10)
        with pytest.raises(DomainError):
            compare_race(1, 1, 9)  # odd track

    def test_random_pairs_match_oracle(self):
        rng = random.Random(5)
        for _ in range(10_000):
            a, b = rng.randint(1, 500), rng.randint(1, 500)
            assert compare_race(a, b, 1000).ordering is sign_oracle(a, b)

    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
    def test_mark_tick_formula(self, dt):
        # the mark's timing pins down the larger speed
        rng = random.Random(9)
        for _ in range(300):
            a, b = rng.randint(1, 60), rng.randint(1, 60)
            n = 120
            outcome = compare_race(a, b, n, dt=dt)
            mark = [e for e in outcome.public_observables if e.label == "mark"][0]
            assert mark.tick == math.ceil((n / 2) / max(a, b) / dt)

    @settings(max_examples=200, deadline=None)
    @given(numpy_integers(1, 2, high=60), numpy_integers(0, 1, high=400))
    @example([np.uint8(3), np.uint8(5)], [np.uint8(200)])  # once published value=np.uint8(100)
    def test_numpy_speeds_and_length_give_the_python_ints_outcome(self, speeds, length):
        assert_numpy_integers_compare_as_python_ints(compare_race, *speeds, *length)

    def test_non_integer_length_is_refused(self):
        with pytest.raises(DomainError, match="track length must be an integer"):
            compare_race(3, 5, 10.0)


class TestRaceBitstring:
    def test_example_two_versus_three(self):
        outcome = compare_race_bitstring(2, 3, 10)
        assert outcome.ordering is Ordering.A_LESS  # alice stops first -> smaller
        final = [e for e in outcome.public_observables if e.label == "final_string"][0]
        assert final.value == "0000X11000"
        assert final.tick == 10  # 5 symbols x 2 ticks each

    def test_tie_places_two_x_at_the_center(self):
        outcome = compare_race_bitstring(2, 2, 6)
        assert outcome.ordering is Ordering.EQUAL
        final = [e for e in outcome.public_observables if e.label == "final_string"][0]
        assert final.value == "00XX00"

    def test_inversion_against_plain_race(self):
        # bigger number means slower writes: the orderings invert
        assert compare_race_bitstring(4, 2, 12).ordering is Ordering.A_GREATER
        assert compare_race(4, 2, 12).ordering is Ordering.A_GREATER

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            compare_race_bitstring(1, 1, 7)
        with pytest.raises(DomainError):
            compare_race_bitstring(0, 1, 8)
        with pytest.raises(DomainError, match="periods must be integers"):
            compare_race_bitstring(2, 3.0, 10)
        with pytest.raises(DomainError, match="as must the length, got a=2 b=3 n=10.0"):
            compare_race_bitstring(2, 3, 10.0)

    def test_exhaustive_small_grid(self):
        for a in range(1, 13):
            for b in range(1, 13):
                assert compare_race_bitstring(a, b, 24).ordering is sign_oracle(a, b)

    @settings(max_examples=200, deadline=None)
    @given(numpy_integers(1, 2), numpy_integers(0, 1, high=400))
    @example([np.uint8(200), np.uint8(201)], [4])  # min(a, b) * n/2 once wrapped to tick 144
    @example([np.uint8(3), np.uint8(5)], [np.uint8(200)])  # and (n // 2) * 3 in uint8
    def test_numpy_periods_give_the_python_ints_outcome(self, periods, length):
        assert_numpy_integers_compare_as_python_ints(compare_race_bitstring, *periods, *length)


class TestVessels:
    def test_outflow_dominates(self):
        assert compare_vessels(5, 3, 10).ordering is Ordering.A_GREATER

    def test_equal_rates_flat_with_note(self):
        outcome = compare_vessels(4, 4, 10)
        assert outcome.ordering is Ordering.EQUAL
        assert any("flat level" in note for note in outcome.notes)

    def test_empty_and_overflow_aborts(self):
        with pytest.raises(VesselEmpty):
            compare_vessels(7, 1, 5, initial_level=5.0, capacity=100.0)
        with pytest.raises(VesselOverflow):
            compare_vessels(1, 7, 5, initial_level=95.0, capacity=100.0)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            compare_vessels(0, 1, 5)
        with pytest.raises(DomainError):
            compare_vessels(1, 1, 0)

    @settings(max_examples=200, deadline=None)
    @given(numpy_integers(1, 2), st.integers(1, 12))
    def test_numpy_rates_give_the_python_ints_outcome_and_levels(self, rates, ticks):
        # The drift is the exact integer difference, so an unsigned b - a
        # cannot wrap into an overflow.
        a, b = rates
        as_int = int(a), int(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrapped numpy difference warns
            for initial in (10_000.0, 1.0):
                found = _outcome_or_abort(compare_vessels, a, b, ticks, initial)
                expected = _outcome_or_abort(compare_vessels, *as_int, ticks, initial)
                assert (found, repr(found)) == (expected, repr(expected))
                levels = vessel_levels(a, b, ticks, initial)
                assert levels.dtype == np.float64
                assert levels.tolist() == vessel_levels(*as_int, ticks, initial).tolist()

    def test_unsigned_rates_do_not_wrap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = compare_vessels(np.uint64(5), np.uint64(3), 4)
            assert outcome.ordering is Ordering.A_GREATER
            assert outcome.levels.tolist() == [10_000.0, 9_998.0, 9_996.0, 9_994.0, 9_992.0]
            assert compare_digitwise(
                np.uint64(3), np.uint64(5), 10, vessels_sub()
            ).ordering is Ordering.A_LESS

    def test_non_integer_rates_are_refused(self):
        with pytest.raises(DomainError, match="pump rates must be integers"):
            compare_vessels(2.5, 1, 4)
        with pytest.raises(DomainError, match="pump rates must be integers"):
            vessel_levels(2, 1.5, 4)

    def test_level_series_is_linear_in_the_difference(self):
        outcome = compare_vessels(5, 3, 8)
        levels = [event.value for event in outcome.public_observables]
        assert len(levels) == 9
        diffs = {levels[i + 1] - levels[i] for i in range(8)}
        assert diffs == {-2.0}


class TestVesselsLeakage:
    def test_auditor_slope_equals_difference_exactly(self):
        for a, b in [(5, 3), (3, 5), (1, 50), (20, 19)]:
            outcome = compare_vessels(a, b, 10)
            findings = audit_comparison(outcome, Protocol.VESSELS)
            assert len(findings) == 1
            assert findings[0].quantity == "b-a"
            assert findings[0].value == float(b - a)
            assert findings[0].exceeds_comparison_bit

    def test_linear_fit_oracle_agrees(self):
        # independent oracle: least-squares slope of the emitted series
        outcome = compare_vessels(7, 2, 12)
        levels = [event.value for event in outcome.public_observables]
        slope = np.polyfit(np.arange(len(levels)), np.array(levels), 1)[0]
        assert abs(slope - (2 - 7)) < 1e-9
        finding = audit_comparison(outcome, Protocol.VESSELS)[0]
        assert abs(finding.value - slope) < 1e-9


class TestDigitwise:
    def test_worked_example(self):
        outcome = compare_digitwise(412, 409, 10, race_sub(10))
        assert outcome.ordering is Ordering.A_GREATER
        count = [
            e for e in outcome.public_observables
            if e.label == "subprotocol_invocations"
        ][0]
        assert count.value == 4  # two rounds, two invocations each

    def test_equal_numbers_compare_equal_after_all_rounds(self):
        outcome = compare_digitwise(777, 777, 10, vessels_sub())
        assert outcome.ordering is Ordering.EQUAL
        count = [
            e for e in outcome.public_observables
            if e.label == "subprotocol_invocations"
        ][0]
        assert count.value == 6

    def test_elevator_sub_handles_digit_ties(self):
        # the one-sided elevator needs the swapped invocation to detect ties
        assert compare_digitwise(409, 412, 10, elevator_sub(10)).ordering is Ordering.A_LESS
        assert compare_digitwise(412, 409, 10, elevator_sub(10)).ordering is Ordering.A_GREATER
        assert compare_digitwise(44, 44, 10, elevator_sub(10)).ordering is Ordering.EQUAL

    def test_zero_digits_are_shifted_into_range(self):
        assert compare_digitwise(0, 5, 10, elevator_sub(10)).ordering is Ordering.A_LESS
        assert compare_digitwise(100, 1, 10, race_sub(10)).ordering is Ordering.A_GREATER

    @pytest.mark.parametrize(
        "sub", [elevator_sub(7), race_sub(7), bitstring_sub(7), vessels_sub()]
    )
    def test_small_grid_each_sub_comparator(self, sub):
        for a in range(0, 50):
            for b in range(0, 50):
                assert compare_digitwise(a, b, 7, sub).ordering is sign_oracle(a, b), (a, b)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            compare_digitwise(-1, 2, 10, race_sub(10))
        with pytest.raises(DomainError):
            compare_digitwise(1, 2, 1, race_sub(10))

    def test_non_integers_are_refused(self):
        # A float once compared EQUAL through every sub-comparator.
        for args in [(5.5, 5.25, 10), (5, 6, 2.5), (np.float64(5.0), 6, 10), ("5", 6, 10)]:
            with pytest.raises(DomainError, match="values and base must be integers"):
                compare_digitwise(*args, elevator_sub(10))

    @settings(max_examples=200, deadline=None)
    @given(numpy_integers(0, 2), st.integers(2, 16))
    def test_numpy_integers_compare_as_their_values(self, numbers, m):
        # The sub-comparators get Python int digits, whatever type the numbers had.
        a, b = numbers
        for sub in (elevator_sub(m), race_sub(m), bitstring_sub(m), vessels_sub()):
            seen = []

            def logged(x, y, sub=sub):
                seen.append((type(x), type(y)))
                return sub(x, y)

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                found = _outcome_or_abort(compare_digitwise, a, b, np.int64(m), logged)
            expected = _outcome_or_abort(compare_digitwise, int(a), int(b), m, sub)
            assert (found, repr(found)) == (expected, repr(expected))
            assert set(seen) == {(int, int)}

    def test_sub_errors_propagate(self):
        def broken(x, y):
            raise DomainError("boom")

        with pytest.raises(DomainError, match="boom"):
            compare_digitwise(5, 6, 10, broken)

    def test_sub_comparators_call_through_the_module(self, monkeypatch):
        subs = [elevator_sub(10), race_sub(10), bitstring_sub(10), vessels_sub()]
        names = ["compare_elevator", "compare_race", "compare_race_bitstring", "compare_vessels"]
        seen = []
        for name in names:
            real = getattr(millionaires, name)

            def wrapper(*args, real=real, name=name, **kwargs):
                seen.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(millionaires, name, wrapper)
        for sub in subs:
            assert compare_digitwise(3, 3, 10, sub).ordering is Ordering.EQUAL
        assert seen == [name for name in names for _ in range(2)]

    def test_digits_base_padding(self):
        assert oracle.digits_base(7, 10, 3) == [0, 0, 7]
        with pytest.raises(DomainError):
            oracle.digits_base(1000, 10, 3)

    def test_place_values_match_the_digit_list_reference(self):
        # Same sub-comparator calls, same outcome or the same error, for every
        # sub-comparator and for one that breaks on a tied digit.
        rng = random.Random(24)

        def logged(sub, log):
            def compare(x, y):
                log.append((x, y))
                return sub(x, y)
            return compare

        calls = itertools.count()

        def inconsistent(x, y):
            # Every round makes two calls, so a tied digit's runs give EQUAL / A_GREATER.
            tie = (Ordering.EQUAL, Ordering.A_GREATER)[next(calls) % 2]
            return ComparisonOutcome(Ordering.A_LESS if x < y else tie, "x", "y", [])

        for m in (2, 3, 7, 10, 16):
            pairs = [(0, 0), (0, 1), (1, 0), (0, m**3), (m**2, m**2 - 1), (m - 1, m)]
            for _ in range(60):
                a = rng.randrange(m ** rng.randrange(6))
                b = a if rng.random() < 0.2 else rng.randrange(m ** rng.randrange(6))
                pairs.append((a, b))
            subs = [elevator_sub(m), race_sub(m), bitstring_sub(m), vessels_sub(), inconsistent]
            for sub in subs:
                for a, b in pairs:
                    results = []
                    for compare in (compare_digitwise, oracle.compare_digitwise):
                        log = []
                        try:
                            outcome = compare(a, b, m, logged(sub, log))
                        except DomainError as exc:
                            results.append((str(exc), log))
                        else:
                            results.append((outcome, repr(outcome), outcome.last_tick, log))
                    assert results[0] == results[1], (m, sub, a, b)


def test_ordering_invariant_full_100_grid():
    """Every comparator agrees with sign(a-b) over [1,100]^2, tie rules applied."""
    for a in range(1, 101):
        for b in range(1, 101):
            sign = sign_oracle(a, b)
            assert compare_elevator(a, b, n_floors=100).ordering is elevator_oracle(a, b)
            assert compare_race(a, b, 200).ordering is sign
            assert compare_race_bitstring(a, b, 200).ordering is sign
            assert compare_vessels(a, b, 5).ordering is sign


class TestSecrecyShape:
    """Party-visible outcome fields carry the ordering bit and nothing else."""

    @pytest.mark.parametrize(
        "comparator",
        [
            lambda a, b: compare_elevator(a, b, n_floors=10),
            lambda a, b: compare_race(a, b, 20),
            lambda a, b: compare_race_bitstring(a, b, 20),
            lambda a, b: compare_vessels(a, b, 10),
        ],
    )
    def test_same_ordering_means_same_party_view(self, comparator):
        first = comparator(3, 7)
        second = comparator(5, 7)
        assert first.party_view() == second.party_view()

    def test_knowledge_fields_never_contain_the_numbers(self):
        outcome = compare_race(17, 23, 60)
        assert "17" not in outcome.alice_knows + outcome.bob_knows
        assert "23" not in outcome.alice_knows + outcome.bob_knows


class TestAuditFindings:
    def test_elevator_leaks_b_exactly(self):
        outcome = compare_elevator(2, 6, n_floors=10)
        finding = audit_comparison(outcome, Protocol.ELEVATOR)[0]
        assert finding.quantity == "b"
        assert finding.value == 6

    def test_race_mark_tick_bounds_the_max(self):
        for a, b in [(3, 9), (9, 3), (7, 7), (1, 60)]:
            outcome = compare_race(a, b, 120)
            finding = audit_comparison(outcome, Protocol.RACE)[0]
            value = finding.value
            if isinstance(value, int):
                assert value == max(a, b)
            else:
                low, high = value
                assert low <= max(a, b)
                assert high is None or max(a, b) <= high

    def test_bitstring_progress_brackets_the_ratio(self):
        outcome = compare_race_bitstring(2, 5, 20)
        finding = audit_comparison(outcome, Protocol.RACE_BITSTRING)[0]
        left, right = finding.value
        assert left == 10  # alice finished
        # bob wrote floor(2*10/5) = 4 symbols before the freeze
        assert right == 4

    def test_digitwise_prefix_leak(self):
        outcome = compare_digitwise(412, 409, 10, race_sub(10))
        finding = audit_comparison(outcome, "digitwise")[0]
        assert finding.quantity == "common_prefix_rounds"
        assert finding.value == 2

    def test_findings_are_immutable_named_tuples(self):
        assert LeakageFinding._fields == (
            "protocol", "quantity", "value", "description", "exceeds_comparison_bit"
        )
        finding = audit_comparison(compare_elevator(2, 6, n_floors=10), Protocol.ELEVATOR)[0]
        assert finding == ("elevator", "b", 6, finding.description, True)
        with pytest.raises(AttributeError):
            finding.value = 7
        with pytest.raises(TypeError):
            finding[2] = 7

    def test_findings_match_the_reference_auditor_field_by_field(self):
        def audited(outcome, protocol, **kwargs):
            found = []
            for auditor in (audit_comparison, oracle.audit_comparison):
                for tag in (protocol, getattr(protocol, "value", protocol)):
                    found.append([
                        (f.protocol, f.quantity, type(f.value), repr(f.value), f.description,
                         f.exceeds_comparison_bit)
                        for f in auditor(outcome, tag, **kwargs)
                    ])
            return found

        cases = []
        pairs = list(itertools.product(range(1, 13), repeat=2))
        for a, b in pairs:
            cases.append((compare_elevator(a, b, n_floors=12), Protocol.ELEVATOR, {}))
            for dt in (1.0, 0.3):
                cases.append((compare_race(a, b, 24, dt=dt), Protocol.RACE, {"dt": dt}))
            cases.append((compare_race_bitstring(a, b, 24), Protocol.RACE_BITSTRING, {}))
            cases.append((compare_vessels(a, b, 10), Protocol.VESSELS, {}))
        rng = random.Random(29)
        for m in (2, 3, 7, 10, 16):
            for sub in (elevator_sub(m), race_sub(m), bitstring_sub(m), vessels_sub()):
                for _ in range(40):
                    a = rng.randrange(m ** rng.randrange(5))
                    b = a if rng.random() < 0.25 else rng.randrange(m ** rng.randrange(5))
                    cases.append((compare_digitwise(a, b, m, sub), "digitwise", {}))
        shapes = set()
        for outcome, protocol, kwargs in cases:
            found = audited(outcome, protocol, **kwargs)
            assert found[1:] == found[:1] * 3, (protocol, outcome)
            shapes.update((protocol, row[2], "equal" in row[4]) for row in found[0])
        # Both of the race's value shapes and both of the digitwise texts are reached.
        assert {(Protocol.RACE, int), (Protocol.RACE, tuple)} <= {shape[:2] for shape in shapes}
        assert {("digitwise", int, False), ("digitwise", int, True)} <= shapes


def _outcome_or_abort(comparator, *args, **kwargs):
    """The comparator's outcome, or the type and message of the error or vessel abort it raised."""
    try:
        return comparator(*args, **kwargs)
    except (DomainError, VesselEmpty, VesselOverflow) as exc:
        return type(exc), str(exc)


# comparator name -> (closed form, build-everything oracle, argument sets over a 1..m grid)
GRIDS = {
    "elevator": (
        compare_elevator, oracle.compare_elevator,
        [(a, b, m) for m in (1, 2, 7, 20) for a in range(1, m + 1) for b in range(1, m + 1)],
    ),
    "race": (
        compare_race, oracle.compare_race,
        [
            (a, b, n, dt)
            for n in (2, 14, 40) for dt in (1.0, 0.5, 0.1, 3.0)
            for a in range(1, 21) for b in range(1, 21)
        ],
    ),
    "race_bitstring": (
        compare_race_bitstring, oracle.compare_race_bitstring,
        [(a, b, n) for n in (2, 6, 24) for a in range(1, 13) for b in range(1, 13)],
    ),
    "vessels": (
        compare_vessels, oracle.compare_vessels,
        [
            (a, b, ticks, initial, capacity)
            for ticks in (1, 4, 10, 60)
            # the default tank, tanks that run dry or overflow within the
            # window, and levels too large for every tick to change them
            for initial, capacity in (
                (10_000.0, 20_000.0), (5.0, 100.0), (95.0, 100.0), (0.5, 30.7),
                (1e17, 1e17 + 200.0), (1e17 + 8.0, 2e17),
            )
            for a in range(1, 16) for b in range(1, 16)
        ],
    ),
}


class TestDecideFirstPublishOnDemand:
    """The closed-form comparators against the build-everything oracle."""

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_outcomes_and_public_lists_equal_the_oracle(self, name):
        comparator, reference, grid = GRIDS[name]
        for args in grid:
            expected = _outcome_or_abort(reference, *args)
            outcome = _outcome_or_abort(comparator, *args)
            assert outcome == expected, args  # aborts: same type, same message

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_closed_form_last_tick_is_the_last_public_event(self, name):
        comparator, _, grid = GRIDS[name]
        for args in grid:
            outcome = _outcome_or_abort(comparator, *args)
            if isinstance(outcome, ComparisonOutcome):
                ticks = [event.tick for event in outcome.public_observables]
                assert outcome.last_tick == max(ticks, default=0), args

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_public_events_come_in_tick_order(self, name):
        # The runner marks them into a transcript as they come.
        comparator, _, grid = GRIDS[name]
        for args in grid:
            outcome = _outcome_or_abort(comparator, *args)
            if isinstance(outcome, ComparisonOutcome):
                ticks = [event.tick for event in outcome.public_observables]
                assert ticks == sorted(ticks), args

    def test_vessel_aborts_match_the_tick_loop_on_slow_rounding_levels(self):
        # Near 1e20 a level moves in steps of 16384, so the first tick that
        # rounds to the capacity is decided by rounding, not by the slope.
        for a, b in [(1, 2), (1, 3), (4, 1), (2, 7)]:
            for capacity in (1e20 + 2.0**16, 1e20 + 3 * 2.0**15):
                args = (a, b, 40_000, 1e20, capacity)
                assert _outcome_or_abort(compare_vessels, *args) == _outcome_or_abort(
                    oracle.compare_vessels, *args
                ), args
        args = (7, 1, 30, 3.0, 100.0)
        assert _outcome_or_abort(compare_vessels, *args) == (
            VesselEmpty, "vessels ran dry at tick 1"
        )

    def test_public_list_is_built_once_and_kept(self):
        builds = []

        def build():
            builds.append(1)
            return [PublicEvent(3, "mark", 5)]

        outcome = ComparisonOutcome(Ordering.EQUAL, "x", "y", build, (), last_tick=3)
        assert builds == []
        first = outcome.public_observables
        assert outcome.public_observables is first
        assert builds == [1]
        for comparator in (
            lambda: compare_elevator(2, 6, n_floors=10),
            lambda: compare_race(3, 5, 20),
            lambda: compare_race_bitstring(3, 5, 20),
            lambda: compare_vessels(3, 5, 10),
        ):
            outcome = comparator()
            assert outcome.public_observables is outcome.public_observables

    def test_digitwise_never_builds_a_sub_outcome_record(self):
        def unreadable():
            raise AssertionError("a sub-outcome's public record was built")

        def spy(sub):
            def compare(x, y):
                real = sub(x, y)
                return ComparisonOutcome(
                    real.ordering, real.alice_knows, real.bob_knows, unreadable,
                    real.notes, real.last_tick,
                )
            return compare

        for sub in (elevator_sub(7), race_sub(7), bitstring_sub(7), vessels_sub()):
            for a in range(0, 60, 3):
                for b in range(0, 60, 2):
                    outcome = compare_digitwise(a, b, 7, spy(sub))
                    assert outcome.ordering is sign_oracle(a, b), (a, b)

    def test_constructor_equality_and_repr_keep_their_public_face(self):
        events = [PublicEvent(1, "mark", 2)]
        positional = ComparisonOutcome(Ordering.EQUAL, "x", "y", events, ("n",))
        keyword = ComparisonOutcome(
            ordering=Ordering.EQUAL, alice_knows="x", bob_knows="y",
            public_observables=list(events), notes=("n",),
        )
        lazy = ComparisonOutcome(Ordering.EQUAL, "x", "y", lambda: list(events), ("n",), 1)
        assert positional == keyword == lazy
        assert positional.public_observables is events and positional.last_tick == 1
        assert positional != ComparisonOutcome(Ordering.EQUAL, "x", "y", [], ("n",))
        assert ComparisonOutcome(Ordering.EQUAL, "x", "y").public_observables == []
        assert repr(lazy) == (
            "ComparisonOutcome(ordering=<Ordering.EQUAL: 'equal'>, alice_knows='x', "
            "bob_knows='y', public_observables=[PublicEvent(tick=1, label='mark', "
            "value=2)], notes=('n',))"
        )
        assert positional.party_view() == (Ordering.EQUAL, "x", "y", ("n",))

    @pytest.mark.parametrize(
        "protocol, builder, secrets",
        [
            (Protocol.RACE_BITSTRING, "_bitstring_events", (3, 2**53 - 1)),
            (Protocol.ELEVATOR, "_door_events", (2**53 - 1, 2**53)),
        ],
    )
    def test_an_over_budget_run_times_out_before_building_its_record(
        self, monkeypatch, protocol, builder, secrets
    ):
        def unbuildable(*args):
            raise AssertionError("an over-budget run built its public record")

        monkeypatch.setattr(millionaires, builder, unbuildable)
        scenario = vessels_scenario(
            protocol=protocol, secret_domain=(1, 2**53),
            party_secrets=dict(zip(("alice", "bob"), secrets)),
        )
        run = run_scenario(scenario)
        assert run.status == TIMEOUT and len(run.transcript) == 0
        assert run.detail == (
            f"protocol needs tick {run.result.last_tick} but max_ticks is 120"
        )
