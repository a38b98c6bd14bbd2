"""Additive superposition channel shared by all parties.

The public observable at any instant is the sum of every private
contribution currently applied to the medium (forces on a rod, wave
amplitudes in a waveguide), optionally blurred by Gaussian measurement
noise.  Individual contributions never leave this module: the only values
that may enter a transcript are the outputs of :func:`measure_block` and,
one tick at a time, :meth:`ChannelState.measure`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NonFiniteValue


class Reading(float):
    """A public channel measurement.

    Transcripts only accept measurements of this type, which can only be
    produced by :meth:`ChannelState.measure`.  This is what keeps private
    contribution values out of the public record by construction rather
    than by convention.
    """

    __slots__ = ()


class Readings:
    """A block of public channel measurements, one per consecutive tick.

    The bulk counterpart of :class:`Reading`: a transcript's bulk append
    accepts only this type, which :func:`measure_block` produces, and
    rejects plain arrays.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: slice) -> "Readings":
        return Readings(self.values[index])


class ChannelState:
    """Current private contributions plus the measurement noise level.

    An absent contributor is equivalent to a contribution of 0.  Setting a
    contribution replaces the previous value (map semantics, not
    accumulation).  Negative values are allowed at this level; protocol
    parties are constrained to positive targets elsewhere.  The per-tick
    view of what :func:`measure_block` computes for a whole block.
    """

    def __init__(self, noise_sigma: float = 0.0):
        if not (noise_sigma >= 0.0):
            raise ValueError("noise_sigma must be >= 0")
        self.noise_sigma = noise_sigma
        self.contributions: dict[str, float] = {}

    def set_contribution(self, who: str, value: float) -> None:
        """Replace `who`'s current contribution with `value`."""
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"contribution for {who!r} is not finite: {value!r}")
        self.contributions[who] = value

    def superpose(self) -> float:
        """Exact sum of all contributions (the noise-free ideal value)."""
        return math.fsum(self.contributions.values())

    def measure(self, rng) -> Reading:
        """One public measurement: superposition plus Gaussian noise.

        With noise_sigma == 0 the result is bit-exact equal to
        :meth:`superpose` and the noise stream is not consumed, so turning
        noise off does not perturb any other random stream.
        """
        total = self.superpose()
        if self.noise_sigma > 0.0:
            total += self.noise_sigma * rng.normal()
        return Reading(total)


def measure_block(parts: Sequence[np.ndarray], noise: Optional[np.ndarray]) -> Readings:
    """Public measurements of two or three contributions over a block of ticks.

    Tick by tick the same values as :meth:`ChannelState.measure` with the
    same contributions applied, when `noise` is noise_sigma times the same
    draws (None without noise): the float sum of two values is exactly
    their fsum.  For three, ``(a + b) + c`` misses the exact sum by the
    two TwoSum errors e1 + e2; where that sum of errors is itself exact,
    ``total + (e1 + e2)`` is the correctly rounded sum, as fsum gives it.
    The errors are added only where they are nonzero, so an exact tick
    keeps its bits, and the ticks where e1 + e2 rounds or is not finite
    take math.fsum.  The arrays may be 2-D, one run's block per row.
    """
    total = parts[0] + parts[1]
    if len(parts) == 3:
        pair = total
        total = pair + parts[2]
        e1 = _two_sum_error(parts[0], parts[1], pair)
        e2 = _two_sum_error(pair, parts[2], total)
        error = e1 + e2
        cells = np.flatnonzero(_two_sum_error(e1, e2, error) != 0).tolist()  # NaN included
        np.add(total, error, out=total, where=error != 0)
        if cells:
            # Flat views index fastest; a fresh ufunc result is C-contiguous,
            # so writing through its flat view writes `total`.
            flat_total, flat_parts = total.reshape(-1), [part.reshape(-1) for part in parts]
            for cell in cells:
                flat_total[cell] = math.fsum(part[cell] for part in flat_parts)
    if not np.isfinite(total).all():  # a non-finite contribution makes its sum non-finite
        raise NonFiniteValue("a contribution is not finite")
    if noise is not None:
        total += noise
    return Readings(total)


def block_noise(noise_sigma: float, rng, size: int) -> Optional[np.ndarray]:
    """Noise for `size` consecutive ticks, drawn in bulk; None, with no draw, at zero sigma."""
    return noise_sigma * rng.normal(size) if noise_sigma > 0.0 else None


def _two_sum_error(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """What rounding took from total = a + b (Knuth's TwoSum); zero where the sum is exact."""
    b_part = total - a
    return (a - (total - b_part)) + (b - b_part)
