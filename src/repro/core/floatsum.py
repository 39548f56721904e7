"""Float sums with a fixed addition order, independent of the interpreter.

Python 3.12 made builtin ``sum()`` over floats compensated (Neumaier
summation), so ``sum(xs)`` can differ in the last bit from the
left-to-right fold that 3.10 and 3.11 compute.  Every sum whose result
steers E-Ant's decisions (pheromone deposits, Eq. 2 estimates, the Eq. 8
sampler's total) goes through one of the two folds below instead, so a
run gives the same digest on every supported interpreter.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["left_sum", "pairwise_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...``: builtin ``sum()`` as 3.10/3.11 compute it
    for floats (an empty input gives the int ``0``, as ``sum`` does)."""
    total = 0
    for value in values:
        total += value
    return total


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.asarray(values, dtype=float).sum()`` on Python floats.

    A copy of numpy's pairwise float reduction: a left-to-right fold below
    8 elements, eight interleaved accumulators up to 128, and a split into
    halves (rounded down to a multiple of 8) above that.  The E-Ant
    sampler normalizes by this total, so it must round exactly as the
    ndarray sum it replaced did.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, count: int) -> float:
    if count < 8:
        total = 0.0
        for index in range(start, start + count):
            total += values[index]
        return total
    if count <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        stop = start + count - count % 8
        for index in range(start + 8, stop, 8):
            r0 += values[index]
            r1 += values[index + 1]
            r2 += values[index + 2]
            r3 += values[index + 3]
            r4 += values[index + 4]
            r5 += values[index + 5]
            r6 += values[index + 6]
            r7 += values[index + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for index in range(stop, start + count):
            total += values[index]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, count - half)
