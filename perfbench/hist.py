"""Fixed-size log-bucket histogram of non-negative integer samples (ns).

Values below 64 get one bucket each; above that every power-of-two range
is split into 64 equal buckets, so a bucket is at most 1/64 (1.6%) wide
relative to its lower edge. The bucket array never grows, so recording a
sample allocates nothing and the benchmark's own memory does not inflate
the peak RSS it reports.
"""

from __future__ import annotations

import math

SUB = 64          # buckets per power of two
_SUB_BITS = 6     # log2(SUB)
MAX_EXP = 44      # values >= 2**MAX_EXP ns (~4.9 h) land in the top bucket
NBUCKETS = (MAX_EXP - _SUB_BITS + 1) * SUB


def bucket_of(v: int) -> int:
    if v < SUB:
        return max(v, 0)
    e = v.bit_length() - 1
    if e >= MAX_EXP:
        return NBUCKETS - 1
    return (e - _SUB_BITS + 1) * SUB + (v >> (e - _SUB_BITS)) - SUB


def bucket_bounds(i: int):
    """Half-open value range [lo, hi) of bucket i."""
    if i < SUB:
        return i, i + 1
    e = i // SUB + _SUB_BITS - 1
    m = i % SUB
    shift = e - _SUB_BITS
    return (SUB + m) << shift, (SUB + m + 1) << shift


class TooFewSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


class LogHistogram:
    __slots__ = ("counts", "n")

    def __init__(self):
        self.counts = [0] * NBUCKETS
        self.n = 0

    def add(self, v: int):
        self.counts[bucket_of(v)] += 1
        self.n += 1

    def percentile(self, q: float, min_beyond: int = 10) -> float:
        """Nearest-rank q-quantile (0 < q <= 1), interpolated in its bucket.

        The sample of rank ceil(q*n) lies in the returned value's bucket.
        Raises TooFewSamples when fewer than ``min_beyond`` samples rank
        above it, since such a percentile says little about the tail.
        """
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        rank = max(1, math.ceil(q * self.n - 1e-9))
        if self.n == 0 or self.n - rank < min_beyond:
            raise TooFewSamples(
                f"p{q * 100:g} needs {min_beyond} samples beyond it; "
                f"have {self.n} samples")
        seen = 0
        for i, k in enumerate(self.counts):
            if k and seen + k >= rank:
                lo, hi = bucket_bounds(i)
                return lo + (hi - lo) * (rank - seen - 0.5) / k
            seen += k
        raise AssertionError("rank beyond histogram")  # n counts every add
