"""Linear algebra over GF(2) on int bit masks (bit i = coordinate i)."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "rank", "solve", "kernel_combos", "QuotientBasis",
           "set_bits", "scatter"]


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first; costs one step
    per set bit, not per bit of width."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def scatter(mask: int, positions: List[int]) -> int:
    """Move bit p of ``mask`` to bit ``positions[p]``."""
    out = 0
    for p in set_bits(mask):
        out |= 1 << positions[p]
    return out


class Span:
    """Echelonized span with tracking of input combinations.

    ``_rows`` maps pivot position -> (vector, combination); a combination
    is a bit mask over the add order of the vectors inserted so far.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[int, int]] = {}
        self.count = 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: int, combo: int = 0) -> Tuple[int, int]:
        rows = self._rows
        while vec:
            row = rows.get(vec.bit_length() - 1)
            if row is None:
                break
            vec ^= row[0]
            combo ^= row[1]
        return vec, combo

    def add(self, vec: int) -> bool:
        """Insert ``vec``; return True if it enlarged the span."""
        tag = 1 << self.count
        self.count += 1
        res, combo = self.reduce(vec, tag)
        if res == 0:
            return False
        self._rows[res.bit_length() - 1] = (res, combo)
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0

    def express(self, vec: int) -> Optional[int]:
        """Combination of previously added vectors equal to ``vec``."""
        res, combo = self.reduce(vec)
        return None if res else combo


def rank(vectors: Iterable[int]) -> int:
    span = Span()
    for v in vectors:
        span.add(v)
    return span.dim


def solve(vectors: List[int], target: int) -> Optional[int]:
    """Bit mask x with XOR of {vectors[i] : bit i of x} = target, or None."""
    span = Span()
    for v in vectors:
        span.add(v)
    return span.express(target)


def kernel_combos(vectors: List[int]) -> List[int]:
    """Basis of combinations of ``vectors`` that XOR to zero."""
    span = Span()
    out = []
    for v in vectors:
        tag = 1 << span.count
        span.count += 1
        res, combo = span.reduce(v, tag)
        if res == 0:
            out.append(combo)
        else:
            span._rows[res.bit_length() - 1] = (res, combo)
    return out


class QuotientBasis:
    """Quotient Z/B of two spans, with class coordinates.

    Representatives are chosen greedily from ``cycles``; they are
    independent modulo ``boundaries``, so class coordinates are unique.
    """

    def __init__(self, cycles: Iterable[int], boundaries: Iterable[int]):
        self._span = Span()
        for b in boundaries:
            self._span.add(b)
        # Only vectors that enlarge the span enter a stored combination, so
        # above the boundary tags a combination holds representative tags.
        self._first_cycle_tag = self._span.count
        self.reps: list[int] = []
        self._rep_of_tag: list[int] = []  # -1: the cycle added nothing
        for z in cycles:
            if self._span.add(z):
                self._rep_of_tag.append(len(self.reps))
                self.reps.append(z)
            else:
                self._rep_of_tag.append(-1)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, vec: int) -> Optional[int]:
        """Class of ``vec`` as a bit mask over ``reps``, or None."""
        combo = self._span.express(vec)
        if combo is None:
            return None
        return scatter(combo >> self._first_cycle_tag, self._rep_of_tag)
