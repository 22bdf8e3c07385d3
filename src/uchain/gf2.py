"""Linear algebra over GF(2) on int bit masks (bit i = coordinate i).

Windowed homology (``homology._Window``) runs ``eliminate`` once per
grading, each boundary mask tagged by its column's bit: the kernel
combinations are that grading's cycles, the echelon rows span the
boundaries of the grading below.  Rows are never changed once stored, so
eliminating a prefix of the vectors gives the kernel combinations below
the prefix's end and the rows inserted while it was processed; a window
reads every shallower window off these prefixes.  ``Quotient`` keeps the
cycles whose top bit is not a boundary pivot as representatives and
reads a class off one walk down both sets of rows, so the Lefschetz
oracle walks its classes as masks from end to end.

``eliminate`` and ``Quotient.coords`` walk pivots one way, the column
reduction of persistence (Zomorodian & Carlsson 2005), and no span here
tracks which added vectors combine to a row; ``rank`` counts the rows of
one ``eliminate``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["rank", "eliminate", "Quotient", "set_bits"]


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first; costs one step
    per set bit, not per bit of width."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rank(vectors: Iterable[int]) -> int:
    return len(eliminate(vectors, count())[1])


def eliminate(vectors: Iterable[int], positions: Iterable[int],
              ) -> Tuple[List[int], Dict[int, int]]:
    """One Gaussian elimination of ``vectors``, in order: a basis of the
    combinations that XOR to zero, vector k tagged by bit ``positions[k]``,
    and the echelon rows of the span, keyed by top bit in storage order.

    With ``positions`` ascending, combination k has top bit
    ``positions[k]``, its vector's own tag plus the combinations of rows
    stored before it.  Each vector adds a combination or a row, and rows
    never change, so eliminating ``vectors[:n]`` alone gives the
    combinations of top bit below ``positions[n]`` and the first
    n - (their number) rows.  The rows' combinations sit in a dict of
    their own, so the rows come back as they were stored.
    """
    kernel, rows, combos = [], {}, {}
    for vec, pos in zip(vectors, positions):
        combo = 1 << pos
        while vec and (row := rows.get(top := vec.bit_length() - 1)):
            vec ^= row
            combo ^= combos[top]
        if vec:   # the loop's last test read its top bit
            rows[top] = vec
            combos[top] = combo
        else:
            kernel.append(combo)
    return kernel, rows


class Quotient:
    """Quotient Z/B of cycles by boundaries, with class coordinates.

    ``boundary_rows`` are the echelon rows of B keyed by top bit, and
    ``reps`` cycles of distinct top bits, none a boundary pivot, that span
    Z together with B; then ``reps`` is a basis of Z/B.  Such reps are the
    pairing of persistence reduction: given a basis of Z of distinct top
    bits (``eliminate``'s kernel, tagged by ascending positions), every
    vector of Z has its top bit among theirs, so each boundary pivot is
    one of them, and the basis vectors whose top bit is not a boundary
    pivot, with the boundary rows, are dim Z vectors of distinct top bits.
    A greedy pass adding that basis in order to the span of B keeps
    exactly these.
    """

    def __init__(self, reps: List[int], boundary_rows: Dict[int, int]):
        self.reps = reps
        self._boundary_rows = boundary_rows

    @property
    def dim(self) -> int:
        return len(self.reps)

    @cached_property
    def _span(self) -> Dict[int, Tuple[int, int]]:
        """Echelon rows of Z, top bit -> (row, class mask), built on the
        first ``coords`` call: the oracle reads only the reps of most
        quotients.  Boundary rows are class 0, representative k bit k."""
        rows = {top: (b, 0) for top, b in self._boundary_rows.items()}
        for k, z in enumerate(self.reps):
            rows[z.bit_length() - 1] = (z, 1 << k)
        return rows

    def coords(self, vec: int) -> Optional[int]:
        """Class of ``vec`` as a bit mask over ``reps``, or None if ``vec``
        is not a cycle."""
        rows, combo = self._span, 0
        while vec and (row := rows.get(vec.bit_length() - 1)):
            vec ^= row[0]
            combo ^= row[1]
        return None if vec else combo
