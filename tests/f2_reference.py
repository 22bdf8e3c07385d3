"""Reference F2 linear algebra for the tests: a span that tracks which
added vectors combine to each row; kernel combinations and a greedy
quotient, as the library computed windowed homology before it read the
representatives off one elimination per grading; the conversions
between chains and the masks of a ``homology._Window`` placed at a top;
and a general solve, for the tests that ask whether a chain bounds.

Nothing here uses ``uchain.gf2``'s elimination (``rank``, ``eliminate``,
``Quotient``); only its ``set_bits`` is imported.  The test-local
homology models (``_QuotientSlice``, ``_PlusSlice``, ``_f2_homology``)
build on these, so they stay independent of the fast paths they check.
"""

from __future__ import annotations

from typing import Iterable, Optional

from uchain.complexes import LaurentChain
from uchain.gf2 import set_bits


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

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
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

    def express(self, vec: int) -> Optional[int]:
        """Combination of previously added vectors equal to ``vec``."""
        res, combo = self.reduce(vec)
        return None if res else combo


def mask_of(window, top: int, chain: LaurentChain) -> int:
    """``chain`` as a mask of ``window`` with top ``top``: bit
    (top - 1 - e) * rank + j is U^e times generator j, and terms outside
    the exponents [top - width, top) or the complex fall out."""
    index = {g: j for j, g in enumerate(window._gens)}
    m = 0
    for g, e in chain.terms:
        j = index.get(g)
        if j is not None and top - window.width <= e < top:
            m |= 1 << ((top - 1 - e) * window.rank + j)
    return m


def chain_of(window, top: int, mask: int) -> LaurentChain:
    """The chain of a mask of ``window`` with top ``top``."""
    return LaurentChain((window._gens[i % window.rank], top - 1 - i // window.rank)
                        for i in set_bits(mask))


def scatter(mask: int, positions: list[int]) -> int:
    """Move bit p of ``mask`` to bit ``positions[p]``: a combination over
    a list of vectors as a combination over their positions."""
    out = 0
    for p in set_bits(mask):
        out |= 1 << positions[p]
    return out


def solve(vectors: list[int], target: int) -> Optional[int]:
    """Bit mask x with XOR of {vectors[i] : bit i of x} = target, or None."""
    span = Span()
    for v in vectors:
        span.add(v)
    return span.express(target)


def kernel_combos(vectors: list[int]) -> list[int]:
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


def greedy_window_homology(window, grading: int) -> QuotientBasis:
    """Homology of one grading of a ``homology._Window`` the way the window
    computed it before: the kernel of the grading's boundary masks, then a
    greedy quotient by the boundary masks of the grading above, echelonned
    afresh."""
    def masks(k: int) -> list[int]:
        return [window.map_mask(window._d, 1 << i) for i in window.columns(k)]

    cols = window.columns(grading)
    cycles = [scatter(c, cols) for c in kernel_combos(masks(grading))]
    return QuotientBasis(cycles, [b for b in masks(grading + 1) if b])
