"""Reference computations for the tests, one definition each.

F2 linear algebra: a span that tracks which added vectors combine to
each row, and the rank read off it; kernel combinations and a greedy
quotient, as the library computed windowed homology before it read the
representatives off one elimination per grading; the conversions
between chains and the masks of a ``homology._Window`` placed at a top;
and a general solve, for the tests that ask whether a chain bounds.

Homology models built on it: ``QuotientSlice``, the quotient complex's
homology on a window of negative exponents at one grading; and, with U
set to 0, ``f2_homology``, ``induced_rank`` and the Künneth oracle
``kunneth_torus_betti`` for the Betti numbers of a mapping torus.

Nothing here uses ``uchain.gf2``'s elimination (``rank``, ``eliminate``,
``Quotient``); only its ``set_bits`` is imported.  So these models stay
independent of the fast paths they check.
"""

from __future__ import annotations

from typing import Iterable, Optional

from uchain.complexes import (ChainMap, GradedComplex, LaurentChain,
                              identity_map, map_add)
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


def span_rank(vectors: Iterable[int]) -> int:
    """Dimension of the span of ``vectors``."""
    span = Span()
    for v in vectors:
        span.add(v)
    return span.dim


def xor_pick(vecs: list[int], mask: int) -> int:
    """XOR of {vecs[i] : bit i of mask}."""
    acc = 0
    for i, v in enumerate(vecs):
        if mask >> i & 1:
            acc ^= v
    return acc


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


class QuotientSlice:
    """Homology of the quotient complex (strictly negative U-exponents) on
    the window of exponents [-width, -1] at one grading: cycles and
    boundaries of the slice are ordinary F2 linear algebra.  The true
    homology is the image of a smaller window's homology inside a larger
    one (deep windowed classes die once the window holds their bounding
    chains)."""

    def __init__(self, cx: GradedComplex, width: int, grading: int):
        def slice_at(k: int) -> list[tuple[str, int]]:
            return [(g, e) for e in range(-width, 0)
                    for g in cx.generators if cx.gradings[g] == k]

        self.basis = slice_at(grading)
        self.pos = {v: i for i, v in enumerate(self.basis)}
        below = {v: i for i, v in enumerate(slice_at(grading - 1))}
        boundaries = []
        for v in slice_at(grading + 1):
            img = cx.boundary_chain(LaurentChain.of(v)).negative_part()
            boundaries.append(sum(1 << self.pos[t] for t in img.terms))
        cols = []
        for v in self.basis:
            img = cx.boundary_chain(LaurentChain.of(v)).negative_part()
            cols.append(sum(1 << below[t] for t in img.terms))
        self.homology = QuotientBasis(kernel_combos(cols), boundaries)

    def class_of(self, chain: LaurentChain) -> Optional[int]:
        """Class of ``chain`` as a bit mask over ``homology.reps``; None
        for a term outside the slice or a chain that is no cycle."""
        m = 0
        for t in chain.terms:
            if t not in self.pos:
                return None
            m |= 1 << self.pos[t]
        return self.homology.coords(m)


def f2_matrix(entries: dict, idx_t: dict[str, int]) -> dict[str, int]:
    """Columns of a map with U set to 0, keyed by source generator."""
    cols: dict[str, int] = {}
    for (t, s), p in entries.items():
        if p.bits & 1:
            cols[s] = cols.get(s, 0) ^ (1 << idx_t[t])
    return cols


def f2_homology(cx: GradedComplex) -> dict[int, QuotientBasis]:
    """Per-grading homology of the U=0 reduction, vectors over all of cx."""
    idx = cx.index()
    cols = f2_matrix(cx.d, idx)
    out: dict[int, QuotientBasis] = {}
    for k in {cx.gradings[g] for g in cx.generators}:
        gens_k = [g for g in cx.generators if cx.gradings[g] == k]
        basis = [1 << idx[g] for g in gens_k]
        images = [cols.get(g, 0) for g in gens_k]
        cycles = [xor_pick(basis, m) for m in kernel_combos(images)]
        boundaries = [cols.get(g, 0) for g in cx.generators
                      if cx.gradings[g] == k + 1]
        out[k] = QuotientBasis(cycles, boundaries)
    return out


def induced_rank(f: ChainMap, hs: dict[int, QuotientBasis],
                 ht: dict[int, QuotientBasis], k: int) -> int:
    """Rank at grading k of the map ``f`` induces from the ``f2_homology``
    ``hs`` of its source to ``ht`` of its target."""
    if k not in hs or k not in ht:
        return 0
    cols = f2_matrix(f.entries, f.target.index())
    idx = f.source.index()
    images = []
    for rep in hs[k].reps:
        img = 0
        for g in f.source.generators:
            if rep >> idx[g] & 1:
                img ^= cols.get(g, 0)
        c = ht[k].coords(img)
        assert c is not None  # a chain map sends cycles to cycles
        images.append(c)
    return span_rank(images)


def kunneth_torus_betti(cy: GradedComplex, f: ChainMap) -> dict[int, int]:
    """Betti numbers of the mapping torus, the cone of id + f, over F2 at
    U = 0, from the long exact sequence: dim H_k = dim coker (id + f)_k +
    dim ker (id + f)_(k-1)."""
    g = map_add(identity_map(cy), f)
    hs = f2_homology(cy)

    def dim(k: int) -> int:
        return len(hs[k].reps) if k in hs else 0

    def rk(k: int) -> int:
        return induced_rank(g, hs, hs, k)

    ks = set(hs) | {k + 1 for k in hs}
    return {k: (dim(k) - rk(k)) + (dim(k - 1) - rk(k - 1)) for k in ks}
