"""Homology of F2[U]-complexes in its three flavors, and the connecting map.

For a complex C the package computes the homology of C itself (flavor
``minus``, a module over the power series ring), of C with U inverted
(flavor ``infinity``, free over the Laurent ring), and of the quotient of
the U-inverted complex by C (flavor ``plus``, where only strictly
negative U-exponents survive).  The three sit in a long exact sequence
whose connecting homomorphism ``delta`` lowers grading by 1 and is an
isomorphism exactly when the infinity flavor vanishes.  ``red`` flavors
pick out the finite part: the torsion of minus, or plus modulo the image
of infinity.

Everything is derived from the valuation reduction of normal_form: a
1-step summand contributes a free rank, a 2-step of exponent n
contributes n-dimensional torsion to both red flavors.  Representatives
are honest chains: classes of the minus flavor are polynomial cycles
(basis columns with denominators cleared by a unit), classes of the plus
flavor are purely-negative-exponent chains, canonical for the quotient
because truncation at exponent 0 is the quotient map.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .complexes import ChainMap, GradedComplex, LaurentChain, _dual_id, dual
from .errors import (ComplexMismatch, CrossCheckMismatch, DegreeMismatch,
                     InfinityNotZero, NotACycle, NotACycleInPlus, NotInImage,
                     NotUFree, ParameterOutOfRange, RankTooLarge)
from .gf2 import Quotient, eliminate, rank, set_bits
from .normal_form import Reduction, _clear_denominators, reduce_complex
from .scalars import _pmul

__all__ = [
    "HomologyPresentation",
    "h_minus", "h_infinity", "h_plus", "h_red",
    "delta", "delta_inverse",
    "les_exactness_check", "mapping_torus_betti", "f2_pairing",
    "pairing_check", "chain_to_json",
]


def chain_to_json(chain: LaurentChain) -> list[dict]:
    return [{"gen": g, "exp": e} for g, e in chain.sorted_terms()]


@dataclass(frozen=True)
class HomologyPresentation:
    """One homology flavor of one complex.

    ``free_ranks`` counts free summands per grading (over the power
    series ring for minus, the Laurent ring for infinity; the infinite
    quotient summands for plus).  ``torsion`` lists (grading, exponent)
    per length-n torsion summand.  ``f2_dimension`` is the dimension over
    F2, with None standing for infinite; when finite, ``basis`` holds one
    representative chain per dimension, otherwise one per module
    generator.
    """

    flavor: str
    free_ranks: dict[int, int]
    torsion: tuple[tuple[int, int], ...]
    f2_dimension: int | None
    basis: tuple[LaurentChain, ...]

    def to_json_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "free_ranks": {str(g): r for g, r in sorted(self.free_ranks.items())},
            "torsion": [{"grading": g, "exponent": n} for g, n in self.torsion],
            "f2_dimension": "infinite" if self.f2_dimension is None
                            else self.f2_dimension,
            "basis": [chain_to_json(b) for b in self.basis],
        }


# ---------------------------------------------------------------------------
# representatives in the original basis


def _cleared_column(red: Reduction, j: int) -> LaurentChain:
    """Column j of the exact basis matrix, times the unit lcm of its
    denominators, as a polynomial chain."""
    gens = red.complex.generators
    col = _clear_denominators(red.exact_transform()[0][j])
    return LaurentChain((gens[i], e) for i, bits in col.items()
                        for e in set_bits(bits))


def _negative_shift(red: Reduction, col: dict[int, int],
                    depth: int) -> LaurentChain:
    """Strictly negative part of U^-depth times a sparse series basis column."""
    gens, low = red.complex.generators, (1 << depth) - 1
    return LaurentChain((gens[row], e - depth) for row, bits in col.items()
                        for e in set_bits(bits & low))


def _ordered_torsion(red: Reduction, minus_side: bool,
                     ) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """2-step indices sorted by output (grading, exponent), and those
    (grading, exponent) pairs; the b-generator carries the torsion on the
    minus side, the a-generator on the plus."""
    shift = 1 if minus_side else 0
    keyed = sorted((r.grading_a - shift, r.exponent, k)
                   for k, r in enumerate(red.two_steps))
    return [k for _, _, k in keyed], tuple((g, n) for g, n, _ in keyed)


def _finite_part(red: Reduction, minus_side: bool,
                 ) -> tuple[tuple[tuple[int, int], ...], tuple[LaurentChain, ...]]:
    """Torsion summands and F2 basis of the finite part of one side: U^j
    times the cleared b-column for 0 <= j < n on the minus side, U^-i
    times the a-column for 1 <= i <= n on the plus side."""
    order, torsion = _ordered_torsion(red, minus_side)
    basis: list[LaurentChain] = []
    if minus_side:
        for k in order:
            r = red.two_steps[k]
            rep = _cleared_column(red, r.b)
            basis += [rep.times_u(j) for j in range(r.exponent)]
    else:
        q, _ = red.series_transform()
        for k in order:
            r = red.two_steps[k]
            basis += [_negative_shift(red, q[r.a], depth)
                      for depth in range(1, r.exponent + 1)]
    return torsion, tuple(basis)


# ---------------------------------------------------------------------------
# the flavors


def h_minus(cx: GradedComplex) -> HomologyPresentation:
    """Homology of C itself: one free summand per 1-step, torsion of
    length n at the b-grading per 2-step of exponent n."""
    return _h_minus(reduce_complex(cx))


def _h_minus(red: Reduction) -> HomologyPresentation:
    free = dict(Counter(g for _, g in red.one_steps))
    if red.one_steps:
        order, torsion = _ordered_torsion(red, minus_side=True)
        basis = tuple(_cleared_column(red, i) for i, _ in red.one_steps)
        basis += tuple(_cleared_column(red, red.two_steps[k].b) for k in order)
        return HomologyPresentation("minus", free, torsion, None, basis)
    torsion, basis = _finite_part(red, minus_side=True)
    return HomologyPresentation("minus", free, torsion, len(basis), basis)


def h_infinity(cx: GradedComplex) -> HomologyPresentation:
    """Homology after inverting U: free of rank = number of 1-steps."""
    red = reduce_complex(cx)
    free = dict(Counter(g for _, g in red.one_steps))
    basis = tuple(_cleared_column(red, i) for i, _ in red.one_steps)
    dim = None if red.one_steps else 0
    return HomologyPresentation("infinity", free, (), dim, basis)


def h_plus(cx: GradedComplex) -> HomologyPresentation:
    """Homology of the U-inverted complex modulo C.

    Infinite-dimensional as soon as a 1-step exists (each contributes a
    Laurent-mod-polynomial quotient summand, reported through
    free_ranks).  Otherwise the dimension is the sum of the 2-step
    exponents, with basis the classes of U^-i times the a-column for
    1 <= i <= n, purely negative by construction.
    """
    return _h_plus(reduce_complex(cx))


def _h_plus(red: Reduction) -> HomologyPresentation:
    if red.one_steps:
        free = dict(Counter(g for _, g in red.one_steps))
        return HomologyPresentation("plus", free, (), None, ())
    torsion, basis = _finite_part(red, minus_side=False)
    return HomologyPresentation("plus", {}, torsion, len(basis), basis)


def h_red(cx: GradedComplex, side: str) -> HomologyPresentation:
    """The finite part: torsion of the minus flavor, or the plus flavor
    modulo the image from infinity.  Always finite-dimensional; the two
    sides have equal dimension (the connecting map matches them up)."""
    if side not in ("minus", "plus"):
        raise ParameterOutOfRange(f"side must be 'minus' or 'plus', got {side!r}")
    torsion, basis = _finite_part(reduce_complex(cx), side == "minus")
    return HomologyPresentation(f"red_{side}", {}, torsion, len(basis), basis)


# ---------------------------------------------------------------------------
# class coordinates against the reduction
#
# The class of a polynomial cycle in the torsion of the minus flavor has
# one coordinate per 2-step a -> U^n u b: the cycle's g_b coefficient (row
# b of Q^-1 against it), a polynomial modulo U^n.  The connecting map
# sends the plus class of U^-n p a to d(U^-n p g_a) = p u g_b, so summand
# by summand it is multiplication by the unit u on F2[U]/U^n.


def _torsion_coords(red: Reduction, chain: LaurentChain) -> list[int]:
    """Class of a polynomial cycle in the torsion part of the minus
    flavor: per 2-step, its g_b coefficient modulo U^n."""
    cx = red.complex
    idx = cx._index
    y = [0] * cx.rank
    for g, e in chain.terms:
        y[idx[g]] |= 1 << e
    _, qi = red.series_transform()
    out = []
    for r in red.two_steps:
        acc = 0
        for j, bits in qi[r.b].items():
            if y[j]:
                acc ^= _pmul(bits, y[j])
        out.append(acc & ((1 << r.exponent) - 1))
    return out


# ---------------------------------------------------------------------------
# the connecting homomorphism


def delta(cx: GradedComplex, chain: LaurentChain) -> LaurentChain:
    """Connecting homomorphism on representatives: take the strictly
    negative part, apply the differential, land in nonnegative exponents.

    Pure zig-zag -- no normal form involved -- so it doubles as an
    independent check on the coordinate route.
    """
    for g, _ in chain.terms:
        if g not in cx.gradings:
            raise NotACycleInPlus(f"unknown generator {g!r}")
    neg = chain.negative_part()
    bd = cx.boundary_chain(neg)
    if bd.negative_part():
        raise NotACycleInPlus(
            f"boundary of the negative part reaches exponent {bd.min_exponent()}")
    return bd


def delta_inverse(cx: GradedComplex, chain: LaurentChain) -> LaurentChain:
    """Inverse of the connecting map on a polynomial cycle's class.

    Defined only when the infinity flavor vanishes (no 1-steps).  On a
    2-step a -> U^n u b the connecting map is multiplication by u modulo
    U^n, so the input's g_b coefficient t has preimage the plus class of
    U^-n p a with p = t u^-1 modulo U^n.  Its canonical purely-negative
    representative is the negative part of U^-n p times the a-column of
    Q, one product per summand; the summands' parts add up.  Re-checks
    through the zig-zag that the image is homologous to the input.
    """
    return _delta_inverse(reduce_complex(cx), chain)


def _delta_inverse(red: Reduction, chain: LaurentChain) -> LaurentChain:
    cx = red.complex
    if red.one_steps:
        raise InfinityNotZero(
            f"{len(red.one_steps)} free summands survive inverting U; "
            "the connecting map is not invertible")
    for g, e in chain.terms:
        if g not in cx.gradings:
            raise NotACycle(f"unknown generator {g!r}")
        if e < 0:
            raise NotACycle(f"exponent {e} < 0 puts the chain outside C")
    if cx.boundary_chain(chain):
        raise NotACycle("chain has nonzero boundary")
    target = _torsion_coords(red, chain)
    q, _ = red.series_transform()
    terms: set[tuple[str, int]] = set()
    for r, t in zip(red.two_steps, target):
        if t:
            n = r.exponent
            p = _pmul(t, r.unit.inverse().series(n)) & ((1 << n) - 1)
            col = {i: _pmul(p, c) for i, c in q[r.a].items()}
            terms ^= _negative_shift(red, col, n).terms
    w = LaurentChain(terms)
    back = cx.boundary_chain(w)
    if back.negative_part() or _torsion_coords(red, back) != target:
        raise NotInImage(
            "zig-zag image of the solved preimage is not homologous to the input")
    return w


# ---------------------------------------------------------------------------
# long exact sequence check on truncation windows


class _Window:
    """F2 model of a truncation window of width w of the U-inverted complex.

    A window keeps the w U-exponents below a top t, the quotient
    U^(t - w) C / U^t C.  A power of U identifies the windows of one
    width, so a window is its width: bit r * m + j of a mask is
    U^(t - 1 - r) times generator j, with m the rank, for whichever top
    the caller means, and absolute exponents appear only where the tests
    convert chains to masks.  Exponents count down from the top, one row
    of m bits each, so a shallower window with the same top is the low
    bits.  d and chain maps only raise exponents, so a term moves to a
    lower row or falls off below bit 0 past the top, and the boundary
    masks of the shallower window are the same integers.

    Every map the window applies, d and chain maps alike, is one template
    per generator (see ``templates``), and ``map_mask`` places one per set
    bit of its vector: its cost follows the vector, not the window.

    Each grading is eliminated once, at full depth, each boundary mask
    tagged by its column's bit: the kernel comes out as the grading's
    cycles, and the echelon rows span the boundaries of the grading below.
    In ascending bit order the columns of the window of width w are a
    prefix of each grading's columns, so its cycles and boundary rows are
    prefixes of these (see ``gf2.eliminate``), and ``homology(g, w)``
    reads them off.  A cycle's top bit is its own column and the columns
    ascend, so the cycles have distinct top bits; ``homology`` keeps those
    whose top bit is not a boundary pivot as representatives (see
    ``gf2.Quotient``), which are the ones a greedy quotient would keep, in
    the same order.  Each boundary pivot is the top bit of exactly one
    cycle, so ``dim(g, w)``, the number of cycles below the top bit less
    the number of boundary rows, is the homology's dimension with no
    ``Quotient`` built.
    """

    def __init__(self, cx: GradedComplex, width: int):
        self.width = width
        self.rank = cx.rank
        self._gens = cx.generators
        self._d = self.templates(cx._cols)
        self._by_grading = cx._by_grading
        self.gradings = sorted(self._by_grading)
        self._eliminated: dict[int, tuple[list[int], dict[int, int]]] = {}

    def templates(self, cols: dict[int, list]) -> list[tuple[int, int]]:
        """A column view by position (j -> [(t, Poly)]) as, per source j,
        the image of g_j as one mask and the bit ``top`` of g_j inside it:
        the term U^k g_t sits t - j - k * rank bits above ``top``, and
        ``top`` puts the lowest term at bit 0."""
        out, rank = [], self.rank
        for j in range(rank):
            sh = [t - j - k * rank
                  for t, p in cols.get(j, ()) for k in set_bits(p.bits)]
            top = -min(sh) if sh else 0
            mask = 0
            for s in sh:
                mask |= 1 << (s + top)
            out.append((mask, top))
        return out

    def map_mask(self, templates: list[tuple[int, int]], mask: int) -> int:
        """A map given by ``templates`` applied to a mask, cut to the
        window: per set bit, its generator's template shifted so that the
        generator's bit lands on it, terms past the top falling off.  The
        cost is one shift per set bit, whatever the window's width."""
        m, rank = 0, self.rank
        for i in set_bits(mask):
            template, top = templates[i % rank]
            m ^= template << (i - top) if i >= top else template >> (top - i)
        return m

    def columns(self, grading: int) -> list[int]:
        """Bit positions of the basis elements in ``grading``, ascending."""
        gens = self._by_grading.get(grading, ())
        return [r * self.rank + j for r in range(self.width) for j in gens]

    def _eliminate(self, grading: int) -> tuple[list[int], dict[int, int]]:
        """Cycles of ``grading`` (its kernel combinations, tagged by
        ``columns(grading)``, ascending) and the echelon rows of the
        boundaries it sends to the grading below, in insertion order."""
        if grading not in self._eliminated:
            cols, d, rank = self.columns(grading), self._d, self.rank
            vectors = [t << (i - top) if i >= top else t >> (top - i)
                       for i in cols for t, top in (d[i % rank],)]
            self._eliminated[grading] = eliminate(vectors, cols)
        return self._eliminated[grading]

    def _prefix(self, grading: int, width: int) -> tuple[int, int]:
        """(cycles, boundary rows) of the window of width ``width`` with
        the same top: the cycles below bit width * rank, and the rows
        inserted by the first width * (generators in grading + 1) columns
        of the grading above, which are those columns less the cycles
        among them."""
        if width > self.width:
            raise CrossCheckMismatch(
                f"width {width} reads past the window's width {self.width}")
        top = 1 << width * self.rank
        above = self._eliminate(grading + 1)[0]
        return (bisect_left(self._eliminate(grading)[0], top),
                width * len(self._by_grading.get(grading + 1, ()))
                - bisect_left(above, top))

    def dim(self, grading: int, width: int) -> int:
        """Dimension of ``homology(grading, width)``, read off the counts."""
        cycles, kept = self._prefix(grading, width)
        return cycles - kept

    def homology(self, grading: int, width: int | None = None) -> Quotient:
        """Homology at ``grading`` of the window of width ``width`` with
        the same top, all of this one by default (see ``_prefix``)."""
        cycles, kept = self._prefix(
            grading, self.width if width is None else width)
        boundary_rows = dict(islice(self._eliminate(grading + 1)[1].items(),
                                    kept))
        reps = [z for z in self._eliminate(grading)[0][:cycles]
                if z.bit_length() - 1 not in boundary_rows]
        return Quotient(reps, boundary_rows)


def _induced(src: Quotient, apply, dst: Quotient) -> list[int]:
    """Columns of the induced map on windowed homology, as coordinate masks."""
    out = []
    for v in src.reps:
        c = dst.coords(apply(v))
        if c is None:
            raise CrossCheckMismatch("induced image left the homology of the window")
        out.append(c)
    return out


def _exact_at(in_cols: list[int], out_cols: list[int], mid_dim: int) -> dict:
    image = rank(in_cols)
    kernel = mid_dim - rank(out_cols)
    composite_zero = True
    for c in in_cols:
        acc = 0
        for i in set_bits(c):
            acc ^= out_cols[i]
        if acc:
            composite_zero = False
    return {"image": image, "kernel": kernel,
            "exact": composite_zero and image == kernel}


def _les_at_window(window: _Window, width: int) -> dict:
    """The sequence on windows of width ``width``, read off ``window``.

    With the top at ``width``, the minus window [0, width) is the low
    ``width`` rows and [-width, width) the low 2 * width rows.  The plus
    window [-width, 0) is the minus one translated by U^-width, so both
    have the ``narrow`` homology.  Inclusion is the identity on masks,
    projection moves the upper ``width`` rows down onto the plus window,
    and the connecting map moves a plus class back up, applies d and
    must land in the low ``width`` rows."""
    shift = width * window.rank
    gradings = window.gradings
    narrow = {g: window.homology(g, width)
              for g in set(gradings) | {g - 1 for g in gradings}}
    wide = {g: window.homology(g, 2 * width) for g in gradings}

    def connect(v: int) -> int:
        bd = window.map_mask(window._d, v << shift)
        if bd >> shift:   # the rows of negative exponents
            raise CrossCheckMismatch("windowed connecting map left the subcomplex")
        return bd

    iota = {g: _induced(narrow[g], lambda v: v, wide[g]) for g in gradings}
    proj = {g: _induced(wide[g], lambda v: v >> shift, narrow[g])
            for g in gradings}
    conn = {g: _induced(narrow[g], connect, narrow[g - 1]) for g in gradings}

    joints: dict[int, dict] = {}
    exact = True
    for g in gradings:
        report = {
            "minus": _exact_at(conn.get(g + 1, []), iota[g], narrow[g].dim),
            "infinity": _exact_at(iota[g], proj[g], wide[g].dim),
            "plus": _exact_at(proj[g], conn[g], narrow[g].dim),
        }
        joints[g] = report
        exact = exact and all(j["exact"] for j in report.values())
    return {"joints": joints, "exact": exact}


def les_exactness_check(cx: GradedComplex) -> dict:
    """Verify exactness of the long exact sequence of windowed truncations.

    The window keeps U-exponents in [-w, w) with w = 2 * max exponent + 2
    read off the classification; the whole check re-runs at double width
    and must reach the same verdict.  Both runs read their windows off one
    window of width 4 * w, eliminated once per grading.
    """
    if cx.rank > 12:
        raise RankTooLarge(f"rank {cx.rank} exceeds the window-check cap 12")
    red = reduce_complex(cx)
    width = 2 * red.normal_form.max_exponent + 2
    window = _Window(cx, 4 * width)
    first = _les_at_window(window, width)
    second = _les_at_window(window, 2 * width)
    if first["exact"] != second["exact"]:
        raise CrossCheckMismatch(
            f"window doubling flipped the exactness verdict at width {width}")
    return {
        "window": width,
        "rank": cx.rank,
        "exact": first["exact"],
        "joints": first["joints"],
        "double_window": {"window": 2 * width, "exact": second["exact"]},
    }


# ---------------------------------------------------------------------------
# mapping torus


def mapping_torus_betti(cy: GradedComplex, phi: ChainMap) -> dict[int, int]:
    """F2 Betti numbers of the mapping torus of phi: the cone of id + phi.

    Both the complex and the map must be honestly U-free (entries 0 or 1);
    genuine U-dependence is rejected rather than truncated.  The cone is
    2n boundary bit columns: bit j is the shifted copy of generator j and
    bit n + j the generator itself.
    """
    if not cy.is_u_free():
        raise NotUFree(f"complex {cy.name!r} has U-dependent differential entries")
    if any(p.bits > 1 for p in phi.entries.values()):
        raise NotUFree(f"map {phi.name!r} has U-dependent entries")
    if phi.degree != 0:
        raise DegreeMismatch(f"mapping torus needs a degree-0 map, got {phi.degree}")
    if phi.source != cy or phi.target != cy:
        raise ComplexMismatch("mapping torus needs an endomorphism of the complex")
    n = cy.rank
    bcol = [1 << (n + j) for j in range(n)] + [0] * n     # the id in id + phi
    for t, s in cy._at:
        bcol[s] ^= 1 << t
        bcol[n + s] ^= 1 << (n + t)
    for t, s in phi._at:
        bcol[s] ^= 1 << (n + t)
    blocks = cy._by_grading
    cols = {gr: blocks.get(gr - 1, []) + [n + j for j in blocks.get(gr, ())]
            for gr in sorted(blocks.keys() | {g + 1 for g in blocks})}
    return {gr: len(c) - rank(bcol[j] for j in c)
            - rank(bcol[j] for j in cols.get(gr + 1, ()))
            for gr, c in cols.items()}


# ---------------------------------------------------------------------------
# the F2 pairing with the dual complex


def f2_pairing(x: LaurentChain, y: LaurentChain) -> int:
    """Pairing of a chain in C with a chain in dual(C): generators pair
    with their starred duals, exponents pair when they sum to -1."""
    return sum((_dual_id(g), -1 - i) in y.terms for g, i in x.terms) & 1


def pairing_check(cx: GradedComplex) -> dict:
    """Duality of C, with a finite plus flavor: the rank of the pairing
    matrix of the plus basis against the minus torsion basis of dual(C),
    and whether trace o cotrace is rank(C) mod 2, as ``pairing-check``
    prints them."""
    red = reduce_complex(cx)
    if red.one_steps:
        raise InfinityNotZero(
            "free summands survive inverting U; the pairing check needs a "
            "finite plus flavor")
    plus = _h_plus(red)
    # dual(C) gets a reduction of its own, not C's transposed, so the two
    # bases of the pairing matrix come from independent reductions
    red_minus = h_red(dual(cx), "minus")
    # f2_pairing by index: bit j of holds[term] says dual class j has term
    holds: dict[tuple[str, int], int] = {}
    for j, y in enumerate(red_minus.basis):
        for term in y.terms:
            holds[term] = holds.get(term, 0) | 1 << j
    rows = []
    for x in plus.basis:
        bits = 0
        for g, i in x.terms:
            bits ^= holds.get((_dual_id(g), -1 - i), 0)
        rows.append(bits)
    matrix_rank = rank(rows)
    # trace o cotrace (1) in the reduced basis, the columns of Q with the
    # rows of Q^-1 as dual basis: sum_k (Q^-1 Q)[k][k], series mod U^cap
    q, qi = red.series_transform()
    traced = 0
    for col, row in zip(q, qi):
        for i in row.keys() & col.keys():
            traced ^= _pmul(row[i], col[i])
    dim = plus.f2_dimension
    return {"dimension": dim, "matrix_rank": matrix_rank,
            "invertible": matrix_rank == dim == red_minus.f2_dimension,
            "trace_cotrace_ok": traced & ((1 << red.cap) - 1) == cx.rank % 2}
