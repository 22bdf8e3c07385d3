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

from collections import Counter
from dataclasses import dataclass

from .complexes import (ChainMap, GradedComplex, LaurentChain, _dual_id,
                        _positional, cone, identity_map, map_add)
from .errors import (ComplexMismatch, CrossCheckMismatch, DegreeMismatch,
                     InfinityNotZero, NotACycle, NotACycleInPlus, NotInImage,
                     NotUFree, ParameterOutOfRange, RankTooLarge)
from .gf2 import (QuotientBasis, kernel_combos, rank, scatter, set_bits,
                  solve)
from .normal_form import Reduction, reduce_complex
from .scalars import Poly, _pdivmod, _pgcd, _pmul

__all__ = [
    "HomologyPresentation",
    "h_minus", "h_infinity", "h_plus", "h_red",
    "delta", "delta_inverse",
    "les_exactness_check", "mapping_torus_betti", "f2_pairing",
    "chain_to_json",
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

    @property
    def total_free_rank(self) -> int:
        return sum(self.free_ranks.values())

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
    q, _ = red.exact_transform()
    col = [q[i][j] for i in range(red.complex.rank)]
    den = 1
    for c in col:
        den = _pmul(den, _pdivmod(c.den, _pgcd(den, c.den))[0])
    terms: list[tuple[str, int]] = []
    for i, c in enumerate(col):
        bits = _pmul(c.num, _pdivmod(den, c.den)[0])
        g = red.complex.generators[i]
        terms += [(g, e) for e in Poly(bits).exponents()]
    return LaurentChain(terms)


def _negative_shift(red: Reduction, col: dict[int, int],
                    depth: int) -> LaurentChain:
    """Strictly negative part of U^-depth times a sparse series basis column."""
    terms: list[tuple[str, int]] = []
    for row, bits in col.items():
        low = bits & ((1 << depth) - 1)
        if low:
            g = red.complex.generators[row]
            terms += [(g, e - depth) for e in Poly(low).exponents()]
    return LaurentChain(terms)


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
    return _h_infinity(reduce_complex(cx))


def _h_infinity(red: Reduction) -> HomologyPresentation:
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
# Flat F2 coordinates pack one bit per (2-step k, power): bit
# offsets[k]+j is U^j times the torsion generator on the minus side, and
# the class of U^-(j+1) times the a-column on the plus side.  The
# connecting map is block-diagonal in these coordinates.


def _torsion_coords(red: Reduction, chain: LaurentChain) -> int:
    """Flat coordinates of a polynomial cycle's class in the torsion part
    of the minus flavor."""
    cx = red.complex
    idx = cx.index()
    y = [0] * cx.rank
    for g, e in chain.terms:
        y[idx[g]] |= 1 << e
    _, qi = red.series_transform()
    out = 0
    for k, r in enumerate(red.two_steps):
        acc = 0
        for j, bits in qi[r.b].items():
            if y[j]:
                acc ^= _pmul(bits, y[j])
        out |= (acc & ((1 << r.exponent) - 1)) << red.offsets[k]
    return out


def _plus_rep(red: Reduction, bits: int) -> LaurentChain:
    """Canonical purely-negative representative with given plus coordinates."""
    q, _ = red.series_transform()
    acc = LaurentChain()
    for k, r in enumerate(red.two_steps):
        block = bits >> red.offsets[k] & ((1 << r.exponent) - 1)
        for depth in range(1, r.exponent + 1):
            if block >> (depth - 1) & 1:
                acc = acc + _negative_shift(red, q[r.a], depth)
    return acc


def _delta_block_columns(red: Reduction, k: int) -> list[int]:
    """The connecting map on 2-step k in flat coordinates: depth i goes to
    the class of U^(n-i) times the unit, modulo U^n."""
    r = red.two_steps[k]
    n = r.exponent
    u = r.unit.series(n)
    return [(u << (n - i)) & ((1 << n) - 1) for i in range(1, n + 1)]


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

    Defined only when the infinity flavor vanishes (no 1-steps).  Solves
    block-by-block in flat coordinates, emits the canonical
    purely-negative representative, and re-checks through the zig-zag
    that its image is homologous to the input.
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
    plus_bits = 0
    for k, r in enumerate(red.two_steps):
        block = target >> red.offsets[k] & ((1 << r.exponent) - 1)
        combo = solve(_delta_block_columns(red, k), block)
        if combo is None:
            raise NotInImage("connecting block did not solve")
        plus_bits |= combo << red.offsets[k]
    w = _plus_rep(red, plus_bits)
    back = cx.boundary_chain(w)
    if back.negative_part() or _torsion_coords(red, back) != target:
        raise NotInImage(
            "zig-zag image of the solved preimage is not homologous to the input")
    return w


# ---------------------------------------------------------------------------
# long exact sequence check on truncation windows


class _Window:
    """F2 model of the U-exponent window [lo, hi) of the U-inverted complex.

    Bit j * (hi - lo) + (e - lo) of a mask is U^e times generator j, so
    each generator owns one block of hi - lo bits.
    """

    def __init__(self, cx: GradedComplex, lo: int, hi: int):
        self.lo = lo
        self.width = hi - lo
        self._gens = cx.generators
        self._index = cx.index()
        # column of each source generator: (target block start, entry bits)
        self._cols = {s: [(self._index[t] * self.width, p.bits) for t, p in col]
                      for s, col in cx._cols.items()}
        self._blocks: dict[int, list[int]] = {}
        for j, g in enumerate(self._gens):
            self._blocks.setdefault(cx.gradings[g], []).append(j * self.width)
        self._masks: dict[int, list[int]] = {}
        self._homology: dict[int, QuotientBasis] = {}

    def mask_of(self, chain: LaurentChain) -> int:
        m = 0
        for g, e in chain.terms:
            j = self._index.get(g)
            if j is not None and 0 <= e - self.lo < self.width:
                m |= 1 << (j * self.width + e - self.lo)
        return m

    def chain_of(self, mask: int) -> LaurentChain:
        return LaurentChain((self._gens[i // self.width], self.lo + i % self.width)
                            for i in set_bits(mask))

    def boundary_mask(self, i: int) -> int:
        """Boundary of basis element i, cut to the window: the entry bits
        shift up by i's place in its block, and those past the block's
        top fall out."""
        j, shift = divmod(i, self.width)
        inside = (1 << self.width) - 1
        m = 0
        for start, bits in self._cols.get(self._gens[j], ()):
            m ^= ((bits << shift) & inside) << start
        return m

    def columns(self, grading: int) -> list[int]:
        """Bit positions of the basis elements in ``grading``."""
        return [i for start in self._blocks.get(grading, ())
                for i in range(start, start + self.width)]

    def _boundary_masks(self, grading: int) -> list[int]:
        """Boundary masks of ``columns(grading)``, in that order; built once,
        as kernel input of this grading and boundary span of the next one
        down."""
        if grading not in self._masks:
            self._masks[grading] = [self.boundary_mask(i)
                                    for i in self.columns(grading)]
        return self._masks[grading]

    def homology(self, grading: int) -> QuotientBasis:
        if grading not in self._homology:
            cols = self.columns(grading)
            cycles = [scatter(combo, cols)
                      for combo in kernel_combos(self._boundary_masks(grading))]
            bnd = [b for b in self._boundary_masks(grading + 1) if b]
            self._homology[grading] = QuotientBasis(cycles, bnd)
        return self._homology[grading]


def _induced(src: _Window, grading: int, apply, dst: _Window,
             dst_grading: int) -> list[int]:
    """Columns of the induced map on windowed homology, as coordinate masks."""
    out = []
    hd = dst.homology(dst_grading)
    for v in src.homology(grading).reps:
        img = apply(src.chain_of(v))
        c = hd.coords(dst.mask_of(img))
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


def _les_at_window(cx: GradedComplex, width: int) -> dict:
    wm = _Window(cx, 0, width)
    wi = _Window(cx, -width, width)
    wp = _Window(cx, -width, 0)
    gradings = sorted(set(cx.gradings.values()))

    def apply_delta(chain: LaurentChain) -> LaurentChain:
        bd = cx.boundary_chain(chain)
        if bd.negative_part():
            raise CrossCheckMismatch("windowed connecting map left the subcomplex")
        return bd

    iota = {g: _induced(wm, g, lambda c: c, wi, g) for g in gradings}
    proj = {g: _induced(wi, g, lambda c: c.negative_part(), wp, g)
            for g in gradings}
    conn = {g: _induced(wp, g, apply_delta, wm, g - 1) for g in gradings}

    joints: dict[int, dict] = {}
    exact = True
    for g in gradings:
        report = {
            "minus": _exact_at(conn.get(g + 1, []), iota[g], wm.homology(g).dim),
            "infinity": _exact_at(iota[g], proj[g], wi.homology(g).dim),
            "plus": _exact_at(proj[g], conn[g], wp.homology(g).dim),
        }
        joints[g] = report
        exact = exact and all(j["exact"] for j in report.values())
    return {"joints": joints, "exact": exact}


def les_exactness_check(cx: GradedComplex) -> dict:
    """Verify exactness of the long exact sequence of windowed truncations.

    The window keeps U-exponents in [-w, w) with w = 2 * max exponent + 2
    read off the classification; the whole check re-runs at double width
    and must reach the same verdict.
    """
    if cx.rank > 12:
        raise RankTooLarge(f"rank {cx.rank} exceeds the window-check cap 12")
    red = reduce_complex(cx)
    width = 2 * red.normal_form.max_exponent + 2
    first = _les_at_window(cx, width)
    second = _les_at_window(cx, 2 * width)
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
    genuine U-dependence is rejected rather than truncated.
    """
    if not cy.is_u_free():
        raise NotUFree(f"complex {cy.name!r} has U-dependent differential entries")
    if any(p.bits > 1 for p in phi.entries.values()):
        raise NotUFree(f"map {phi.name!r} has U-dependent entries")
    if phi.degree != 0:
        raise DegreeMismatch(f"mapping torus needs a degree-0 map, got {phi.degree}")
    if phi.source != cy or phi.target != cy:
        raise ComplexMismatch("mapping torus needs an endomorphism of the complex")
    pcy, pphi = _positional(cy, phi)
    torus = cone(map_add(identity_map(pcy), pphi))
    idx = torus.index()
    bcol: dict[str, int] = {}
    for (t, s), _ in torus.d.items():
        bcol[s] = bcol.get(s, 0) ^ (1 << idx[t])
    by_grading: dict[int, list[str]] = {}
    for g in torus.generators:
        by_grading.setdefault(torus.gradings[g], []).append(g)
    betti = {}
    for gr, gens in sorted(by_grading.items()):
        cycles = len(gens) - rank(bcol.get(g, 0) for g in gens)
        boundaries = rank(bcol.get(g, 0) for g in by_grading.get(gr + 1, ()))
        betti[gr] = cycles - boundaries
    return betti


# ---------------------------------------------------------------------------
# the F2 pairing with the dual complex


def f2_pairing(x: LaurentChain, y: LaurentChain) -> int:
    """Pairing of a chain in C with a chain in dual(C): generators pair
    with their starred duals, exponents pair when they sum to -1."""
    acc = 0
    for g, i in x.terms:
        for h, j in y.terms:
            if i + j == -1 and h == _dual_id(g):
                acc ^= 1
    return acc
