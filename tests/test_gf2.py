"""Bit-mask linear algebra over F2."""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from uchain.gf2 import Quotient, eliminate, rank, set_bits

# solve is Span.add over the vectors, then Span.express of the target
from f2_reference import (QuotientBasis, Span, kernel_combos, scatter, solve,
                          xor_pick)

vectors = st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1),
                   min_size=0, max_size=12)


def test_rank_of_standard_basis():
    assert rank([0b001, 0b010, 0b100]) == 3


def test_rank_ignores_dependent_rows():
    assert rank([0b011, 0b101, 0b110]) == 2
    assert rank([0, 0]) == 0


def test_span_membership():
    span = Span()
    assert span.add(0b011)
    assert span.add(0b101)
    assert not span.add(0b110)  # the sum of the first two
    assert span.reduce(0b110)[0] == 0
    assert span.reduce(0b001)[0] != 0
    assert span.dim == 2


def test_span_express_returns_a_witness_combination():
    span = Span()
    span.add(0b011)
    span.add(0b101)
    assert span.express(0b110) is not None
    assert span.express(0b001) is None


def test_solve_finds_a_preimage():
    vecs = [0b011, 0b110]
    mask = solve(vecs, 0b101)
    assert mask is not None
    assert xor_pick(vecs, mask) == 0b101


def test_solve_detects_unsolvable_targets():
    assert solve([0b011, 0b110], 0b001) is None
    assert solve([], 0b1) is None
    assert solve([], 0) == 0


def test_kernel_of_dependent_family():
    vecs = [0b011, 0b101, 0b110]
    combos, rows = eliminate(vecs, list(range(len(vecs))))
    assert len(combos) == 1
    assert xor_pick(vecs, combos[0]) == 0
    assert rows == {1: 0b011, 2: 0b101}


@given(vecs=vectors, target_mask=st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_solve_inverts_any_reachable_target(vecs: list[int], target_mask: int):
    target = xor_pick(vecs, target_mask)
    mask = solve(vecs, target)
    assert mask is not None
    assert xor_pick(vecs, mask) == target


@given(vecs=vectors)
def test_kernel_combos_all_vanish_and_count_the_nullity(vecs: list[int]):
    combos, rows = eliminate(vecs, list(range(len(vecs))))
    assert all(xor_pick(vecs, m) == 0 for m in combos)
    assert all(m for m in combos)
    assert len(combos) == len(vecs) - rank(vecs)
    assert rank(combos) == len(combos)
    # the rows are an echelon basis of the span, keyed by top bit
    assert all(v.bit_length() - 1 == top for top, v in rows.items())
    assert len(rows) == rank(vecs) == rank(vecs + list(rows.values()))


@given(vecs=vectors)
def test_eliminate_gives_the_reference_kernel_in_order(vecs: list[int]):
    combos, _ = eliminate(vecs, list(range(len(vecs))))
    assert combos == kernel_combos(vecs)
    # combination k's top bit is its own vector's tag, so the tops ascend
    tops = [m.bit_length() - 1 for m in combos]
    assert tops == sorted(set(tops))
    assert all(vecs[t] == xor_pick(vecs, m & ~(1 << t))
               for t, m in zip(tops, combos))


# ascending positions: any gaps, or those of a window's columns, width rows
# of ``rank`` bits each with the grading's generators set in every row
gapped_positions = st.one_of(
    st.lists(st.integers(min_value=0, max_value=300), unique=True,
             max_size=12).map(sorted),
    st.integers(min_value=1, max_value=6).flatmap(lambda rank: st.builds(
        lambda gens, width: [r * rank + j for r in range(width)
                             for j in sorted(gens)],
        st.sets(st.integers(min_value=0, max_value=rank - 1)),
        st.integers(min_value=0, max_value=12 // rank))))


@given(positions=gapped_positions, data=st.data())
def test_eliminate_by_positions_is_the_scattered_kernel(positions: list[int],
                                                        data):
    vecs = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1),
                              min_size=len(positions), max_size=len(positions)))
    combos, rows = eliminate(vecs, positions)
    ref_combos, ref_rows = eliminate(vecs, list(range(len(vecs))))
    assert combos == [scatter(c, positions) for c in ref_combos]
    assert rows == ref_rows
    assert list(rows) == list(ref_rows)   # same insertion order


@given(vecs=vectors)
def test_rank_is_monotone_under_extension(vecs: list[int]):
    r = rank(vecs)
    assert 0 <= r <= len(vecs)
    assert rank(vecs + [0]) == r
    assert r <= rank(vecs + [1 << 11]) <= r + 1


@example(pool=[1 << 64, (1 << 64) | 1, 1], masks=[0, 1, 1, 2, 3, 4, 7])
@given(pool=st.lists(st.integers(min_value=0, max_value=(1 << 200) - 1),
                     max_size=6),
       masks=st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1),
                      max_size=12))
def test_rank_is_the_reference_span_dimension(pool: list[int],
                                              masks: list[int]):
    # each vector is a combination of the pool: mask 0 and dependent masks
    # give zero vectors, equal masks repeat a vector, and the pool's masks
    # run past 64 bits
    vecs = [xor_pick(pool, m) for m in masks]
    span = Span()
    for v in vecs:
        span.add(v)
    assert rank(vecs) == span.dim


def test_quotient_basis_dimensions():
    cycles = [0b001, 0b010, 0b100]
    boundaries = [0b110]
    q = QuotientBasis(cycles, boundaries)
    assert q.dim == 2
    assert q.coords(0b110) == 0  # a boundary is the zero class
    assert q.coords(0b1000) is None  # not a cycle at all


def test_quotient_coords_are_linear():
    q = QuotientBasis([0b011, 0b101, 0b110], [0b110])
    a, b = q.coords(0b011), q.coords(0b101)
    assert a is not None and b is not None
    assert q.coords(0b011 ^ 0b101) == a ^ b


@given(vecs=vectors, below=vectors, queries=vectors,
       masks=st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                      max_size=8))
def test_quotient_matches_the_greedy_reference(
        vecs: list[int], below: list[int], queries: list[int],
        masks: list[int]):
    # Z: the kernel of vecs, as combinations (unit masks for a basis);
    # B: the part of it that the images of ``below`` inside Z reach
    combos, _ = eliminate(vecs, list(range(len(vecs))))
    boundaries = [xor_pick(combos, m) for m in below]
    rows = eliminate(boundaries, list(range(len(boundaries))))[1]
    # the pairing: the kernel vectors whose top bit no boundary row has
    new = Quotient([z for z in combos if z.bit_length() - 1 not in rows], rows)
    ref = QuotientBasis(combos, boundaries)
    assert new.reps == ref.reps
    assert new.dim == ref.dim == len(combos) - rank(boundaries)
    pool = boundaries + combos
    for v in queries + [xor_pick(pool, m) for m in masks]:
        assert new.coords(v) == ref.coords(v)


# ---------------------------------------------------------------------------
# references: the loops as first written, walking every bit of the width


class _WidthWalkingQuotient:
    """QuotientBasis whose coords tests every representative's tag."""

    def __init__(self, cycles: list[int], boundaries: list[int]):
        self._span = Span()
        for b in boundaries:
            self._span.add(b)
        self.reps: list[int] = []
        self._rep_tags: list[int] = []
        for z in cycles:
            pos = self._span.count
            if self._span.add(z):
                self.reps.append(z)
                self._rep_tags.append(pos)

    def coords(self, vec: int) -> int | None:
        combo = self._span.express(vec)
        if combo is None:
            return None
        bits = 0
        for i, pos in enumerate(self._rep_tags):
            if combo >> pos & 1:
                bits |= 1 << i
        return bits


def _width_walking_scatter(combo: int, cols: list[int]) -> int:
    """The combination-to-cycle expansion of windowed homology."""
    v = 0
    for p in range(combo.bit_length()):
        if combo >> p & 1:
            v |= 1 << cols[p]
    return v


@given(cycles=vectors, boundaries=vectors, queries=vectors,
       masks=st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                      max_size=8))
def test_quotient_coords_match_the_width_walking_reference(
        cycles: list[int], boundaries: list[int], queries: list[int],
        masks: list[int]):
    new = QuotientBasis(cycles, boundaries)
    ref = _WidthWalkingQuotient(cycles, boundaries)
    assert new.reps == ref.reps
    pool = boundaries + cycles
    # sums of the inputs are cycles; 1 << 10 lies outside every input
    for v in queries + [xor_pick(pool, m) for m in masks] + [1 << 10]:
        assert new.coords(v) == ref.coords(v)
    assert new.coords(1 << 10) is None


@given(cols=st.lists(st.integers(min_value=0, max_value=300), unique=True,
                     max_size=40),
       data=st.data())
def test_scatter_matches_the_width_walking_expansion(cols: list[int], data):
    combo = data.draw(st.integers(min_value=0, max_value=(1 << len(cols)) - 1))
    assert scatter(combo, cols) == _width_walking_scatter(combo, cols)
    assert list(set_bits(combo)) == [p for p in range(combo.bit_length())
                                     if combo >> p & 1]
