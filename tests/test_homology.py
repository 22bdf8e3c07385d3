"""Homology flavors, the connecting map, exactness, pairing, mapping tori."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uchain.complexes import (
    GradedComplex,
    LaurentChain,
    build_chain_map,
    build_complex,
    direct_sum,
    dual,
    identity_map,
    relabel,
    tensor,
    tensor_map,
    zero_map,
)
from uchain.complexes import _apply
from uchain.errors import (
    ComplexMismatch,
    CrossCheckMismatch,
    DegreeMismatch,
    InfinityNotZero,
    NotACycle,
    NotACycleInPlus,
    NotInImage,
    NotUFree,
    ParameterOutOfRange,
    RankTooLarge,
)
from uchain.gf2 import set_bits
from uchain.homology import (
    _Window,
    _delta_inverse,
    _exact_at,
    _induced,
    _les_at_window,
    chain_to_json,
    delta,
    delta_inverse,
    f2_pairing,
    h_infinity,
    h_minus,
    h_plus,
    h_red,
    les_exactness_check,
    mapping_torus_betti,
    pairing_check,
)
from uchain import homology
from uchain.lefschetz import cotrace_map, phi_dual
from uchain.normal_form import (
    NormalForm,
    Reduction,
    classify,
    random_basis_change,
    random_chain_map,
    realize,
    reduce_complex,
)
from uchain.scalars import LocalScalar, Poly, _pmul

from conftest import (campaign_trial, mixed_complex, scrambled,
                      torsion_complex, two_step)
from f2_reference import (QuotientSlice, chain_of, greedy_window_homology,
                          mask_of, solve, span_rank)


# ---------------------------------------------------------------------------
# an independent windowed model of the quotient complex
#
# f2_reference.QuotientSlice: the true homology is the image of the
# homology of a smaller window inside a larger one.


def _stable_plus_dimension(cx: GradedComplex, grading: int,
                           small: int, big: int) -> int:
    ws = QuotientSlice(cx, small, grading)
    wb = QuotientSlice(cx, big, grading)
    image = []
    for rep in ws.homology.reps:
        chain = LaurentChain(v for i, v in enumerate(ws.basis) if rep >> i & 1)
        c = wb.class_of(chain)
        assert c is not None
        image.append(c)
    return span_rank(image)


# ---------------------------------------------------------------------------
# h_minus


def test_minus_homology_of_a_two_step_is_torsion():
    h = h_minus(two_step(3))
    assert h.flavor == "minus"
    assert h.torsion == ((0, 3),)
    assert h.free_ranks == {}
    assert h.f2_dimension == 3
    assert h.basis == (LaurentChain.of(("b", 0)), LaurentChain.of(("b", 1)),
                       LaurentChain.of(("b", 2)))


def test_minus_homology_of_a_free_generator():
    h = h_minus(build_complex("pt", [("x", 2)]))
    assert h.free_ranks == {2: 1}
    assert h.torsion == ()
    assert h.f2_dimension is None


def test_minus_homology_of_an_acyclic_pair_is_trivial():
    cx = build_complex("c", [("a", 1), ("b", 0)], [("a", "b", Poly.of(0, 1))])
    h = h_minus(cx)
    assert h.free_ranks == {} and h.torsion == () and h.f2_dimension == 0


def test_minus_basis_representatives_are_nonbounding_cycles():
    for seed in range(10):
        cx = torsion_complex(seed)
        h = h_minus(cx)
        for rep in h.basis:
            assert rep.min_exponent() is None or rep.min_exponent() >= 0
            assert not cx.boundary_chain(rep)


# ---------------------------------------------------------------------------
# h_infinity


def test_infinity_homology_of_torsion_vanishes():
    h = h_infinity(two_step(4))
    assert h.free_ranks == {} and h.f2_dimension == 0 and h.basis == ()


def test_infinity_homology_counts_free_summands():
    h = h_infinity(realize(NormalForm((0, 3), ())))
    assert sum(h.free_ranks.values()) == 2
    assert h.free_ranks == {0: 1, 3: 1}


def test_infinity_homology_adds_under_direct_sum():
    a = realize(NormalForm((0,), ((1, 2),)), name="a")
    b = relabel(realize(NormalForm((1, 1), ()), name="b"),
                {"x0": "y0", "x1": "y1"})
    total = h_infinity(direct_sum(a, b)).free_ranks
    assert total == {0: 1, 1: 2}


# ---------------------------------------------------------------------------
# h_plus


def test_plus_homology_of_a_two_step_lists_negative_shifts():
    h = h_plus(two_step(2))
    assert h.flavor == "plus"
    assert h.f2_dimension == 2
    assert h.free_ranks == {}
    assert set(h.basis) == {LaurentChain.of(("a", -1)), LaurentChain.of(("a", -2))}
    assert h.torsion == ((1, 2),)


def test_plus_homology_of_a_free_generator_is_infinite():
    h = h_plus(build_complex("pt", [("x", 0)]))
    assert h.f2_dimension is None
    assert h.free_ranks == {0: 1}


def test_plus_dimension_is_the_exponent_sum():
    for seed in range(10):
        cx = torsion_complex(seed)
        nf = classify(cx)
        assert h_plus(cx).f2_dimension == sum(nf.exponents())


def test_plus_finite_exactly_when_infinity_vanishes():
    for seed in range(20):
        cx = mixed_complex(seed)
        finite = h_plus(cx).f2_dimension is not None
        assert finite == (sum(h_infinity(cx).free_ranks.values()) == 0)


def test_plus_basis_elements_are_cycles_in_the_quotient():
    for seed in range(10):
        cx = torsion_complex(seed)
        for rep in h_plus(cx).basis:
            assert rep  # nonzero
            assert rep.nonnegative_part() == LaurentChain.zero()
            assert not cx.boundary_chain(rep).negative_part()


def test_plus_basis_matches_the_windowed_quotient_homology():
    # independent oracle: per grading, the reported representatives must
    # be linearly independent in the stable windowed homology, and count
    # its full dimension
    for seed in range(8):
        cx = torsion_complex(seed, max_rank=5, max_exponent=4)
        h = h_plus(cx)
        n_max = max((n for _, n in classify(cx).two_steps), default=0)
        small = n_max + 2
        big = small + n_max
        by_grading: dict[int, list[LaurentChain]] = {}
        for rep in h.basis:
            g = cx.gradings[rep.sorted_terms()[0][0]]
            by_grading.setdefault(g, []).append(rep)
        gradings = {cx.gradings[g] for g in cx.generators}
        for grading in gradings:
            reps = by_grading.get(grading, [])
            expected = _stable_plus_dimension(cx, grading, small, big)
            assert expected == _stable_plus_dimension(cx, grading,
                                                      2 * small, 2 * big)
            assert len(reps) == expected
            wb = QuotientSlice(cx, big, grading)
            coords = [wb.class_of(rep) for rep in reps]
            assert all(c is not None for c in coords)
            assert span_rank([c for c in coords if c is not None]) == len(reps)


# ---------------------------------------------------------------------------
# h_red


def test_red_homology_sides_agree_on_a_two_step():
    m, p = h_red(two_step(3), "minus"), h_red(two_step(3), "plus")
    assert m.flavor == "red_minus" and p.flavor == "red_plus"
    assert m.f2_dimension == p.f2_dimension == 3
    assert m.torsion == ((0, 3),)
    assert p.torsion == ((1, 3),)


def test_red_homology_of_a_free_generator_is_zero():
    for side in ("minus", "plus"):
        assert h_red(build_complex("pt", [("x", 0)]), side).f2_dimension == 0


def test_red_homology_adds_under_direct_sum():
    a = realize(NormalForm((), ((0, 2),)), name="a")
    b = relabel(realize(NormalForm((), ((0, 3),)), name="b"),
                {"a0": "c0", "b0": "d0"})
    s = direct_sum(a, b)
    assert h_red(s, "minus").f2_dimension == 5
    assert h_red(s, "plus").f2_dimension == 5


def test_red_homology_needs_a_valid_side():
    with pytest.raises(ParameterOutOfRange):
        h_red(two_step(1), "infinity")


def test_red_sides_have_equal_dimension_even_with_free_summands():
    for seed in range(10):
        cx = mixed_complex(seed)
        assert (h_red(cx, "minus").f2_dimension
                == h_red(cx, "plus").f2_dimension)


def test_red_homology_matches_the_full_flavors_on_torsion_complexes():
    for seed in range(15):
        cx = torsion_complex(seed)
        for side, full in (("minus", h_minus(cx)), ("plus", h_plus(cx))):
            red = h_red(cx, side)
            assert red.torsion == full.torsion
            assert red.basis == full.basis
            assert red.f2_dimension == full.f2_dimension


def test_json_layout_of_presentations():
    d = h_minus(two_step(2)).to_json_dict()
    assert d == {
        "flavor": "minus",
        "free_ranks": {},
        "torsion": [{"grading": 0, "exponent": 2}],
        "f2_dimension": 2,
        "basis": [[{"gen": "b", "exp": 0}], [{"gen": "b", "exp": 1}]],
    }
    assert h_plus(build_complex("pt", [("x", 0)])).to_json_dict()[
        "f2_dimension"] == "infinite"
    assert chain_to_json(LaurentChain.of(("b", 1), ("a", -2))) == [
        {"gen": "a", "exp": -2}, {"gen": "b", "exp": 1}]


# ---------------------------------------------------------------------------
# the connecting map


def _diamond(n: int) -> GradedComplex:
    cx = two_step(n)
    return tensor(cx, dual(cx))


def test_delta_on_the_top_tensor_generator():
    # lift U^-1 (a tensor b-dual), apply the differential: both squares fire
    for n in (1, 2, 3, 5):
        t = _diamond(n)
        out = delta(t, LaurentChain.of(("a.b*", -1)))
        assert out == LaurentChain.of(("a.a*", n - 1), ("b.b*", n - 1))


def test_delta_on_the_diagonal_tensor_generator():
    for n in (1, 2, 3, 5):
        t = _diamond(n)
        out = delta(t, LaurentChain.of(("a.a*", -1)))
        assert out == LaurentChain.of(("b.a*", n - 1))


def test_delta_at_every_depth_follows_the_exponent_shift():
    n = 3
    t = _diamond(n)
    for i in range(-n, 0):
        assert delta(t, LaurentChain.of(("a.b*", i))) == LaurentChain.of(
            ("a.a*", i + n), ("b.b*", i + n))


def test_delta_of_a_nonnegative_class_is_zero():
    t = _diamond(2)
    assert delta(t, LaurentChain.of(("a.b*", 0), ("b.a*", 3))) == LaurentChain.zero()


def test_delta_rejects_non_cycles_of_the_quotient():
    t = _diamond(2)
    # the boundary of U^-3 (a tensor b-dual) still has negative exponents
    with pytest.raises(NotACycleInPlus):
        delta(t, LaurentChain.of(("a.b*", -3)))
    with pytest.raises(NotACycleInPlus):
        delta(t, LaurentChain.of(("nope", -1)))


def test_delta_inverse_recovers_the_top_generator_exactly():
    for n in (1, 2, 3, 5):
        t = _diamond(n)
        y = LaurentChain.of(("a.a*", n - 1), ("b.b*", n - 1))
        assert delta_inverse(t, y) == LaurentChain.of(("a.b*", -1))


def test_delta_inverse_of_the_diagonal_image_up_to_boundaries():
    for n in (1, 2, 3, 5):
        t = _diamond(n)
        y = LaurentChain.of(("b.a*", n - 1))
        back = delta_inverse(t, y)
        # the returned representative and U^-1 (a tensor a-dual) differ by
        # the quotient-boundary of U^-(n+1) (a tensor b-dual)
        diff = back + LaurentChain.of(("a.a*", -1))
        witness = t.boundary_chain(
            LaurentChain.of(("a.b*", -1 - n))).negative_part()
        assert diff == witness
        # and its image under the connecting map is y again, exactly
        assert delta(t, back) == y


def test_delta_round_trip_fixes_every_minus_basis_class():
    for seed in range(10):
        cx = torsion_complex(seed)
        for y in h_red(cx, "minus").basis:
            back = delta_inverse(cx, y)
            again = delta(cx, back)
            # equal in homology: the difference must bound
            diff = again + y
            if diff:
                assert _bounds_in_polynomial_range(cx, diff)


def _bounds_in_polynomial_range(cx: GradedComplex, target: LaurentChain) -> bool:
    """Solve d(w) = target with w polynomial, on a generous window."""
    deg = max((p.degree() for p in cx.d.values()), default=1)
    width = 4 * deg + 8
    sources = [(g, e) for e in range(width) for g in cx.generators]
    pos = {(g, e): i for i, (g, e) in enumerate(
        (g, e) for e in range(width + deg + 1) for g in cx.generators)}

    def encode(chain: LaurentChain) -> int:
        m = 0
        for term in chain.terms:
            m |= 1 << pos[term]
        return m

    cols = [encode(cx.boundary_chain(LaurentChain.of(v))) for v in sources]
    return solve(cols, encode(target)) is not None


def test_delta_inverse_requires_vanishing_infinity_flavor():
    with pytest.raises(InfinityNotZero, match="^1 free summands survive "
                       "inverting U; the connecting map is not invertible$"):
        delta_inverse(build_complex("pt", [("x", 0)]), LaurentChain.of(("x", 0)))


def test_delta_inverse_rejects_non_cycles():
    cx = two_step(2)
    with pytest.raises(NotACycle):
        delta_inverse(cx, LaurentChain.of(("a", 0)))  # d(a) = U^2 b != 0
    with pytest.raises(NotACycle):
        delta_inverse(cx, LaurentChain.of(("b", -1)))  # not in the minus part
    with pytest.raises(NotACycle):
        delta_inverse(cx, LaurentChain.of(("nope", 0)))


def _flat_delta_inverse(red: Reduction, chain: LaurentChain) -> LaurentChain:
    """Reference delta-inverse in flat F2 coordinates, one bit per
    (2-step k, power): bit offset_k + j of the input's coordinates is U^j
    times g_b, and of the preimage's the class of U^-(n-j) times the
    a-column, each added as its own negative shift.  Inputs must be
    polynomial cycles; the library checks those."""
    cx = red.complex
    idx = cx.index()
    q, qi = red.series_transform()
    offsets, total = [], 0
    for r in red.two_steps:
        offsets.append(total)
        total += r.exponent
    y = [0] * cx.rank
    for g, e in chain.terms:
        y[idx[g]] |= 1 << e
    flat = 0
    for k, r in enumerate(red.two_steps):
        acc = 0
        for j, bits in qi[r.b].items():
            acc ^= _pmul(bits, y[j])
        flat |= (acc & ((1 << r.exponent) - 1)) << offsets[k]
    terms: set[tuple[str, int]] = set()
    for k, r in enumerate(red.two_steps):
        n = r.exponent
        mask = (1 << n) - 1
        block = _pmul(flat >> offsets[k] & mask,
                      r.unit.inverse().series(n)) & mask
        for depth in range(1, n + 1):
            if block >> (n - depth) & 1:
                for row, bits in q[r.a].items():
                    terms ^= {(cx.generators[row], e - depth)
                              for e in set_bits(bits & ((1 << depth) - 1))}
    return LaurentChain(terms)


def _assert_matches_flat_delta_inverse(cx: GradedComplex,
                                       chains: list[LaurentChain]) -> None:
    red = reduce_complex(cx)
    for y in chains:
        assert _delta_inverse(red, y) == _flat_delta_inverse(red, y)


def _cotrace_cycles(cx: GradedComplex, seed: int) -> tuple[GradedComplex,
                                                           list[LaurentChain]]:
    """C tensor dual(C), its cotrace cycle, and that cycle moved by
    f tensor phi-dual (the input of the swapped duality composite)."""
    pair = tensor(cx, dual(cx))
    z = cotrace_map(cx).apply_chain(LaurentChain.of(("1", 0)))
    move = tensor_map(random_chain_map(cx, seed), phi_dual(cx))
    return pair, [z, move.apply_chain(z)]


def _random_cycle(cx: GradedComplex, rng: random.Random) -> LaurentChain:
    """A polynomial cycle off the canonical representatives: a random sum
    of U-shifted minus basis classes plus the boundary of a random chain."""
    y = LaurentChain.zero()
    for b in h_red(cx, "minus").basis:
        if rng.random() < 0.5:
            y += b.times_u(rng.randint(0, 3))
    noise = LaurentChain((g, rng.randint(0, 6)) for g in cx.generators
                         if rng.random() < 0.5)
    return y + cx.boundary_chain(noise)


def test_delta_inverse_matches_the_flat_coordinate_reference():
    for n in (1000, 1201):
        cx = build_complex("deep", [("a", 1), ("b", 0)],
                           [("a", "b", Poly.of(n, n + 1))])
        _assert_matches_flat_delta_inverse(cx, [
            LaurentChain(("b", e) for e in range(0, n, 2)),
            LaurentChain.of(("b", n - 1)), LaurentChain.of(("b", 0))])
    for seed in range(20):
        cx = torsion_complex(seed, max_rank=4, max_exponent=4)
        _assert_matches_flat_delta_inverse(*_cotrace_cycles(cx, seed))
        rng = random.Random(seed)
        _assert_matches_flat_delta_inverse(
            cx, list(h_red(cx, "minus").basis)
            + [_random_cycle(cx, rng) for _ in range(5)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_delta_inverse_matches_the_flat_reference_under_hypothesis(seed: int):
    cx = torsion_complex(seed, max_rank=4, max_exponent=4)
    _assert_matches_flat_delta_inverse(*_cotrace_cycles(cx, seed))
    rng = random.Random(seed)
    _assert_matches_flat_delta_inverse(
        cx, [_random_cycle(cx, rng) for _ in range(3)])


def test_a_wrong_per_summand_product_fails_the_zig_zag_recheck(monkeypatch):
    # a -> U^3 (1 + U) b: with u in place of u^-1 = 1 + U + U^2 mod U^3 the
    # preimage of b is U^-3 a + U^-2 a, whose image (1 + U^2) b is not b
    cx = build_complex("unit", [("a", 1), ("b", 0)],
                       [("a", "b", Poly.of(3, 4))])
    red = reduce_complex(cx)
    y = LaurentChain.of(("b", 0))
    assert _delta_inverse(red, y) == LaurentChain(
        ("a", e) for e in (-3, -2, -1))
    monkeypatch.setattr(LocalScalar, "inverse", lambda self: self)
    with pytest.raises(NotInImage):
        _delta_inverse(red, y)


# ---------------------------------------------------------------------------
# exactness of the three-flavor sequence


def test_exactness_report_on_a_two_step():
    report = les_exactness_check(two_step(3))
    assert report["exact"] is True
    assert report["rank"] == 2
    assert report["window"] == 2 * 3 + 2
    assert report["double_window"]["exact"] is True
    joint = report["joints"][1]["plus"]
    assert joint["exact"] and joint["image"] == joint["kernel"]


def test_exactness_report_on_a_free_generator():
    report = les_exactness_check(build_complex("pt", [("x", 0)]))
    assert report["exact"] is True
    # a free summand: nothing comes into the minus flavor, everything
    # dies into the plus flavor
    assert report["joints"][0]["minus"]["image"] == 0


def test_exactness_on_random_complexes():
    for seed in range(20):
        assert les_exactness_check(mixed_complex(seed))["exact"] is True


class _StandaloneWindow:
    """The window [top - width, top) built from chains alone: its columns
    and its maps, d (``_d``, the complex's column view) among them, act
    through chains and the test-local conversions, not through
    ``homology._Window``."""

    def __init__(self, cx: GradedComplex, width: int, top: int):
        self.cx, self.width, self.top = cx, width, top
        self.rank = cx.rank
        self._gens = cx.generators
        self._index = cx.index()
        self._d = cx._cols

    def mask(self, chain: LaurentChain) -> int:
        return mask_of(self, self.top, chain)

    def chain(self, mask: int) -> LaurentChain:
        return chain_of(self, self.top, mask)

    def columns(self, grading: int) -> list[int]:
        return [i for i in range(self.width * self.rank)
                if self.cx.gradings[self._gens[i % self.rank]] == grading]

    def map_mask(self, cols: dict, mask: int) -> int:
        return self.mask(_apply(cols, self.cx, self.cx, self.chain(mask)))


def _reference_joint(in_cols: list[int], out_cols: list[int],
                     mid_dim: int) -> dict:
    image, kernel = span_rank(in_cols), mid_dim - span_rank(out_cols)
    composite = [0] * len(in_cols)
    for k, c in enumerate(in_cols):
        for i, col in enumerate(out_cols):
            if c >> i & 1:
                composite[k] ^= col
    return {"image": image, "kernel": kernel,
            "exact": not any(composite) and image == kernel}


def _reference_sequence(cx: GradedComplex, w: int) -> dict:
    """The sequence on the windows [0, w), [-w, w) and [-w, 0), each built
    standalone at its own top, with greedy homology and every map a chain
    round trip."""
    minus = _StandaloneWindow(cx, w, w)
    both = _StandaloneWindow(cx, 2 * w, w)
    plus = _StandaloneWindow(cx, w, 0)
    gradings = sorted(set(cx.gradings.values()))
    hm = {g: greedy_window_homology(minus, g)
          for g in set(gradings) | {g - 1 for g in gradings}}
    hb = {g: greedy_window_homology(both, g) for g in gradings}
    hp = {g: greedy_window_homology(plus, g) for g in gradings}

    def induced(src, apply, dst) -> list[int]:
        cols = [dst.coords(apply(v)) for v in src.reps]
        assert None not in cols
        return cols

    def connect(v: int) -> int:
        bd = cx.boundary_chain(plus.chain(v))
        assert not bd.negative_part()
        return minus.mask(bd)

    iota = {g: induced(hm[g], lambda v: both.mask(minus.chain(v)), hb[g])
            for g in gradings}
    proj = {g: induced(hb[g], lambda v: plus.mask(both.chain(v)), hp[g])
            for g in gradings}
    conn = {g: induced(hp[g], connect, hm[g - 1]) for g in gradings}
    joints = {g: {"minus": _reference_joint(conn.get(g + 1, []), iota[g],
                                            hm[g].dim),
                  "infinity": _reference_joint(iota[g], proj[g], hb[g].dim),
                  "plus": _reference_joint(proj[g], conn[g], hp[g].dim)}
              for g in gradings}
    exact = all(j["exact"] for report in joints.values()
                for j in report.values())
    return {"joints": joints, "exact": exact}


def _reference_exactness_report(cx: GradedComplex) -> dict:
    width = 2 * classify(cx).max_exponent + 2
    first = _reference_sequence(cx, width)
    second = _reference_sequence(cx, 2 * width)
    assert first["exact"] == second["exact"]
    return {"window": width, "rank": cx.rank, "exact": first["exact"],
            "joints": first["joints"],
            "double_window": {"window": 2 * width, "exact": second["exact"]}}


def test_exactness_report_matches_the_standalone_window_reference():
    for seed in range(40):
        cx = mixed_complex(seed)
        assert (json.dumps(les_exactness_check(cx))
                == json.dumps(_reference_exactness_report(cx)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exactness_report_matches_the_reference_under_hypothesis(seed: int):
    cx = mixed_complex(seed)
    assert (json.dumps(les_exactness_check(cx))
            == json.dumps(_reference_exactness_report(cx)))


def test_window_layout_and_boundaries_match_the_term_by_term_reference():
    # the window's basis as a list, exponent by exponent from the top, each
    # exponent's generators in order; the boundary of U^e g is added one
    # differential term at a time, each kept where it lands inside the
    # window.  One window serves every top: it is its width.
    for seed in range(10):
        cx = mixed_complex(seed)
        for width in (7, 5):
            w = _Window(cx, width)
            for top in (0, 4, -3):
                lo = top - width
                basis = [(g, e) for e in reversed(range(lo, top))
                         for g in cx.generators]
                for i, (g, e) in enumerate(basis):
                    assert chain_of(w, top, 1 << i) == LaurentChain.of((g, e))
                    assert mask_of(w, top, LaurentChain.of((g, e))) == 1 << i
                    ref = 0
                    for (t, s), p in cx.d.items():
                        if s == g:
                            for k in p.exponents():
                                if e + k < top:
                                    ref ^= 1 << basis.index((t, e + k))
                    assert w.map_mask(w._d, 1 << i) == ref
                for gr in set(cx.gradings.values()):
                    assert w.columns(gr) == [i for i, (g, _) in enumerate(basis)
                                             if cx.gradings[g] == gr]
                outside = LaurentChain.of((cx.generators[0], lo - 1),
                                          (cx.generators[-1], top),
                                          ("nowhere", lo))
                assert mask_of(w, top, outside) == 0


# ---------------------------------------------------------------------------
# window homology against the greedy reference

_WIDTHS = (7, 5)


def _paired_complex(seed: int, one_steps: bool) -> GradedComplex:
    """Two generators in every grading: two 2-steps from one grading, and
    with ``one_steps`` two free generators in one grading, scrambled."""
    rng = random.Random(seed)
    g = rng.randint(-2, 2)
    twos = ((g, rng.randint(1, 4)), (g, rng.randint(1, 4)))
    ones = (g - 2, g - 2) if one_steps else ()
    return random_basis_change(realize(NormalForm(ones, twos)), seed=seed + 1,
                               steps=rng.randint(4, 16))


def _window_inputs(seed: int, one_steps: bool) -> list[GradedComplex]:
    return [scrambled(seed, 7, 4, one_steps)[1],
            _paired_complex(seed, one_steps)]


def _xor_of(pool: list[int], rng: random.Random) -> int:
    acc = 0
    for v in pool:
        if rng.random() < 0.5:
            acc ^= v
    return acc


def _assert_quotient_matches_greedy(h, w: _Window, g: int,
                                    rng: random.Random) -> None:
    """``h`` against the greedy homology of window ``w`` at grading g."""
    ref = greedy_window_homology(w, g)
    assert h.reps == ref.reps
    assert h.dim == ref.dim
    cycles = w._eliminate(g)[0]
    boundaries = [w.map_mask(w._d, 1 << i) for i in w.columns(g + 1)]
    for _ in range(8):
        v = _xor_of(boundaries + cycles, rng)
        assert h.coords(v) is not None
        assert h.coords(v) == ref.coords(v)
    for i in w.columns(g):
        if w.map_mask(w._d, 1 << i):  # not a cycle, nor with a cycle added
            v = (1 << i) ^ _xor_of(cycles, rng)
            assert h.coords(v) is None and ref.coords(v) is None


def _assert_window_homology_matches_greedy(cx: GradedComplex,
                                           rng: random.Random) -> None:
    gradings = set(cx.gradings.values())
    for width in _WIDTHS:
        w = _Window(cx, width)
        for g in range(min(gradings) - 1, max(gradings) + 2):
            _assert_quotient_matches_greedy(w.homology(g), w, g, rng)


def test_window_homology_matches_the_greedy_reference():
    for seed in range(12):
        rng = random.Random(seed)
        for one_steps in (False, True):
            for cx in _window_inputs(seed, one_steps):
                _assert_window_homology_matches_greedy(cx, rng)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), one_steps=st.booleans())
def test_window_homology_matches_the_greedy_reference_under_hypothesis(
        seed: int, one_steps: bool):
    rng = random.Random(seed)
    for cx in _window_inputs(seed, one_steps):
        _assert_window_homology_matches_greedy(cx, rng)


def _assert_prefixes_match_standalone_windows(cx: GradedComplex,
                                              rng: random.Random) -> None:
    # the oracle's window of depth 2 * small + n and the widths it reads
    # (small, small + n, 2 * small, 2 * small + n), with small = n + 1 for
    # the largest exponent n; every other width of the deep window too
    n = classify(cx).max_exponent
    depth = 3 * n + 2
    gradings = set(cx.gradings.values())
    deep = _Window(cx, depth)
    for width in range(1, depth + 1):
        w = _Window(cx, width)
        for g in range(min(gradings) - 1, max(gradings) + 2):
            _assert_quotient_matches_greedy(deep.homology(g, width), w, g, rng)


def test_every_prefix_of_a_deep_window_matches_a_standalone_window():
    for seed in range(6):
        rng = random.Random(seed)
        for one_steps in (False, True):
            for cx in _window_inputs(seed, one_steps):
                _assert_prefixes_match_standalone_windows(cx, rng)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), one_steps=st.booleans())
def test_every_prefix_of_a_deep_window_matches_under_hypothesis(
        seed: int, one_steps: bool):
    rng = random.Random(seed)
    for cx in _window_inputs(seed, one_steps):
        _assert_prefixes_match_standalone_windows(cx, rng)


def _assert_dim_counts_the_classes(cx: GradedComplex) -> None:
    gradings = set(cx.gradings.values())
    window = _Window(cx, 3 * classify(cx).max_exponent + 2)
    for g in range(min(gradings) - 1, max(gradings) + 2):
        for width in range(window.width + 1):
            assert window.dim(g, width) == window.homology(g, width).dim
    with pytest.raises(CrossCheckMismatch, match="reads past"):
        window.dim(min(gradings), window.width + 1)


def test_window_dim_counts_the_homology_classes():
    """``dim`` against the quotient ``homology`` builds, at every grading
    and width of the window: on campaign trials, on complexes with a
    cancelled pair and on complexes with 1-steps."""
    inputs = [campaign_trial(index)[0] for index in range(30)]
    inputs += [_with_a_cancelled_pair(seed) for seed in range(10)]
    inputs += [cx for seed in range(10) for cx in _window_inputs(seed, True)]
    for cx in inputs:
        _assert_dim_counts_the_classes(cx)


def _assert_masks_match_the_chain_round_trip(cx: GradedComplex,
                                             rng: random.Random) -> None:
    f = random_chain_map(cx, rng.getrandbits(32))
    for top, width in [(0, 7), (5, 5), (4, 7)]:
        src = _Window(cx, width)
        f_templates = src.templates(f._cols)
        masks = [rng.getrandbits(src.width * cx.rank) for _ in range(4)]
        masks += [v for g in set(cx.gradings.values())
                  for v in src.homology(g).reps]
        for m in masks:
            chain = chain_of(src, top, m)
            assert (src.map_mask(f_templates, m)
                    == mask_of(src, top, f.apply_chain(chain)))
            assert (src.map_mask(src._d, m)
                    == mask_of(src, top, cx.boundary_chain(chain)))
    # the oracle's pair: a window inside a deeper one with the same top,
    # where a class of the shallower is a mask of the deeper as it stands
    ws, wb = _Window(cx, 3), _Window(cx, 7)
    f_templates = wb.templates(f._cols)
    for g in set(cx.gradings.values()):
        for v in ws.homology(g).reps + [rng.getrandbits(3 * cx.rank)]:
            chain = chain_of(ws, 0, v)
            assert mask_of(wb, 0, chain) == v
            assert (wb.map_mask(f_templates, v)
                    == mask_of(wb, 0, f.apply_chain(chain)))


def test_window_lift_and_map_match_the_chain_round_trip():
    for seed in range(12):
        rng = random.Random(seed)
        for one_steps in (False, True):
            for cx in _window_inputs(seed, one_steps):
                _assert_masks_match_the_chain_round_trip(cx, rng)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), one_steps=st.booleans())
def test_window_lift_and_map_match_the_chain_round_trip_under_hypothesis(
        seed: int, one_steps: bool):
    rng = random.Random(seed)
    for cx in _window_inputs(seed, one_steps):
        _assert_masks_match_the_chain_round_trip(cx, rng)


# ---------------------------------------------------------------------------
# window maps against the stripe-and-shift reference
#
# The reference applies a map as lists of bit shifts, one per map term:
# one window-wide AND per generator stripe, then one window-wide shift
# per term.  Its cost follows the window's width, not the vector.


def _shift_lists(w: _Window, cols: dict[int, list]) -> list[list[int]]:
    """Per source j, the shift of bit position carrying U^e g_j to each
    term of its image: U^k g_t is a shift by t - j - k * rank."""
    return [[t - j - k * w.rank for t, p in cols.get(j, ())
             for k in set_bits(p.bits)] for j in range(w.rank)]


def _stripe_map_mask(w: _Window, shifts: list[list[int]], mask: int) -> int:
    ones = ((1 << w.width * w.rank) - 1) // ((1 << w.rank) - 1 or 1)
    m = 0
    for j, sh in enumerate(shifts):
        part = mask & ones << j
        for s in sh:
            m ^= part << s if s >= 0 else part >> -s
    return m


def _window_map(shifts: list[list[int]]) -> list[tuple[int, int]]:
    """Shift lists in the form ``_Window.map_mask`` takes: per generator,
    the XOR of its terms as one mask, with its own bit at ``top``."""
    out = []
    for sh in shifts:
        top, template = max((-s for s in sh), default=0), 0
        for s in sh:
            template ^= 1 << (s + top)
        out.append((template, top))
    return out


def _with_a_cancelled_pair(seed: int) -> GradedComplex:
    """A mixed complex plus an acyclic summand c -> (1 + U) e, scrambled,
    so the reduction cancels a pair."""
    rng = random.Random(seed)
    cx = mixed_complex(seed)
    g = rng.choice(sorted(set(cx.gradings.values())))
    unit = build_complex("unit", [("c", g), ("e", g - 1)],
                         [("c", "e", Poly.of(0, 1))])
    return random_basis_change(direct_sum(cx, unit), seed=seed + 2,
                               steps=rng.randint(4, 16))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), one_steps=st.booleans(),
       width=st.integers(min_value=1, max_value=12))
def test_window_maps_match_the_stripe_and_shift_reference(
        seed: int, one_steps: bool, width: int):
    rng = random.Random(seed)
    inputs = _window_inputs(seed, one_steps) + [mixed_complex(seed),
                                                _with_a_cancelled_pair(seed)]
    for cx in inputs:
        w = _Window(cx, width)
        bits = width * cx.rank
        # d, a chain map, and hand-made maps that lower exponents (shifts
        # past a row) or carry terms past the top
        maps = [_shift_lists(w, cx._cols),
                _shift_lists(w, random_chain_map(cx, rng.getrandbits(32))._cols)]
        maps += [[[rng.randint(-3 * cx.rank, 3 * cx.rank)
                   for _ in range(rng.randint(0, 3))] for _ in range(cx.rank)]
                 for _ in range(2)]
        sparse = 0
        for _ in range(rng.randint(2, 6)):
            sparse |= 1 << rng.randrange(bits)
        masks = [0, 1 << rng.randrange(bits), sparse, rng.getrandbits(bits),
                 (1 << bits) - 1]
        assert w.templates(cx._cols) == w._d == _window_map(maps[0])
        for shifts in maps:
            for m in masks:
                assert (w.map_mask(_window_map(shifts), m)
                        == _stripe_map_mask(w, shifts, m))


def test_windowed_connecting_map_must_land_in_the_subcomplex():
    # a d that lowers every exponent by one takes each plus class of the
    # two-step above the rows of [0, w) in [-w, w); the check refuses it.
    # d also feeds the elimination, so it is swapped only once every
    # grading has been eliminated with the true one
    cx = two_step(3)
    window = _Window(cx, 4 * 8)
    for g in window.gradings:
        window._eliminate(g)
    window._d = [(1 << cx.rank, 0) for _ in cx.generators]
    with pytest.raises(CrossCheckMismatch, match="left the subcomplex"):
        _les_at_window(window, 8)


def test_exactness_needs_the_composite_to_vanish():
    # the map in hits the first basis vector, which the map out keeps, so
    # the composite is nonzero though image and kernel have equal dimension
    assert _exact_at([0b01], [0b1, 0], 2) == {
        "image": 1, "kernel": 1, "exact": False}
    assert _exact_at([0b10], [0b1, 0], 2)["exact"] is True


def test_window_homology_refuses_a_width_past_its_own():
    window = _Window(two_step(3), 5)
    assert window.homology(1, 5).reps == window.homology(1).reps
    with pytest.raises(CrossCheckMismatch,
                       match="width 6 reads past the window's width 5"):
        window.homology(1, 6)


def test_induced_map_refuses_an_image_outside_the_window_homology():
    # the lowest row's copy of a has boundary U^3 b inside a window of
    # width 5, so it is no cycle there and has no class
    cx = two_step(3)
    q = _Window(cx, 5).homology(1)
    assert q.reps
    with pytest.raises(CrossCheckMismatch,
                       match="induced image left the homology of the window"):
        _induced(q, lambda v: 1 << 4 * cx.rank + cx._index["a"], q)


def test_exactness_check_refuses_a_verdict_that_flips_at_double_width(
        monkeypatch):
    real, widths = homology._les_at_window, []

    def flip_the_second(window, width):
        widths.append(width)
        report = real(window, width)
        if len(widths) == 2:
            report = {**report, "exact": not report["exact"]}
        return report

    monkeypatch.setattr(homology, "_les_at_window", flip_the_second)
    with pytest.raises(CrossCheckMismatch,
                       match="window doubling flipped the exactness verdict"):
        les_exactness_check(two_step(3))
    assert widths == [8, 16]


def test_exactness_check_refuses_large_ranks():
    with pytest.raises(RankTooLarge):
        les_exactness_check(realize(NormalForm(tuple(range(13)), ())))


# ---------------------------------------------------------------------------
# mapping tori


def _circle() -> GradedComplex:
    return build_complex("circle", [("e0", 0), ("e1", 1)])


def _surface(genus: int) -> GradedComplex:
    gens = [("v", 0)] + [(f"e{i}", 1) for i in range(2 * genus)] + [("f", 2)]
    return build_complex(f"sigma{genus}", gens)


def test_mapping_torus_of_the_identity_on_a_circle_is_a_torus():
    cy = _circle()
    betti = mapping_torus_betti(cy, identity_map(cy))
    assert betti == {0: 1, 1: 2, 2: 1}


def test_mapping_torus_of_a_circle_swap_is_one_torus():
    cy = build_complex("two-circles", [("p", 0), ("q", 0), ("e", 1), ("f", 1)])
    swap = build_chain_map("swap", cy, cy, 0,
                           [("p", "q", Poly(1)), ("q", "p", Poly(1)),
                            ("e", "f", Poly(1)), ("f", "e", Poly(1))])
    assert mapping_torus_betti(cy, swap) == {0: 1, 1: 2, 2: 1}


def test_mapping_torus_of_surface_identities():
    for genus in (1, 2, 3):
        cy = _surface(genus)
        betti = mapping_torus_betti(cy, identity_map(cy))
        assert betti == {0: 1, 1: 2 * genus + 1, 2: 2 * genus + 1, 3: 1}


def test_mapping_torus_betti_satisfies_the_cone_rank_identity():
    cy = build_complex("wedge", [("p", 0), ("e", 1), ("f", 1)])
    phi = build_chain_map("glue", cy, cy, 0,
                          [("p", "p", Poly(1)), ("e", "f", Poly(1))])
    betti = mapping_torus_betti(cy, phi)
    # id+phi has rank 0 in grading 0 and rank 2 in grading 1 (e maps to
    # e+f, f maps to f): coker/ker dims are 1,1 at grading 0 and 0,0 at 1
    assert betti == {0: 1, 1: 1 + 0, 2: 0}


def test_mapping_torus_rejects_u_dependence():
    with pytest.raises(NotUFree):
        mapping_torus_betti(two_step(1), identity_map(two_step(1)))
    cy = _circle()
    bad = build_chain_map("u-scale", cy, cy, 0, [("e0", "e0", Poly.u(1))])
    with pytest.raises(NotUFree):
        mapping_torus_betti(cy, bad)


def test_mapping_torus_rejects_nonzero_degree_and_foreign_maps():
    cy = _circle()
    with pytest.raises(DegreeMismatch):
        mapping_torus_betti(cy, build_chain_map("h", cy, cy, 1, []))
    other = build_complex("other", [("z", 0)])
    with pytest.raises(ComplexMismatch):
        mapping_torus_betti(cy, zero_map(other, other))


# ---------------------------------------------------------------------------
# the pairing with the dual


def test_pairing_fires_only_when_exponents_sum_to_minus_one():
    assert f2_pairing(LaurentChain.of(("a", -1)), LaurentChain.of(("a*", 0))) == 1
    assert f2_pairing(LaurentChain.of(("a", 0)), LaurentChain.of(("a*", 0))) == 0
    assert f2_pairing(LaurentChain.of(("a", -1)), LaurentChain.of(("b*", 0))) == 0
    assert f2_pairing(LaurentChain.of(("a", -3)), LaurentChain.of(("a*", 2))) == 1


def test_pairing_is_bilinear_over_f2():
    x1 = LaurentChain.of(("a", -1), ("b", -2))
    x2 = LaurentChain.of(("a", -1))
    y = LaurentChain.of(("a*", 0), ("b*", 1))
    assert f2_pairing(x1 + x2, y) == (f2_pairing(x1, y) + f2_pairing(x2, y)) % 2


def test_pairing_is_adjoint_to_the_differentials():
    rng = random.Random(5)
    for seed in range(15):
        cx = torsion_complex(seed)
        dv = dual(cx)
        for _ in range(10):
            z = LaurentChain.of(*(
                (rng.choice(cx.generators), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))))
            w = LaurentChain.of(*(
                (rng.choice(dv.generators), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))))
            lhs = f2_pairing(cx.boundary_chain(z), w)
            rhs = f2_pairing(z, dv.boundary_chain(w))
            assert lhs == rhs


def test_pairing_of_plus_basis_with_dual_red_basis_is_perfect():
    for seed in range(15):
        cx = torsion_complex(seed, max_rank=6, max_exponent=4)
        xs = h_plus(cx).basis
        ys = h_red(dual(cx), "minus").basis
        assert len(xs) == len(ys)
        matrix_rows = []
        for x in xs:
            row = 0
            for j, y in enumerate(ys):
                row |= f2_pairing(x, y) << j
            matrix_rows.append(row)
        assert span_rank(matrix_rows) == len(xs)


def test_pairing_check_reads_a_perfect_pairing_and_refuses_free_summands():
    for seed in range(15):
        cx = torsion_complex(seed, max_rank=6, max_exponent=4)
        dim = h_plus(cx).f2_dimension
        assert pairing_check(cx) == {"dimension": dim, "matrix_rank": dim,
                                     "invertible": True,
                                     "trace_cotrace_ok": True}
    with pytest.raises(InfinityNotZero,
                       match="the pairing check needs a finite plus flavor"):
        pairing_check(build_complex("pt", [("x", 0)]))


def test_plus_dimension_matches_dual_red_dimension():
    for seed in range(10):
        cx = torsion_complex(seed)
        assert h_plus(cx).f2_dimension == h_red(dual(cx), "minus").f2_dimension
