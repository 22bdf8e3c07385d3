"""The derivative endomorphism, trace pairing, and the duality quantity."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uchain.complexes import (
    ChainMap,
    GradedComplex,
    LaurentChain,
    build_chain_map,
    build_complex,
    complex_to_text,
    compose,
    direct_sum,
    dual,
    identity_map,
    map_to_text,
    relabel,
    scalar_map,
    tensor,
    tensor_map,
    zero_map,
)
from uchain.errors import (
    ComplexMismatch,
    CrossCheckMismatch,
    DegreeMismatch,
    InfinityNotZero,
    ParameterOutOfRange,
)
from uchain.complexes import _chain_map, _dual_id, _mat_mul
from uchain.gf2 import rank
from uchain.homology import _Window
from uchain import lefschetz
from uchain.lefschetz import (
    TrialFailure,
    VerificationReport,
    _pool_size,
    cotrace_map,
    delta_quantity,
    lefschetz_by_grading,
    lefschetz_oracle,
    phi,
    phi_dual,
    trace_map,
    verify_proposition,
)
from uchain.normal_form import (
    NormalForm,
    Reduction,
    classify,
    random_basis_change,
    random_chain_map,
    realize,
    reduce_complex,
)
from uchain.scalars import P1, Poly

from conftest import campaign_trial, scrambled, torsion_complex, two_step
from f2_reference import (QuotientSlice, Span, chain_of,
                          greedy_window_homology, mask_of)


# ---------------------------------------------------------------------------
# the derivative endomorphism


def test_phi_differentiates_an_odd_exponent():
    f = phi(two_step(3))
    assert f.degree == -1
    assert f.entries == {("b", "a"): Poly.u(2)}


def test_phi_vanishes_on_even_exponents():
    assert phi(two_step(2)).entries == {}


def test_phi_anticommutes_with_the_differential_exactly():
    # characteristic 2: anticommuting and commuting coincide; the identity
    # is the derivative of d o d = 0
    for seed in range(25):
        cx = scrambled(seed, 6, 4)[1]
        f = phi(cx)
        assert _mat_mul(cx.d, f.entries) == _mat_mul(f.entries, cx.d)


def test_phi_dual_transposes_the_derivative():
    f = phi_dual(two_step(3))
    assert f.entries == {("a*", "b*"): Poly.u(2)}
    assert f.source.generators == ("a*", "b*")


def test_phi_dual_equals_phi_of_the_dual():
    for seed in range(50):
        cx = scrambled(seed, 6, 4)[1]
        assert phi_dual(cx).entries == phi(dual(cx)).entries


def test_phi_dual_of_a_one_step_is_zero():
    assert phi_dual(build_complex("pt", [("x", 0)])).entries == {}


# ---------------------------------------------------------------------------
# trace and cotrace


def test_trace_collects_matching_tensor_factors():
    cx = build_complex("pt", [("x", 0)])
    tr = trace_map(cx)
    assert tr.apply_chain(LaurentChain.of(("x.x*", 3))) == LaurentChain.of(("1", 3))


def test_trace_kills_mismatched_tensor_factors():
    cx = two_step(2)
    tr = trace_map(cx)
    assert tr.apply_chain(LaurentChain.of(("a.b*", 0))) == LaurentChain.zero()
    assert tr.apply_chain(LaurentChain.of(("b.b*", 1))) == LaurentChain.of(("1", 1))


def test_trace_annihilates_boundaries():
    for seed in range(10):
        cx = scrambled(seed, 6, 4)[1]
        t = tensor(cx, dual(cx))
        tr = trace_map(cx)
        for g in t.generators:
            bd = t.boundary_chain(LaurentChain.of((g, 0)))
            assert tr.apply_chain(bd) == LaurentChain.zero()


def test_cotrace_emits_the_diagonal_cycle():
    cx = two_step(3)
    z = cotrace_map(cx).apply_chain(LaurentChain.of(("1", 0)))
    assert z == LaurentChain.of(("a.a*", 0), ("b.b*", 0))
    t = tensor(cx, dual(cx))
    assert t.boundary_chain(z) == LaurentChain.zero()


def test_trace_of_cotrace_is_the_rank_parity():
    for seed in range(15):
        cx = scrambled(seed, 6, 4)[1]
        composite = compose(trace_map(cx), cotrace_map(cx))
        one = LaurentChain.of(("1", 0))
        expected = LaurentChain.of(("1", 0)) if cx.rank % 2 else LaurentChain.zero()
        assert composite.apply_chain(one) == expected


# ---------------------------------------------------------------------------
# the duality quantity


def test_duality_quantity_of_a_two_step_is_the_exponent_parity():
    assert delta_quantity(two_step(3), identity_map(two_step(3))) == 1
    assert delta_quantity(two_step(2), identity_map(two_step(2))) == 0


def test_duality_quantity_scales_with_the_constant_coefficient():
    cx = two_step(3)
    assert delta_quantity(cx, scalar_map(cx, Poly.of(0, 1))) == 1  # k=1, n=3
    assert delta_quantity(cx, scalar_map(cx, Poly.of(1, 2))) == 0  # k=0
    even = two_step(4)
    assert delta_quantity(even, scalar_map(even, Poly.of(0, 3))) == 0  # n even


def test_duality_quantity_requires_finite_plus_homology():
    cx = build_complex("pt", [("x", 0)])
    with pytest.raises(InfinityNotZero, match="^free summands survive "
                       "inverting U; the quantity is undefined$"):
        delta_quantity(cx, identity_map(cx))


def test_duality_quantity_rejects_mismatched_maps():
    cx = two_step(2)
    with pytest.raises(DegreeMismatch):
        delta_quantity(cx, build_chain_map("h", cx, cx, 1, []))
    other = build_complex("pt", [("x", 0)])
    with pytest.raises(ComplexMismatch):
        delta_quantity(cx, zero_map(other, other))


def test_duality_quantity_is_additive_over_direct_sums():
    for seed in range(10):
        a = torsion_complex(seed, max_rank=4)
        b0 = torsion_complex(seed + 400, max_rank=4)
        b = relabel(b0, {g: g + "'" for g in b0.generators}, name="b")
        fa = random_chain_map(a, seed=seed + 1)
        fb0 = random_chain_map(b0, seed=seed + 2)
        s = direct_sum(a, b)
        fs = build_chain_map(
            "sum", s, s, 0,
            [(sgen, tgen, p) for (tgen, sgen), p in fa.entries.items()]
            + [(sgen + "'", tgen + "'", p)
               for (tgen, sgen), p in fb0.entries.items()])
        total = delta_quantity(s, fs)
        assert total == (delta_quantity(a, fa)
                         + delta_quantity(b0, fb0)) % 2


def test_duality_quantity_is_invariant_under_conjugation():
    for seed in range(15):
        cx = torsion_complex(seed)
        f = random_chain_map(cx, seed=seed + 31)
        moved, iso, iso_inv = random_basis_change(cx, seed=seed + 77, steps=10,
                                                  with_iso=True)
        conj = compose(iso_inv, compose(f, iso))
        assert delta_quantity(moved, conj) == delta_quantity(cx, f)


def test_both_composition_orders_give_the_same_quantity(
        literal_delta_quantity):
    for seed in range(20):
        cx = torsion_complex(seed)
        f = random_chain_map(cx, seed=seed + 13)
        assert literal_delta_quantity(cx, f, swapped=True) == \
            delta_quantity(cx, f)


def _assert_matches_the_literal_composite(literal, cx, f, *overrides) -> None:
    """delta_quantity equals the literal composite in both orders, plain,
    with the identity in place of phi-dual, and with each override."""
    for override in (None, identity_map(dual(cx)), *overrides):
        value = delta_quantity(cx, f, _phi_dual_override=override)
        for swapped in (False, True):
            assert literal(cx, f, phi_dual_override=override,
                           swapped=swapped) == value


def test_blockwise_quantity_matches_the_literal_composite_on_campaign_trials(
        literal_delta_quantity):
    # the trials verify_proposition(20260814, ..., 8, 6) runs
    for index in range(40):
        cx, f = campaign_trial(index)
        _assert_matches_the_literal_composite(literal_delta_quantity, cx, f)


_UNITS = st.integers(min_value=0, max_value=7).map(lambda b: Poly(2 * b + 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       pivot_units=st.lists(_UNITS, min_size=1, max_size=3),
       cancelled=st.lists(_UNITS, max_size=2),
       steps=st.integers(min_value=0, max_value=25))
def test_blockwise_quantity_matches_the_literal_composite(
        literal_delta_quantity, seed, pivot_units, cancelled, steps):
    """Scrambled complexes of 2-steps a_k -> U^n unit b_k and acyclic pairs
    c -> unit e (valuation 0) in the 2-steps' gradings.  One more override
    is the transpose of a degree -1 chain map sending each a_k to
    multiples of the b_j: unlike phi, it makes the value depend on the
    pivots' units and on which way the override is transposed."""
    rng = random.Random(seed)
    gens: list[tuple[str, int]] = []
    entries = []
    for k, unit in enumerate(pivot_units):
        g = rng.randint(-1, 1)
        gens += [(f"a{k}", g), (f"b{k}", g - 1)]
        entries.append((f"a{k}", f"b{k}", Poly.u(rng.randint(1, 4)) * unit))
    for k, unit in enumerate(cancelled):
        g = gens[2 * rng.randrange(len(pivot_units))][1]
        gens += [(f"c{k}", g), (f"e{k}", g - 1)]
        entries.append((f"c{k}", f"e{k}", unit))
    model = build_complex("model", gens, entries)
    k_range = range(len(pivot_units))
    a_to_b = build_chain_map(
        "a_to_b", model, model, -1,
        [(f"a{k}", f"b{j}", Poly(rng.getrandbits(2)))
         for k in k_range for j in k_range
         if model.gradings[f"a{k}"] == model.gradings[f"a{j}"]])
    cx, iso, iso_inv = random_basis_change(model, seed=seed + 1, steps=steps,
                                           with_iso=True)
    moved = compose(iso_inv, compose(a_to_b, iso))
    dcx = dual(cx)
    transposed = ChainMap("a_to_b_dual", dcx, dcx, -1,
                          {(_dual_id(s), _dual_id(t)): p
                           for (t, s), p in moved.entries.items()})
    f = random_chain_map(cx, seed + 2)
    _assert_matches_the_literal_composite(literal_delta_quantity, cx, f,
                                          transposed)


@pytest.mark.parametrize("rank", [16, 24, 32])
def test_blockwise_quantity_matches_the_literal_composite_at_large_rank(
        literal_delta_quantity, rank):
    rng = random.Random(rank)
    nf = NormalForm((), tuple((rng.randint(-2, 2), rng.randint(1, 3))
                              for _ in range(rank // 2)))
    cx = random_basis_change(realize(nf), seed=rank, steps=32)
    f = random_chain_map(cx, rank + 1)
    for override in (None, identity_map(dual(cx))):
        assert literal_delta_quantity(cx, f, phi_dual_override=override) \
            == delta_quantity(cx, f, _phi_dual_override=override)


# ---------------------------------------------------------------------------
# the direct trace oracle


def test_oracle_on_two_steps_counts_the_exponent():
    for n in [*range(1, 9), 1000, 1001, 3000]:
        cx = two_step(n)
        assert lefschetz_oracle(cx, identity_map(cx)) == n % 2


def test_oracle_of_the_zero_map_is_zero():
    for seed in range(5):
        cx = torsion_complex(seed)
        assert lefschetz_oracle(cx, zero_map(cx, cx)) == 0


def test_oracle_of_a_u_multiple_is_zero():
    # multiplication by U lowers the depth filtration strictly, so the
    # induced matrix is nilpotent-triangular and traceless
    for seed in range(10):
        cx = torsion_complex(seed)
        g = random_chain_map(cx, seed=seed + 3)
        u_g = compose(scalar_map(cx, Poly.u(1)), g)
        assert lefschetz_oracle(cx, u_g) == 0


def test_oracle_requires_finite_plus_homology():
    cx = build_complex("pt", [("x", 0)])
    with pytest.raises(InfinityNotZero, match="^free summands survive "
                       "inverting U; the plus flavor is infinite dimensional$"):
        lefschetz_oracle(cx, identity_map(cx))


def test_grading_split_sums_to_the_oracle():
    for seed in range(10):
        cx = torsion_complex(seed)
        f = random_chain_map(cx, seed=seed + 5)
        split = lefschetz_by_grading(cx, f)
        assert sum(split.values()) % 2 == lefschetz_oracle(cx, f)


def test_grading_split_of_a_two_step_sits_at_the_top_generator():
    split = lefschetz_by_grading(two_step(3), identity_map(two_step(3)))
    assert split == {0: 0, 1: 1}


def _round_trip_stable_traces(cx: GradedComplex, f: ChainMap, small: int,
                             big: int) -> dict[int, int]:
    """The oracle's stable traces walked through chains: each class goes
    to a chain and back into the deeper window, f acts on the chain, and
    window homology is the greedy reference."""
    ws, wb = _Window(cx, small), _Window(cx, big)
    out = {}
    for g in sorted(set(cx.gradings.values())):
        hb = greedy_window_homology(wb, g)
        stable = []
        span = Span()
        for v in greedy_window_homology(ws, g).reps:
            chain = chain_of(ws, 0, v)
            c = hb.coords(mask_of(wb, 0, chain))
            assert c is not None
            tag = span.count
            if span.add(c):
                stable.append((tag, chain))
        trace = 0
        for tag, chain in stable:
            fc = hb.coords(mask_of(wb, 0, f.apply_chain(chain)))
            combo = None if fc is None else span.express(fc)
            assert combo is not None
            trace ^= combo >> tag & 1
        out[g] = trace
    return out


def _paired_torsion_complex(seed: int) -> GradedComplex:
    """Two 2-steps from one grading, so each grading holds two generators."""
    rng = random.Random(seed)
    g = rng.randint(-2, 2)
    nf = NormalForm((), ((g, rng.randint(1, 5)), (g, rng.randint(1, 5))))
    return random_basis_change(realize(nf), seed=seed + 1,
                               steps=rng.randint(4, 16))


def _span_stable_traces(window: _Window, f_templates: list[tuple[int, int]],
                        small: int, big: int) -> dict[int, int]:
    """The stable traces read the long way: every class of the small
    window's own homology is carried into the big window, a ``Span`` of
    their coordinates keeps the independent ones, tagged by add order,
    and f's image of each is expressed in that span."""
    out = {}
    for g in window.gradings:
        hb = window.homology(g, big)
        stable = []
        span = Span()
        for v in window.homology(g, small).reps:
            c = hb.coords(v)
            assert c is not None
            tag = span.count
            if span.add(c):
                stable.append((tag, v))
        trace = 0
        for tag, v in stable:
            fc = hb.coords(window.map_mask(f_templates, v))
            combo = None if fc is None else span.express(fc)
            assert combo is not None
            trace ^= combo >> tag & 1
        out[g] = trace
    return out


def _deep_paired_complex(seed: int, n: int) -> GradedComplex:
    """Two scrambled 2-steps of one grading, of exponents n and 60..n."""
    rng = random.Random(seed)
    g = rng.randint(-2, 2)
    nf = NormalForm((), ((g, n), (g, rng.randint(60, n))))
    return random_basis_change(realize(nf), seed=seed + 1,
                               steps=rng.randint(4, 16))


def _assert_stable_traces_match_the_references(cx: GradedComplex,
                                               f: ChainMap) -> None:
    n_max = classify(cx).max_exponent
    small = n_max + 1
    window = _Window(cx, 2 * small + n_max)
    f_templates = window.templates(f._cols)
    for depth in (small, 2 * small):
        traces = lefschetz._stable_traces(window, f_templates, depth,
                                          depth + n_max)
        assert traces == _round_trip_stable_traces(cx, f, depth, depth + n_max)
        assert traces == _span_stable_traces(window, f_templates, depth,
                                             depth + n_max)


def test_stable_traces_match_the_chain_round_trip():
    for seed in range(20):
        for cx in (torsion_complex(seed), _paired_torsion_complex(seed)):
            _assert_stable_traces_match_the_references(
                cx, random_chain_map(cx, seed=seed + 11))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_stable_traces_match_the_chain_round_trip_under_hypothesis(seed: int):
    for cx in (torsion_complex(seed), _paired_torsion_complex(seed)):
        _assert_stable_traces_match_the_references(
            cx, random_chain_map(cx, seed=seed + 11))


def test_stable_prefix_matches_the_span_reading():
    """The prefix of the deep window's representatives below the small
    width spans the small window's image, so both readings agree."""
    for seed in range(12):
        for cx in (_paired_torsion_complex(seed),
                   _deep_paired_complex(seed, 60 + seed)):
            for f in (identity_map(cx), random_chain_map(cx, seed=seed + 11)):
                _assert_stable_traces_match_the_references(cx, f)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=60, max_value=90), identity=st.booleans())
def test_stable_prefix_matches_the_span_reading_under_hypothesis(
        seed: int, n: int, identity: bool):
    for cx in (_paired_torsion_complex(seed), _deep_paired_complex(seed, n)):
        f = identity_map(cx) if identity else random_chain_map(cx, seed=seed + 11)
        _assert_stable_traces_match_the_references(cx, f)


def test_small_windows_build_no_class_coordinates(monkeypatch):
    """The oracle reads only the dimensions of the certificate's windows,
    of widths n_max and small, through ``dim``, so it builds no quotient
    for them.  A deep window of width depth + n_max is queried only on its
    classes below bit depth * rank, its pass's stable prefix, with depth
    small for the first pass and 2 * small for the second, so it builds
    the span exactly when it holds such a class."""
    built, counted = [], []
    homology, dim = _Window.homology, _Window.dim

    def recording(self, grading, width=None):
        quotient = homology(self, grading, width)
        built.append((width, quotient))
        return quotient

    def counting(self, grading, width):
        counted.append(width)
        return dim(self, grading, width)

    monkeypatch.setattr(_Window, "homology", recording)
    monkeypatch.setattr(_Window, "dim", counting)
    seen = set()
    for seed in range(5):
        cx = _paired_torsion_complex(seed)
        n_max = classify(cx).max_exponent
        small = n_max + 1
        depth = {small + n_max: small, 2 * small + n_max: 2 * small}
        built.clear()
        counted.clear()
        lefschetz_by_grading(cx, random_chain_map(cx, seed=seed + 11))
        assert set(counted) == {n_max, small}
        assert {w for w, _ in built} == set(depth)
        for w, q in built:
            stable = bool(q.reps) and q.reps[0] < 1 << depth[w] * cx.rank
            assert ("_span" in q.__dict__) == stable
            seen.add((bool(q.reps), stable))
    # deep windows with and without stable classes both occur
    assert {(True, True), (True, False)} <= seen


def _assert_certificate_refuses(cx: GradedComplex, f: ChainMap,
                                two_steps, one_steps) -> None:
    """The oracle, shown a reduction of ``cx`` with these records instead
    of the true ones, must refuse it."""
    red = reduce_complex(cx)
    fake = Reduction(cx, two_steps, one_steps, red.cancelled_pairs, red.ops)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lefschetz, "reduce_complex", lambda _: fake)
        with pytest.raises(CrossCheckMismatch, match="window homology grew past width"):
            lefschetz_by_grading(cx, f)


@pytest.mark.parametrize("wrong", [lambda n: n - 1, lambda n: n // 2,
                                   lambda n: 1], ids=["n-1", "n//2", "1"])
def test_the_oracle_certifies_the_maximal_exponent(wrong):
    checked = 0
    for seed in range(30):
        cx = torsion_complex(seed, max_rank=6, max_exponent=6)
        red = reduce_complex(cx)
        cap = wrong(red.normal_form.max_exponent)
        if cap != red.normal_form.max_exponent:
            _assert_certificate_refuses(
                cx, random_chain_map(cx, seed=seed),
                [replace(r, exponent=min(r.exponent, cap))
                 for r in red.two_steps], ())
            checked += 1
    assert checked >= 20


def test_the_oracle_certifies_that_no_1_step_hides():
    for seed in range(10):
        cx = direct_sum(torsion_complex(seed),
                        build_complex("pt", [("x", seed % 3 - 1)]))
        red = reduce_complex(cx)
        assert red.one_steps
        _assert_certificate_refuses(cx, identity_map(cx), red.two_steps, ())


def test_oracle_catches_a_map_that_leaves_the_stable_subspace():
    # a1 -> a2 is no chain map: U^-2 a1 is a class of the plus flavor, but
    # U^-2 a2 has boundary U^-1 b2 and is no cycle there
    cx = build_complex("pair", [("a1", 1), ("b1", 0), ("a2", 1), ("b2", 0)],
                       [("a1", "b1", Poly.u(2)), ("a2", "b2", Poly.u(1))])
    f = _chain_map("shift", cx, cx, 0, [(("a2", "a1"), P1)])
    with pytest.raises(CrossCheckMismatch,
                       match="induced map left the stable subspace"):
        lefschetz_by_grading(cx, f)


def test_stable_traces_refuse_an_image_past_the_stable_prefix():
    # a chain map only raises exponents, so it keeps the stable prefix;
    # a template carrying the stable class U^-1 a2 down to U^-3 b1, the
    # junk class of the same grading at width 3, must be refused
    cx = build_complex("steps", [("a1", 2), ("b1", 1), ("a2", 1), ("b2", 0)],
                       [("a1", "b1", Poly.u(1)), ("a2", "b2", Poly.u(1))])
    window = _Window(cx, 5)
    templates = [(0, 0), (0, 0), (1 << 2 * cx.rank - 1, 0), (0, 0)]
    with pytest.raises(CrossCheckMismatch,
                       match="induced map left the stable subspace"):
        lefschetz._stable_traces(window, templates, 2, 3)


def test_the_oracle_refuses_a_trace_that_moves_when_the_window_doubles(
        monkeypatch):
    # the two passes read the stable classes at two widths; traces that
    # differ mean one of the windows is wrong, so neither is printed
    real, calls = lefschetz._stable_traces, []

    def flip_the_second(window, templates, small, big):
        calls.append(small)
        traces = real(window, templates, small, big)
        if len(calls) == 2:
            traces = {g: t ^ 1 for g, t in traces.items()}
        return traces

    monkeypatch.setattr(lefschetz, "_stable_traces", flip_the_second)
    cx = two_step(3)
    with pytest.raises(CrossCheckMismatch,
                       match="doubling the window moved the trace"):
        lefschetz_by_grading(cx, identity_map(cx))
    assert len(calls) == 2


def test_quantity_equals_oracle_on_seeded_trials():
    for seed in range(60):
        cx = torsion_complex(seed, max_rank=6, max_exponent=5)
        f = random_chain_map(cx, seed=seed * 31 + 7)
        assert delta_quantity(cx, f) == lefschetz_oracle(cx, f)


# ---------------------------------------------------------------------------
# relations between constructions: each is an oracle of its own


def _with_cancelled_pairs(seed: int, exponents: list[int], cancelled: int,
                          steps: int) -> tuple[GradedComplex, ChainMap]:
    """Scrambled 2-steps a_k -> U^n b_k beside acyclic pairs c -> e in the
    2-steps' gradings, with a random chain endomorphism."""
    rng = random.Random(seed)
    gens: list[tuple[str, int]] = []
    entries = []
    for k, n in enumerate(exponents):
        g = rng.randint(-1, 1)
        gens += [(f"a{k}", g), (f"b{k}", g - 1)]
        entries.append((f"a{k}", f"b{k}", Poly.u(n)))
    for k in range(cancelled):
        g = gens[2 * rng.randrange(len(exponents))][1]
        gens += [(f"c{k}", g), (f"e{k}", g - 1)]
        entries.append((f"c{k}", f"e{k}", Poly(2 * rng.getrandbits(2) + 1)))
    cx = random_basis_change(build_complex("model", gens, entries),
                             seed=seed + 1, steps=steps)
    return cx, random_chain_map(cx, seed + 2)


def _direct_sum(cx: GradedComplex, f: ChainMap, other: GradedComplex,
                g: ChainMap) -> tuple[GradedComplex, ChainMap]:
    """cx (+) other, other's generators primed, with f (+) g."""
    primed = relabel(other, {x: x + "'" for x in other.generators}, name="o")
    s = direct_sum(cx, primed)
    return s, build_chain_map(
        f"{f.name}(+){g.name}", s, s, 0,
        [(src, tgt, p) for (tgt, src), p in f.entries.items()]
        + [(src + "'", tgt + "'", p) for (tgt, src), p in g.entries.items()])


def _nonzero(traces: dict[int, int]) -> dict[int, int]:
    return {g: t for g, t in traces.items() if t}


def _assert_duality(cx: GradedComplex, f: ChainMap) -> bool:
    """The transpose of f on dual(cx) has the graded traces of f with
    grading g moved to 1 - g, and the same duality quantity.  Building the
    transpose through build_chain_map checks that it is a chain map.
    Returns whether some trace is nonzero."""
    dcx = dual(cx)
    ft = build_chain_map(f"{f.name}^T", dcx, dcx, 0,
                         [(_dual_id(t), _dual_id(s), p)
                          for (t, s), p in f.entries.items()])
    traces = _nonzero(lefschetz_by_grading(cx, f))
    assert _nonzero(lefschetz_by_grading(dcx, ft)) == \
        {1 - g: t for g, t in traces.items()}
    assert delta_quantity(dcx, ft) == delta_quantity(cx, f)
    return bool(traces)


def test_lefschetz_numbers_respect_duality():
    # campaign trials, complexes with cancelled pairs, and direct sums and
    # tensor products of trials
    inputs = [campaign_trial(index) for index in range(200)]
    inputs += [_with_cancelled_pairs(seed, [1 + seed % 5, 2], 1 + seed % 2,
                                     steps=12)
               for seed in range(60)]
    inputs += [_direct_sum(*inputs[k], *inputs[k + 1]) for k in range(0, 80, 2)]
    small = [trial for trial in inputs[:200] if trial[0].rank <= 4]
    inputs += [(tensor(cx, other), tensor_map(f, h))
               for (cx, f), (other, g) in zip(small[:40:2], small[1:40:2])
               for h in (g, identity_map(other))]
    # not on zero traces alone: 100 of these 340 have a nonzero one
    assert sum(_assert_duality(cx, f) for cx, f in inputs) > len(inputs) // 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       exponents=st.lists(st.integers(min_value=1, max_value=6),
                          min_size=1, max_size=3),
       cancelled=st.integers(min_value=0, max_value=2),
       steps=st.integers(min_value=0, max_value=25))
def test_lefschetz_numbers_respect_duality_under_hypothesis(
        seed, exponents, cancelled, steps):
    _assert_duality(*_with_cancelled_pairs(seed, exponents, cancelled, steps))


def test_graded_traces_are_invariant_under_conjugation():
    for index in range(150):
        cx, f = campaign_trial(index)
        moved, iso, iso_inv = random_basis_change(cx, seed=index, steps=12,
                                                  with_iso=True)
        conj = compose(iso_inv, compose(f, iso))
        assert lefschetz_by_grading(moved, conj) == lefschetz_by_grading(cx, f)


def test_graded_traces_and_quantity_add_over_direct_sums():
    for index in range(0, 200, 2):
        (cx, f), (other, g) = campaign_trial(index), campaign_trial(index + 1)
        s, fs = _direct_sum(cx, f, other, g)
        a, b = lefschetz_by_grading(cx, f), lefschetz_by_grading(other, g)
        assert _nonzero(lefschetz_by_grading(s, fs)) == _nonzero(
            {k: a.get(k, 0) ^ b.get(k, 0) for k in a.keys() | b.keys()})
        assert delta_quantity(s, fs) == \
            delta_quantity(cx, f) ^ delta_quantity(other, g)


# ---------------------------------------------------------------------------
# homotopy invariance of the derivative endomorphism


def test_derivative_endomorphisms_of_two_bases_agree_on_homology():
    # the derivative is basis dependent at chain level, but its induced
    # map on the quotient homology is not
    from uchain.homology import h_plus
    for seed in range(20):
        cx = torsion_complex(seed, max_rank=5, max_exponent=4)
        moved, iso, iso_inv = random_basis_change(cx, seed=seed + 19, steps=12,
                                                  with_iso=True)
        f1 = phi(cx)
        f2 = compose(iso, compose(phi(moved), iso_inv))  # transported to cx
        width = 3 * (max((n for _, n in classify(cx).two_steps), default=1) + 2)
        for x in h_plus(cx).basis:
            g = cx.gradings[x.sorted_terms()[0][0]]
            slice_below = QuotientSlice(cx, width, g - 1)
            y1 = f1.apply_chain(x).negative_part()
            y2 = f2.apply_chain(x).negative_part()
            c1, c2 = slice_below.class_of(y1), slice_below.class_of(y2)
            assert c1 is not None and c2 is not None
            assert c1 == c2


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_passes_and_reports_shape():
    report = verify_proposition(campaign_seed=7, trials=25, max_rank=6,
                                max_exponent=5)
    assert isinstance(report, VerificationReport)
    assert report.passed
    assert report.trials == 25
    assert report.failures == ()
    d = report.to_json_dict()
    assert d["campaign_seed"] == 7 and d["trials"] == 25
    assert d["failures"] == []
    assert isinstance(d["elapsed_ms"], int)


def test_campaign_is_deterministic():
    a = verify_proposition(campaign_seed=3, trials=15, max_rank=6, max_exponent=4)
    b = verify_proposition(campaign_seed=3, trials=15, max_rank=6, max_exponent=4)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def test_mutated_campaign_bytes_are_pinned():
    """The fixed-seed campaign with the dual derivative dropped, less its
    timing, as the bytes a change to trial generation, either side of the
    comparison or the failure report would move."""
    payload = verify_proposition(20260814, 500, 8, 6,
                                 _mutate_phi_dual=True).to_json_dict()
    del payload["elapsed_ms"]
    assert len(payload["failures"]) == 142
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "9b9422768dc83b328857f02e3b4f662af646c61ee7b8b1702f55a28b5b8789ca")


def test_campaign_trial_stream_is_pinned(monkeypatch):
    """The complex and map text of every trial of the fixed-seed campaign,
    as the bytes a change to either trial generator would move."""
    texts = []

    def spy(cx, f, **kwargs):
        texts.append(complex_to_text(cx) + map_to_text(f))
        return delta_quantity(cx, f, **kwargs)

    monkeypatch.setattr(lefschetz, "delta_quantity", spy)
    assert verify_proposition(20260814, 500, 8, 6).passed
    assert len(texts) == 500
    digest = hashlib.sha256("".join(texts).encode())
    assert digest.hexdigest() == (
        "bf97401c3c8837d546aa1184ea8addfdacfa8c7e0a3b0578553a25e6cdf17093")


def test_deep_exponent_traces_are_pinned():
    """Per-grading traces at exponents 63 to 224, where the oracle's
    windows are hundreds of rows deep: the identity on a -> U^n b, one
    scrambled 2-step with a random map, and two scrambled 2-steps of equal
    grading and exponent with a random map, eight exponents each."""
    rng = random.Random(20261019)
    traces = []
    for n in range(63, 233, 23):   # both parities
        g = rng.randint(-2, 2)
        cx = realize(NormalForm((), ((g, n),)), name="deep")
        traces.append(lefschetz_by_grading(cx, identity_map(cx)))
        for twos in (((g, n),), ((g, n), (g, n))):
            cx = random_basis_change(realize(NormalForm((), twos), name="deep"),
                                     seed=rng.getrandbits(32),
                                     steps=rng.randint(4, 16))
            f = random_chain_map(cx, rng.getrandbits(32))
            traces.append(lefschetz_by_grading(cx, f))
    assert len(traces) == 24
    payload = json.dumps([sorted(t.items()) for t in traces])
    digest = hashlib.sha256(payload.encode())
    assert digest.hexdigest() == (
        "0bd94e4e9f943e78b8cddb63badf0c4de8a67688127a125154c1174cff427b27")


def test_campaign_results_do_not_depend_on_worker_count():
    a = verify_proposition(campaign_seed=11, trials=12, max_rank=5,
                           max_exponent=4, jobs=1)
    b = verify_proposition(campaign_seed=11, trials=12, max_rank=5,
                           max_exponent=4, jobs=3)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def test_pool_size_is_clamped_to_trials_and_cores(monkeypatch):
    monkeypatch.setattr(lefschetz.os, "cpu_count", lambda: 2)
    assert _pool_size(1, 100) == 1
    assert _pool_size(10**6, 100) == 2
    assert _pool_size(8, 1) == 1
    assert _pool_size(8, 0) == 0
    monkeypatch.setattr(lefschetz.os, "cpu_count", lambda: 16)
    assert _pool_size(4, 3) == 3
    assert _pool_size(4, 100) == 4
    monkeypatch.setattr(lefschetz.os, "cpu_count", lambda: None)
    assert _pool_size(4, 100) == 1


def test_empty_campaign_passes():
    report = verify_proposition(campaign_seed=1, trials=0, max_rank=4,
                                max_exponent=3)
    assert report.passed and report.trials == 0


def test_campaign_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        verify_proposition(campaign_seed=1, trials=-1, max_rank=6, max_exponent=4)
    with pytest.raises(ParameterOutOfRange):
        verify_proposition(campaign_seed=1, trials=1, max_rank=1, max_exponent=4)
    with pytest.raises(ParameterOutOfRange):
        verify_proposition(campaign_seed=1, trials=1, max_rank=13, max_exponent=4)
    with pytest.raises(ParameterOutOfRange):
        verify_proposition(campaign_seed=1, trials=1, max_rank=6, max_exponent=0)
    with pytest.raises(ParameterOutOfRange):
        verify_proposition(campaign_seed=1, trials=1, max_rank=6, max_exponent=4,
                           jobs=0)


def _shift_derivative_dual(cx: GradedComplex) -> ChainMap:
    """phi-dual with the factor n forgotten: each entry p of d becomes
    (p - p(0)) / U, so U^n goes to U^(n-1) where the derivative gives
    n U^(n-1); wrong exactly on the blocks of even exponent."""
    return _chain_map("shift_dual", dual(cx), dual(cx), -1,
                      [((_dual_id(s), _dual_id(t)), Poly(p.bits >> 1))
                       for (t, s), p in cx.d.items()])


def test_a_live_phi_dual_mutation_is_caught_in_both_directions():
    # trials drawn as lefschetz._run_trial draws them
    counts = {"mutated_one": 0, "one_against_zero": 0, "zero_against_one": 0}
    for index in range(60):
        cx, f = campaign_trial(index)
        oracle = lefschetz_oracle(cx, f)
        assert delta_quantity(cx, f) == oracle
        mutated = delta_quantity(cx, f,
                                 _phi_dual_override=_shift_derivative_dual(cx))
        counts["mutated_one"] += mutated
        counts["one_against_zero"] += (mutated, oracle) == (1, 0)
        counts["zero_against_one"] += (mutated, oracle) == (0, 1)
    assert counts == {"mutated_one": 22, "one_against_zero": 10,
                      "zero_against_one": 3}


def test_dropping_the_dual_derivative_is_caught():
    report = verify_proposition(campaign_seed=7, trials=40, max_rank=6,
                                max_exponent=5, _mutate_phi_dual=True)
    assert not report.passed
    assert len(report.failures) >= 1
    failure = report.failures[0]
    assert isinstance(failure, TrialFailure)
    assert failure.delta_value != failure.oracle_value
    # failure entries carry replayable text
    j = failure.to_json_dict()
    assert "complex " in j["complex"]
    assert "map " in j["map"]
