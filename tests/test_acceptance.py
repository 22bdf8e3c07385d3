"""Release checks: the eleven headline guarantees, one test each.

Every test prints a single ``PASS: criterion N`` line on success (visible
under ``pytest -s``); under ``pytest -v`` each criterion also gets its own
PASSED/FAILED line.  Stated time budgets are asserted, not just measured.
"""

from __future__ import annotations

import random
import time

from uchain.complexes import (
    GradedComplex,
    LaurentChain,
    build_chain_map,
    build_complex,
    compose,
    dual,
    identity_map,
    scalar_map,
    tensor,
)
from uchain.homology import (
    delta,
    delta_inverse,
    f2_pairing,
    h_infinity,
    h_plus,
    h_red,
    les_exactness_check,
    mapping_torus_betti,
)
from uchain.lefschetz import (
    cotrace_map,
    delta_quantity,
    phi,
    trace_map,
    verify_proposition,
)
from uchain.normal_form import (
    classify,
    minor_gcd_check,
    random_basis_change,
    random_normal_form,
    realize,
)
from uchain.scalars import Poly

from conftest import mixed_complex, torsion_complex, two_step
from f2_reference import QuotientSlice, kunneth_torus_betti, span_rank

CAMPAIGN_SEED = 20260814


def _slice_width(cx: GradedComplex) -> int:
    return 3 * (classify(cx).max_exponent + 2)


def test_criterion_01_identity_on_a_two_step_counts_the_exponent_parity():
    start = time.monotonic()
    for n in range(1, 65):
        cx = two_step(n)
        assert delta_quantity(cx, identity_map(cx)) == n % 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS: criterion 1 — delta_quantity(a->U^n b, id) = n mod 2 "
          f"for n=1..64, exact ({elapsed:.2f}s)")


def test_criterion_02_scalar_multiplication_counts_constant_term_times_exponent():
    rng = random.Random(CAMPAIGN_SEED)
    for _ in range(100):
        n = rng.randint(1, 16)
        k = rng.randint(0, 1)
        p = Poly(k | rng.getrandbits(6) << 1)  # k + U*p0 with deg p0 <= 5
        cx = two_step(n)
        assert delta_quantity(cx, scalar_map(cx, p)) == (k * n) % 2
    print("PASS: criterion 2 — delta_quantity(a->U^n b, p(U)) = p(0)*n mod 2 "
          "for n<=16 over 100 random polynomials, exact")


def test_criterion_03_flagship_campaign_agrees_with_the_lefschetz_oracle():
    start = time.monotonic()
    report = verify_proposition(CAMPAIGN_SEED, trials=500, max_rank=8,
                                max_exponent=6)
    elapsed = time.monotonic() - start
    assert report.trials == 500
    assert report.failures == ()
    assert elapsed < 60.0
    print(f"PASS: criterion 3 — 500-trial campaign (rank<=8, exponent<=6), "
          f"delta_quantity = lefschetz_oracle, 0 failures ({elapsed:.1f}s)")


def test_criterion_04_classification_is_a_basis_invariant_and_matches_minor_gcds():
    for seed in range(500):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=12, max_exponent=6)
        cx = random_basis_change(realize(nf), seed=rng.getrandbits(32),
                                 steps=rng.randint(0, 20))
        assert classify(cx) == nf
        assert minor_gcd_check(cx) == nf.exponents()
    print("PASS: criterion 4 — classify . basis_change . realize = identity "
          "and classify = minor_gcd_check on 500 trials, rank<=12")


def test_criterion_05_connecting_map_matches_the_closed_forms():
    # on the model basis: delta sends U^-i a_k to U^(n-i) b_k
    for seed in range(200):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=8, max_exponent=6,
                                one_steps=False)
        cx = realize(nf)
        for k, (_, n) in enumerate(nf.two_steps):
            for i in range(1, n + 1):
                got = delta(cx, LaurentChain.of((f"a{k}", -i)))
                assert got == LaurentChain.of((f"b{k}", n - i))
    # on the pairing complex of a two-step, for every depth
    for n in range(1, 7):
        two = two_step(n)
        pair = tensor(two, dual(two))
        for i in range(-n, 0):
            got = delta(pair, LaurentChain.of(("a.b*", i)))
            assert got == LaurentChain.of(("a.a*", i + n), ("b.b*", i + n))
            got = delta(pair, LaurentChain.of(("a.a*", i)))
            assert got == LaurentChain.of(("b.a*", i + n))
    # delta_inverse . delta fixes every quotient-homology basis class
    for seed in range(200):
        cx = torsion_complex(seed)
        width = _slice_width(cx)
        for x in h_plus(cx).basis:
            back = delta_inverse(cx, delta(cx, x))
            diff = back + x
            if diff:
                g = cx.gradings[x.sorted_terms()[0][0]]
                assert QuotientSlice(cx, width, g).class_of(diff) == 0
    print("PASS: criterion 5 — zig-zag delta matches the closed forms and "
          "delta_inverse . delta = id on quotient bases, 200 complexes")


def test_criterion_06_long_exact_sequence_is_exact_and_window_stable():
    for seed in range(200):
        report = les_exactness_check(mixed_complex(seed))
        assert report["exact"] is True
        assert report["double_window"]["exact"] is True
    print("PASS: criterion 6 — les_exactness_check passes on 200 random "
          "complexes, window-doubling stable")


def test_criterion_07_quotient_flavor_finite_iff_inverted_flavor_vanishes():
    complexes = ([torsion_complex(s) for s in range(100)]
                 + [mixed_complex(s) for s in range(100)]
                 + [two_step(n) for n in range(1, 9)]
                 + [build_complex("free", [("x", 0), ("y", 2)])])
    finite = infinite = 0
    for cx in complexes:
        plus_finite = h_plus(cx).f2_dimension is not None
        infinity_zero = h_infinity(cx).f2_dimension == 0
        assert plus_finite == infinity_zero
        finite += plus_finite
        infinite += not plus_finite
    assert finite and infinite  # both directions actually exercised
    print(f"PASS: criterion 7 — h_plus finite <=> h_infinity zero on "
          f"{len(complexes)} complexes ({finite} finite, {infinite} not)")


def test_criterion_08_derivative_map_anticommutes_and_is_basis_independent():
    # exact anticommutation with the differential, generator by generator
    for seed in range(200):
        cx = mixed_complex(seed)
        f = phi(cx)
        for g in cx.generators:
            x = LaurentChain.of((g, 0))
            residue = (f.apply_chain(cx.boundary_chain(x))
                       + cx.boundary_chain(f.apply_chain(x)))
            assert not residue
    # equal induced maps on quotient homology across two random bases
    for seed in range(200):
        cx = torsion_complex(seed, max_rank=5, max_exponent=4)
        moved, iso, iso_inv = random_basis_change(cx, seed=seed + 19,
                                                  steps=12, with_iso=True)
        f1 = phi(cx)
        f2 = compose(iso, compose(phi(moved), iso_inv))
        width = _slice_width(cx)
        for x in h_plus(cx).basis:
            g = cx.gradings[x.sorted_terms()[0][0]]
            slice_below = QuotientSlice(cx, width, g - 1)
            c1 = slice_below.class_of(f1.apply_chain(x).negative_part())
            c2 = slice_below.class_of(f2.apply_chain(x).negative_part())
            assert c1 is not None and c1 == c2
    print("PASS: criterion 8 — phi∂ + ∂phi = 0 exactly and two-basis induced "
          "maps agree on quotient homology, 200 trials each")


def test_criterion_09_duality_pairing_is_perfect_and_trace_counts_rank_parity():
    for seed in range(200):
        cx = torsion_complex(seed)
        bp = h_plus(cx).basis
        bd = h_red(dual(cx), "minus").basis
        assert len(bp) == len(bd)
        rows = []
        for x in bp:
            row = 0
            for j, y in enumerate(bd):
                row |= f2_pairing(x, y) << j
            rows.append(row)
        assert span_rank(rows) == len(bp)
    for seed in range(100):
        cx = mixed_complex(seed) if seed % 2 else torsion_complex(seed)
        e = compose(trace_map(cx), cotrace_map(cx))
        got = e.apply_chain(LaurentChain.of(("1", 0)))
        want = LaurentChain.of(("1", 0)) if cx.rank % 2 else LaurentChain.zero()
        assert got == want
    print("PASS: criterion 9 — pairing matrix invertible on 200 torsion "
          "complexes; trace . cotrace (1) = rank mod 2 always")


def test_criterion_10_mapping_torus_betti_match_the_kunneth_oracle():
    start = time.monotonic()
    circle = build_complex("circle", [("e0", 0), ("e1", 1)])
    cases: list[tuple[GradedComplex, object, dict[int, int]]] = [
        (circle, identity_map(circle), {0: 1, 1: 2, 2: 1}),
    ]
    two = build_complex("two-circles",
                        [("p", 0), ("q", 0), ("e", 1), ("f", 1)])
    swap = build_chain_map("swap", two, two, 0,
                           [("p", "q", Poly(1)), ("q", "p", Poly(1)),
                            ("e", "f", Poly(1)), ("f", "e", Poly(1))])
    cases.append((two, swap, {0: 1, 1: 2, 2: 1}))
    for genus in (1, 2, 3):
        gens = ([("v", 0)] + [(f"e{i}", 1) for i in range(2 * genus)]
                + [("f", 2)])
        surface = build_complex(f"sigma{genus}", gens)
        cases.append((surface, identity_map(surface),
                      {0: 1, 1: 2 * genus + 1, 2: 2 * genus + 1, 3: 1}))
    for cy, f, expected in cases:
        betti = mapping_torus_betti(cy, f)
        assert betti == expected
        assert betti == kunneth_torus_betti(cy, f)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS: criterion 10 — mapping-torus Betti numbers match the "
          f"closed forms and the Künneth oracle ({elapsed:.2f}s)")


def test_criterion_11_mutating_the_dual_derivative_breaks_the_campaign():
    report = verify_proposition(CAMPAIGN_SEED, trials=500, max_rank=8,
                                max_exponent=6, _mutate_phi_dual=True)
    assert len(report.failures) >= 1
    for failure in report.failures:
        assert failure.delta_value != failure.oracle_value
    print(f"PASS: criterion 11 — identity-for-phi-dual mutation caught in "
          f"{len(report.failures)}/500 trials under the campaign seeds")
