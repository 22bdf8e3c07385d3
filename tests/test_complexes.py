"""Graded complexes over F2[U]: constructors, constructions, text formats."""

from __future__ import annotations

import random

import pytest

from uchain.complexes import (
    GradedComplex,
    LaurentChain,
    build_chain_map,
    build_complex,
    complex_to_text,
    compose,
    cone,
    direct_sum,
    dual,
    identity_map,
    map_add,
    map_to_text,
    parse_chain_map,
    parse_complex,
    relabel,
    scalar_map,
    shift,
    tensor,
    tensor_map,
    unit_complex,
    zero_map,
)
from uchain.errors import (
    ComplexMismatch,
    DegreeMismatch,
    DifferentialNotSquareZero,
    DuplicateGenerator,
    GradingViolation,
    NotAChainMap,
    ParseError,
)
from uchain.normal_form import (
    NormalForm,
    classify,
    random_basis_change,
    random_chain_map,
    random_normal_form,
    realize,
)
from uchain.scalars import P1, Poly

from conftest import scrambled, two_step
from f2_reference import f2_homology, induced_rank


def _random_complex(seed: int, max_rank: int = 5,
                    max_exponent: int = 4) -> GradedComplex:
    return scrambled(seed, max_rank, max_exponent, max_steps=12)[1]


def _same_up_to_generator_order(a: GradedComplex, b: GradedComplex) -> bool:
    return (sorted((g, a.gradings[g]) for g in a.generators)
            == sorted((g, b.gradings[g]) for g in b.generators)
            and a.d == b.d)


# ---------------------------------------------------------------------------
# construction and validation


def test_two_step_complex_builds():
    cx = two_step(3)
    assert cx.rank == 2
    assert cx.grading("a") == 1
    assert cx.entry("b", "a") == Poly.u(3)


def test_one_generator_complex_builds():
    cx = build_complex("pt", [("x", 0)])
    assert cx.rank == 1
    assert cx.d == {}


def test_differential_must_square_to_zero():
    with pytest.raises(DifferentialNotSquareZero) as exc:
        build_complex("bad", [("a", 1), ("b", 0), ("c", -1)],
                      [("a", "b", Poly.u(1)), ("b", "c", Poly.u(1))])
    assert "U^2" in exc.value.detail


def test_differential_must_lower_grading_by_one():
    with pytest.raises(GradingViolation):
        build_complex("bad", [("a", 2), ("b", 0)], [("a", "b", Poly.u(1))])


def test_duplicate_generator_ids_are_rejected():
    with pytest.raises(DuplicateGenerator):
        build_complex("bad", [("a", 0), ("a", 1)])


def test_unknown_generators_in_entries_are_rejected():
    with pytest.raises(GradingViolation):
        build_complex("bad", [("a", 1)], [("a", "zz", P1)])


def test_entries_accumulate_mod_two():
    cx = build_complex("acc", [("a", 1), ("b", 0)],
                       [("a", "b", Poly.u(2)), ("a", "b", Poly.of(2, 3))])
    assert cx.entry("b", "a") == Poly.u(3)


def test_chain_map_must_commute_with_differentials():
    cx = two_step(2)
    with pytest.raises(NotAChainMap):
        build_chain_map("bad", cx, cx, 0, [("a", "a", P1)])
    # adding the matching diagonal entry fixes it
    f = build_chain_map("ok", cx, cx, 0, [("a", "a", P1), ("b", "b", P1)])
    assert f.entry("a", "a") == P1


def test_chain_map_entries_must_match_declared_degree():
    cx = two_step(2)
    with pytest.raises(GradingViolation):
        build_chain_map("bad", cx, cx, 1, [("a", "a", P1)])


# ---------------------------------------------------------------------------
# dual


def test_dual_transposes_and_negates_gradings():
    dv = dual(two_step(3))
    assert dv.generators == ("a*", "b*")
    assert dv.gradings == {"a*": -1, "b*": 0}
    assert dv.entry("a*", "b*") == Poly.u(3)


def test_dual_of_one_step_negates_the_grading():
    dv = dual(build_complex("pt", [("x", 2)]))
    assert dv.gradings == {"x*": -2}
    assert dv.d == {}


def test_double_dual_is_the_identity_after_relabeling():
    for seed in range(10):
        cx = _random_complex(seed)
        back = relabel(dual(dual(cx)), {g + "**": g for g in cx.generators},
                       name=cx.name)
        assert back == cx


# ---------------------------------------------------------------------------
# tensor


def test_tensor_of_two_step_with_its_dual_is_the_diamond():
    cx = two_step(2)
    t = tensor(cx, dual(cx))
    assert t.gradings == {"a.b*": 1, "a.a*": 0, "b.b*": 0, "b.a*": -1}
    u2 = Poly.u(2)
    assert t.d == {("b.b*", "a.b*"): u2, ("a.a*", "a.b*"): u2,
                   ("b.a*", "a.a*"): u2, ("b.a*", "b.b*"): u2}


def test_classify_of_a_tensor_follows_kunneth():
    # over F2[U], (g, n) (x) (h, m) is two 2-steps of exponent min(n, m) at
    # g + h and g + h - 1, a 2-step times a 1-step is a 2-step and two
    # 1-steps give a 1-step
    for seed in range(150):
        rng = random.Random(seed)
        nfa, nfb = (random_normal_form(rng, max_rank=6, max_exponent=5)
                    for _ in range(2))
        a = random_basis_change(realize(nfa, "a"), seed=seed + 1,
                                steps=rng.randint(0, 12))
        b = random_basis_change(realize(nfb, "b"), seed=seed + 2,
                                steps=rng.randint(0, 12))
        twos = [(g + h - k, min(n, m)) for g, n in nfa.two_steps
                for h, m in nfb.two_steps for k in (0, 1)]
        twos += [(g + h, n) for g, n in nfa.two_steps for h in nfb.one_steps]
        twos += [(g + h, n) for h in nfa.one_steps for g, n in nfb.two_steps]
        ones = [g + h for g in nfa.one_steps for h in nfb.one_steps]
        assert classify(tensor(a, b)) == NormalForm(tuple(ones), tuple(twos))


def test_tensor_with_the_unit_complex_is_the_identity():
    for seed in range(5):
        cx = _random_complex(seed)
        t = relabel(tensor(cx, unit_complex()),
                    {g + ".1": g for g in cx.generators}, name=cx.name)
        assert t == cx


def test_tensor_gradings_are_additive():
    t = tensor(two_step(1), dual(two_step(1)))
    assert t.grading("a.b*") == 1 + 0


def test_tensor_is_associative_on_the_nose():
    a, b, c = _random_complex(0, 3), _random_complex(1, 3), _random_complex(2, 3)
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_tensor_commutes_up_to_relabeling():
    for seed in range(5):
        a, b = _random_complex(seed, 4), _random_complex(seed + 100, 4)
        swap = {f"{y}.{x}": f"{x}.{y}"
                for x in a.generators for y in b.generators}
        assert _same_up_to_generator_order(tensor(a, b),
                                           relabel(tensor(b, a), swap))


def test_dual_of_tensor_matches_tensor_of_duals_reversed():
    for seed in range(5):
        a, b = _random_complex(seed, 4), _random_complex(seed + 50, 4)
        lhs = dual(tensor(a, b))
        ren = {f"{y}*.{x}*": f"{x}.{y}*"
               for x in a.generators for y in b.generators}
        rhs = relabel(tensor(dual(b), dual(a)), ren)
        assert _same_up_to_generator_order(lhs, rhs)


# ---------------------------------------------------------------------------
# cone, sum, shift, composition


def test_cone_of_zero_map_is_shift_plus_identity():
    cx = two_step(2)
    c = cone(zero_map(cx, cx))
    shifted = relabel(shift(cx, 1), {g: g + "'" for g in cx.generators})
    expected = direct_sum(shifted, cx)
    assert relabel(c, {g + "[1]": g + "'" for g in cx.generators}) == expected


def test_cone_of_identity_is_acyclic():
    for seed in range(5):
        cx = _random_complex(seed)
        nf = classify(cone(identity_map(cx)))
        assert nf.one_steps == ()
        assert nf.two_steps == ()


def test_cone_requires_degree_zero():
    cx = two_step(1)
    with pytest.raises(DegreeMismatch):
        cone(build_chain_map("h", cx, cx, 1, []))


def test_cone_homology_matches_the_long_exact_sequence_over_f2():
    # With U set to 0: dim H_k(cone f) = dim coker(f*)_k + dim ker(f*)_{k-1}.
    for seed in range(25):
        cx = _random_complex(seed, 5)
        f = random_chain_map(cx, seed=seed + 1000)
        h_src, h_cone = f2_homology(cx), f2_homology(cone(f))
        for k in set(h_cone) | set(h_src) | {g + 1 for g in h_src}:
            r_k = induced_rank(f, h_src, h_src, k)
            r_prev = induced_rank(f, h_src, h_src, k - 1)
            coker = h_src[k].dim - r_k if k in h_src else 0
            ker = h_src[k - 1].dim - r_prev if k - 1 in h_src else 0
            cone_dim = h_cone[k].dim if k in h_cone else 0
            assert cone_dim == coker + ker


def test_direct_sum_is_blockwise():
    a, b = two_step(1), build_complex("pt", [("x", 5)])
    s = direct_sum(a, b)
    assert s.rank == 3
    assert s.entry("b", "a") == Poly.u(1)
    assert s.grading("x") == 5


def test_shift_adds_to_every_grading():
    cx = two_step(2)
    assert shift(cx, 0) == cx
    sh = shift(cx, 3)
    assert sh.gradings == {"a": 4, "b": 3}
    assert sh.entry("b", "a") == Poly.u(2)


def test_compose_with_identity_is_identity():
    cx = _random_complex(3)
    f = random_chain_map(cx, seed=7)
    assert compose(identity_map(cx), f) == f
    assert compose(f, identity_map(cx)) == f


def test_compose_adds_degrees_and_checks_complexes():
    cx = two_step(1)
    other = build_complex("pt", [("x", 0)])
    with pytest.raises(ComplexMismatch):
        compose(identity_map(cx), zero_map(other, other))


def test_map_add_cancels_mod_two():
    cx = _random_complex(4)
    f = random_chain_map(cx, seed=11)
    z = map_add(f, f)
    assert z.entries == {}


def test_map_add_rejects_other_complexes_and_other_degrees():
    cx = two_step(1)
    other = build_complex("pt", [("x", 0)])
    with pytest.raises(ComplexMismatch,
                       match="map sum needs equal sources and targets"):
        map_add(identity_map(cx), zero_map(cx, other))
    with pytest.raises(DegreeMismatch,
                       match="map sum needs equal degrees, got 0 and 1"):
        map_add(identity_map(cx), zero_map(cx, cx, degree=1))


def test_scalar_map_multiplies_every_generator():
    cx = two_step(2)
    m = scalar_map(cx, Poly.u(1))
    chain = LaurentChain.of(("a", 0))
    assert m.apply_chain(chain) == LaurentChain.of(("a", 1))


def test_tensor_map_acts_factorwise():
    cx = two_step(2)
    f = scalar_map(cx, Poly.u(1))
    g = identity_map(dual(cx))
    t = tensor_map(f, g)
    assert t.entry("a.b*", "a.b*") == Poly.u(1)


def test_derived_constructions_pass_the_checks_they_skip():
    # Derived objects, and the seeded generators' outputs, are built
    # without the checks build_complex and build_chain_map run; every one
    # of them must still pass those checks.
    from uchain.complexes import _validate_chain_map, _validate_complex
    from uchain.lefschetz import cotrace_map, phi, phi_dual, trace_map

    for seed in range(12):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=6, max_exponent=4,
                                one_steps=seed % 2 == 0)
        base = realize(nf, name=f"c{seed}")
        cx, iso, iso_inv = random_basis_change(
            base, seed=seed + 1, steps=rng.randint(0, 15), with_iso=True)
        other = _random_complex(seed + 200, 4)
        f = random_chain_map(cx, seed=seed + 300)
        g = random_chain_map(cx, seed=seed + 400)
        h = random_chain_map(other, seed=seed + 500)
        dcx = dual(cx)
        renamed = relabel(other, {x: x + "'" for x in other.generators})
        complexes = [dcx, tensor(cx, dcx), tensor(cx, other), cone(f),
                     direct_sum(cx, renamed), shift(cx, 3), renamed,
                     unit_complex(), base, cx, other]
        maps = [f, g, h, iso, iso_inv,
                identity_map(cx), zero_map(cx, dcx, 1), scalar_map(cx, Poly.u(2)),
                tensor_map(f, h), tensor_map(f, identity_map(dcx)),
                compose(f, g), map_add(f, g), phi(cx), phi_dual(cx),
                trace_map(cx), cotrace_map(cx)]
        for c in complexes + [m.source for m in maps] + [m.target for m in maps]:
            _validate_complex(c)
        for m in maps:
            _validate_chain_map(m)

    # derived constructions still reject colliding generator names
    a = two_step(2)
    with pytest.raises(DuplicateGenerator):
        direct_sum(a, a)
    with pytest.raises(DuplicateGenerator):
        relabel(a, {"a": "b"})


def _grouped_by_name(cx: GradedComplex) -> dict[int, list[int]]:
    """Positions per grading, regrouped from names: gradings in order of
    first appearance, each with its generators' positions in order."""
    order = list(dict.fromkeys(cx.grading(g) for g in cx.generators))
    return {k: [cx.generators.index(g) for g in cx.generators
                if cx.grading(g) == k] for k in order}


def test_by_grading_view_partitions_positions_by_grading():
    gapped = NormalForm((-2, 2), ((2, 1), (-1, 3)))   # no generator in 0
    inputs = [unit_complex(), build_complex("empty", [])]
    for seed in range(16):
        rng = random.Random(seed)
        nf = gapped if seed % 4 == 0 else random_normal_form(rng, 8, 4)
        cx = random_basis_change(realize(nf), seed=seed + 1,
                                 steps=rng.randint(0, 12))
        other = _random_complex(seed + 100, 4)
        renamed = relabel(other, {x: x + "'" for x in other.generators})
        inputs += [cx, dual(cx), tensor(cx, other),
                   cone(random_chain_map(cx, seed=seed + 200)),
                   direct_sum(cx, renamed), shift(cx, -3), renamed]
    gaps = 0
    for cx in inputs:
        view = cx._by_grading
        assert view is cx._by_grading
        assert list(view.items()) == list(_grouped_by_name(cx).items())
        assert all(v == sorted(set(v)) for v in view.values())
        assert sorted(j for v in view.values() for j in v) == list(range(cx.rank))
        gaps += bool(view) and len(view) <= max(view) - min(view)
    assert gaps > 0


def test_boundary_chain_tracks_laurent_exponents():
    cx = two_step(3)
    out = cx.boundary_chain(LaurentChain.of(("a", -2)))
    assert out == LaurentChain.of(("b", 1))


def test_laurent_chain_parts_and_coefficients():
    ch = LaurentChain.of(("a", -2), ("b", 0), ("a", 1))
    assert ch.negative_part() == LaurentChain.of(("a", -2))
    assert ch.nonnegative_part() == LaurentChain.of(("b", 0), ("a", 1))
    assert ch.coefficient("a", -2) == 1
    assert ch.coefficient("a", 0) == 0
    assert ch.min_exponent() == -2
    assert (ch + ch) == LaurentChain.zero()
    assert LaurentChain.zero().min_exponent() is None


# ---------------------------------------------------------------------------
# text formats


def test_complex_text_round_trip():
    for seed in range(10):
        cx = _random_complex(seed)
        assert parse_complex(complex_to_text(cx)) == cx


def test_map_text_round_trip():
    for seed in range(10):
        cx = _random_complex(seed)
        f = random_chain_map(cx, seed=seed + 500)
        assert parse_chain_map(map_to_text(f), cx, cx) == f


def test_complex_text_format_shape():
    text = complex_to_text(two_step(3))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].startswith("complex ")
    assert "gen a 1" in lines
    assert "gen b 0" in lines
    assert "d a b U^3" in lines


def test_parse_complex_accepts_comments_and_blank_lines():
    cx = parse_complex(
        "# a two-step model\n"
        "complex demo\n"
        "\n"
        "gen a 1\n"
        "gen b 0\n"
        "d a b U^2+U^3\n")
    assert cx.entry("b", "a") == Poly.of(2, 3)


def test_parse_complex_reports_the_offending_line():
    with pytest.raises(ParseError) as exc:
        parse_complex("complex demo\ngen a 1\ngen b zero\n")
    assert "line 3" in exc.value.detail


def test_parse_complex_rejects_unknown_directives():
    with pytest.raises(ParseError):
        parse_complex("complex demo\ngenerator a 1\n")


def test_parse_map_checks_declared_complex_names():
    cx = two_step(2)
    text = map_to_text(identity_map(cx)).replace("source two", "source other")
    with pytest.raises(ComplexMismatch):
        parse_chain_map(text, cx, cx)


def test_parse_map_rejects_unknown_directives():
    cx = two_step(2)
    text = map_to_text(identity_map(cx)) + "g a a 1\n"
    with pytest.raises(ParseError, match="unknown directive") as exc:
        parse_chain_map(text, cx, cx)
    assert f"line {text.count(chr(10))}" in exc.value.detail
    assert "'g'" in exc.value.detail


def test_parse_map_requires_a_degree_line():
    cx = two_step(2)
    text = "\n".join(ln for ln in map_to_text(identity_map(cx)).splitlines()
                     if not ln.startswith("degree"))
    with pytest.raises(ParseError):
        parse_chain_map(text, cx, cx)
