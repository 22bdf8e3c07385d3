"""Reduction to sums of 1-step and 2-step complexes, and its oracles."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uchain import normal_form
from uchain.complexes import (GradedComplex, _accumulate, build_complex,
                               complex_to_text, compose, dual, identity_map,
                               map_to_text, tensor)
from uchain.errors import (CrossCheckMismatch, ExponentOverflow,
                           ParameterOutOfRange, RankTooLarge)
from uchain.homology import h_minus, h_plus, h_red
from uchain.lefschetz import (delta_quantity, lefschetz_by_grading,
                              verify_proposition)
from uchain.normal_form import (
    NormalForm,
    TwoStepRecord,
    classify,
    minor_gcd_check,
    random_basis_change,
    random_chain_map,
    random_normal_form,
    realize,
    reduce_complex,
)
from uchain.scalars import EXPONENT_LIMIT, LS0, LS1, LocalScalar, Poly, _val

from conftest import scrambled


def _with_unit_pair(seed: int, max_rank: int = 4) -> GradedComplex:
    """A scrambled torsion complex plus an acyclic pair c -> (1+U) e in the
    gradings of its first 2-step, so the basis change mixes valuation-0
    entries into the torsion block."""
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank=max_rank, max_exponent=3,
                            one_steps=False)
    model = realize(nf)
    g, _ = nf.two_steps[0]
    gens = [(x, model.gradings[x]) for x in model.generators]
    gens += [("c", g), ("e", g - 1)]
    entries = [(s, t, p) for (t, s), p in model.d.items()]
    entries.append(("c", "e", Poly.of(0, 1)))
    return random_basis_change(build_complex("u", gens, entries),
                               seed=seed + 1, steps=rng.randint(1, 12))


# ---------------------------------------------------------------------------
# classify


def test_classify_reads_the_exponent_from_the_valuation():
    # U^2+U^3 = U^2 (1+U): the unit is absorbed, the exponent is 2
    cx = build_complex("c", [("a", 1), ("b", 0)], [("a", "b", Poly.of(2, 3))])
    nf = classify(cx)
    assert nf.two_steps == ((1, 2),)
    assert nf.one_steps == ()


def test_classify_of_a_free_generator_is_a_one_step():
    nf = classify(build_complex("pt", [("x", 0)]))
    assert nf.one_steps == (0,)
    assert nf.two_steps == ()


def test_unit_differential_cancels_the_pair_entirely():
    cx = build_complex("c", [("a", 1), ("b", 0)], [("a", "b", Poly.of(0, 1))])
    red = reduce_complex(cx)
    assert red.normal_form == NormalForm((), ())
    assert red.cancelled_pairs == 1


def test_reduction_refuses_a_pivot_pair_that_does_not_split_off():
    # built directly, past validation: a -> b -> c with both entries 1 has
    # d^2 != 0, which the pivot loop's split check stands on
    cx = GradedComplex("bad", ("a", "b", "c"), {"a": 2, "b": 1, "c": 0},
                       {("b", "a"): Poly(1), ("c", "b"): Poly(1)})
    with pytest.raises(CrossCheckMismatch, match="pivot pair did not split off"):
        reduce_complex(cx)


def test_classify_selects_the_minimal_valuation_pivot():
    # two generators mapping to one target: entries U^3 and U; the U pivot
    # wins, and the basis change leaves a U^3-torsion summand behind... the
    # actual invariant factors here are U and U^3 is absorbed:
    # d = [U^3  U] has Smith form (U), one free generator remains.
    cx = build_complex("c", [("a", 1), ("a2", 1), ("b", 0)],
                       [("a", "b", Poly.u(3)), ("a2", "b", Poly.u(1))])
    nf = classify(cx)
    assert nf.two_steps == ((1, 1),)
    assert nf.one_steps == (1,)


def test_classify_round_trips_realize():
    for seed in range(50):
        nf, _ = scrambled(seed, 6, 5)
        assert classify(realize(nf)) == nf


def test_classify_is_a_basis_change_invariant():
    for seed in range(30):
        nf, cx = scrambled(seed, 6, 5)
        assert classify(cx) == nf


def test_cancelled_pairs_survive_basis_changes():
    cx = build_complex("c", [("a", 1), ("b", 0), ("a2", 1), ("b2", 0)],
                       [("a", "b", Poly.of(0, 2)), ("a2", "b2", Poly.u(2))])
    scrambled = random_basis_change(cx, seed=9, steps=10)
    red = reduce_complex(scrambled)
    assert red.cancelled_pairs == 1
    assert red.normal_form.two_steps == ((1, 2),)


def test_normal_form_json_layout_is_sorted():
    nf = NormalForm((2, 0), ((1, 3), (0, 1), (1, 1)))
    assert nf.one_steps == (0, 2)
    assert nf.two_steps == ((0, 1), (1, 1), (1, 3))
    assert nf.to_json_dict(cancelled_pairs=2) == {
        "one_steps": [{"grading": 0}, {"grading": 2}],
        "two_steps": [{"grading_a": 0, "exponent": 1},
                      {"grading_a": 1, "exponent": 1},
                      {"grading_a": 1, "exponent": 3}],
        "cancelled_pairs": 2,
    }


def test_normal_form_counts():
    nf = NormalForm((0,), ((1, 2),))
    assert len(nf.one_steps) + 2 * len(nf.two_steps) == 3
    assert nf.max_exponent == 2
    assert nf.exponents() == (2,)


# ---------------------------------------------------------------------------
# realize


def test_realize_builds_the_model_complex():
    cx = realize(NormalForm((), ((1, 3),)))
    assert cx.gradings == {"a0": 1, "b0": 0}
    assert cx.entry("b0", "a0") == Poly.u(3)


def test_realize_of_one_steps_has_zero_differential():
    cx = realize(NormalForm((0, 2), ()))
    assert cx.rank == 2
    assert cx.d == {}


def test_realize_of_the_empty_form_is_the_empty_complex():
    cx = realize(NormalForm((), ()))
    assert cx.rank == 0


def test_realize_rejects_nonpositive_exponents():
    with pytest.raises(ParameterOutOfRange):
        realize(NormalForm((), ((1, 0),)))


# ---------------------------------------------------------------------------
# random generators


def test_zero_steps_leaves_the_complex_unchanged():
    _, cx = scrambled(3, 6, 5)
    assert random_basis_change(cx, seed=42, steps=0) == cx


def test_basis_change_is_deterministic_in_the_seed():
    _, cx = scrambled(4, 6, 5)
    a = random_basis_change(cx, seed=7, steps=9)
    b = random_basis_change(cx, seed=7, steps=9)
    assert a == b
    assert a != random_basis_change(cx, seed=8, steps=9)


def test_basis_change_isomorphism_composes_to_the_identity():
    for seed in range(10):
        _, cx = scrambled(seed, 6, 5)
        out, iso, iso_inv = random_basis_change(cx, seed=seed + 90, steps=8,
                                                with_iso=True)
        assert compose(iso, iso_inv) == identity_map(cx)
        assert compose(iso_inv, iso) == identity_map(out)


def test_basis_change_preserves_gradings():
    _, cx = scrambled(5, 6, 5)
    out = random_basis_change(cx, seed=11, steps=20)
    assert out.generators == cx.generators
    assert out.gradings == cx.gradings


def test_basis_change_past_the_exponent_limit_raises():
    """Two a -> U^(2^20) b summands in one grading: a step whose product
    passes the exponent limit raises ExponentOverflow and returns no
    complex, even where later steps would cancel it (seed 0, 3 steps:
    b1 <- b1 + p b0 for p = U, 1 + U + U^2 and U^2, which sum to 1).  The
    (seed, steps) whose steps stay within the limit are pinned."""
    limit = EXPONENT_LIMIT
    cx = build_complex("deep", [("a0", 1), ("b0", 0), ("a1", 1), ("b1", 0)],
                       [("a0", "b0", Poly.u(limit)),
                        ("a1", "b1", Poly.u(limit))])
    within = set()
    for seed in range(40):
        for steps in range(1, 6):
            try:
                out = random_basis_change(cx, seed=seed, steps=steps)
            except ExponentOverflow:
                continue
            within.add((seed, steps))
            assert max(p.degree() for p in out.d.values()) == limit
    assert within == {(1, 1), (6, 1), (8, 1), (8, 2), (9, 1), (12, 1),
                      (15, 1), (27, 1), (28, 1), (28, 2), (28, 3), (28, 4),
                      (28, 5), (29, 1), (29, 2), (38, 1), (38, 2), (39, 1)}


def test_random_chain_map_is_deterministic():
    _, cx = scrambled(6, 6, 5)
    assert random_chain_map(cx, seed=5) == random_chain_map(cx, seed=5)


def test_random_chain_map_validates_the_chain_relation():
    # construction does not re-verify d f = f d (the map is a chain map by
    # construction), so check the matrices here
    from uchain.complexes import _mat_mul
    for seed in range(20):
        _, cx = scrambled(seed, 6, 5)
        f = random_chain_map(cx, seed=seed + 77)
        assert _mat_mul(cx.d, f.entries) == _mat_mul(f.entries, cx.d)


def test_random_chain_map_reaches_the_identity():
    _, cx = scrambled(8, 6, 5)
    ident = identity_map(cx)
    hits = sum(random_chain_map(cx, seed=s) == ident for s in range(64))
    assert hits >= 1


def _with_unit_summands(seed: int) -> GradedComplex:
    """A realized normal form with at least one 1-step, plus one to three
    acyclic summands c -> (1+U) e in gradings it already uses, scrambled,
    so the reduction cancels pairs and Q carries unit pivots."""
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank=6, max_exponent=4)
    model = realize(NormalForm(nf.one_steps + (rng.randint(-2, 2),),
                               nf.two_steps))
    gens = [(x, model.gradings[x]) for x in model.generators]
    entries = [(s, t, p) for (t, s), p in model.d.items()]
    used = sorted(set(model.gradings.values()))
    for k in range(rng.randint(1, 3)):
        g = rng.choice(used)
        gens += [(f"c{k}", g), (f"e{k}", g - 1)]
        entries.append((f"c{k}", f"e{k}", Poly.of(0, 1)))
    return random_basis_change(build_complex("u", gens, entries),
                               seed=seed + 1, steps=rng.randint(4, 16))


def test_random_chain_maps_with_cancelled_pairs_are_pinned():
    """The maps drawn on 40 complexes whose reduction cancels pairs, as
    the bytes a change to how S is conjugated into the input basis would
    move."""
    texts = []
    for seed in range(40):
        cx = _with_unit_summands(seed)
        assert reduce_complex(cx).cancelled_pairs >= 1
        texts.append(map_to_text(random_chain_map(cx, seed=seed + 1000)))
    digest = hashlib.sha256("".join(texts).encode())
    assert digest.hexdigest() == (
        "6f27b9f79f1ab686fe3311240e96dc458330588517a3c29ec97ffcf786406a1f")


def test_random_chain_maps_on_1_steps_are_pinned():
    """The maps drawn on 40 scrambled complexes with at least two 1-steps
    in one grading, so S takes its 1-step-to-1-step branch, which the
    campaign's 2-step-only trials never draw."""
    texts = []
    for seed in range(40):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=8, max_exponent=4)
        nf = NormalForm(nf.one_steps + (rng.randint(-2, 2),) * 2, nf.two_steps)
        cx = random_basis_change(realize(nf), seed=seed + 1,
                                 steps=rng.randint(0, 15))
        assert len(reduce_complex(cx).one_steps) >= 2
        texts.append(map_to_text(random_chain_map(cx, seed=seed + 2000)))
    digest = hashlib.sha256("".join(texts).encode())
    assert digest.hexdigest() == (
        "8c2e631b687cd362316d633e9ad6ed9f27076b23673eef6135ec603030d972f9")


def test_basis_change_isomorphisms_are_pinned():
    """The scrambled complex and the Q and Q^-1 maps of ``with_iso`` on 30
    realized normal forms, 1 to 20 steps each."""
    texts = []
    for seed in range(30):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=8, max_exponent=5)
        out, iso, iso_inv = random_basis_change(
            realize(nf), seed=seed + 300, steps=rng.randint(1, 20),
            with_iso=True)
        texts += [complex_to_text(out), map_to_text(iso), map_to_text(iso_inv)]
    digest = hashlib.sha256("".join(texts).encode())
    assert digest.hexdigest() == (
        "8fc7e7cae358fad8f9dfbcdb4b8bda2d32f11be1b290a1a5749f52ea1af9e55a")


# ---------------------------------------------------------------------------
# pivot selection against the full scan it replaced


def _full_scan_reduction(cx: GradedComplex):
    """The reduction with its pivot chosen by scanning every live entry for
    the smallest (valuation, target, source), as before the pivot heap.
    Returns (ops, two_steps, one_steps, cancelled_pairs, tied pivots)."""
    n = cx.rank
    idx = cx.index()
    mat = {(idx[t], idx[s]): LocalScalar(p) for (t, s), p in cx.d.items()}

    def put(t, s, v):
        if v.is_zero():
            mat.pop((t, s), None)
        else:
            mat[(t, s)] = v

    def row_addmul(dst, src, c):
        for (t, s2), v in list(mat.items()):
            if t == src:
                put(dst, s2, mat.get((dst, s2), LS0) + c * v)

    def col_addmul(dst, src, c):
        for (t2, s), v in list(mat.items()):
            if s == src:
                put(t2, dst, mat.get((t2, dst), LS0) + c * v)

    active = set(range(n))
    ops, two_steps, cancelled, ties = [], [], 0, 0
    while mat:
        keys = sorted((_val(v.num), t, s) for (t, s), v in mat.items())
        v, t, s = keys[0]
        ties += len(keys) > 1 and keys[1][0] == v
        pivot = mat[(t, s)]
        for s2 in sorted(s2 for (t1, s2) in mat if t1 == t and s2 != s):
            c = mat[(t, s2)] / pivot
            ops.append((s2, s, c))
            col_addmul(s2, s, c)
            row_addmul(s, s2, c)
        for t2 in sorted(t2 for (t2, s1) in mat if s1 == s and t2 != t):
            c = mat[(t2, s)] / pivot
            ops.append((t, t2, c))
            row_addmul(t2, t, c)
            col_addmul(t, t2, c)
        put(t, s, LS0)
        active -= {s, t}
        if v == 0:
            cancelled += 1
        else:
            two_steps.append(TwoStepRecord(
                a=s, b=t, grading_a=cx.gradings[cx.generators[s]],
                exponent=v,
                unit=LocalScalar(Poly(pivot.num >> v), Poly(pivot.den))))
    one_steps = sorted((i, cx.gradings[cx.generators[i]]) for i in active)
    return ops, two_steps, one_steps, cancelled, ties


def _assert_heap_matches_full_scan(cx: GradedComplex) -> tuple[int, int]:
    red = reduce_complex(cx)
    ops, two_steps, one_steps, cancelled, ties = _full_scan_reduction(cx)
    assert red.ops == tuple(ops)
    assert red.two_steps == tuple(two_steps)
    assert red.one_steps == tuple(one_steps)
    assert red.cancelled_pairs == cancelled
    return cancelled, ties


def test_pivot_heap_matches_the_full_scan_on_seeded_complexes():
    seen_cancelled = seen_ties = 0
    for seed in range(12):
        _, cx = scrambled(seed, 6, 5)
        _assert_heap_matches_full_scan(cx)
        plain = scrambled(seed, 6, 3)[1]
        unit = _with_unit_pair(seed)
        for x in (unit, tensor(plain, dual(plain)), tensor(unit, dual(unit))):
            cancelled, ties = _assert_heap_matches_full_scan(x)
            seen_cancelled += cancelled
            seen_ties += ties
    # the inputs do exercise valuation-0 pivots and equal-valuation ties
    assert seen_cancelled > 0
    assert seen_ties > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       unit_pair=st.booleans(), pairing=st.booleans())
def test_pivot_heap_matches_the_full_scan(seed, unit_pair, pairing):
    if unit_pair:
        cx = _with_unit_pair(seed, max_rank=4 if pairing else 6)
    else:
        cx = scrambled(seed, 6 if pairing else 8, 5)[1]
    _assert_heap_matches_full_scan(tensor(cx, dual(cx)) if pairing else cx)


# ---------------------------------------------------------------------------
# the reduction's recorded basis change


def _dense(cols_or_rows, n: int, by_column: bool) -> list[list]:
    """[row][col] matrix of Q columns (``by_column``) or Q^-1 rows."""
    if by_column:
        return [[cols_or_rows[c].get(r, LS0) for c in range(n)] for r in range(n)]
    return [[cols_or_rows[r].get(c, LS0) for c in range(n)] for r in range(n)]


def test_exact_transform_matrices_are_mutually_inverse():
    for seed in range(10):
        _, cx = scrambled(seed, 6, 5)
        red = reduce_complex(cx)
        q_cols, qinv_rows = red.exact_transform()
        n = cx.rank
        for i in range(n):
            for j in range(n):
                acc = LS0
                for k in range(n):
                    acc = acc + q_cols[k].get(i, LS0) * qinv_rows[k].get(j, LS0)
                assert acc == (LS1 if i == j else LS0)


def test_series_transform_agrees_with_exact_transform():
    inputs = [scrambled(seed, 6, 5)[1] for seed in range(10)]
    for seed in range(3):
        small = scrambled(seed, 4, 3)[1]
        inputs.append(tensor(small, dual(small)))
        unit = _with_unit_pair(seed, max_rank=2)
        inputs.append(tensor(unit, dual(unit)))
    for cx in inputs:
        red = reduce_complex(cx)
        q_cols, qinv_rows = red.series_transform()
        q, qi = red.exact_transform()
        n = cx.rank
        for i in range(n):
            for j in range(n):
                assert q_cols[j].get(i, 0) == q[j].get(i, LS0).series(red.cap)
                assert qinv_rows[i].get(j, 0) == qi[i].get(j, LS0).series(red.cap)
        # the sparse layout stores no zero series
        assert all(b for vec in q_cols + qinv_rows for b in vec.values())


def test_reduction_diagonalizes_the_differential():
    # Q^-1 d Q must be block diagonal: the pivot U^n * unit in each 2-step
    # block (column a_k, row b_k), zero elsewhere.
    for seed in range(10):
        _, cx = scrambled(seed, 6, 5)
        red = reduce_complex(cx)
        n = cx.rank
        q_cols, qinv_rows = red.exact_transform()
        q = _dense(q_cols, n, by_column=True)
        qi = _dense(qinv_rows, n, by_column=False)
        d = [[LocalScalar(cx.entry(cx.generators[r], cx.generators[c]))
              for c in range(n)] for r in range(n)]

        def matmul(a, b):
            return [[sum((a[i][k] * b[k][j] for k in range(n)), LS0)
                     for j in range(n)] for i in range(n)]

        new_d = matmul(matmul(qi, d), q)
        expected = [[LS0] * n for _ in range(n)]
        for rec in red.two_steps:
            expected[rec.b][rec.a] = LocalScalar(Poly.u(rec.exponent)) * rec.unit
        assert new_d == expected


# ---------------------------------------------------------------------------
# the sparse replay against the dense step-by-step code it replaced


def _dense_exact_replay(red) -> tuple[list[list], list[list]]:
    """Reference: Q and Q^-1 as dense [row][col] LocalScalar matrices, each
    op (i, j, c) applied to every row of column i and every column of
    row j."""
    n = red.complex.rank
    q = [[LS1 if i == j else LS0 for j in range(n)] for i in range(n)]
    qi = [[LS1 if i == j else LS0 for j in range(n)] for i in range(n)]
    for i, j, c in red.ops:
        for r in range(n):
            q[r][i] = q[r][i] + c * q[r][j]
        for col in range(n):
            qi[j][col] = qi[j][col] + c * qi[i][col]
    return q, qi


def _stepwise_basis_change(cx: GradedComplex, seed: int, steps: int):
    """Reference: random_basis_change's steps applied one at a time to d
    (column i gains p * column j, row j gains p * row i) and to dense
    polynomial Q and Q^-1.  Returns (d, q, qi), d keyed like cx.d."""
    rng = random.Random(seed)
    gens = list(cx.generators)
    n = len(gens)
    by_grading: dict[int, list[int]] = {}
    for i, g in enumerate(gens):
        by_grading.setdefault(cx.gradings[g], []).append(i)
    groups = [v for v in by_grading.values() if len(v) >= 2]
    d = dict(cx.d)
    q = [[Poly(int(i == j)) for j in range(n)] for i in range(n)]
    qi = [[Poly(int(i == j)) for j in range(n)] for i in range(n)]
    if groups:
        for _ in range(steps):
            group = rng.choice(groups)
            i, j = rng.sample(group, 2)
            p = Poly(rng.getrandbits(3) or 1)
            gi, gj = gens[i], gens[j]
            _accumulate([((t, gi), p * v) for (t, s), v in d.items()
                         if s == gj], d)
            _accumulate([((gj, s), p * v) for (t, s), v in d.items()
                         if t == gi], d)
            for r in range(n):
                q[r][i] = q[r][i] + p * q[r][j]
            for c2 in range(n):
                qi[j][c2] = qi[j][c2] + p * qi[i][c2]
    return d, q, qi


def _replay_inputs(seed: int) -> list[GradedComplex]:
    """A scrambled complex, a pairing complex and one with a unit pair."""
    small = scrambled(seed, 4, 3)[1]
    return [scrambled(seed, 8, 5)[1], tensor(small, dual(small)),
            _with_unit_pair(seed)]


def _assert_exact_replay_matches_dense(cx: GradedComplex) -> None:
    red = reduce_complex(cx)
    q_cols, qinv_rows = red.exact_transform()
    q, qi = _dense_exact_replay(red)
    n = cx.rank
    assert _dense(q_cols, n, by_column=True) == q
    assert _dense(qinv_rows, n, by_column=False) == qi
    assert all(v for vec in q_cols + qinv_rows for v in vec.values())


def _assert_basis_change_matches_stepwise(cx: GradedComplex, seed: int,
                                          steps: int) -> None:
    out, iso, iso_inv = random_basis_change(cx, seed=seed, steps=steps,
                                            with_iso=True)
    d, q, qi = _stepwise_basis_change(cx, seed, steps)
    gens = cx.generators
    n = cx.rank
    assert out.d == d
    assert random_basis_change(cx, seed=seed, steps=steps) == out
    assert iso.entries == {(gens[i], gens[j]): q[i][j] for i in range(n)
                           for j in range(n) if q[i][j]}
    assert iso_inv.entries == {(gens[i], gens[j]): qi[i][j] for i in range(n)
                               for j in range(n) if qi[i][j]}
    assert all(iso.entries.values()) and all(iso_inv.entries.values())


def test_exact_replay_matches_the_dense_reference_on_seeded_complexes():
    for seed in range(8):
        for cx in _replay_inputs(seed):
            _assert_exact_replay_matches_dense(cx)


def test_basis_change_matches_the_stepwise_reference_on_seeded_complexes():
    for seed in range(8):
        for cx in _replay_inputs(seed):
            _assert_basis_change_matches_stepwise(cx, seed + 50, 4 + seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       kind=st.sampled_from([0, 1, 2]))
def test_exact_replay_matches_the_dense_reference(seed, kind):
    _assert_exact_replay_matches_dense(_replay_inputs(seed)[kind])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       kind=st.sampled_from([0, 1, 2]),
       steps=st.integers(min_value=0, max_value=25))
def test_basis_change_matches_the_stepwise_reference(seed, kind, steps):
    _assert_basis_change_matches_stepwise(_replay_inputs(seed)[kind],
                                          seed + 1, steps)


# ---------------------------------------------------------------------------
# one pivot loop per complex object


def _fresh_copy(cx: GradedComplex) -> GradedComplex:
    """A structurally equal complex that shares no cached view with cx."""
    return GradedComplex(cx.name, cx.generators, dict(cx.gradings), dict(cx.d))


def _reduction_data(red) -> tuple:
    return (red.two_steps, red.one_steps, red.cancelled_pairs, red.ops,
            red.series_transform(), red.exact_transform())


def _assert_second_call_matches_a_fresh_copy(cx: GradedComplex) -> None:
    first = reduce_complex(cx)
    first.series_transform()
    second = reduce_complex(cx)
    assert second is not first and second.complex is cx
    # the records are shared, the transforms are the new Reduction's own
    assert second.ops is first.ops and second.two_steps is first.two_steps
    assert second._series is None and second._exact is None
    fresh = reduce_complex(_fresh_copy(cx))
    assert _reduction_data(second) == _reduction_data(fresh)
    assert _reduction_data(first) == _reduction_data(fresh)


def test_a_second_reduction_matches_a_fresh_copy_on_seeded_complexes():
    kinds = [0, 0, 0]
    for seed in range(30):
        cx = _with_unit_summands(seed)
        red = reduce_complex(cx)
        kinds[0] += bool(red.one_steps)
        kinds[1] += bool(red.cancelled_pairs)
        kinds[2] += bool(red.two_steps)
        _assert_second_call_matches_a_fresh_copy(cx)
    assert kinds == [30, 30, 30]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       unit_summands=st.booleans())
def test_a_second_reduction_matches_a_fresh_copy(seed, unit_summands):
    cx = (_with_unit_summands(seed) if unit_summands
          else scrambled(seed, 6, 5)[1])
    _assert_second_call_matches_a_fresh_copy(cx)


@pytest.fixture()
def pivot_loops(monkeypatch):
    """The complexes the private pivot loop runs on, in call order."""
    seen: list[GradedComplex] = []
    loop = normal_form._pivot_loop

    def counting(cx):
        seen.append(cx)
        return loop(cx)

    monkeypatch.setattr(normal_form, "_pivot_loop", counting)
    return seen


def test_a_campaign_trial_runs_the_pivot_loop_once(pivot_loops):
    for seed in range(8):
        pivot_loops.clear()
        assert verify_proposition(seed, 1, 8, 6).passed
        assert len(pivot_loops) == 1


def test_every_reader_of_one_complex_shares_one_pivot_loop(pivot_loops):
    nf = random_normal_form(random.Random(3), 8, 5, one_steps=False)
    cx = random_basis_change(realize(nf), seed=4, steps=15)
    f = random_chain_map(cx, seed=5)
    delta_quantity(cx, f)
    lefschetz_by_grading(cx, f)
    h_minus(cx), h_plus(cx), h_red(cx, "minus"), h_red(cx, "plus")
    classify(cx)
    assert len(pivot_loops) == 1 and pivot_loops[0] is cx


def test_derived_complexes_and_copies_run_their_own_pivot_loop(pivot_loops):
    cx = scrambled(4, 6, 5)[1]
    cd = dual(cx)
    product = tensor(cx, cd)
    copy = _fresh_copy(cx)
    for other in (cx, cd, product, copy, cx, cd, product, copy):
        reduce_complex(other)
    assert list(map(id, pivot_loops)) == list(map(id, (cx, cd, product, copy)))


# ---------------------------------------------------------------------------
# the minor-valuation oracle


def test_minor_gcd_of_a_single_two_step():
    cx = build_complex("c", [("a", 1), ("b", 0)], [("a", "b", Poly.u(3))])
    assert minor_gcd_check(cx) == (3,)


def test_minor_gcd_separates_summand_exponents():
    cx = realize(NormalForm((), ((0, 1), (0, 2))))
    assert minor_gcd_check(cx) == (1, 2)


def test_minor_gcd_of_zero_differential_is_empty():
    assert minor_gcd_check(realize(NormalForm((0, 1), ()))) == ()


def test_minor_gcd_rejects_large_complexes():
    with pytest.raises(RankTooLarge):
        minor_gcd_check(realize(NormalForm(tuple(range(13)), ())))


def test_minor_gcd_agrees_with_classify():
    for seed in range(40):
        nf, cx = scrambled(seed, 6, 5)
        assert minor_gcd_check(cx) == nf.exponents()
    # cancelled pairs: valuation-0 invariant factors inside a torsion block
    for seed in range(20):
        cx = _with_unit_pair(seed, max_rank=6)
        assert reduce_complex(cx).cancelled_pairs == 1
        assert minor_gcd_check(cx) == classify(cx).exponents()
    # 1-steps in both gradings of a 2-step and one more, scrambled together
    for seed in range(20):
        rng = random.Random(seed)
        nf = random_normal_form(rng, max_rank=6, max_exponent=4,
                                one_steps=False)
        g, _ = nf.two_steps[0]
        nf = NormalForm((g, g - 1, rng.randint(-2, 2)), nf.two_steps)
        cx = random_basis_change(realize(nf), seed=seed + 1, steps=20)
        assert classify(cx) == nf
        assert minor_gcd_check(cx) == nf.exponents()
