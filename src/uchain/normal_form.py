"""Classification of complexes over the completed local ring of F2[U] at (U).

A free finitely generated complex splits, after a basis change over the
localization, into 1-step summands (a single generator with zero
differential) and 2-step summands a -> U^n -> b.  The reduction below is
Gaussian elimination in a discrete valuation ring: repeatedly select the
entry of minimal U-adic valuation v (ties broken by smallest
(target index, source index) in generator order), clear its row and
column with coefficients of nonnegative valuation, and record the pair
as a 2-step of exponent v, or as a cancelled acyclic pair when v = 0.
Since d^2 = 0, each cleared pair splits off as a direct summand, which
the code re-checks after every pivot.

Beyond the multiset invariants the reduction keeps the change of basis:
every elementary operation is logged and the basis matrices Q (new basis
in old coordinates, columnwise) and Q^-1 are replayed on demand -- either
exactly, or as power-series prefixes modulo U^cap with
cap = max exponent + 1, which is all the homology layer consumes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .complexes import (ChainMap, GradedComplex, _accumulate, _mat_mul,
                        build_chain_map, build_complex, identity_map)
from .errors import CrossCheckMismatch, ParameterOutOfRange, RankTooLarge
from .scalars import (LS0, LS1, P0, P1, LocalScalar, Poly, _pdivmod, _pgcd,
                      _pmul)

__all__ = [
    "NormalForm", "TwoStepRecord", "Reduction",
    "classify", "reduce_complex", "realize",
    "random_basis_change", "random_chain_map", "random_normal_form",
    "minor_gcd_check",
]


@dataclass(frozen=True)
class NormalForm:
    """Multiset invariants: 1-step gradings and (grading_a, exponent) pairs."""

    one_steps: tuple[int, ...] = ()
    two_steps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "one_steps", tuple(sorted(self.one_steps)))
        object.__setattr__(self, "two_steps",
                           tuple(sorted(tuple(t) for t in self.two_steps)))

    @property
    def total_rank(self) -> int:
        return len(self.one_steps) + 2 * len(self.two_steps)

    @property
    def max_exponent(self) -> int:
        return max((n for _, n in self.two_steps), default=0)

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(n for _, n in self.two_steps))

    def to_json_dict(self, cancelled_pairs: int = 0) -> dict:
        return {
            "one_steps": [{"grading": g} for g in self.one_steps],
            "two_steps": [{"grading_a": g, "exponent": n}
                          for g, n in self.two_steps],
            "cancelled_pairs": cancelled_pairs,
        }


@dataclass(frozen=True)
class TwoStepRecord:
    """One 2-step summand found by the reduction.

    ``a``/``b`` are indices of the final basis vectors g_a, g_b with
    d(g_a) = pivot * g_b; the summand basis is a = g_a and b = unit * g_b
    where pivot = U^exponent * unit.
    """

    a: int
    b: int
    grading_a: int
    exponent: int
    unit: LocalScalar


class Reduction:
    """Full result of one run of the pivot reduction."""

    def __init__(self, cx: GradedComplex, two_steps, one_steps, cancelled, ops):
        self.complex = cx
        self.two_steps: tuple[TwoStepRecord, ...] = tuple(two_steps)
        self.one_steps: tuple[tuple[int, int], ...] = tuple(one_steps)
        self.cancelled_pairs: int = cancelled
        self.ops: tuple[tuple[int, int, LocalScalar], ...] = tuple(ops)
        self.cap: int = max((r.exponent for r in self.two_steps), default=0) + 1
        self._series: dict[int, tuple[list[list[int]], list[list[int]]]] = {}
        self._exact: tuple[list[list[LocalScalar]], list[list[LocalScalar]]] | None = None
        # flat torsion coordinate layout: one bit per (summand, power)
        self.offsets: list[int] = []
        total = 0
        for r in self.two_steps:
            self.offsets.append(total)
            total += r.exponent
        self.torsion_dim: int = total

    @property
    def normal_form(self) -> NormalForm:
        return NormalForm(tuple(g for _, g in self.one_steps),
                          tuple((r.grading_a, r.exponent) for r in self.two_steps))

    # -- basis-change replay ------------------------------------------------
    #
    # Every op (i, j, c) means g_i <- g_i + c g_j, i.e. Q <- Q E and
    # Q^-1 <- E Q^-1 with E = I + c e_{ji} (E is an involution in
    # characteristic 2).

    def series_transform(self, order: int | None = None,
                         ) -> tuple[list[list[int]], list[list[int]]]:
        """(Q columns, Q^-1 rows) as power-series bit masks modulo U^order.

        ``q_cols[j][i]`` is the series of Q[i][j]; ``qinv_rows[i][j]``
        likewise for Q^-1.  ``order`` defaults to cap, which covers every
        coordinate read against the torsion summands.
        """
        if order is None:
            order = self.cap
        if order not in self._series:
            n = self.complex.rank
            mask = (1 << order) - 1
            q = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
            qi = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
            for i, j, c in self.ops:
                cb = c.series(order)
                if cb == 0:
                    continue
                q[i] = [(a ^ _pmul(cb, b)) & mask
                        for a, b in zip(q[i], q[j])]
                qi[j] = [(a ^ _pmul(cb, b)) & mask
                         for a, b in zip(qi[j], qi[i])]
            self._series[order] = (q, qi)
        return self._series[order]

    def exact_transform(self) -> tuple[list[list[LocalScalar]], list[list[LocalScalar]]]:
        """(Q, Q^-1) as dense LocalScalar matrices, indexed [row][col]."""
        if self._exact is None:
            n = self.complex.rank
            q = [[LS1 if i == j else LS0 for j in range(n)] for i in range(n)]
            qi = [[LS1 if i == j else LS0 for j in range(n)] for i in range(n)]
            for i, j, c in self.ops:
                for r in range(n):
                    q[r][i] = q[r][i] + c * q[r][j]
                for col in range(n):
                    qi[j][col] = qi[j][col] + c * qi[i][col]
            self._exact = (q, qi)
        return self._exact


def reduce_complex(cx: GradedComplex) -> Reduction:
    """Run the valuation-pivot reduction; see the module docstring."""
    n = cx.rank
    mat: dict[tuple[int, int], LocalScalar] = {}
    rows: list[set[int]] = [set() for _ in range(n)]
    cols: list[set[int]] = [set() for _ in range(n)]
    idx = cx.index()
    for (t, s), p in cx.d.items():
        ti, si = idx[t], idx[s]
        mat[(ti, si)] = LocalScalar(p)
        rows[ti].add(si)
        cols[si].add(ti)

    def put(t: int, s: int, v: LocalScalar) -> None:
        if v.is_zero():
            if (t, s) in mat:
                del mat[(t, s)]
                rows[t].discard(s)
                cols[s].discard(t)
        else:
            mat[(t, s)] = v
            rows[t].add(s)
            cols[s].add(t)

    def row_addmul(dst: int, src: int, c: LocalScalar) -> None:
        for s in list(rows[src]):
            put(dst, s, mat.get((dst, s), LS0) + c * mat[(src, s)])

    def col_addmul(dst: int, src: int, c: LocalScalar) -> None:
        for t in list(cols[src]):
            put(t, dst, mat.get((t, dst), LS0) + c * mat[(t, src)])

    active = set(range(n))
    ops: list[tuple[int, int, LocalScalar]] = []
    two_steps: list[TwoStepRecord] = []
    cancelled = 0

    while mat:
        best_key = None
        for (t, s), v in mat.items():
            key = ((v.num & -v.num).bit_length() - 1, t, s)
            if best_key is None or key < best_key:
                best_key = key
        v, t, s = best_key
        pivot = mat[(t, s)]
        for s2 in sorted(rows[t] - {s}):
            c = mat[(t, s2)] / pivot
            ops.append((s2, s, c))          # g_s2 <- g_s2 + c g_s
            col_addmul(s2, s, c)
            row_addmul(s, s2, c)
        for t2 in sorted(cols[s] - {t}):
            c = mat[(t2, s)] / pivot
            ops.append((t, t2, c))          # g_t <- g_t + c g_t2
            row_addmul(t2, t, c)
            col_addmul(t, t2, c)
        if rows[t] != {s} or cols[s] != {t} or rows[s] or cols[t]:
            raise CrossCheckMismatch(
                "pivot pair did not split off; d^2 = 0 should force it")
        put(t, s, LS0)
        active.discard(s)
        active.discard(t)
        if v == 0:
            cancelled += 1
        else:
            unit = LocalScalar(Poly(pivot.num >> v), Poly(pivot.den))
            two_steps.append(TwoStepRecord(
                a=s, b=t, grading_a=cx.gradings[cx.generators[s]],
                exponent=v, unit=unit))

    one_steps = sorted((i, cx.gradings[cx.generators[i]]) for i in active)
    return Reduction(cx, two_steps, one_steps, cancelled, ops)


def classify(cx: GradedComplex) -> NormalForm:
    """Multiset of 1-step gradings and 2-step (grading_a, exponent) pairs."""
    return reduce_complex(cx).normal_form


def realize(nf: NormalForm, name: str = "model") -> GradedComplex:
    """Model complex of a normal form: a{k} -> U^n -> b{k} plus x{j}."""
    gens: list[tuple[str, int]] = []
    entries: list[tuple[str, str, Poly]] = []
    for k, (g, nexp) in enumerate(nf.two_steps):
        if nexp < 1:
            raise ParameterOutOfRange(f"2-step exponent must be >= 1, got {nexp}")
        gens.append((f"a{k}", g))
        gens.append((f"b{k}", g - 1))
        entries.append((f"a{k}", f"b{k}", Poly.u(nexp)))
    for j, g in enumerate(nf.one_steps):
        gens.append((f"x{j}", g))
    return build_complex(name, gens, entries)


# ---------------------------------------------------------------------------
# seeded generators


def random_normal_form(rng: random.Random, max_rank: int, max_exponent: int,
                       one_steps: bool = True,
                       grading_span: tuple[int, int] = (-2, 2)) -> NormalForm:
    """Random normal form of total rank <= max_rank with >= one 2-step."""
    lo, hi = grading_span
    pairs = rng.randint(1, max(1, max_rank // 2))
    twos = tuple((rng.randint(lo, hi), rng.randint(1, max_exponent))
                 for _ in range(pairs))
    ones: tuple[int, ...] = ()
    if one_steps:
        room = max_rank - 2 * pairs
        ones = tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, room)))
    return NormalForm(ones, twos)


def random_basis_change(cx: GradedComplex, seed: int, steps: int,
                        with_iso: bool = False):
    """Apply ``steps`` random elementary basis changes g_i <- g_i + p(U) g_j
    between same-grading generators; deterministic in (seed, steps).

    With ``with_iso`` also returns the isomorphism (new -> old) and its
    inverse, both degree-0 chain maps with polynomial entries.
    """
    rng = random.Random(seed)
    gens = list(cx.generators)
    n = len(gens)
    by_grading: dict[int, list[int]] = {}
    for i, g in enumerate(gens):
        by_grading.setdefault(cx.gradings[g], []).append(i)
    groups = [v for v in by_grading.values() if len(v) >= 2]

    d = dict(cx.d)
    q = [[P1 if i == j else P0 for j in range(n)] for i in range(n)]
    qi = [[P1 if i == j else P0 for j in range(n)] for i in range(n)]

    if groups:
        for _ in range(steps):
            group = rng.choice(groups)
            i, j = rng.sample(group, 2)
            p = Poly(rng.getrandbits(3) or 1)
            gi, gj = gens[i], gens[j]
            # g_i <- g_i + p g_j: column i of d gains p * column j,
            # row j gains p * row i
            _accumulate([((t, gi), p * v) for (t, s), v in d.items()
                         if s == gj], d)
            _accumulate([((gj, s), p * v) for (t, s), v in d.items()
                         if t == gi], d)
            for r in range(n):
                q[r][i] = q[r][i] + p * q[r][j]
            for c2 in range(n):
                qi[j][c2] = qi[j][c2] + p * qi[i][c2]

    out = build_complex(cx.name, [(g, cx.gradings[g]) for g in gens],
                        [(s, t, p) for (t, s), p in d.items()])
    if not with_iso:
        return out
    iso = build_chain_map("basis", out, cx, 0,
                          [(gens[j], gens[i], q[i][j])
                           for i in range(n) for j in range(n) if q[i][j]])
    iso_inv = build_chain_map("basis_inv", cx, out, 0,
                              [(gens[j], gens[i], qi[i][j])
                               for i in range(n) for j in range(n) if qi[i][j]])
    return out, iso, iso_inv


def random_chain_map(cx: GradedComplex, seed: int) -> ChainMap:
    """Random degree-0 chain endomorphism, deterministic in ``seed``.

    Built as S + dH + Hd: S maps normal-form summands to grading-compatible
    summands (2-step to 2-step via the U^|n-m| matching pair, 1-step to
    1-step by an arbitrary scalar), conjugated back to the input basis and
    scaled by a denominator-clearing unit so entries stay polynomial; H is
    a random degree +1 linear map.  The exact identity is emitted on a
    reserved branch so it is always producible.
    """
    rng = random.Random(seed)
    if rng.random() < 1 / 16:
        return identity_map(cx)

    red = reduce_complex(cx)
    n = cx.rank
    gens = cx.generators

    # S written on the final (reduced) generator coordinates
    s_nf: list[tuple[tuple[int, int], LocalScalar]] = []
    for src in red.two_steps:
        for tgt in red.two_steps:
            if src.grading_a != tgt.grading_a or rng.random() < 0.5:
                continue
            p = Poly(rng.getrandbits(3))
            if not p:
                continue
            nexp, mexp = src.exponent, tgt.exponent
            # a |-> U^max(n-m,0) p a', b |-> U^max(m-n,0) p b' is the general
            # chain map between 2-steps of exponents n and m
            ca = LocalScalar(Poly.u(max(nexp - mexp, 0)) * p)
            cb = LocalScalar(Poly.u(max(mexp - nexp, 0)) * p)
            s_nf.append(((tgt.a, src.a), ca))
            s_nf.append(((tgt.b, src.b), cb * tgt.unit / src.unit))
    for si, sg in red.one_steps:
        for ti, tg in red.one_steps:
            if sg != tg or rng.random() < 0.5:
                continue
            p = Poly(rng.getrandbits(3))
            if p:
                s_nf.append(((ti, si), LocalScalar(p)))

    q, qi = red.exact_transform()
    terms: list[tuple[tuple[int, int], LocalScalar]] = []
    for (t, s), c in _accumulate(s_nf).items():
        for i in range(n):
            if q[i][t]:
                left = q[i][t] * c
                terms += [((i, j), left * qi[s][j]) for j in range(n) if qi[s][j]]
    s_orig = _accumulate(terms)

    den = 1
    for c in s_orig.values():
        den = _pmul(den, _pdivmod(c.den, _pgcd(den, c.den))[0])

    scaled = [((gens[i], gens[j]), Poly(_pmul(c.num, _pdivmod(den, c.den)[0])))
              for (i, j), c in s_orig.items()]

    h: dict[tuple[str, str], Poly] = {}
    for u in gens:
        for v in gens:
            if cx.gradings[v] != cx.gradings[u] + 1 or rng.random() < 0.5:
                continue
            p = Poly(rng.getrandbits(3))
            if p:
                h[(v, u)] = p
    entries = _accumulate(itertools.chain(
        scaled, _mat_mul(cx.d, h).items(), _mat_mul(h, cx.d).items()))
    return build_chain_map(f"rand{seed}", cx, cx, 0,
                           [(s, t, p) for (t, s), p in entries.items()])


# ---------------------------------------------------------------------------
# independent invariant oracle: gcd valuations of k x k minors


def minor_gcd_check(cx: GradedComplex) -> tuple[int, ...]:
    """Torsion exponents from determinantal valuations of the differential.

    For each k let d_k be the minimal U-adic valuation over all nonzero
    k x k minors of d (d_0 = 0); the invariant-factor valuations are
    e_k = d_k - d_{k-1} and the sorted positive ones form the 2-step
    exponent multiset.  Minors are enumerated directly -- no row
    reduction -- so the rank is capped at 12.  Grading homogeneity makes
    d a permuted block-diagonal matrix with one block per grading, and
    the minimal valuations combine across blocks by min-plus convolution.
    """
    if cx.rank > 12:
        raise RankTooLarge(f"rank {cx.rank} exceeds the minor-enumeration cap 12")
    idx = cx.index()
    ent: dict[tuple[int, int], int] = {}
    for (t, s), p in cx.d.items():
        ent[(idx[t], idx[s])] = p.bits

    blocks: list[tuple[list[int], list[int]]] = []
    for g in sorted({cx.gradings[x] for x in cx.generators}):
        cols = [idx[x] for x in cx.generators if cx.gradings[x] == g]
        rows = [idx[x] for x in cx.generators if cx.gradings[x] == g - 1]
        if cols and rows:
            blocks.append((sorted(rows), sorted(cols)))

    total: list[int | None] = [0]
    for rows, cols in blocks:
        @lru_cache(maxsize=None)
        def det(rt: tuple[int, ...], ct: tuple[int, ...]) -> int:
            # characteristic 2: determinant = permanent, no signs
            if not rt:
                return 1
            acc = 0
            for pos, c in enumerate(ct):
                a = ent.get((rt[0], c), 0)
                if a:
                    sub = det(rt[1:], ct[:pos] + ct[pos + 1:])
                    if sub:
                        acc ^= _pmul(a, sub)
            return acc

        mins: list[int | None] = [0]
        for k in range(1, min(len(rows), len(cols)) + 1):
            best: int | None = None
            for rt in itertools.combinations(rows, k):
                for ct in itertools.combinations(cols, k):
                    dv = det(rt, ct)
                    if dv:
                        v = (dv & -dv).bit_length() - 1
                        if best is None or v < best:
                            best = v
            if best is None:
                break
            mins.append(best)
        det.cache_clear()

        new: list[int | None] = [None] * (len(total) + len(mins) - 1)
        for i, a in enumerate(total):
            if a is None:
                continue
            for j, b in enumerate(mins):
                if b is None:
                    continue
                cur = new[i + j]
                if cur is None or a + b < cur:
                    new[i + j] = a + b
        total = new

    exps = []
    prev = 0
    for k in range(1, len(total)):
        if total[k] is None:
            break
        e = total[k] - prev
        prev = total[k]
        if e > 0:
            exps.append(e)
    return tuple(sorted(exps))
