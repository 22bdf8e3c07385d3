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

The selection reads a heap of (v, target index, source index) keys
instead of scanning every entry: each nonzero write pushes its entry's
key, and a popped key whose entry has since been cleared or changed
valuation is skipped.  Every live entry's current key is in the heap, so
the smallest valid key is the smallest over the live entries: the
tie-break, and with it every pivot and logged operation, is that of a
full scan.

The reduction also logs the change of basis: op (i, j, c) means
g_i <- g_i + c g_j, i.e. Q <- Q E and Q^-1 <- E Q^-1 with the involution
E = I + c e_{ji}, Q holding the new basis in old coordinates.  One replay
gives Q columns and Q^-1 rows as sparse {index: coefficient} dicts with
zeros absent: exactly, or as power series modulo U^cap (cap = max
exponent + 1, all the homology layer reads).  A matrix that only needs
conjugating by Q is never multiplied by the replayed Q: ``_conjugate``
runs the log on the matrix itself, E M E per op.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from functools import partial

from .complexes import (ChainMap, GradedComplex, _accumulate, _chain_map,
                        _complex, _mat_mul, _named, identity_map)
from .errors import CrossCheckMismatch, ParameterOutOfRange, RankTooLarge
from .scalars import (LS0, LS1, P1, LocalScalar, Poly, _pdivmod, _pgcd,
                      _pmul, _val)

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
        self._series: tuple[list[dict[int, int]], list[dict[int, int]]] | None = None
        self._exact: tuple[list[dict[int, LocalScalar]],
                           list[dict[int, LocalScalar]]] | None = None
        self.torsion_dim: int = sum(r.exponent for r in self.two_steps)

    @property
    def normal_form(self) -> NormalForm:
        return NormalForm(tuple(g for _, g in self.one_steps),
                          tuple((r.grading_a, r.exponent) for r in self.two_steps))

    # -- basis-change replay ------------------------------------------------

    def series_transform(self) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """(Q columns, Q^-1 rows) replayed from ``ops`` as power-series bit
        masks modulo U^cap, which covers every coordinate read against the
        torsion summands.

        ``q_cols[j]`` maps row i to the series of Q[i][j] and
        ``qinv_rows[i]`` maps column j to the series of Q^-1[i][j]; zero
        entries are absent, so an op costs the nonzeros of the vector it
        adds, not the rank.
        """
        if self._series is None:
            cap = self.cap
            self._series = _replay(
                self.complex.rank,
                ((i, j, c.series(cap)) for i, j, c in self.ops), 1,
                partial(_series_addmul, mask=(1 << cap) - 1))
        return self._series

    def exact_transform(self) -> tuple[list[dict[int, LocalScalar]],
                                       list[dict[int, LocalScalar]]]:
        """(Q columns, Q^-1 rows) replayed from ``ops`` with exact
        LocalScalar entries, in the sparse layout of ``series_transform``.
        Only the homology bases and the tests read it: the seeded
        generators conjugate through ``ops`` instead."""
        if self._exact is None:
            self._exact = _replay(self.complex.rank, self.ops, LS1, _addmul)
        return self._exact


def _replay(n: int, ops, one, addmul) -> tuple[list[dict], list[dict]]:
    """(Q columns, Q^-1 rows) of an op log on n generators, starting from
    ``one`` on the diagonal; ``addmul(dst, src, c)`` adds c * src to a
    sparse vector.  Ops with c = 0 are skipped."""
    q = [{j: one} for j in range(n)]
    qi = [{i: one} for i in range(n)]
    for i, j, c in ops:
        if c:
            addmul(q[i], q[j], c)
            addmul(qi[j], qi[i], c)
    return q, qi


def _conjugate(entries: dict, ops) -> dict:
    """E M E for each op's E = I + c e_{ji} in turn, applied in place to a
    sparse (target, source) matrix M and returned: column i gains
    c * column j, then row j gains c * row i.  E is its own inverse in
    characteristic 2, so a log's ops in order give Q^-1 M Q, and in
    reverse Q M Q^-1."""
    for i, j, c in ops:
        _accumulate([((t, i), c * v) for (t, s), v in entries.items()
                     if s == j], entries)
        _accumulate([((j, s), c * v) for (t, s), v in entries.items()
                     if t == i], entries)
    return entries


def _addmul(dst: dict, src: dict, c) -> None:
    """dst += c * src on sparse vectors of Poly or LocalScalar entries."""
    _accumulate(((k, c * v) for k, v in src.items()), dst)


def _series_addmul(dst: dict[int, int], src: dict[int, int], cb: int,
                   mask: int) -> None:
    """dst += cb * src on sparse series vectors, truncated by ``mask``."""
    for k, b in src.items():
        v = (dst.get(k, 0) ^ _pmul(cb, b)) & mask
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


def _clear_denominators(coeffs: dict) -> dict:
    """LocalScalar values times the lcm of their denominators (a unit),
    as polynomial bits."""
    den = 1
    for c in coeffs.values():
        den = _pmul(den, _pdivmod(c.den, _pgcd(den, c.den))[0])
    return {k: _pmul(c.num, _pdivmod(den, c.den)[0]) for k, c in coeffs.items()}


def reduce_complex(cx: GradedComplex) -> Reduction:
    """The valuation-pivot reduction of ``cx``; see the module docstring.

    The pivot loop runs once per complex object: its records (2-steps,
    1-steps, cancelled count and op log, all tuples) are kept on ``cx``
    as ``_reduced``, and later calls wrap them in a fresh ``Reduction``.
    The records hold no reference to ``cx``, so no reference cycle forms.
    """
    records = cx.__dict__.get("_reduced")
    if records is None:
        records = cx.__dict__["_reduced"] = _pivot_loop(cx)
    return Reduction(cx, *records)


def _pivot_loop(cx: GradedComplex) -> tuple[tuple, tuple, int, tuple]:
    """(2-steps, 1-steps, cancelled count, op log) of one reduction run."""
    n = cx.rank
    rows: list[dict[int, LocalScalar]] = [{} for _ in range(n)]
    cols: list[set[int]] = [set() for _ in range(n)]
    heap: list[tuple[int, int, int]] = []
    for (ti, si), p in cx._at.items():
        rows[ti][si] = LocalScalar(p)
        cols[si].add(ti)
        heap.append((_val(p.bits), ti, si))
    heapq.heapify(heap)

    def put(t: int, s: int, v: LocalScalar) -> None:
        if v.is_zero():
            if rows[t].pop(s, None) is not None:
                cols[s].discard(t)
        else:
            rows[t][s] = v
            cols[s].add(t)
            heapq.heappush(heap, (_val(v.num), t, s))

    def row_addmul(dst: int, src: int, c: LocalScalar) -> None:
        for s, v in list(rows[src].items()):
            put(dst, s, rows[dst].get(s, LS0) + c * v)

    def col_addmul(dst: int, src: int, c: LocalScalar) -> None:
        for t in list(cols[src]):
            put(t, dst, rows[t].get(dst, LS0) + c * rows[t][src])

    active = set(range(n))
    ops: list[tuple[int, int, LocalScalar]] = []
    two_steps: list[TwoStepRecord] = []
    cancelled = 0

    while heap:
        v, t, s = heapq.heappop(heap)
        pivot = rows[t].get(s)
        if pivot is None or _val(pivot.num) != v:
            continue            # stale key: cleared, or rewritten since
        for s2 in sorted(rows[t].keys() - {s}):
            c = rows[t][s2] / pivot
            ops.append((s2, s, c))          # g_s2 <- g_s2 + c g_s
            col_addmul(s2, s, c)
            row_addmul(s, s2, c)
        for t2 in sorted(cols[s] - {t}):
            c = rows[t2][s] / pivot
            ops.append((t, t2, c))          # g_t <- g_t + c g_t2
            row_addmul(t2, t, c)
            col_addmul(t, t2, c)
        if rows[t].keys() != {s} or cols[s] != {t} or rows[s] or cols[t]:
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
    return tuple(two_steps), tuple(one_steps), cancelled, tuple(ops)


def classify(cx: GradedComplex) -> NormalForm:
    """Multiset of 1-step gradings and 2-step (grading_a, exponent) pairs."""
    return reduce_complex(cx).normal_form


def realize(nf: NormalForm, name: str = "model") -> GradedComplex:
    """Model complex of a normal form: a{k} -> U^n -> b{k} plus x{j}."""
    gens: list[tuple[str, int]] = []
    entries: list[tuple[tuple[str, str], Poly]] = []
    for k, (g, nexp) in enumerate(nf.two_steps):
        if nexp < 1:
            raise ParameterOutOfRange(f"2-step exponent must be >= 1, got {nexp}")
        gens.append((f"a{k}", g))
        gens.append((f"b{k}", g - 1))
        entries.append(((f"b{k}", f"a{k}"), Poly.u(nexp)))
    for j, g in enumerate(nf.one_steps):
        gens.append((f"x{j}", g))
    return _complex(name, gens, entries)


# ---------------------------------------------------------------------------
# seeded generators


def random_normal_form(rng: random.Random, max_rank: int, max_exponent: int,
                       one_steps: bool = True) -> NormalForm:
    """Random normal form of total rank <= max_rank with >= one 2-step,
    all gradings in -2..2."""
    pairs = rng.randint(1, max(1, max_rank // 2))
    twos = tuple((rng.randint(-2, 2), rng.randint(1, max_exponent))
                 for _ in range(pairs))
    ones: tuple[int, ...] = ()
    if one_steps:
        room = max_rank - 2 * pairs
        ones = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, room)))
    return NormalForm(ones, twos)


def random_basis_change(cx: GradedComplex, seed: int, steps: int,
                        with_iso: bool = False):
    """Apply ``steps`` random elementary basis changes g_i <- g_i + p(U) g_j
    between same-grading generators; deterministic in (seed, steps).

    The steps form an op log with the meaning of ``Reduction.ops``, and
    the new differential Q^-1 d Q is d conjugated through it, E d E per
    step with the involution E = I + p e_{ji} (``_conjugate``).  Only
    ``with_iso`` replays the log into Q (new -> old) and its inverse,
    returned too as degree-0 chain maps with polynomial entries.

    Each step's products on d are checked against the 2^20 exponent
    limit as they are formed, as every construction checks its products.
    So a step can raise ``ExponentOverflow`` on a complex whose scrambled
    result would be within the limit, as when later steps cancel an
    earlier step's high-degree entries.
    """
    rng = random.Random(seed)
    gens = cx.generators
    groups = [v for v in cx._by_grading.values() if len(v) >= 2]

    ops: list[tuple[int, int, Poly]] = []
    if groups:
        for _ in range(steps):
            i, j = rng.sample(rng.choice(groups), 2)
            ops.append((i, j, Poly(rng.getrandbits(3) or 1)))
    d = _conjugate(dict(cx._at), ops)
    out = _complex(cx.name, [(g, cx.gradings[g]) for g in gens],
                   _named(d.items(), gens))
    if not with_iso:
        return out
    q, qi = _replay(len(gens), ops, P1, _addmul)
    q_at = {(i, j): c for j, col in enumerate(q) for i, c in col.items()}
    qi_at = {(i, j): c for i, row in enumerate(qi) for j, c in row.items()}
    return (out, _chain_map("basis", out, cx, 0, _named(q_at.items(), gens)),
            _chain_map("basis_inv", cx, out, 0, _named(qi_at.items(), gens)))


def random_chain_map(cx: GradedComplex, seed: int) -> ChainMap:
    """Random degree-0 chain endomorphism, deterministic in ``seed``.

    Built as S + dH + Hd: S maps normal-form summands to grading-compatible
    summands (2-step to 2-step via the U^|n-m| matching pair, 1-step to
    1-step by an arbitrary scalar), conjugated back to the input basis as
    Q S Q^-1 by running the reduction's op log in reverse on S itself
    (``_conjugate``; each op's E is an involution), and scaled by a
    denominator-clearing unit so entries stay polynomial; H is a random
    degree +1 linear map.  The exact identity is emitted on a
    reserved branch so it is always producible.
    """
    rng = random.Random(seed)
    if rng.random() < 1 / 16:
        return identity_map(cx)

    red = reduce_complex(cx)
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

    s_at = _conjugate(_accumulate(s_nf), reversed(red.ops))
    scaled = [(k, Poly(bits)) for k, bits
              in _clear_denominators(s_at).items()]

    h: dict[tuple[int, int], Poly] = {}
    for u, gu in enumerate(gens):
        for v in cx._by_grading.get(cx.gradings[gu] + 1, ()):
            if rng.random() < 0.5:
                continue
            p = Poly(rng.getrandbits(3))
            if p:
                h[(v, u)] = p
    return _chain_map(f"rand{seed}", cx, cx, 0, _named(itertools.chain(
        scaled, _mat_mul(cx._at, h).items(), _mat_mul(h, cx._at).items()),
        gens))


# ---------------------------------------------------------------------------
# independent invariant oracle: gcd valuations of k x k minors


def _det(ent: dict, rt: tuple[int, ...], ct: tuple[int, ...], memo: dict) -> int:
    """Bits of the minor of ``ent`` on rows ``rt`` and columns ``ct``,
    expanded along the first row; ``memo`` keeps the minors expanded."""
    if not rt:
        return 1
    acc = memo.get((rt, ct))
    if acc is None:
        # characteristic 2: determinant = permanent, no signs
        acc = 0
        for pos, c in enumerate(ct):
            a = ent.get((rt[0], c), 0)
            if a:
                sub = _det(ent, rt[1:], ct[:pos] + ct[pos + 1:], memo)
                if sub:
                    acc ^= _pmul(a, sub)
        memo[rt, ct] = acc
    return acc


def minor_gcd_check(cx: GradedComplex) -> tuple[int, ...]:
    """Torsion exponents from determinantal valuations of the differential.

    Grading homogeneity makes d a permuted direct sum of its grading
    blocks: the block for grading g has rows of grading g-1 and columns of
    grading g.  Over the discrete valuation ring F2[U]_(U) the invariant
    factors of a direct sum are those of its blocks taken together, so
    each block is read on its own.  For k = 1, 2, ... let d_k be the least
    U-adic valuation over the block's nonzero k x k minors (d_0 = 0),
    stopping at the first k with none; the block's invariant-factor
    valuations are e_k = d_k - d_{k-1}.  The sorted positive e's of all
    blocks form the 2-step exponent multiset.  Minors are enumerated
    directly -- no row reduction -- so the rank is capped at 12.
    """
    if cx.rank > 12:
        raise RankTooLarge(f"rank {cx.rank} exceeds the minor-enumeration cap 12")
    ent = {k: p.bits for k, p in cx._at.items()}
    by_grading = cx._by_grading
    exps = []
    for g, cols in by_grading.items():
        rows = by_grading.get(g - 1, ())
        memo: dict = {}
        prev = 0
        for k in range(1, min(len(rows), len(cols)) + 1):
            vals = [_val(dv) for rt in itertools.combinations(rows, k)
                    for ct in itertools.combinations(cols, k)
                    if (dv := _det(ent, rt, ct, memo))]
            if not vals:
                break
            d_k = min(vals)
            exps.append(d_k - prev)
            prev = d_k
    return tuple(sorted(e for e in exps if e > 0))
