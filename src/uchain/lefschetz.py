"""Fixed-point data of a chain endomorphism, two independent ways.

``delta_quantity`` computes the coefficient of U^-1 in the composite

    trace o (F tensor Phi-dual) o delta-inverse o cotrace

on C tensor dual(C), where Phi is the entrywise formal U-derivative of
the differential.  ``lefschetz_oracle`` computes the same number by brute
force: the trace of the map F induces on the homology of the quotient
complex (flavor plus), read off finite truncation windows.  The two
agree on every valid input; ``verify_proposition`` runs that comparison
as a seeded campaign and reports any disagreement with enough context to
replay it.

The composite is evaluated blockwise, without building C tensor dual(C).
Cotrace and trace do not depend on the basis, so they may be taken in the
basis that ``reduce_complex(C)`` finds, where the cotrace cycle splits over
the summands and a cancelled pair's part is a boundary.  For a 2-step
a -> p b with p = U^n u, d(a.b*) = p (a.a* + b.b*), so delta-inverse sends
that part to the negative part of p^-1 a.b*.  F tensor Phi-dual and the
trace only raise exponents, so the part adds the U^-1 coefficient of
p^-1 b*(Phi F a), which is the U^(n-1) coefficient of u^-1 b*(Phi F a).
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial

from .complexes import (ChainMap, GradedComplex, _chain_map,
                        _dual_id, _mat_mul, _pair_id, complex_to_text, dual,
                        identity_map, map_to_text, tensor, unit_complex)
from .errors import (ComplexMismatch, CrossCheckMismatch, DegreeMismatch,
                     ParameterOutOfRange)
from .homology import _Window
from .normal_form import (random_basis_change, random_chain_map,
                          random_normal_form, realize, reduce_complex)
from .scalars import P1, _pmul

__all__ = [
    "phi", "phi_dual", "trace_map", "cotrace_map",
    "delta_quantity", "lefschetz_oracle", "lefschetz_by_grading",
    "TrialFailure", "VerificationReport", "verify_proposition",
]


def phi(cx: GradedComplex) -> ChainMap:
    """Entrywise formal U-derivative of the differential.

    Grading drops by 1 like the differential; the chain relation
    (anticommuting with d, which in characteristic 2 reads
    phi d + d phi = 0) follows from differentiating d^2 = 0, so it holds
    by construction and is not checked again.
    """
    entries = [(k, p.derivative()) for k, p in cx.d.items()]
    return _chain_map(f"phi({cx.name})", cx, cx, -1, entries)


def phi_dual(cx: GradedComplex) -> ChainMap:
    """Transpose of phi on the dual complex, i.e. phi(dual(cx)) renamed."""
    return replace(phi(dual(cx)), name=f"phi_dual({cx.name})")


def trace_map(cx: GradedComplex) -> ChainMap:
    """Evaluation map from tensor(C, dual(C)) to the one-generator complex:
    g tensor g-dual goes to 1, mixed pairs to 0."""
    diagonal = [_pair_id(g, _dual_id(g)) for g in cx.generators]
    return _chain_map(f"tr({cx.name})", tensor(cx, dual(cx)), unit_complex(),
                      0, [(("1", s), P1) for s in diagonal])


def cotrace_map(cx: GradedComplex) -> ChainMap:
    """The other direction: 1 goes to the sum of g tensor g-dual."""
    diagonal = [_pair_id(g, _dual_id(g)) for g in cx.generators]
    return _chain_map(f"cotr({cx.name})", unit_complex(), tensor(cx, dual(cx)),
                      0, [((s, "1"), P1) for s in diagonal])


def _check_endomorphism(cx: GradedComplex, f: ChainMap) -> None:
    if f.degree != 0:
        raise DegreeMismatch(f"need a degree-0 map, got degree {f.degree}")
    if f.source != cx or f.target != cx:
        raise ComplexMismatch(f"map {f.name!r} is not an endomorphism of the complex")


def delta_quantity(cx: GradedComplex, f: ChainMap, *,
                   _phi_dual_override: ChainMap | None = None) -> int:
    """Coefficient of U^-1 in trace((f tensor phi-dual)(delta-inverse(cotrace 1))).

    Needs the infinity flavor of the complex to vanish, i.e. a 2-step-only
    classification, so that the connecting map is invertible on the tensor
    complex.  ``_phi_dual_override`` swaps out the phi-dual factor and
    exists for fault-injection tests only.

    Evaluated blockwise (see the module docstring): each 2-step
    a -> U^n u b adds the U^(n-1) coefficient of u^-1 b*(Phi f a), with a
    a column of Q and b* a row of Q^-1.
    """
    _check_endomorphism(cx, f)
    red = reduce_complex(cx).finite("the quantity is undefined")
    if _phi_dual_override is None:   # phi(cx), on positions
        phi_at = {k: dp for k, p in cx._at.items() if (dp := p.derivative())}
    else:   # phi-dual's transpose on C, g* sitting at g's position
        phi_at = {(s, t): p for (t, s), p in _phi_dual_override._at.items()}
    phi_f = [(t, s, p.bits) for (t, s), p in _mat_mul(phi_at, f._at).items()]
    q, qi = red.series_transform()
    total = 0
    for r in red.two_steps:
        col, row = q[r.a], qi[r.b]
        pair = 0
        for t, s, bits in phi_f:
            if s in col and t in row:
                pair ^= _pmul(_pmul(bits, col[s]), row[t])
        n = r.exponent
        total ^= _pmul(r.unit.inverse().series(n), pair) >> (n - 1) & 1
    return total


# ---------------------------------------------------------------------------
# the direct oracle


def _stable_traces(window: _Window, f_templates: list[tuple[int, int]],
                   small: int, big: int) -> dict[int, int]:
    """Per-grading trace of f on the stable part of windowed plus-homology.

    A window of depth w models the quotient complex on exponents
    [-w, -1]; its homology carries junk classes near the bottom that the
    inclusion into a window deeper by the maximal exponent kills.  The
    image of H(small window) in H(big window) is exactly the true
    homology, is preserved by f, and the trace is read off there.

    Both windows end at exponent -1, so the small one is the prefix of
    width ``small`` of the big one: its cycles are the big window's
    cycles below bit ``small * rank``, from the same elimination.  A
    vector's coordinates involve only representatives and boundary rows
    of top bit at most its own, so the image is spanned by the big
    window's representatives below that bit, a prefix of its ``reps``,
    and the trace does not depend on the basis.  f (given by
    ``window.templates``) acts on a class one set bit at a time, and must
    map that prefix into itself.
    """
    out: dict[int, int] = {}
    for g in window.gradings:
        hb = window.homology(g, big)
        stable = bisect_left(hb.reps, 1 << small * window.rank)
        trace = 0
        for k in range(stable):
            fc = hb.coords(window.map_mask(f_templates, hb.reps[k]))
            if fc is None or fc >> stable:
                raise CrossCheckMismatch("induced map left the stable subspace")
            trace ^= fc >> k & 1
        out[g] = trace
    return out


def lefschetz_by_grading(cx: GradedComplex, f: ChainMap) -> dict[int, int]:
    """Per-grading traces of the induced map on the plus-flavor homology,
    computed on truncation windows and stability-checked at double width.
    The windows share their top, so each is the prefix of its width of the
    deepest, which is eliminated once per grading.  Classes are read at
    widths small + n_max and 2 * small + n_max only; small and 2 * small
    mark where their stable prefixes end, and the certificate reads
    dimensions at n_max and small."""
    _check_endomorphism(cx, f)
    red = reduce_complex(cx).finite("the plus flavor is infinite dimensional")
    n_max = red.normal_form.max_exponent
    small = n_max + 1
    window = _Window(cx, 2 * small + n_max)
    # certificate of n_max and of no 1-steps: the window of width w is
    # C/U^w, of homology dimension 2 min(n, w) per 2-step and w per 1-step
    dims = [sum(window.dim(g, w) for g in window.gradings)
            for w in (n_max, small)]
    if dims[0] != dims[1]:
        raise CrossCheckMismatch(f"window homology grew past width {n_max}: "
                                 "wrong maximal exponent, or a 1-step")
    f_templates = window.templates(f._cols)
    first = _stable_traces(window, f_templates, small, small + n_max)
    second = _stable_traces(window, f_templates, 2 * small, 2 * small + n_max)
    if first != second:
        raise CrossCheckMismatch(
            f"doubling the window moved the trace: {first} vs {second}")
    return first


def lefschetz_oracle(cx: GradedComplex, f: ChainMap) -> int:
    """Lefschetz number of f on the plus-flavor homology.

    Characteristic 2 folds the usual alternating sum into a plain sum, so
    the value is the parity of the total trace; the per-parity split is
    available from lefschetz_by_grading.
    """
    return sum(lefschetz_by_grading(cx, f).values()) & 1


# ---------------------------------------------------------------------------
# the verification campaign


@dataclass(frozen=True)
class TrialFailure:
    seed: int
    complex_text: str
    map_text: str
    delta_value: int
    oracle_value: int

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "complex": self.complex_text,
            "map": self.map_text,
            "delta_value": self.delta_value,
            "oracle_value": self.oracle_value,
        }


@dataclass(frozen=True)
class VerificationReport:
    campaign_seed: int
    trials: int
    failures: tuple[TrialFailure, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "campaign_seed": self.campaign_seed,
            "trials": self.trials,
            "failures": [f.to_json_dict() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }


_MASK64 = (1 << 64) - 1


def _trial_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-trial seed; splitmix-style mixing keeps trials
    independent of each other and of execution order."""
    x = (campaign_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _draw_trial(campaign_seed: int, index: int, max_rank: int,
                max_exponent: int) -> tuple[int, GradedComplex, ChainMap]:
    """Trial ``index``'s seed, and the complex and map drawn from it."""
    seed = _trial_seed(campaign_seed, index)
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank, max_exponent, one_steps=False)
    base = realize(nf, name=f"trial{index}")
    cx = random_basis_change(base, seed=rng.getrandbits(32),
                             steps=rng.randint(0, 20))
    return seed, cx, random_chain_map(cx, rng.getrandbits(32))


def _run_trial(campaign_seed: int, index: int, max_rank: int, max_exponent: int,
               mutate_phi_dual: bool) -> TrialFailure | None:
    seed, cx, f = _draw_trial(campaign_seed, index, max_rank, max_exponent)
    override = identity_map(dual(cx)) if mutate_phi_dual else None
    dv = delta_quantity(cx, f, _phi_dual_override=override)
    ov = lefschetz_oracle(cx, f)
    if dv != ov:
        return TrialFailure(seed, complex_to_text(cx), map_to_text(f), dv, ov)
    return None


def _pool_size(jobs: int, trials: int) -> int:
    """Worker processes worth starting: no more than the trials to share
    out or the cores to run them on."""
    return min(jobs, trials, os.cpu_count() or 1)


def verify_proposition(campaign_seed: int, trials: int, max_rank: int,
                       max_exponent: int, jobs: int = 1, *,
                       _mutate_phi_dual: bool = False) -> VerificationReport:
    """Seeded campaign asserting delta_quantity = lefschetz_oracle.

    Each trial realizes a random 2-step-only normal form, scrambles its
    basis, draws a random chain endomorphism, and compares the two
    computations.  Results are deterministic in (campaign_seed, trials)
    and independent of ``jobs``.
    """
    if trials < 0:
        raise ParameterOutOfRange(f"trials must be >= 0, got {trials}")
    if not 2 <= max_rank <= 12:
        raise ParameterOutOfRange(f"max_rank must be in 2..12, got {max_rank}")
    if max_exponent < 1:
        raise ParameterOutOfRange(f"max_exponent must be >= 1, got {max_exponent}")
    if jobs < 1:
        raise ParameterOutOfRange(f"jobs must be >= 1, got {jobs}")
    start = time.monotonic()
    trial = partial(_run_trial, campaign_seed, max_rank=max_rank,
                    max_exponent=max_exponent, mutate_phi_dual=_mutate_phi_dual)
    workers = _pool_size(jobs, trials)
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing would cost
        # every import of the package, and only a worker pool needs them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(trial, range(trials),
                                    chunksize=max(1, trials // (4 * workers))))
    else:
        results = list(map(trial, range(trials)))
    failures = tuple(r for r in results if r is not None)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(campaign_seed, trials, failures, elapsed_ms)
