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
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .complexes import (ChainMap, GradedComplex, LaurentChain, _chain_map,
                        _dual_id, _pair_id, _positional, complex_to_text,
                        dual, identity_map, map_to_text, tensor, tensor_map,
                        unit_complex)
from .errors import (ComplexMismatch, CrossCheckMismatch, DegreeMismatch,
                     InfinityNotZero, ParameterOutOfRange)
from .gf2 import Span
from .homology import _delta_inverse, _Window
from .normal_form import (random_basis_change, random_chain_map,
                          random_normal_form, realize, reduce_complex)
from .scalars import P1

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
    src = tensor(cx, dual(cx))
    entries = [(("1", _pair_id(g, _dual_id(g))), P1) for g in cx.generators]
    return _chain_map(f"tr({cx.name})", src, unit_complex(), 0, entries)


def cotrace_map(cx: GradedComplex) -> ChainMap:
    """The other direction: 1 goes to the sum of g tensor g-dual."""
    tgt = tensor(cx, dual(cx))
    entries = [((_pair_id(g, _dual_id(g)), "1"), P1) for g in cx.generators]
    return _chain_map(f"cotr({cx.name})", unit_complex(), tgt, 0, entries)


def _check_endomorphism(cx: GradedComplex, f: ChainMap) -> None:
    if f.degree != 0:
        raise DegreeMismatch(f"need a degree-0 map, got degree {f.degree}")
    if f.source != cx or f.target != cx:
        raise ComplexMismatch(f"map {f.name!r} is not an endomorphism of the complex")


def _pairing_setup(cx: GradedComplex, f: ChainMap, pd: ChainMap | None,
                   ) -> tuple[GradedComplex, GradedComplex, LaurentChain,
                              ChainMap, ChainMap]:
    """Shared start of both orders, on positional ids: the renamed complex,
    C tensor dual(C), the cotrace cycle, f moved onto the renamed complex,
    and phi-dual of the renamed complex (or ``pd`` moved onto its dual)."""
    _check_endomorphism(cx, f)
    if reduce_complex(cx).one_steps:
        raise InfinityNotZero(
            "free summands survive inverting U; the quantity is undefined")
    if pd is None:
        pcx, pf = _positional(cx, f)
        ppd = phi_dual(pcx)
    else:
        pcx, pf, ppd = _positional(cx, f, pd)
    z = cotrace_map(pcx).apply_chain(LaurentChain.of(("1", 0)))
    return pcx, tensor(pcx, dual(pcx)), z, pf, ppd


def delta_quantity(cx: GradedComplex, f: ChainMap, *,
                   _phi_dual_override: ChainMap | None = None) -> int:
    """Coefficient of U^-1 in trace((f tensor phi-dual)(delta-inverse(cotrace 1))).

    Needs the infinity flavor of the complex to vanish, i.e. a 2-step-only
    classification, so that the connecting map is invertible on the tensor
    complex.  ``_phi_dual_override`` swaps out the phi-dual factor and
    exists for fault-injection tests only.
    """
    pcx, pairing, z, pf, ppd = _pairing_setup(cx, f, _phi_dual_override)
    w = _delta_inverse(reduce_complex(pairing), z)
    moved = tensor_map(pf, ppd).apply_chain(w)
    return trace_map(pcx).apply_chain(moved).coefficient("1", -1)


def _delta_quantity_swapped(cx: GradedComplex, f: ChainMap) -> int:
    """Same composite with delta-inverse applied after (f tensor phi-dual)
    instead of before.  The two orders agree by naturality of the
    connecting map; the test suite keeps both honest."""
    pcx, pairing, z, pf, ppd = _pairing_setup(cx, f, None)
    moved = tensor_map(pf, ppd).apply_chain(z)
    w = _delta_inverse(reduce_complex(pairing), moved)
    return trace_map(pcx).apply_chain(w).coefficient("1", -1)


# ---------------------------------------------------------------------------
# the direct oracle


def _stable_traces(cx: GradedComplex, f: ChainMap, small: int,
                   big: int) -> dict[int, int]:
    """Per-grading trace of f on the stable part of windowed plus-homology.

    A window of depth w models the quotient complex on exponents
    [-w, -1]; its homology carries junk classes near the bottom that the
    inclusion into a window deeper by the maximal exponent kills.  The
    image of H(small window) in H(big window) is exactly the true
    homology, is preserved by f, and the trace is read off there.
    """
    ws = _Window(cx, -small, 0)
    wb = _Window(cx, -big, 0)
    out: dict[int, int] = {}
    for g in sorted(set(cx.gradings.values())):
        hb = wb.homology(g)
        stable: list[tuple[int, LaurentChain]] = []
        span = Span()
        for v in ws.homology(g).reps:
            chain = ws.chain_of(v)
            c = hb.coords(wb.mask_of(chain))
            if c is None:
                raise CrossCheckMismatch("windowed class escaped the larger window")
            tag = span.count  # express() combos index the add order
            if span.add(c):
                stable.append((tag, chain))
        trace = 0
        for tag, chain in stable:
            fc = hb.coords(wb.mask_of(f.apply_chain(chain)))
            combo = None if fc is None else span.express(fc)
            if combo is None:
                raise CrossCheckMismatch("induced map left the stable subspace")
            trace ^= combo >> tag & 1
        out[g] = trace
    return out


def lefschetz_by_grading(cx: GradedComplex, f: ChainMap) -> dict[int, int]:
    """Per-grading traces of the induced map on the plus-flavor homology,
    computed on truncation windows and stability-checked at double width."""
    _check_endomorphism(cx, f)
    red = reduce_complex(cx)
    if red.one_steps:
        raise InfinityNotZero(
            "free summands survive inverting U; the plus flavor is "
            "infinite dimensional")
    n_max = red.normal_form.max_exponent
    small = n_max + 1
    first = _stable_traces(cx, f, small, small + n_max)
    second = _stable_traces(cx, f, 2 * small, 2 * small + n_max)
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


def _run_trial(campaign_seed: int, index: int, max_rank: int, max_exponent: int,
               mutate_phi_dual: bool) -> TrialFailure | None:
    seed = _trial_seed(campaign_seed, index)
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank, max_exponent, one_steps=False)
    base = realize(nf, name=f"trial{index}")
    cx = random_basis_change(base, seed=rng.getrandbits(32),
                             steps=rng.randint(0, 20))
    f = random_chain_map(cx, rng.getrandbits(32))
    override = identity_map(dual(cx)) if mutate_phi_dual else None
    dv = delta_quantity(cx, f, _phi_dual_override=override)
    ov = lefschetz_oracle(cx, f)
    if dv != ov:
        return TrialFailure(seed, complex_to_text(cx), map_to_text(f), dv, ov)
    return None


def _run_trial_packed(args: tuple) -> TrialFailure | None:
    return _run_trial(*args)


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
    work = [(campaign_seed, i, max_rank, max_exponent, _mutate_phi_dual)
            for i in range(trials)]
    workers = _pool_size(jobs, trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial_packed, work,
                                    chunksize=max(1, trials // (4 * workers))))
    else:
        results = [_run_trial(*args) for args in work]
    failures = tuple(r for r in results if r is not None)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(campaign_seed, trials, failures, elapsed_ms)
