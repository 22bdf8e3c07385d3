"""Fixtures and input builders shared by the test modules.

The seeded builders (``two_step``, ``scrambled`` and its presets,
``campaign_trial``) are defined here once, so every module that draws
"a torsion complex from seed s" draws the same one.
"""

from __future__ import annotations

import random

import pytest

from uchain.complexes import (ChainMap, GradedComplex, LaurentChain,
                              _chain_map, build_complex, dual, relabel,
                              tensor, tensor_map)
from uchain.errors import InfinityNotZero
from uchain.homology import _delta_inverse
from uchain.lefschetz import (_check_endomorphism, _draw_trial, cotrace_map,
                              phi_dual, trace_map)
from uchain.normal_form import (NormalForm, random_basis_change,
                                random_normal_form, realize, reduce_complex)
from uchain.scalars import Poly


def two_step(n: int, top: str = "a", bottom: str = "b") -> GradedComplex:
    """The 2-step complex top -> U^n bottom, in gradings 1 and 0."""
    return build_complex("two", [(top, 1), (bottom, 0)],
                         [(top, bottom, Poly.u(n))])


def scrambled(seed: int, max_rank: int, max_exponent: int,
              one_steps: bool = True,
              max_steps: int = 15) -> tuple[NormalForm, GradedComplex]:
    """(normal form, scrambled realization) from one seed: a random normal
    form drawn from ``random.Random(seed)``, realized, then up to
    ``max_steps`` random basis changes seeded ``seed + 1``."""
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank=max_rank, max_exponent=max_exponent,
                            one_steps=one_steps)
    return nf, random_basis_change(realize(nf), seed=seed + 1,
                                   steps=rng.randint(0, max_steps))


def torsion_complex(seed: int, max_rank: int = 6,
                    max_exponent: int = 5) -> GradedComplex:
    """A scrambled complex with no free summands."""
    return scrambled(seed, max_rank, max_exponent, one_steps=False)[1]


def mixed_complex(seed: int) -> GradedComplex:
    """A scrambled complex that may have free summands."""
    return scrambled(seed, 7, 4)[1]


def campaign_trial(index: int) -> tuple[GradedComplex, ChainMap]:
    """Trial ``index`` of verify_proposition(20260814, ..., 8, 6): its
    complex and chain endomorphism, from the campaign's own draw."""
    return _draw_trial(20260814, index, 8, 6)[1:]


def _positional(cx: GradedComplex, *maps: ChainMap) -> tuple:
    """``cx`` with generator k renamed ``"k"``, then each endomorphism of
    ``cx`` moved along onto the renamed complex.  Ids derived from digit
    strings cannot collide."""
    pcx = relabel(cx, {g: str(k) for k, g in enumerate(cx.generators)})
    ren = dict(zip(cx.generators, pcx.generators))
    return (pcx, *(_chain_map(fm.name, pcx, pcx, fm.degree,
                              (((ren[t], ren[s]), p)
                               for (t, s), p in fm.entries.items()))
                   for fm in maps))


def _literal_delta_quantity(cx: GradedComplex, f: ChainMap, *,
                            phi_dual_override: ChainMap | None = None,
                            swapped: bool = False) -> int:
    """The duality composite built literally: cotrace into C tensor
    dual(C), delta-inverse from the reduction of that n^2-generator
    complex, f tensor phi-dual, trace, and the U^-1 coefficient.

    ``swapped`` applies delta-inverse after (f tensor phi-dual) instead of
    before; naturality of the connecting map makes the orders agree.
    Generators are renamed to positions first, so joined ids cannot
    collide; ``phi_dual_override`` is moved along onto the renamed dual.
    """
    _check_endomorphism(cx, f)
    if reduce_complex(cx).one_steps:
        raise InfinityNotZero(
            "free summands survive inverting U; the quantity is undefined")
    pcx, pf = _positional(cx, f)
    if phi_dual_override is None:
        ppd = phi_dual(pcx)
    else:
        dpcx = dual(pcx)
        ren = dict(zip(phi_dual_override.source.generators, dpcx.generators))
        ppd = ChainMap(phi_dual_override.name, dpcx, dpcx,
                       phi_dual_override.degree,
                       {(ren[t], ren[s]): p for (t, s), p
                        in phi_dual_override.entries.items()})
    z = cotrace_map(pcx).apply_chain(LaurentChain.of(("1", 0)))
    red = reduce_complex(tensor(pcx, dual(pcx)))
    move = tensor_map(pf, ppd)
    if swapped:
        w = _delta_inverse(red, move.apply_chain(z))
    else:
        w = move.apply_chain(_delta_inverse(red, z))
    return trace_map(pcx).apply_chain(w).coefficient("1", -1)


@pytest.fixture(scope="session")
def literal_delta_quantity():
    """The literal composite, the reference ``delta_quantity`` is checked
    against."""
    return _literal_delta_quantity
