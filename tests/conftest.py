"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from uchain.complexes import (ChainMap, GradedComplex, LaurentChain,
                              _chain_map, dual, relabel, tensor, tensor_map)
from uchain.errors import InfinityNotZero
from uchain.homology import _delta_inverse
from uchain.lefschetz import (_check_endomorphism, cotrace_map, phi_dual,
                              trace_map)
from uchain.normal_form import reduce_complex


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
