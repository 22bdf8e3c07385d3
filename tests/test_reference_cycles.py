"""The engine frees what it builds by reference counting alone.

Complexes, maps, reductions and the oracles' windows hold no reference
cycles, so a campaign, an evaluator or a CLI verb leaves nothing for the
cyclic garbage collector: with the collector off, ``gc.collect()`` after
the call finds no unreachable object.  A cycle (a ``Reduction`` cached on
its own complex, say, or a closure that refers to itself) would leave
garbage on every call and make the collector run over long campaigns.

The CLI verbs are run through their command functions on arguments
parsed beforehand, so argparse's internals, which differ across Python
versions, stay outside the check.  The verbs also read and write files
through the standard library; their cases read no garbage on every
Python version CI runs (3.10 to 3.13).
"""

from __future__ import annotations

import gc
import random

import pytest

from uchain import cli
from uchain.complexes import (build_complex, complex_to_text, identity_map,
                              map_to_text)
from uchain.homology import (h_infinity, h_minus, h_plus, h_red,
                             les_exactness_check)
from uchain.lefschetz import (delta_quantity, lefschetz_oracle,
                              verify_proposition)
from uchain.normal_form import (minor_gcd_check, random_basis_change,
                                random_chain_map, random_normal_form, realize)


def _complex(seed: int, one_steps: bool = False):
    rng = random.Random(seed)
    nf = random_normal_form(rng, 8, 5, one_steps=one_steps)
    return random_basis_change(realize(nf), seed=seed + 1, steps=15)


def _with_map(seed: int):
    cx = _complex(seed)
    return cx, random_chain_map(cx, seed + 2)


def _flavors(seed: int):
    for h in (h_minus, h_plus, h_infinity):
        h(_complex(seed, one_steps=True))
    for side in ("minus", "plus"):
        h_red(_complex(seed, one_steps=True), side)


CALLS = {
    "verify_proposition": lambda: verify_proposition(3, 16, 8, 6),
    "delta_quantity": lambda: delta_quantity(*_with_map(4)),
    "lefschetz_oracle": lambda: lefschetz_oracle(*_with_map(6)),
    "h_flavors": lambda: _flavors(8),
    "les_exactness_check": lambda: les_exactness_check(_complex(9, True)),
    "minor_gcd_check": lambda: minor_gcd_check(_complex(10, True)),
}

VERBS = [
    ["classify", "{c}"],
    ["homology", "{c}", "--flavor", "minus"],
    ["homology", "{c}", "--flavor", "red-plus"],
    ["delta-quantity", "{c}", "{m}"],
    ["lefschetz", "{c}", "{m}"],
    ["verify", "--trials", "8"],
    ["cone", "{c}", "{c}", "{m}"],
    ["mapping-torus", "{u}", "{i}"],
    ["pairing-check", "{c}"],
]


def _assert_no_cyclic_garbage(call) -> None:
    call()                      # warm up the caches built on first use
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_engine_leaves_no_cyclic_garbage(name):
    _assert_no_cyclic_garbage(CALLS[name])


@pytest.mark.parametrize("argv", VERBS,
                         ids=lambda v: " ".join(a for a in v if "{" not in a))
def test_cli_verbs_leave_no_cyclic_garbage(argv, tmp_path):
    cx, f = _with_map(12)
    # mapping-torus reads U-free inputs only
    ux = build_complex("u", [("x", 0), ("y", 1), ("z", 1), ("w", 2)],
                       [("y", "x", "1"), ("w", "z", "1")])
    files = {"c": complex_to_text(cx), "m": map_to_text(f),
             "u": complex_to_text(ux), "i": map_to_text(identity_map(ux))}
    for k, text in files.items():
        (tmp_path / k).write_text(text)
    args = cli.build_parser().parse_args(
        [a.format_map({k: tmp_path / k for k in files}) for a in argv])

    def call():
        payload, code = args.run(args)
        assert code == 0, payload

    _assert_no_cyclic_garbage(call)
