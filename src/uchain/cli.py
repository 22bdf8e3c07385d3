"""Command-line front end.

One JSON object per invocation on standard output (or --output), with
sorted keys and no whitespace so identical inputs give identical bytes.
Errors exit with the taxonomy's code (1 validation, 2 precondition,
3 parse/IO, 4 internal cross-check) and an {"error": {"kind", "detail"}}
payload.  ``verify`` and ``pairing-check`` exit 4 when the property they
test fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .complexes import (GradedComplex, _dual_id, cone, complex_to_text,
                        dual, parse_chain_map, parse_complex)
from .errors import InfinityNotZero, ParseError, UChainError
from .gf2 import rank
from .homology import (_h_plus, h_infinity, h_minus, h_plus, h_red,
                       mapping_torus_betti)
from .lefschetz import (delta_quantity, lefschetz_by_grading,
                        verify_proposition)
from .normal_form import reduce_complex
from .scalars import _pmul

_FLAVORS = {
    "minus": h_minus,
    "infinity": h_infinity,
    "plus": h_plus,
    "red-minus": functools.partial(h_red, side="minus"),
    "red-plus": functools.partial(h_red, side="plus"),
}


def _read(path: str) -> str:
    """Text of an input file; bytes that do not decode are a parse error."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: cannot decode byte {err.start} "
                         f"as {err.encoding}") from None


def _load_complex(path: str) -> GradedComplex:
    return parse_complex(_read(path))


@functools.cache   # built once per process, on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uchain",
        description="Exact computations with finitely generated chain "
                    "complexes over F2[U].")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--output", help="write the JSON payload to this path")
        return p

    p = add("classify", "normal form of a complex")
    p.add_argument("complex")

    p = add("homology", "homology presentation in one flavor")
    p.add_argument("complex")
    p.add_argument("--flavor", choices=sorted(_FLAVORS), default="minus")

    p = add("delta-quantity", "U^-1 coefficient of the duality composite")
    p.add_argument("complex")
    p.add_argument("map")

    p = add("lefschetz", "trace of the induced map on plus-flavor homology")
    p.add_argument("complex")
    p.add_argument("map")

    p = add("verify", "random campaign comparing the two computations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--max-exponent", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)

    p = add("cone", "mapping cone of a chain map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")

    p = add("mapping-torus", "F2 Betti numbers of the mapping torus")
    p.add_argument("complex")
    p.add_argument("map")

    p = add("pairing-check", "perfect pairing between plus homology and "
                             "the dual's torsion")
    p.add_argument("complex")

    return parser


def _cmd_classify(args) -> tuple[dict, int]:
    red = reduce_complex(_load_complex(args.complex))
    return red.normal_form.to_json_dict(red.cancelled_pairs), 0


def _cmd_homology(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    return _FLAVORS[args.flavor](cx).to_json_dict(), 0


def _cmd_delta_quantity(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    f = parse_chain_map(_read(args.map), cx, cx)
    return {"value": delta_quantity(cx, f)}, 0


def _cmd_lefschetz(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    f = parse_chain_map(_read(args.map), cx, cx)
    traces = lefschetz_by_grading(cx, f)
    return {"value": sum(traces.values()) & 1,
            "trace_by_grading": {str(g): t for g, t in sorted(traces.items())}}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    report = verify_proposition(args.seed, args.trials, args.max_rank,
                                args.max_exponent, jobs=args.jobs)
    return report.to_json_dict(), 0 if report.passed else 4


def _cmd_cone(args) -> tuple[dict, int]:
    src = _load_complex(args.source)
    tgt = _load_complex(args.target)
    f = parse_chain_map(_read(args.map), src, tgt)
    return {"complex": complex_to_text(cone(f))}, 0


def _cmd_mapping_torus(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    f = parse_chain_map(_read(args.map), cx, cx)
    betti = mapping_torus_betti(cx, f)
    return {"betti": {str(g): b for g, b in sorted(betti.items())}}, 0


def _cmd_pairing_check(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    red = reduce_complex(cx)
    if red.one_steps:
        raise InfinityNotZero(
            "free summands survive inverting U; the pairing check needs a "
            "finite plus flavor")
    plus = _h_plus(red)
    # dual(C) gets a reduction of its own, not C's transposed, so the two
    # bases of the pairing matrix come from independent reductions
    red_minus = h_red(dual(cx), "minus")
    # f2_pairing by index: bit j of holds[term] says dual class j has term
    holds: dict[tuple[str, int], int] = {}
    for j, y in enumerate(red_minus.basis):
        for term in y.terms:
            holds[term] = holds.get(term, 0) | 1 << j
    rows = []
    for x in plus.basis:
        bits = 0
        for g, i in x.terms:
            bits ^= holds.get((_dual_id(g), -1 - i), 0)
        rows.append(bits)
    matrix_rank = rank(rows)
    dim = plus.f2_dimension
    invertible = matrix_rank == dim == red_minus.f2_dimension
    # trace o cotrace (1) in the reduced basis, the columns of Q with the
    # rows of Q^-1 as dual basis: sum_k (Q^-1 Q)[k][k], series mod U^cap
    q, qi = red.series_transform()
    traced = 0
    for col, row in zip(q, qi):
        for i in row.keys() & col.keys():
            traced ^= _pmul(row[i], col[i])
    trace_ok = traced & ((1 << red.cap) - 1) == cx.rank % 2
    payload = {"dimension": dim, "matrix_rank": matrix_rank,
               "invertible": invertible, "trace_cotrace_ok": trace_ok}
    return payload, 0 if invertible and trace_ok else 4


_COMMANDS = {
    "classify": _cmd_classify,
    "homology": _cmd_homology,
    "delta-quantity": _cmd_delta_quantity,
    "lefschetz": _cmd_lefschetz,
    "verify": _cmd_verify,
    "cone": _cmd_cone,
    "mapping-torus": _cmd_mapping_torus,
    "pairing-check": _cmd_pairing_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = _COMMANDS[args.verb](args)
    except UChainError as err:
        payload, code = {"error": {"kind": err.kind, "detail": err.detail}}, \
            err.exit_code
    except OSError as err:
        payload, code = {"error": {"kind": "IOError", "detail": str(err)}}, 3
    text = _dumps(payload)
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
            return code
        except OSError as err:
            # the payload could not be delivered where asked: report on stdout
            text, code = _dumps({"error": {"kind": "IOError",
                                           "detail": str(err)}}), 3
    sys.stdout.write(text)
    return code


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    sys.exit(main())
