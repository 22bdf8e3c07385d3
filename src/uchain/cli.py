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

from .complexes import (ChainMap, GradedComplex, complex_to_text, cone,
                        parse_chain_map, parse_complex)
from .errors import ParseError, UChainError
from .homology import (h_infinity, h_minus, h_plus, h_red,
                       mapping_torus_betti, pairing_check)
from .lefschetz import (delta_quantity, lefschetz_by_grading,
                        verify_proposition)
from .normal_form import reduce_complex

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


def _load_endomorphism(args) -> tuple[GradedComplex, ChainMap]:
    """``args.complex`` and then ``args.map`` on it, as source and target."""
    cx = _load_complex(args.complex)
    return cx, parse_chain_map(_read(args.map), cx, cx)


@functools.cache   # built once per process, on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uchain",
        description="Exact computations with finitely generated chain "
                    "complexes over F2[U].")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_: str, run,
            *positional: str) -> argparse.ArgumentParser:
        """A verb, its positional arguments and ``--output``; ``run(args)``
        returns the payload and the exit code."""
        p = sub.add_parser(name, help=help_)
        for arg in positional:
            p.add_argument(arg)
        p.add_argument("--output", help="write the JSON payload to this path")
        p.set_defaults(run=run)
        return p

    add("classify", "normal form of a complex", _cmd_classify, "complex")
    p = add("homology", "homology presentation in one flavor",
            _cmd_homology, "complex")
    p.add_argument("--flavor", choices=sorted(_FLAVORS), default="minus")
    add("delta-quantity", "U^-1 coefficient of the duality composite",
        _cmd_delta_quantity, "complex", "map")
    add("lefschetz", "trace of the induced map on plus-flavor homology",
        _cmd_lefschetz, "complex", "map")
    p = add("verify", "random campaign comparing the two computations",
            _cmd_verify)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--max-exponent", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    add("cone", "mapping cone of a chain map", _cmd_cone,
        "source", "target", "map")
    add("mapping-torus", "F2 Betti numbers of the mapping torus",
        _cmd_mapping_torus, "complex", "map")
    add("pairing-check", "perfect pairing between plus homology and the "
        "dual's torsion", _cmd_pairing_check, "complex")
    return parser


def _cmd_classify(args) -> tuple[dict, int]:
    red = reduce_complex(_load_complex(args.complex))
    return red.normal_form.to_json_dict(red.cancelled_pairs), 0


def _cmd_homology(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    return _FLAVORS[args.flavor](cx).to_json_dict(), 0


def _cmd_delta_quantity(args) -> tuple[dict, int]:
    return {"value": delta_quantity(*_load_endomorphism(args))}, 0


def _cmd_lefschetz(args) -> tuple[dict, int]:
    traces = lefschetz_by_grading(*_load_endomorphism(args))
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
    betti = mapping_torus_betti(*_load_endomorphism(args))
    return {"betti": {str(g): b for g, b in sorted(betti.items())}}, 0


def _cmd_pairing_check(args) -> tuple[dict, int]:
    payload = pairing_check(_load_complex(args.complex))
    ok = payload["invertible"] and payload["trace_cotrace_ok"]
    return payload, 0 if ok else 4


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.run(args)
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
