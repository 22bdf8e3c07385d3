#!/usr/bin/env python3
"""Tabulate both Lefschetz computations on two-step complexes a -> U^n b.

For the identity map the value is n mod 2; for multiplication by p(U) it
is p(0) * n mod 2.  Both hold for delta_quantity and for
lefschetz_oracle, which reads the trace off truncation windows about 3n
deep.  The table prints both computations for both maps alongside the
closed forms and exits nonzero on any mismatch.

    python3 scripts/two_step_table.py --max-exponent 16 --poly 1+U^2
"""

from __future__ import annotations

import argparse

from uchain.complexes import build_complex, identity_map, scalar_map
from uchain.lefschetz import delta_quantity, lefschetz_oracle
from uchain.scalars import Poly


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exponent", type=int, default=16,
                    help="largest differential exponent n")
    ap.add_argument("--poly", type=Poly.parse, default=Poly.parse("1+U"),
                    help="scalar polynomial for the second column")
    args = ap.parse_args()

    p = args.poly
    k = p.bits & 1
    print(f"scalar column: multiplication by {p}")
    print(f"{'n':>3} {'id':>3} {'L(id)':>5} {'n%2':>4} "
          f"{'p(U)':>5} {'L(p)':>5} {'k*n%2':>6}")
    bad = 0
    for n in range(1, args.max_exponent + 1):
        cx = build_complex("two", [("a", 1), ("b", 0)],
                           [("a", "b", Poly.u(n))])
        ident, scalar = identity_map(cx), scalar_map(cx, p)
        v_id, o_id = delta_quantity(cx, ident), lefschetz_oracle(cx, ident)
        v_p, o_p = delta_quantity(cx, scalar), lefschetz_oracle(cx, scalar)
        ok = v_id == o_id == n % 2 and v_p == o_p == (k * n) % 2
        bad += not ok
        flag = "" if ok else "  <-- MISMATCH"
        print(f"{n:>3} {v_id:>3} {o_id:>5} {n % 2:>4} "
              f"{v_p:>5} {o_p:>5} {(k * n) % 2:>6}{flag}")
    if bad:
        raise SystemExit(f"{bad} rows disagree with the closed forms")
    print("all rows match the closed forms")


if __name__ == "__main__":
    main()
