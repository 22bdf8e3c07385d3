#!/usr/bin/env python3
"""Tabulate both Lefschetz computations on two-step complexes a -> U^n b.

For the identity map the value is n mod 2; for multiplication by p(U) it
is p(0) * n mod 2.  Both hold for delta_quantity and for
lefschetz_oracle, which reads the trace off truncation windows about 3n
deep.  By the duality of the complex with its dual, both also hold on
dual(C) for the identity and for p(U) there.  The table prints both
computations for both maps on C and on dual(C) alongside the closed forms
and exits nonzero on any mismatch.

    python3 scripts/two_step_table.py --max-exponent 16 --poly 1+U^2
"""

from __future__ import annotations

import argparse

from uchain.complexes import build_complex, dual, identity_map, scalar_map
from uchain.lefschetz import delta_quantity, lefschetz_oracle
from uchain.scalars import Poly


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exponent", type=int, default=16,
                    help="largest differential exponent n")
    ap.add_argument("--poly", type=Poly.parse, default=Poly.parse("1+U"),
                    help="scalar polynomial for the p(U) columns")
    args = ap.parse_args()

    p = args.poly
    k = p.bits & 1
    print(f"scalar column: multiplication by {p}")
    print(f"{'n':>3} {'id':>3} {'L(id)':>5} {'n%2':>4} "
          f"{'p(U)':>5} {'L(p)':>5} {'k*n%2':>6} "
          f"{'id*':>4} {'L(id*)':>6} {'p*':>3} {'L(p*)':>5}")
    bad = 0
    for n in range(1, args.max_exponent + 1):
        cx = build_complex("two", [("a", 1), ("b", 0)],
                           [("a", "b", Poly.u(n))])
        values = []
        for c in (cx, dual(cx)):
            ident, scalar = identity_map(c), scalar_map(c, p)
            values += [delta_quantity(c, ident), lefschetz_oracle(c, ident),
                       delta_quantity(c, scalar), lefschetz_oracle(c, scalar)]
        v_id, o_id, v_p, o_p, dv_id, do_id, dv_p, do_p = values
        ok = (v_id == o_id == dv_id == do_id == n % 2
              and v_p == o_p == dv_p == do_p == (k * n) % 2)
        bad += not ok
        flag = "" if ok else "  <-- MISMATCH"
        print(f"{n:>3} {v_id:>3} {o_id:>5} {n % 2:>4} "
              f"{v_p:>5} {o_p:>5} {(k * n) % 2:>6} "
              f"{dv_id:>4} {do_id:>6} {dv_p:>3} {do_p:>5}{flag}")
    if bad:
        raise SystemExit(f"{bad} rows disagree with the closed forms")
    print("all rows match the closed forms")


if __name__ == "__main__":
    main()
