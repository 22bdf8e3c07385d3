#!/usr/bin/env python3
"""Sweep the delta-vs-Lefschetz equality campaign over a size grid.

For each (max_rank, max_exponent) cell this runs a seeded campaign and
prints trials, failures and wall time.  With --mutate the dual derivative
factor is replaced by the identity, which should make cells fail; use it
to confirm the campaign has teeth.  The exit status is nonzero when an
unmutated cell fails, or when the mutated campaign fails in no cell.

    python3 scripts/run_campaign.py --trials 200 --seed 7
    python3 scripts/run_campaign.py --trials 100 --mutate
"""

from __future__ import annotations

import argparse

from uchain.lefschetz import verify_proposition


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="campaign seed")
    ap.add_argument("--trials", type=int, default=200,
                    help="trials per grid cell")
    ap.add_argument("--ranks", type=int, nargs="+", default=[4, 6, 8],
                    help="max_rank values to sweep")
    ap.add_argument("--exponents", type=int, nargs="+", default=[3, 6],
                    help="max_exponent values to sweep")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    ap.add_argument("--mutate", action="store_true",
                    help="fault-inject the dual derivative factor")
    args = ap.parse_args()

    print(f"{'rank':>4} {'exp':>4} {'trials':>7} {'failures':>9} {'ms':>7}")
    worst = 0
    for max_rank in args.ranks:
        for max_exponent in args.exponents:
            report = verify_proposition(
                args.seed, args.trials, max_rank, max_exponent,
                jobs=args.jobs, _mutate_phi_dual=args.mutate)
            n = len(report.failures)
            worst = max(worst, n)
            print(f"{max_rank:>4} {max_exponent:>4} {report.trials:>7} "
                  f"{n:>9} {report.elapsed_ms:>7}")
    if args.mutate:
        verdict = "caught" if worst else "NOT caught"
        print(f"mutation {verdict}: worst cell had {worst} failures")
        if not worst:
            raise SystemExit("the mutated campaign passed every cell")
    elif worst:
        raise SystemExit(f"{worst} failures in the worst cell")
    else:
        print("all cells agree")


if __name__ == "__main__":
    main()
