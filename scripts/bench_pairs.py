#!/usr/bin/env python3
"""Alternating before/after pairs of perfbench runs, summarized per metric.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload campaign --seeds 2401-2410 --out BENCH_24.json

Runs ``perfbench/run.py --trace 0`` in the two checkout directories, one
seed per pair, each run as long as the change's BENCHMARK.json sets
(``run_seconds``), the first side alternating from pair to pair (the
first pair parent first).  Every run's result goes to ``--out`` in the
layout of the ``BENCH_<n>.json`` files: per workload the seeds, every
run, and per end-to-end metric each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), the pairs the change
won, the median change checked against the metric's bound in that
BENCHMARK.json, and whether the claim rule (the change wins at least 9 in
10 pairs and its median beats the parent's by more than the parent's
interquartile range) holds.

The bound check reads ``"worse"`` when the change's median is worse than
the parent's by more than the bound.  Otherwise it reads
``"unresolved"`` when the parent's own runs spread wider than the bound
(interquartile range over median) and not every run of the change reads
better than every run of the parent, since a median inside so wide a
spread cannot show the metric unchanged; else ``"within"``.

An existing ``--out`` keeps its other keys, so notes written by hand
survive, and a workload run again gets its new runs appended and its
summary recomputed over all of them.

The script reads perfbench and never edits it; it uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'2401-2405,2410' -> [2401, 2402, 2403, 2404, 2405, 2410]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, plus the record's digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {checkout.name} (exit "
                         f"{proc.returncode}): {proc.stderr.strip()}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": record["digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _stats(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per-metric summary of paired runs.

    ``runs`` carry ``pair``, ``side`` and ``metrics``; ``declared`` is
    BENCHMARK.json's ``end_to_end`` list (name, better, bound).  A pair
    counts as a win when the change's value is strictly better.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in by_pair.values() if all(s in p for s in SIDES)]
    out: dict[str, dict] = {}
    for m in declared:
        if not pairs:
            break
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        vals = {s: [p[s][name] for p in pairs] for s in SIDES}
        st = {s: _stats(vals[s]) for s in SIDES}
        gain = sign * (st["change"]["median"] - st["parent"]["median"])
        iqr = st["parent"]["q3"] - st["parent"]["q1"]
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(vals["parent"], vals["change"]))
        rel = st["change"]["median"] / st["parent"]["median"] - 1
        spread = iqr / st["parent"]["median"]
        all_better = (min(sign * c for c in vals["change"])
                      > max(sign * p for p in vals["parent"]))
        if sign * rel < -m["bound"]:
            check = "worse"
        elif spread > m["bound"] and not all_better:
            check = "unresolved"
        else:
            check = "within"
        out[name] = {
            **st, "pairs": len(pairs), "change_wins": wins,
            "median_change": round(rel, 4), "bound_check": check,
            "parent_iqr": round(iqr, 4), "parent_spread": round(spread, 4),
            "claim_rule_met": (wins >= math.ceil(0.9 * len(pairs))
                               and gain > iqr),
        }
    return out


def workload_entry(runs: list[dict], declared: list[dict]) -> dict:
    digests: dict[int, set[str]] = {}
    for r in runs:
        digests.setdefault(r["pair"], set()).add(r["digest"])
    return {
        "seeds": sorted({r["seed"] for r in runs}),
        "summary": summarize(runs, declared),
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "digests_equal_per_pair": all(len(d) == 1 for d in digests.values()),
        "runs": runs,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one seed per pair, e.g. 2401-2410")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    seconds = declared["run_seconds"]
    doc.setdefault("harness", "python3 perfbench/run.py --workload <w> "
                   f"--seed <s> --seconds {seconds:g} --trace 0")
    doc["host"] = {**doc.get("host", {}), "nproc": os.cpu_count(),
                   "python": platform.python_version()}
    doc.setdefault("quartiles",
                   "statistics.quantiles(n=4, method='inclusive') over all "
                   "runs of one side")
    workloads = doc.setdefault("workloads", {})
    runs = workloads.get(args.workload, {}).get("runs", [])
    first_pair = 1 + max((r["pair"] for r in runs), default=-1)
    checkouts = {"parent": args.parent, "change": args.change}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(checkouts[side], args.workload, seed, seconds)
            runs.append({"pair": first_pair + k, "seed": seed, "side": side,
                         "first": order[0], **r})
            print(f"{args.workload} seed {seed} {side}: "
                  f"{json.dumps(r['metrics'])}", flush=True)
        workloads[args.workload] = workload_entry(runs, declared["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    summary = workloads[args.workload]["summary"]
    for name, s in summary.items():
        print(f"{name}: {s['parent']['median']} -> {s['change']['median']} "
              f"({s['median_change']:+.1%}, change won {s['change_wins']}/"
              f"{s['pairs']}, bound check {s['bound_check']})")


if __name__ == "__main__":
    main()
