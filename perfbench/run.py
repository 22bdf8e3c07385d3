#!/usr/bin/env python3
"""Layered benchmark for uchain.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Runs one workload (campaign, deep-exponent or cli-session, see
perfbench/README.md) as a closed loop with one client for --seconds
seconds, checks every op's output and prints one run record line and then
one result line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 every op is also replayed stage by stage under spans and the
metrics are the per-layer ones.  Records and spans are kept under
.perfbench/ in the checkout.

Exits without a result: 2 when the uchain sources are missing, 3 when
the correctness gate cannot fail on deliberately broken inputs, 4 when no
op completed or a metric BENCHMARK.json lists was not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import clock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 9
J2_TRIALS = 400
CAMPAIGN_SEED = 20260814   # the fixed jobs=2 trial list and gate inputs
GATE_TRIALS = 24

UNITS = {
    "ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "trials_per_s_j2": "trials/s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
    "lefschetz.j2_efficiency": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def fail(code: int, message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (a
    checkout may have no .git, and git would then search parent
    directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> float:
    """Median CPU time (user + system) of a cold `import uchain,
    uchain.cli` in a fresh interpreter, the start-up every CLI invocation
    pays.  One unmeasured import first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import uchain, uchain.cli"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = children_cpu()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:
            samples.append(children_cpu() - start)
    return statistics.median(samples)


def gate_self_check() -> dict:
    """Feed the checks deliberately wrong values: the phi-dual mutation in
    the campaign, and delta_quantity with the identity in place of
    phi-dual.  The benchmark refuses to report if either goes unflagged."""
    from uchain.complexes import dual, identity_map
    from uchain.lefschetz import delta_quantity, lefschetz_oracle, verify_proposition
    from workloads import Campaign, DeepExponent

    report = verify_proposition(CAMPAIGN_SEED, GATE_TRIALS, Campaign.MAX_RANK,
                                Campaign.MAX_EXPONENT, _mutate_phi_dual=True)
    mutated = sum(1 for f in report.failures if f.delta_value != f.oracle_value)
    rng = random.Random(CAMPAIGN_SEED)
    items = [DeepExponent.make(rng, shape, rng.randint(4, 16))
             for shape, _ in DeepExponent.SLOTS * (GATE_TRIALS // len(DeepExponent.SLOTS))]
    override = 0
    for item in items:
        cx, f = item.complex, item.map
        dv = delta_quantity(cx, f, _phi_dual_override=identity_map(dual(cx)))
        if DeepExponent.check(item, dv, lefschetz_oracle(cx, f)) is not None:
            override += 1
    result = {"mutated_campaign": {"ops": GATE_TRIALS, "flagged": mutated},
              "identity_phi_dual": {"ops": len(items), "flagged": override}}
    if not mutated or not override:
        fail(3, f"the correctness gate cannot fail: {result}")
    return result


def measure_j2() -> tuple[float, str | None]:
    """Trials per second of one verify_proposition(..., jobs=2) over a
    fixed list of trials, and the first disagreement in it, if any."""
    from uchain.lefschetz import verify_proposition
    from workloads import Campaign

    start = time.perf_counter()
    report = verify_proposition(CAMPAIGN_SEED, J2_TRIALS, Campaign.MAX_RANK,
                                Campaign.MAX_EXPONENT, jobs=2)
    seconds = time.perf_counter() - start
    error = None
    if not report.passed:
        error = f"jobs=2 campaign: {len(report.failures)} trials disagree"
    return J2_TRIALS / seconds, error


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * percentile // 100))
    k = int(min(k, len(ordered)))
    return ordered[k - 1], len(ordered) - k


class Loop:
    """Closed loop over ops 0, 1, ... for ``seconds`` and at least the
    workload's check set; digests the check set's outputs and checks that
    an input met again gives the same bytes."""

    def __init__(self, wl, seconds: float):
        self.wl, self.seconds = wl, seconds
        self.digest = hashlib.sha256()
        self.first: dict[int, bytes] = {}
        self.errors: dict[int, str] = {}   # op index -> first failed check
        self.n = 0

    def record(self, i: int, op, replay_error: str | None = None) -> None:
        h = hashlib.sha256(op.output).digest()
        repeated = self.first.setdefault(i % self.wl.pool_size, h) != h
        for error in (op.error, replay_error,
                      "output changed on a repeated input" if repeated else None):
            if error:
                self.errors.setdefault(i, error)
        if i < self.wl.check_ops:
            self.digest.update(b"%d:" % i + op.output + b"\n")

    def run(self, step) -> tuple[float, float]:
        """Wall seconds (which end the loop) and CPU seconds of the loop."""
        start, cpu_start = time.perf_counter(), clock()
        while self.n < self.wl.check_ops or time.perf_counter() - start < self.seconds:
            try:
                step(self.n)
            except Exception as exc:  # an op that raises counts as failed
                self.errors.setdefault(self.n, f"{type(exc).__name__}: {exc}")
            self.n += 1
        return time.perf_counter() - start, clock() - cpu_start


def untraced_run(wl, seconds: float) -> tuple[Loop, dict, dict]:
    times: list[float] = []
    loop = Loop(wl, seconds)

    def step(i: int) -> None:
        op = wl.run(i)
        times.append(op.seconds)
        loop.record(i, op)

    wall, cpu = loop.run(step)
    if not times:
        fail(4, f"no op completed: {loop.errors.get(0)}")
    ms = [t * 1e3 for t in times]
    tail_ms, beyond = tail(ms, wl.tail_percentile)
    metrics = {"ops_per_s": loop.n / cpu, "op_ms_p50": statistics.median(ms),
               "op_ms_tail": tail_ms}
    info = {"loop_s": wall, "loop_cpu_s": cpu, "tail_percentile": wl.tail_percentile,
            "ops_beyond_tail": beyond}
    return loop, metrics, info


def traced_run(wl, seconds: float, spans_path: Path) -> tuple[Loop, dict, dict]:
    from tracing import Tracer

    tr = Tracer()
    loop = Loop(wl, seconds)
    counts: dict[str, int] = {}
    ref_delta = 0.0   # untraced delta_quantity seconds, summed
    overhead = 0.0

    def step(i: int) -> None:
        nonlocal ref_delta, overhead
        tr.op = i
        t = wl.trace(i, tr)
        loop.record(i, t.untraced, t.error)
        ref_delta += t.ref_delta_seconds
        if i < wl.check_ops:
            overhead += t.replay_seconds - t.untraced.seconds
            for k, v in t.counts.items():
                counts[k] = counts.get(k, 0) + v

    loop.run(step)
    self_s = tr.self_seconds()
    metrics = {f"{name}_ms": s * 1e3 / loop.n for name, s in self_s.items()}
    metrics["lefschetz.delta_quantity_ms"] = ref_delta * 1e3 / loop.n
    metrics["trace.coverage"] = tr.child_seconds("lefschetz.delta") / ref_delta
    metrics["trace.overhead_s"] = overhead
    metrics.update(counts)
    tr.dump(spans_path)
    return loop, metrics, {"spans": len(tr.spans),
                           "spans_file": str(spans_path.relative_to(ROOT))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "uchain" / "__init__.py").is_file():
        fail(2, f"no uchain sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import uchain
    if Path(uchain.__file__).resolve().parent != ROOT / "src" / "uchain":
        fail(2, f"imported uchain from {uchain.__file__}, not from the checkout")
    import workloads

    classes = {c.name: c for c in (workloads.Campaign, workloads.DeepExponent,
                                   workloads.CliSession)}
    if args.workload not in classes:
        fail(2, f"unknown workload {args.workload!r}; choose from {sorted(classes)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_s = measure_setup()
        gate = gate_self_check()
        wl = classes[args.workload](args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            loop, metrics, info = traced_run(wl, args.seconds, spans)
        else:
            loop, metrics, info = untraced_run(wl, args.seconds)
        extra = wl.known_defects(workdir) if hasattr(wl, "known_defects") else {}
        # after the loop, so its two workers cannot disturb the timed ops
        j2, j2_error = measure_j2() if args.workload == "campaign" else (None, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if j2 is not None:
        metrics["trials_per_s_j2"] = j2
        if "ops_per_s" in metrics:
            metrics["lefschetz.j2_efficiency"] = j2 / (2 * metrics["ops_per_s"])

    attempted = loop.n
    if j2 is not None:
        attempted += 1            # the jobs=2 call counts as one more op
        if j2_error:
            loop.errors[-1] = j2_error
    failed = len(loop.errors)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "ops": loop.n, "check_ops": wl.check_ops,
        "digest": loop.digest.hexdigest(), "fail_rate": failed / attempted,
        "errors": {str(i): e for i, e in list(loop.errors.items())[:5]},
        "gate": gate, **info, **extra,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }
    (OUT / f"record-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}, separators=(",", ":")))

    result = {}
    for m in wanted:
        if m["name"] not in metrics or unit_of(m["name"]) != m["unit"]:
            fail(4, f"metric {m['name']} ({m['unit']}) was not measured")
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
