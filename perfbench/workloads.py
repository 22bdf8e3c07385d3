"""The benchmark's three closed-loop workloads, one client each.

Every workload turns the run seed into a pool of inputs before timing and
then serves op ``i`` from pool entry ``i % pool_size``.  ``run(i)`` makes
the user-facing call, times it and checks its output; ``trace(i, tracer)``
makes the same untraced call and then replays it stage by stage under
spans, from outside the package, and checks that the replay gives the same
output bytes.

Each op gets objects of its own (a fresh trial, fresh copies, or files
parsed again), so a later cache keyed on object identity cannot carry
work from one op to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from uchain import cli
from uchain.complexes import (ChainMap, GradedComplex, LaurentChain,
                              complex_to_text, dual, identity_map, map_to_text,
                              parse_chain_map, parse_complex, tensor,
                              tensor_map)
from uchain.gf2 import rank
from uchain.homology import _delta_inverse, _h_minus, _h_plus, f2_pairing, h_red
from uchain.lefschetz import (TrialFailure, _check_endomorphism, _trial_seed,
                              cotrace_map, delta_quantity, lefschetz_by_grading,
                              lefschetz_oracle, phi_dual, trace_map,
                              verify_proposition)
from uchain.normal_form import (NormalForm, random_basis_change,
                                random_chain_map, random_normal_form, realize,
                                reduce_complex)

from tracing import Tracer, clock


_JSON = dict(sort_keys=True, separators=(",", ":"))   # the CLI's JSON layout
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Op:
    seconds: float            # CPU time of the call into uchain
    output: bytes             # canonical output; digested and compared
    error: str | None = None  # the first check that failed, None if all passed


@dataclass
class TracedOp:
    untraced: Op
    replay_seconds: float         # the stage-by-stage replay, spans included
    ref_delta_seconds: float = 0.0  # untraced delta_quantity on the op's input
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None      # replay disagreed with the untraced call


def _timed(call, *args, **kwargs):
    start = clock()
    value = call(*args, **kwargs)
    return value, clock() - start


def _fresh(cx: GradedComplex, f: ChainMap) -> tuple[GradedComplex, ChainMap]:
    """Structurally equal copies that share no objects with the pool."""
    c2 = GradedComplex(cx.name, cx.generators, dict(cx.gradings), dict(cx.d))
    return c2, ChainMap(f.name, c2, c2, f.degree, dict(f.entries))


def window_dim(generators: int, max_exponent: int) -> int:
    """Dimension of the widest window lefschetz_by_grading builds: the
    doubled pass spans 2(n+1) + n exponents for every generator."""
    return generators * (3 * max_exponent + 2)


def replay_delta(cx: GradedComplex, f: ChainMap, tr: Tracer) -> tuple[int, dict]:
    """delta_quantity(cx, f), one span per stage, in the order
    lefschetz.delta_quantity calls them.  The series replay of the
    pairing reduction is forced before the solve so it gets its own span."""
    with tr.span("lefschetz.delta"):
        _check_endomorphism(cx, f)
        with tr.span("normal_form.reduce"):
            red = reduce_complex(cx)
        if red.one_steps:
            raise ValueError("delta replay needs a 2-step-only complex")
        with tr.span("complexes.dual"):
            dcx = dual(cx)
        with tr.span("complexes.tensor"):
            pairing = tensor(cx, dcx)
        with tr.span("lefschetz.cotrace"):
            cotr = cotrace_map(cx)
        with tr.span("complexes.apply"):
            z = cotr.apply_chain(LaurentChain.of(("1", 0)))
        with tr.span("normal_form.reduce_pairing"):
            red_p = reduce_complex(pairing)
        with tr.span("normal_form.series"):
            red_p.series_transform()
        with tr.span("homology.delta_inverse"):
            w = _delta_inverse(red_p, z)
        with tr.span("lefschetz.phi_dual"):
            pd = phi_dual(cx)
        with tr.span("complexes.tensor_map"):
            moved_by = tensor_map(f, pd)
        with tr.span("complexes.apply"):
            moved = moved_by.apply_chain(w)
        with tr.span("lefschetz.trace"):
            tr_map = trace_map(cx)
        with tr.span("complexes.apply"):
            traced = tr_map.apply_chain(moved)
    counts = {
        "complexes.pairing_rank": pairing.rank,
        "complexes.pairing_nnz": len(pairing.d),
        "normal_form.basis_ops": len(red_p.ops),
        "normal_form.pivots": len(red_p.two_steps) + red_p.cancelled_pairs,
        "normal_form.cap": red_p.cap,
        "homology.torsion_dim": red_p.torsion_dim,
    }
    return traced.coefficient("1", -1), counts


def _stratified_trial_seeds(base: int, schedule: tuple[int, ...], count: int,
                            max_rank: int, max_exponent: int) -> list[int]:
    """Consecutive campaign seeds from ``base``, dealt out so that op i runs
    a trial with schedule[i % len(schedule)] 2-step summands.  The summand
    count sets most of a trial's cost; fixing its share in every run keeps
    the per-run mix, and so the medians, from drifting with the seed."""
    queues: dict[int, list[int]] = {p: [] for p in schedule}
    seeds: list[int] = []
    candidate = base
    while len(seeds) < count:
        want = schedule[len(seeds) % len(schedule)]
        while not queues[want]:
            rng = random.Random(_trial_seed(candidate, 0))
            nf = random_normal_form(rng, max_rank, max_exponent, one_steps=False)
            queues[len(nf.two_steps)].append(candidate)
            candidate += 1
        seeds.append(queues[want].pop(0))
    return seeds


class Campaign:
    """verify_proposition(s_i, 1, max_rank=8, max_exponent=6) per op.

    Trial generation is part of the op, as it is for a campaign user."""

    name = "campaign"
    tail_percentile = 99.0
    check_ops = 600
    MAX_RANK = 8
    MAX_EXPONENT = 6
    # 2-step summands per trial, op by op.  verify draws 1-4 uniformly;
    # the extra 3 puts the median inside one stratum instead of on the
    # gap between the 2- and 3-summand trials, where it jumped by seed.
    SCHEDULE = (1, 2, 3, 4, 3)

    def __init__(self, seed: int, workdir: Path):
        self.seeds = _stratified_trial_seeds(seed * 1_000_003, self.SCHEDULE,
                                             6000, self.MAX_RANK,
                                             self.MAX_EXPONENT)
        self.pool_size = len(self.seeds)

    @staticmethod
    def _canonical(report_dict: dict) -> bytes:
        report_dict = {k: v for k, v in report_dict.items() if k != "elapsed_ms"}
        return json.dumps(report_dict, **_JSON).encode()

    def run(self, i: int) -> Op:
        seed = self.seeds[i % self.pool_size]
        report, seconds = _timed(verify_proposition, seed, 1, self.MAX_RANK,
                                 self.MAX_EXPONENT)
        error = None
        if report.trials != 1 or not report.passed:
            error = f"campaign seed {seed}: delta_quantity != lefschetz_oracle"
        return Op(seconds, self._canonical(report.to_json_dict()), error)

    def trace(self, i: int, tr: Tracer) -> TracedOp:
        untraced = self.run(i)
        campaign_seed = self.seeds[i % self.pool_size]
        start = clock()
        # lefschetz._run_trial(campaign_seed, 0, ...), stage by stage
        with tr.span("normal_form.generate"):
            trial_seed = _trial_seed(campaign_seed, 0)
            rng = random.Random(trial_seed)
            nf = random_normal_form(rng, self.MAX_RANK, self.MAX_EXPONENT,
                                    one_steps=False)
            base = realize(nf, name="trial0")
            cx = random_basis_change(base, seed=rng.getrandbits(32),
                                     steps=rng.randint(0, 20))
        with tr.span("normal_form.random_map"):
            f = random_chain_map(cx, rng.getrandbits(32))
        dv, counts = replay_delta(cx, f, tr)
        with tr.span("lefschetz.oracle"):
            ov = lefschetz_oracle(cx, f)
        replay_seconds = clock() - start
        counts["homology.window_dim"] = window_dim(cx.rank, nf.max_exponent)
        failures = [] if dv == ov else [TrialFailure(
            trial_seed, complex_to_text(cx), map_to_text(f), dv, ov).to_json_dict()]
        replayed = self._canonical({"campaign_seed": campaign_seed, "trials": 1,
                                    "failures": failures})
        ref, ref_seconds = _timed(delta_quantity, *_fresh(cx, f))
        error = None
        if replayed != untraced.output or ref != dv:
            error = f"campaign seed {campaign_seed}: replay disagrees with the call"
        return TracedOp(untraced, replay_seconds, ref_seconds, counts, error)


@dataclass(frozen=True)
class _DeepInput:
    complex: GradedComplex
    map: ChainMap
    max_exponent: int
    closed_form: int | None   # n mod 2 for the identity on a -> U^n b


class DeepExponent:
    """Rank 2-4 complexes with exponents of tens to hundreds: the oracle's
    truncation windows and gf2 carry the cost, the pairing path is small.

    Op i takes its shape and exponent band from SLOTS in rotation; the
    seed picks where the exponents start in the band, the grading, the
    basis scramble and the chain map.  Shapes: the identity on a -> U^n b, one
    two-step with a random map, or two two-steps of equal grading and
    exponent, scrambled, with a random map.  SLOTS puts as many ops below
    the deepest rank-2 slots as above them, so the median falls in the
    middle of those slots and the tail in the middle of the slowest one,
    not on the edge between two slots, where it jumped with the seed."""

    name = "deep-exponent"
    tail_percentile = 92.0
    check_ops = 24
    LOW, MID, HIGH = (60, 68), (120, 136), (208, 232)
    SLOTS = (("two", LOW), ("one", MID),
             ("identity", HIGH), ("one", HIGH), ("identity", HIGH), ("one", HIGH),
             ("two", MID), ("two", HIGH))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        # The exponents of each slot follow a golden-ratio sequence over
        # its band from a seeded start, so every prefix of the pool, and
        # so every run whatever its op count, spreads them evenly.
        starts = [rng.random() for _ in self.SLOTS]
        self.pool = []
        for k in range(24 * len(self.SLOTS)):
            slot, j = k % len(self.SLOTS), k // len(self.SLOTS)
            shape, (lo, hi) = self.SLOTS[slot]
            u = (starts[slot] + j * GOLDEN) % 1.0
            self.pool.append(self.make(rng, shape, lo + int(u * (hi - lo + 1))))
        self.pool_size = len(self.pool)

    @staticmethod
    def make(rng: random.Random, shape: str, n: int) -> _DeepInput:
        g = rng.randint(-2, 2)
        if shape == "identity":
            cx = realize(NormalForm((), ((g, n),)), name="deep")
            return _DeepInput(cx, identity_map(cx), n, n % 2)
        twos = ((g, n),)
        if shape == "two":
            twos += ((g, n),)
        cx = random_basis_change(realize(NormalForm((), twos), name="deep"),
                                 seed=rng.getrandbits(32),
                                 steps=rng.randint(4, 16))
        return _DeepInput(cx, random_chain_map(cx, rng.getrandbits(32)), n, None)

    @staticmethod
    def check(item: _DeepInput, dv: int, ov: int) -> str | None:
        if dv != ov:
            return f"delta_quantity {dv} != lefschetz_oracle {ov}"
        if item.closed_form is not None and dv != item.closed_form:
            return f"identity on a two-step: {dv} != n mod 2 = {item.closed_form}"
        return None

    def run(self, i: int) -> Op:
        item = self.pool[i % self.pool_size]
        cx, f = _fresh(item.complex, item.map)
        start = clock()
        dv = delta_quantity(cx, f)
        ov = lefschetz_oracle(cx, f)
        seconds = clock() - start
        return Op(seconds, f"{dv} {ov}".encode(), self.check(item, dv, ov))

    def trace(self, i: int, tr: Tracer) -> TracedOp:
        untraced = self.run(i)
        item = self.pool[i % self.pool_size]
        cx, f = _fresh(item.complex, item.map)
        start = clock()
        dv, counts = replay_delta(cx, f, tr)
        with tr.span("lefschetz.oracle"):
            ov = lefschetz_oracle(cx, f)
        replay_seconds = clock() - start
        counts["homology.window_dim"] = window_dim(cx.rank, item.max_exponent)
        ref, ref_seconds = _timed(delta_quantity, *_fresh(item.complex, item.map))
        error = None
        if f"{dv} {ov}".encode() != untraced.output or ref != dv:
            error = "replay disagrees with the call"
        return TracedOp(untraced, replay_seconds, ref_seconds, counts, error)


_COLLIDING_COMPLEX = """complex collide
gen a 1
gen b.c 0
gen a.b 1
gen c 0
d a c U^2
d a.b b.c U
"""
_COLLIDING_MAP = """map id
source collide
target collide
degree 0
f a a 1
f b.c b.c 1
f a.b a.b 1
f c c 1
"""
_VERBS = (("classify",), ("homology", "--flavor", "minus"),
          ("homology", "--flavor", "plus"), ("pairing-check",),
          ("delta-quantity",), ("lefschetz",))


@dataclass(frozen=True)
class _CliInput:
    argv: tuple[str, ...]
    normal_form: NormalForm
    rank: int


class CliSession:
    """One in-process cli.main([...]) per op on generated files of rank
    12-32, max exponent 6.  Complexes with 1-step summands get only
    classify and homology; the others get all six verbs, in the order of
    _VERBS, so delta-quantity always runs just before lefschetz on the
    same files.

    delta-quantity at rank 32 is the slowest op by far; RANKS holds 32
    twice, so those ops are 2 in 42 of the rotation and the p97 tail falls
    among them, not on the edge below them, where it jumped with the
    seed."""

    name = "cli-session"
    tail_percentile = 97.0
    check_ops = 42
    RANKS = (12, 16, 20, 24, 32, 32)
    WITH_ONE_STEPS = (14, 26)
    CYCLES = 8
    SCRAMBLE_STEPS = 15
    SCRAMBLE_TRIES = 64

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.pool: list[_CliInput] = []
        k = 0
        for _ in range(self.CYCLES):
            for r in self.RANKS + self.WITH_ONE_STEPS:
                ones = r in self.WITH_ONE_STEPS
                self._add(rng, workdir, f"c{k}", r, rng.randint(2, 4) if ones else 0)
                k += 1
        self.pool_size = len(self.pool)
        self._last_delta: dict[str, int] = {}

    def _add(self, rng: random.Random, workdir: Path, name: str, r: int,
             ones: int) -> None:
        # What delta-quantity costs at one rank follows the exponents and
        # the number of nonzero differential entries the scramble leaves.
        # Gradings and exponents are dealt round-robin (the seed shuffles
        # the exponents), and of up to SCRAMBLE_TRIES scrambles the first
        # with r entries, else the closest, is kept.
        exponents = [k % 6 + 1 for k in range((r - ones) // 2)]
        rng.shuffle(exponents)
        nf = NormalForm(tuple(rng.randint(-2, 2) for _ in range(ones)),
                        tuple((k % 5 - 2, n) for k, n in enumerate(exponents)))
        base = realize(nf, name=name)
        cx = None
        for _ in range(self.SCRAMBLE_TRIES):
            candidate = random_basis_change(base, seed=rng.getrandbits(32),
                                            steps=self.SCRAMBLE_STEPS)
            if cx is None or abs(len(candidate.d) - r) < abs(len(cx.d) - r):
                cx = candidate
            if len(cx.d) == r:
                break
        cpath = workdir / f"{name}.cx"
        cpath.write_text(complex_to_text(cx))
        verbs = _VERBS[:3]
        mpath = None
        if not ones:
            mpath = workdir / f"{name}.map"
            mpath.write_text(map_to_text(random_chain_map(cx, rng.getrandbits(32))))
            verbs = _VERBS
        for verb in verbs:
            argv = (verb[0], str(cpath)) + verb[1:]
            if verb[0] in ("delta-quantity", "lefschetz"):
                argv += (str(mpath),)
            self.pool.append(_CliInput(argv, nf, cx.rank))

    @staticmethod
    def call(argv) -> tuple[int, bytes, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, seconds = _timed(cli.main, list(argv))
        return code, buf.getvalue().encode(), seconds

    def _check(self, item: _CliInput, code: int, out: bytes) -> str | None:
        verb = item.argv[0]
        if code != 0:
            return f"{verb} exited {code}: {out[:200]!r}"
        payload = json.loads(out)
        nf = item.normal_form
        dim = sum(n for _, n in nf.two_steps)
        free = {str(g): c for g, c in sorted(Counter(nf.one_steps).items())}
        if verb == "classify":
            ok = payload == nf.to_json_dict(0)
        elif verb == "homology":
            side = item.argv[-1]
            shift = 1 if side == "minus" else 0
            torsion = sorted((g - shift, n) for g, n in nf.two_steps)
            ok = (payload["free_ranks"] == free
                  and [(t["grading"], t["exponent"]) for t in payload["torsion"]]
                  == (torsion if side == "minus" or not nf.one_steps else [])
                  and payload["f2_dimension"]
                  == ("infinite" if nf.one_steps else dim))
        elif verb == "pairing-check":
            ok = payload == {"dimension": dim, "matrix_rank": dim,
                             "invertible": True, "trace_cotrace_ok": True}
        elif verb == "delta-quantity":
            self._last_delta[item.argv[1]] = payload["value"]
            ok = True
        else:
            ok = payload["value"] == self._last_delta.get(item.argv[1])
        return None if ok else f"{' '.join(item.argv)}: unexpected {out[:200]!r}"

    def run(self, i: int) -> Op:
        item = self.pool[i % self.pool_size]
        code, out, seconds = self.call(item.argv)
        return Op(seconds, out, self._check(item, code, out))

    def known_defects(self, workdir: Path) -> dict:
        """Derived generator names built by joining strings can collide:
        delta-quantity on this valid input should equal lefschetz but
        fails with DuplicateGenerator.  It runs in every run, outside the
        timed loop, and is reported beside the result, not in it."""
        workdir.mkdir(parents=True, exist_ok=True)
        cpath, mpath = workdir / "collide.cx", workdir / "collide.map"
        cpath.write_text(_COLLIDING_COMPLEX)
        mpath.write_text(_COLLIDING_MAP)
        ops = {verb: self.call((verb, str(cpath), str(mpath)))
               for verb in ("delta-quantity", "lefschetz")}
        (dq_code, dq_out, _), (lf_code, lf_out, _) = ops.values()
        agree = dq_code == lf_code == 0 and \
            json.loads(dq_out)["value"] == json.loads(lf_out)["value"]
        return {"name_collision": {
            "attempted": 2, "failed": 0 if agree else 1,
            "delta-quantity": {"exit": dq_code, "stdout": dq_out.decode().strip()},
            "lefschetz": {"exit": lf_code, "stdout": lf_out.decode().strip()}}}

    def trace(self, i: int, tr: Tracer) -> TracedOp:
        untraced = self.run(i)
        item = self.pool[i % self.pool_size]
        counts = {"cli.stdout_bytes": len(untraced.output)}
        start = clock()
        replayed = self._replay(item.argv, tr, counts)
        replay_seconds = clock() - start
        ref_seconds = 0.0
        error = None if replayed == untraced.output else "replay disagrees with the call"
        if item.argv[0] == "delta-quantity":
            cx = parse_complex(Path(item.argv[1]).read_text())
            f = parse_chain_map(Path(item.argv[2]).read_text(), cx, cx)
            ref, ref_seconds = _timed(delta_quantity, cx, f)
            if json.loads(replayed)["value"] != ref:
                error = "replayed delta disagrees with delta_quantity"
        if item.argv[0] == "lefschetz":
            counts["homology.window_dim"] = window_dim(
                item.rank, item.normal_form.max_exponent)
        return TracedOp(untraced, replay_seconds, ref_seconds, counts, error)

    @staticmethod
    def _replay(argv, tr: Tracer, counts: dict) -> bytes:
        """cli.main(argv) for the verbs this workload runs, one span per
        stage; the CLI's own work (argument parsing, file reads, building
        the pairing matrix, JSON) is the self time of the cli.<verb> span.
        h_red has no entry point that takes a reduction, so the dual's
        reduction stays inside homology.flavors."""
        verb = argv[0]
        with tr.span(f"cli.{verb}"):
            args = cli.build_parser().parse_args(list(argv))
            text = Path(args.complex).read_text()
            with tr.span("complexes.parse"):
                cx = parse_complex(text)
            f = None
            if verb in ("delta-quantity", "lefschetz"):
                map_text = Path(args.map).read_text()
                with tr.span("complexes.parse"):
                    f = parse_chain_map(map_text, cx, cx)
            if verb == "classify":
                with tr.span("normal_form.reduce"):
                    red = reduce_complex(cx)
                payload = red.normal_form.to_json_dict(red.cancelled_pairs)
            elif verb == "homology":
                with tr.span("normal_form.reduce"):
                    red = reduce_complex(cx)
                if args.flavor == "minus":
                    with tr.span("normal_form.exact"):
                        red.exact_transform()
                    with tr.span("homology.flavors"):
                        payload = _h_minus(red).to_json_dict()
                else:
                    if not red.one_steps:
                        with tr.span("normal_form.series"):
                            red.series_transform()
                    with tr.span("homology.flavors"):
                        payload = _h_plus(red).to_json_dict()
            elif verb == "pairing-check":
                with tr.span("normal_form.reduce"):
                    red = reduce_complex(cx)
                if red.one_steps:
                    raise ValueError("pairing-check replay needs a 2-step-only complex")
                # h_plus(cx) is _h_plus(reduce_complex(cx))
                with tr.span("normal_form.reduce"):
                    red_plus = reduce_complex(cx)
                with tr.span("normal_form.series"):
                    red_plus.series_transform()
                with tr.span("homology.flavors"):
                    plus = _h_plus(red_plus)
                with tr.span("complexes.dual"):
                    dcx = dual(cx)
                with tr.span("homology.flavors"):
                    red_minus = h_red(dcx, "minus")
                rows = []
                for x in plus.basis:
                    bits = 0
                    for j, y in enumerate(red_minus.basis):
                        if f2_pairing(x, y):
                            bits |= 1 << j
                    rows.append(bits)
                matrix_rank = rank(rows)
                dim = plus.f2_dimension
                with tr.span("lefschetz.trace"):
                    tm = trace_map(cx)
                with tr.span("lefschetz.cotrace"):
                    cm = cotrace_map(cx)
                with tr.span("complexes.apply"):
                    traced = tm.apply_chain(cm.apply_chain(LaurentChain.of(("1", 0))))
                payload = {"dimension": dim, "matrix_rank": matrix_rank,
                           "invertible": matrix_rank == dim == red_minus.f2_dimension,
                           "trace_cotrace_ok": traced.coefficient("1", 0) == cx.rank % 2
                           and len(traced.terms) <= 1}
            elif verb == "delta-quantity":
                value, delta_counts = replay_delta(cx, f, tr)
                counts.update(delta_counts)
                payload = {"value": value}
            else:
                with tr.span("lefschetz.oracle"):
                    traces = lefschetz_by_grading(cx, f)
                payload = {"value": sum(traces.values()) & 1,
                           "trace_by_grading": {str(g): t for g, t
                                                in sorted(traces.items())}}
            return (json.dumps(payload, **_JSON) + "\n").encode()
