"""End-to-end command-line behavior: payloads, exit codes, stability."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uchain.cli import build_parser, main
from uchain.complexes import (
    ChainMap,
    GradedComplex,
    build_chain_map,
    build_complex,
    complex_to_text,
    cone,
    dual,
    identity_map,
    map_add,
    map_to_text,
    parse_chain_map,
    parse_complex,
    relabel,
    tensor,
)
from uchain.homology import mapping_torus_betti
from uchain.lefschetz import delta_quantity, verify_proposition
from uchain.normal_form import (
    random_basis_change,
    random_chain_map,
    random_normal_form,
    realize,
    reduce_complex,
)
from uchain.scalars import Poly

from conftest import _positional, scrambled
from f2_reference import kunneth_torus_betti, span_rank

TWO_STEP_3 = """\
complex two
gen a 1
gen b 0
d a b U^3
"""

ID_MAP = """\
map id
source two
target two
degree 0
f a a 1
f b b 1
"""

CIRCLE = """\
complex circle
gen e0 0
gen e1 1
"""

CIRCLE_ID = """\
map id
source circle
target circle
degree 0
f e0 e0 1
f e1 e1 1
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "two3.cx").write_text(TWO_STEP_3)
    (tmp_path / "id.map").write_text(ID_MAP)
    (tmp_path / "circle.cx").write_text(CIRCLE)
    (tmp_path / "circle-id.map").write_text(CIRCLE_ID)
    return tmp_path


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# happy paths


def test_classify_emits_sorted_normal_form(workdir, capsys):
    code, out = _run(capsys, ["classify", str(workdir / "two3.cx")])
    assert code == 0
    assert out == ('{"cancelled_pairs":0,"one_steps":[],'
                   '"two_steps":[{"exponent":3,"grading_a":1}]}\n')


@pytest.mark.parametrize("entries", ["d a b 0\n", "d a b U\nd a b U\n"])
def test_entries_that_sum_to_zero_store_nothing(tmp_path, capsys, entries):
    text = "complex z\ngen a 1\ngen b 0\n" + entries
    assert parse_complex(text).d == {}
    (tmp_path / "z.cx").write_text(text)
    code, out = _run(capsys, ["classify", str(tmp_path / "z.cx")])
    assert code == 0
    assert out == ('{"cancelled_pairs":0,"one_steps":[{"grading":0},'
                   '{"grading":1}],"two_steps":[]}\n')


def test_homology_defaults_to_the_minus_flavor(workdir, capsys):
    code, out = _run(capsys, ["homology", str(workdir / "two3.cx")])
    assert code == 0
    assert json.loads(out) == {
        "flavor": "minus",
        "free_ranks": {},
        "torsion": [{"grading": 0, "exponent": 3}],
        "f2_dimension": 3,
        "basis": [[{"gen": "b", "exp": 0}], [{"gen": "b", "exp": 1}],
                  [{"gen": "b", "exp": 2}]],
    }


@pytest.mark.parametrize("flavor,expected_flavor,dimension", [
    ("minus", "minus", 3),
    ("infinity", "infinity", 0),
    ("plus", "plus", 3),
    ("red-minus", "red_minus", 3),
    ("red-plus", "red_plus", 3),
])
def test_homology_flavor_selection(workdir, capsys, flavor, expected_flavor,
                                   dimension):
    code, out = _run(capsys, ["homology", str(workdir / "two3.cx"),
                              "--flavor", flavor])
    assert code == 0
    payload = json.loads(out)
    assert payload["flavor"] == expected_flavor
    assert payload["f2_dimension"] == dimension


def test_delta_quantity_on_the_odd_two_step(workdir, capsys):
    code, out = _run(capsys, ["delta-quantity", str(workdir / "two3.cx"),
                              str(workdir / "id.map")])
    assert code == 0
    assert out == '{"value":1}\n'


def test_lefschetz_reports_value_and_grading_split(workdir, capsys):
    code, out = _run(capsys, ["lefschetz", str(workdir / "two3.cx"),
                              str(workdir / "id.map")])
    assert code == 0
    assert out == '{"trace_by_grading":{"0":0,"1":1},"value":1}\n'


def test_verify_passes_and_reports_the_campaign(workdir, capsys):
    code, out = _run(capsys, ["verify", "--seed", "5", "--trials", "20",
                              "--max-rank", "6", "--max-exponent", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["campaign_seed"] == 5
    assert payload["trials"] == 20
    assert payload["failures"] == []
    assert isinstance(payload["elapsed_ms"], int)


def test_verify_worker_count_does_not_change_the_result(workdir, capsys):
    _, out1 = _run(capsys, ["verify", "--seed", "9", "--trials", "10",
                            "--jobs", "1"])
    _, out2 = _run(capsys, ["verify", "--seed", "9", "--trials", "10",
                            "--jobs", "2"])
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_ms"), p2.pop("elapsed_ms")
    assert p1 == p2


def test_cone_emits_a_reparsable_complex(workdir, capsys):
    code, out = _run(capsys, ["cone", str(workdir / "two3.cx"),
                              str(workdir / "two3.cx"), str(workdir / "id.map")])
    assert code == 0
    emitted = parse_complex(json.loads(out)["complex"])
    reference = build_complex("two", [("a", 1), ("b", 0)],
                              [("a", "b", Poly.u(3))])
    assert emitted == cone(identity_map(reference))
    # the exact bytes of a cone with an exponent at the limit
    (workdir / "big.cx").write_text(
        "complex big\ngen a 1\ngen b 0\nd a b U^1048576\n")
    (workdir / "big.map").write_text(ID_MAP.replace("two", "big"))
    big = str(workdir / "big.cx")
    assert _run(capsys, ["cone", big, big, str(workdir / "big.map")]) == (
        0, '{"complex":"complex cone(id)\\ngen a[1] 2\\ngen b[1] 1\\n'
        'gen a 1\\ngen b 0\\nd a[1] b[1] U^1048576\\nd a[1] a 1\\n'
        'd b[1] b 1\\nd a b U^1048576\\n"}\n')


def test_mapping_torus_of_the_circle(workdir, capsys):
    code, out = _run(capsys, ["mapping-torus", str(workdir / "circle.cx"),
                              str(workdir / "circle-id.map")])
    assert code == 0
    assert out == '{"betti":{"0":1,"1":2,"2":1}}\n'


def test_pairing_check_on_a_torsion_complex(workdir, capsys):
    code, out = _run(capsys, ["pairing-check", str(workdir / "two3.cx")])
    assert code == 0
    assert out == ('{"dimension":3,"invertible":true,"matrix_rank":3,'
                   '"trace_cotrace_ok":true}\n')


def test_pairing_check_reduces_the_input_once(workdir, capsys, monkeypatch):
    import uchain.cli
    import uchain.homology
    from uchain.normal_form import reduce_complex

    reduced = []

    def counting(cx):
        reduced.append(cx.name)
        return reduce_complex(cx)

    monkeypatch.setattr(uchain.cli, "reduce_complex", counting)
    monkeypatch.setattr(uchain.homology, "reduce_complex", counting)
    code, _ = _run(capsys, ["pairing-check", str(workdir / "two3.cx")])
    assert code == 0
    assert reduced.count("two") == 1


# ---------------------------------------------------------------------------
# output handling


def test_output_flag_writes_the_payload_to_a_file(workdir, capsys):
    target = workdir / "result.json"
    code, out = _run(capsys, ["classify", str(workdir / "two3.cx"),
                              "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().endswith("}\n")
    # identical bytes to the stdout route
    _, stdout_route = _run(capsys, ["classify", str(workdir / "two3.cx")])
    assert target.read_text() == stdout_route


def test_unwritable_output_path_exits_three_on_stdout(workdir, capsys):
    target = workdir / "no-such-dir" / "out.json"
    code, out = _run(capsys, ["classify", str(workdir / "two3.cx"),
                              "--output", str(target)])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "IOError"
    assert not target.exists()


def test_identical_invocations_give_identical_bytes(workdir, capsys):
    argv = ["homology", str(workdir / "two3.cx"), "--flavor", "plus"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_module_entry_point_runs(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "uchain", "classify", str(workdir / "two3.cx")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["two_steps"] == [
        {"exponent": 3, "grading_a": 1}]


def test_importing_the_package_loads_no_process_pool():
    # verify imports them only when it starts worker processes
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uchain, uchain.cli; print(sorted(m for m in "
         "('concurrent.futures', 'multiprocessing') if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# error taxonomy -> exit codes


def test_validation_errors_exit_one(workdir, capsys):
    bad = workdir / "bad.cx"
    bad.write_text("complex bad\ngen a 1\ngen b 0\ngen c -1\n"
                   "d a b U\nd b c U\n")
    code, out = _run(capsys, ["classify", str(bad)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "DifferentialNotSquareZero"


def test_precondition_errors_exit_two(workdir, capsys):
    point = workdir / "pt.cx"
    point.write_text("complex pt\ngen x 0\n")
    pt_id = workdir / "pt-id.map"
    pt_id.write_text("map id\nsource pt\ntarget pt\ndegree 0\nf x x 1\n")
    code, out = _run(capsys, ["delta-quantity", str(point), str(pt_id)])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InfinityNotZero"


def test_mapping_torus_rejects_u_dependence_with_exit_two(workdir, capsys):
    code, out = _run(capsys, ["mapping-torus", str(workdir / "two3.cx"),
                              str(workdir / "id.map")])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "NotUFree"


def test_pairing_check_needs_finite_plus_flavor(workdir, capsys):
    point = workdir / "pt.cx"
    point.write_text("complex pt\ngen x 0\n")
    code, out = _run(capsys, ["pairing-check", str(point)])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InfinityNotZero"


def test_parse_errors_exit_three_with_line_info(workdir, capsys):
    bad = workdir / "syntax.cx"
    bad.write_text("complex bad\ngen a one\n")
    code, out = _run(capsys, ["classify", str(bad)])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "ParseError"
    assert "line 2" in err["detail"]


def test_missing_files_exit_three(workdir, capsys):
    code, out = _run(capsys, ["classify", str(workdir / "absent.cx")])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "IOError"


def test_undecodable_complex_file_exits_three(workdir, capsys):
    bad = workdir / "bom.cx"
    bad.write_bytes(b"\xff\xfe" + TWO_STEP_3.encode())
    code, out = _run(capsys, ["classify", str(bad)])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "ParseError"


def test_undecodable_map_file_exits_three(workdir, capsys):
    bad_map = workdir / "bom.map"
    bad_map.write_bytes(b"\xff\xfe" + ID_MAP.encode())
    for verb in ("delta-quantity", "lefschetz", "mapping-torus"):
        code, out = _run(capsys, [verb, str(workdir / "two3.cx"), str(bad_map)])
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "ParseError"
    code, out = _run(capsys, ["cone", str(workdir / "two3.cx"),
                              str(workdir / "two3.cx"), str(bad_map)])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "ParseError"


def test_map_with_wrong_declared_source_exits_two(workdir, capsys):
    bad_map = workdir / "wrong.map"
    bad_map.write_text(ID_MAP.replace("source two", "source other"))
    code, out = _run(capsys, ["delta-quantity", str(workdir / "two3.cx"),
                              str(bad_map)])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "ComplexMismatch"


@pytest.mark.parametrize("complex_text, map_text, code, payload", [
    ("# nothing but a comment\n", ID_MAP, 3,
     '{"detail":"empty complex file","kind":"ParseError"}'),
    (TWO_STEP_3, "\n# nothing but a comment\n", 3,
     '{"detail":"empty map file","kind":"ParseError"}'),
    (TWO_STEP_3, ID_MAP.replace("source two", "source"), 3,
     '{"detail":"line 2: expected \'source <name>\' (at \'source\')",'
     '"kind":"ParseError"}'),
    (TWO_STEP_3, ID_MAP.replace("degree 0", "degree 0 1"), 3,
     '{"detail":"line 4: expected \'degree <int>\' (at \'degree 0 1\')",'
     '"kind":"ParseError"}'),
    (TWO_STEP_3, ID_MAP.replace("target two", "target other"), 2,
     '{"detail":"map declares target \'other\' but was bound to complex '
     '\'two\'","kind":"ComplexMismatch"}'),
    # d^2 fails at [a,z] and [a,y]: the first in name order is reported,
    # though z comes before y in position order
    ("complex sq\ngen z 1\ngen y 1\ngen b 0\ngen a -1\n"
     "d z b U\nd y b U\nd b a U\n", ID_MAP, 1,
     '{"detail":"d^2[a,y] = U^2 on complex \'sq\'",'
     '"kind":"DifferentialNotSquareZero"}'),
    # the chain relation fails at [b,z] and [a,y], in that position order
    ("complex c\ngen z 1\ngen y 1\ngen b 0\ngen a 0\nd z b U\nd y a U\n",
     "map m\nsource c\ntarget c\ndegree 0\nf z z 1\nf y y 1\n", 1,
     '{"detail":"(d f + f d)[a,y] = U for map \'m\'",'
     '"kind":"NotAChainMap"}'),
    ("complex big\ngen a 2\ngen b 1\ngen c 0\nd a b U^1048576\nd b c U\n",
     ID_MAP, 1,
     '{"detail":"exponent 1048577 exceeds limit 1048576",'
     '"kind":"ExponentOverflow"}'),
    ("complex two\ngen a 1\ngen b 0\nd a b\n", ID_MAP, 3,
     '{"detail":"line 4: expected \'d <source> <target> <poly>\' '
     '(at \'d a b\')","kind":"ParseError"}'),
    (TWO_STEP_3, ID_MAP.replace("f b b 1", "f b b"), 3,
     '{"detail":"line 6: expected \'f <source> <target> <poly>\' '
     '(at \'f b b\')","kind":"ParseError"}'),
    (TWO_STEP_3, ID_MAP.replace("f a a 1", "f zz a 1"), 1,
     '{"detail":"unknown source generator \'zz\'","kind":"GradingViolation"}'),
])
def test_input_errors_print_their_exact_payload(workdir, capsys, complex_text,
                                                map_text, code, payload):
    (workdir / "in.cx").write_text(complex_text)
    (workdir / "in.map").write_text(map_text)
    assert _run(capsys, ["delta-quantity", str(workdir / "in.cx"),
                         str(workdir / "in.map")]) == (
        code, '{"error":' + payload + "}\n")


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
def test_integers_outside_the_grammar_exit_three(workdir, capsys, token):
    # int() alone would read these as 10, 1 and 1 (an Arabic-Indic digit)
    bad = workdir / "lenient.cx"
    bad.write_text(f"complex two\ngen a {token}\ngen b 0\n", encoding="utf-8")
    code, out = _run(capsys, ["classify", str(bad)])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "ParseError"
    assert "line 2" in err["detail"]
    bad_map = workdir / "lenient.map"
    bad_map.write_text(ID_MAP.replace("degree 0", f"degree {token}"),
                       encoding="utf-8")
    code, out = _run(capsys, ["delta-quantity", str(workdir / "two3.cx"),
                              str(bad_map)])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "ParseError"
    assert "line 4" in err["detail"]


def test_products_past_the_exponent_limit_exit_one(workdir, capsys):
    # d^2 = 0, since the paths through b and c cancel, but checking it
    # forms U^1200000, past the 2^20 limit that also binds products
    big = workdir / "big.cx"
    big.write_text("complex big\ngen a 2\ngen b 1\ngen c 1\ngen e 0\n"
                   "d a b U^600000\nd a c U^600000\n"
                   "d b e U^600000\nd c e U^600000\n")
    code, out = _run(capsys, ["classify", str(big)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "ExponentOverflow"
    assert "exponent 1200000" in err["detail"]


def test_reduction_fractions_are_not_bound_by_the_exponent_limit(workdir,
                                                                 capsys):
    # every exponent the file writes, and every product its validation
    # forms, is inside 2^20; the reduction's fraction arithmetic is not
    # checked against the limit and forms a product of degree 1600002
    big = workdir / "frac.cx"
    big.write_text("complex big\ngen a1 1\ngen a2 1\ngen b1 0\ngen b2 0\n"
                   "d a1 b1 U^700000\nd a1 b2 U^700001\n"
                   "d a2 b1 U^700002\nd a2 b2 1+U^900000\n")
    code, out = _run(capsys, ["classify", str(big)])
    assert code == 0
    assert out == ('{"cancelled_pairs":1,"one_steps":[],'
                   '"two_steps":[{"exponent":700000,"grading_a":1}]}\n')


def test_unknown_verbs_are_rejected_by_the_parser(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(workdir / "two3.cx")])
    assert exc.value.code == 2


def test_unknown_flavor_is_rejected_by_the_parser(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["homology", str(workdir / "two3.cx"), "--flavor", "sideways"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_and_still_reports_usage(workdir, capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["homology", str(workdir / "two3.cx"), "--flavor", "sideways"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: uchain homology")


# ---------------------------------------------------------------------------
# generator names that look like derived ones
#
# Derived complexes name their generators g*, x.y and g[1].  Input names
# built from the same pieces must not change any number the CLI reports.

COLLIDE = """\
complex collide
gen a 1
gen b.c 0
gen a.b 1
gen c 0
d a c U^2
d a.b b.c U
"""

COLLIDE_ID = """\
map id
source collide
target collide
degree 0
f a a 1
f b.c b.c 1
f a.b a.b 1
f c c 1
"""

SHIFTED = "complex s\ngen {0} 0\ngen {1} 1\n"
SHIFTED_ID = "map id\nsource s\ntarget s\ndegree 0\nf {0} {0} 1\nf {1} {1} 1\n"


def test_delta_quantity_on_colliding_pair_names_matches_lefschetz(workdir,
                                                                   capsys):
    (workdir / "collide.cx").write_text(COLLIDE)
    (workdir / "collide.map").write_text(COLLIDE_ID)
    argv = [str(workdir / "collide.cx"), str(workdir / "collide.map")]
    code, out = _run(capsys, ["delta-quantity", *argv])
    assert (code, out) == (0, '{"value":1}\n')
    code, out = _run(capsys, ["lefschetz", *argv])
    assert code == 0 and json.loads(out)["value"] == 1


def test_pairing_check_on_colliding_pair_names(workdir, capsys):
    (workdir / "collide.cx").write_text(COLLIDE)
    code, out = _run(capsys, ["pairing-check", str(workdir / "collide.cx")])
    assert code == 0
    assert out == ('{"dimension":3,"invertible":true,"matrix_rank":3,'
                   '"trace_cotrace_ok":true}\n')


def test_mapping_torus_on_a_shifted_looking_name(workdir, capsys):
    outs = []
    for names in (("x", "x[1]"), ("p", "q")):
        (workdir / "s.cx").write_text(SHIFTED.format(*names))
        (workdir / "s.map").write_text(SHIFTED_ID.format(*names))
        code, out = _run(capsys, ["mapping-torus", str(workdir / "s.cx"),
                                  str(workdir / "s.map")])
        assert code == 0
        outs.append(out)
    assert outs == ['{"betti":{"0":1,"1":2,"2":1}}\n'] * 2


def test_pairing_check_and_mapping_torus_build_no_tensor_cone_or_relabel(
        workdir, capsys, monkeypatch):
    # the two numeric verbs work on generator positions: with every binding
    # of tensor, cone and relabel refusing, they still print their bytes
    def refuse(*args, **kwargs):
        raise AssertionError("built a complex with derived names")

    for name, module in list(sys.modules.items()):
        if name == "uchain" or name.startswith("uchain."):
            for attr in ("tensor", "cone", "relabel"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    (workdir / "collide.cx").write_text(COLLIDE)
    assert _run(capsys, ["pairing-check", str(workdir / "collide.cx")]) == \
        (0, '{"dimension":3,"invertible":true,"matrix_rank":3,'
            '"trace_cotrace_ok":true}\n')
    for names in (("x", "x[1]"), ("p", "q")):
        (workdir / "s.cx").write_text(SHIFTED.format(*names))
        (workdir / "s.map").write_text(SHIFTED_ID.format(*names))
        files = [str(workdir / "s.cx"), str(workdir / "s.map")]
        assert _run(capsys, ["mapping-torus", *files]) == \
            (0, '{"betti":{"0":1,"1":2,"2":1}}\n')
    with pytest.raises(AssertionError, match="derived names"):
        main(["cone", files[0], files[0], files[1]])


def test_cone_output_keeps_input_names_so_a_shifted_clash_exits_one(workdir,
                                                                    capsys):
    (workdir / "s.cx").write_text(SHIFTED.format("x", "x[1]"))
    (workdir / "s.map").write_text(SHIFTED_ID.format("x", "x[1]"))
    path = str(workdir / "s.cx")
    code, out = _run(capsys, ["cone", path, path, str(workdir / "s.map")])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "DuplicateGenerator"


def _plain_complex(seed: int | None) -> GradedComplex:
    """A torsion complex with plain names; None gives COLLIDE's shape."""
    if seed is None:
        return build_complex("collide", [("g0", 1), ("g1", 0), ("g2", 1),
                                         ("g3", 0)],
                             [("g0", "g3", Poly.u(2)), ("g2", "g1", Poly.u(1))])
    return scrambled(seed, 6, 4, one_steps=False)[1]


def _mod_u(cx: GradedComplex, f: ChainMap) -> tuple[GradedComplex, ChainMap]:
    """Constant terms of d and f: a U-free complex and chain map (U = 0
    is a ring map, so d^2 = 0 and the chain relation survive)."""
    u0 = build_complex(cx.name, [(g, cx.gradings[g]) for g in cx.generators],
                       [(s, t, Poly(p.bits & 1)) for (t, s), p in cx.d.items()
                        if p.bits & 1])
    return u0, build_chain_map(f.name, u0, u0, 0,
                               [(s, t, Poly(p.bits & 1))
                                for (t, s), p in f.entries.items()
                                if p.bits & 1])


def _pairing_check(cx: GradedComplex) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cx.cx"
        path.write_text(complex_to_text(cx))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["pairing-check", str(path)])
    return out.getvalue()


def _numbers(cx: GradedComplex, f: ChainMap, literal) -> tuple:
    return (delta_quantity(cx, f), literal(cx, f, swapped=True),
            _pairing_check(cx), mapping_torus_betti(*_mod_u(cx, f)))


_DERIVED_LOOKING = st.lists(st.sampled_from(["a", "b", "c", ".", "*", "[1]"]),
                            min_size=1, max_size=4).map("".join)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       names=st.lists(_DERIVED_LOOKING, min_size=6, max_size=6, unique=True))
@example(seed=None, names=["a", "b.c", "a.b", "c", "x", "y"])
@example(seed=3, names=["x", "x[1]", "a.b", "c", "a", "b.c"])
def test_numbers_do_not_depend_on_generator_names(literal_delta_quantity,
                                                  seed, names):
    cx = _plain_complex(seed)
    f = random_chain_map(cx, seed or 0)
    ren = dict(zip(cx.generators, names))
    rcx = relabel(cx, ren)
    rf = build_chain_map(f.name, rcx, rcx, 0,
                         [(ren[s], ren[t], p) for (t, s), p in f.entries.items()])
    assert _numbers(rcx, rf, literal_delta_quantity) == \
        _numbers(cx, f, literal_delta_quantity)


def _reference_torus_betti(cy: GradedComplex, phi: ChainMap) -> dict[int, int]:
    """Mapping-torus Betti numbers through a literal cone: generators
    renamed to positions, cone(id + phi), its boundary read back as bit
    columns, their ranks read off the reference span."""
    pcy, pphi = _positional(cy, phi)
    torus = cone(map_add(identity_map(pcy), pphi))
    idx = torus.index()
    bcol: dict[str, int] = {}
    for t, s in torus.d:
        bcol[s] = bcol.get(s, 0) ^ (1 << idx[t])
    by_grading: dict[int, list[str]] = {}
    for g in torus.generators:
        by_grading.setdefault(torus.gradings[g], []).append(g)
    return {gr: len(gens) - span_rank(bcol.get(g, 0) for g in gens)
            - span_rank(bcol.get(g, 0) for g in by_grading.get(gr + 1, ()))
            for gr, gens in sorted(by_grading.items())}


def _at_u_one(cx: GradedComplex, f: ChainMap) -> tuple[GradedComplex, ChainMap]:
    """d and f with U set to 1: U has degree 0, so U = 1 is a graded ring
    map and d^2 = 0 and the chain relation survive.  Unlike U = 0, which
    kills every entry of a torsion complex, it keeps the entries with an
    odd number of terms."""
    def at1(p: Poly) -> int:
        return bin(p.bits).count("1") & 1

    u1 = build_complex(cx.name, [(g, cx.gradings[g]) for g in cx.generators],
                       [(s, t, Poly(1)) for (t, s), p in cx.d.items() if at1(p)])
    return u1, build_chain_map(f.name, u1, u1, 0,
                               [(s, t, Poly(1)) for (t, s), p in f.entries.items()
                                if at1(p)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       names=st.lists(_DERIVED_LOOKING, min_size=8, max_size=8, unique=True))
@example(seed=3, names=["x", "x[1]", "a.b", "c", "a", "b.c", "a*", "a[1][1]"])
def test_mapping_torus_betti_matches_a_literal_cone(seed, names):
    _, cx = scrambled(seed, 8, 3)
    f = random_chain_map(cx, seed + 2)
    ren = dict(zip(cx.generators, names))
    rcx = relabel(cx, ren)
    rf = build_chain_map(f.name, rcx, rcx, 0,
                         [(ren[s], ren[t], p) for (t, s), p in f.entries.items()])
    for cy, phi in (_mod_u(rcx, rf), _at_u_one(rcx, rf)):
        betti = mapping_torus_betti(cy, phi)
        assert betti == _reference_torus_betti(cy, phi)
        assert betti == kunneth_torus_betti(cy, phi)


def test_verb_bytes_and_reduction_logs_are_pinned(tmp_path, capsys):
    """Stdout and exit code of the numeric verbs on 120 seeded files, and
    the reduction's op log, records and cancelled count on each complex
    and on every third one's C tensor dual(C): the bytes a change to how
    the engine reads entries would move.  Every fourth complex has
    1-steps; mapping-torus also runs on the U = 1 specialization, where
    it does not stop at the U-freeness check."""
    c, m, c1, m1 = (str(tmp_path / n) for n in ("c", "m", "c1", "m1"))
    digest = hashlib.sha256()
    for k in range(120):
        rng = random.Random(k)
        nf = random_normal_form(rng, 10, 6, one_steps=k % 4 == 0)
        cx = random_basis_change(realize(nf, name=f"pin{k}"),
                                 seed=rng.getrandbits(32),
                                 steps=rng.randint(0, 25))
        f = random_chain_map(cx, rng.getrandbits(32))
        u1, f1 = _at_u_one(cx, f)
        for path, text in ((c, complex_to_text(cx)), (m, map_to_text(f)),
                           (c1, complex_to_text(u1)), (m1, map_to_text(f1))):
            Path(path).write_text(text)
        for argv in (["classify", c],
                     *(["homology", c, "--flavor", flavor] for flavor in
                       ("minus", "infinity", "plus", "red-minus", "red-plus")),
                     ["delta-quantity", c, m], ["lefschetz", c, m],
                     ["pairing-check", c], ["cone", c, c, m],
                     ["mapping-torus", c, m], ["mapping-torus", c1, m1]):
            digest.update(repr(_run(capsys, argv)).encode())
        for reduced in (cx, tensor(cx, dual(cx))) if k % 3 == 0 else (cx,):
            red = reduce_complex(reduced)
            digest.update(repr((red.ops, red.two_steps, red.one_steps,
                                red.cancelled_pairs)).encode())
    assert digest.hexdigest() == (
        "c56a8ddf81a8c1a2a4345d54ea643a314729ad5791f9cf28464e774b9b4cf800")


# ---------------------------------------------------------------------------
# replaying a campaign failure from its JSON


def test_a_mutated_campaign_failure_replays_from_its_json(workdir, capsys):
    report = verify_proposition(20260814, trials=24, max_rank=8,
                                max_exponent=6, _mutate_phi_dual=True)
    failure = json.loads(json.dumps(report.to_json_dict()))["failures"][0]
    (workdir / "fail.cx").write_text(failure["complex"])
    (workdir / "fail.map").write_text(failure["map"])
    files = [str(workdir / "fail.cx"), str(workdir / "fail.map")]
    for verb in ("lefschetz", "delta-quantity"):
        code, out = _run(capsys, [verb, *files])
        assert code == 0
        assert json.loads(out)["value"] == failure["oracle_value"]
    cx = parse_complex(failure["complex"])
    f = parse_chain_map(failure["map"], cx, cx)
    assert delta_quantity(cx, f, _phi_dual_override=identity_map(dual(cx))) \
        == failure["delta_value"] != failure["oracle_value"]


# ---------------------------------------------------------------------------
# mangled input files


def _fuzz_base(seed: int) -> tuple[str, str]:
    """Complex and map text of a small scrambled complex, 1-steps allowed,
    exponents at most 64."""
    rng = random.Random(seed)
    nf = random_normal_form(rng, max_rank=6, max_exponent=64)
    cx = random_basis_change(realize(nf, name=f"fz{seed}"), seed=seed + 1,
                             steps=rng.randint(0, 8))
    return complex_to_text(cx), map_to_text(random_chain_map(cx, seed + 2))


_MANGLE = st.tuples(st.sampled_from(["drop", "dup", "swap"]),
                    st.sampled_from(["line", "token", "byte"]),
                    st.integers(min_value=0, max_value=10_000),
                    st.integers(min_value=0, max_value=10_000),
                    st.integers(min_value=1, max_value=255))


def _mangle(text: str, edits) -> bytes:
    """Drop, duplicate or swap lines or tokens; bytes are dropped,
    duplicated or XOR-flipped."""
    data = text.encode()
    for op, unit, i, j, flip in edits:
        if unit == "byte":
            if not data:
                continue
            i %= len(data)
            if op == "drop":
                data = data[:i] + data[i + 1:]
            elif op == "dup":
                data = data[:i + 1] + data[i:]
            else:
                data = data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
            continue
        sep = b"\n" if unit == "line" else b" "
        parts = data.split(sep)
        i %= len(parts)
        j %= len(parts)
        if op == "drop":
            del parts[i]
        elif op == "dup":
            parts.insert(i, parts[i])
        else:
            parts[i], parts[j] = parts[j], parts[i]
        data = sep.join(parts)
    return data


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       cx_edits=st.lists(_MANGLE, max_size=3),
       map_edits=st.lists(_MANGLE, max_size=3))
def test_mangled_files_give_one_json_object_and_a_known_exit_code(
        seed, cx_edits, map_edits):
    cx_text, map_text = _fuzz_base(seed)
    cx_bytes, map_bytes = _mangle(cx_text, cx_edits), _mangle(map_text, map_edits)
    # past exponent 64 the oracle's windows grow without a bound worth testing
    written = re.findall(rb"\^\s*([0-9]+)", cx_bytes + map_bytes)
    assume(all(len(k) <= 2 and int(k) <= 64 for k in written))
    with tempfile.TemporaryDirectory() as tmp:
        cx_path, map_path = Path(tmp) / "f.cx", Path(tmp) / "f.map"
        cx_path.write_bytes(cx_bytes)
        map_path.write_bytes(map_bytes)
        c, m = str(cx_path), str(map_path)
        for argv in (["classify", c], ["homology", c], ["delta-quantity", c, m],
                     ["lefschetz", c, m], ["cone", c, c, m],
                     ["mapping-torus", c, m], ["pairing-check", c]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code in (0, 1, 2, 3, 4), argv
            assert out.getvalue().count("\n") == 1, argv
            assert isinstance(json.loads(out.getvalue()), dict), argv
