"""End-to-end command-line behavior: payloads, exit codes, stability."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from uchain.cli import main
from uchain.complexes import (
    build_complex,
    complex_to_text,
    cone,
    identity_map,
    map_to_text,
    parse_complex,
)
from uchain.scalars import Poly

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


def test_unknown_verbs_are_rejected_by_the_parser(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(workdir / "two3.cx")])
    assert exc.value.code == 2


def test_unknown_flavor_is_rejected_by_the_parser(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["homology", str(workdir / "two3.cx"), "--flavor", "sideways"])
    assert exc.value.code == 2
