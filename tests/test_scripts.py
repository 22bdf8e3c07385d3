"""The command-line scripts under scripts/, run in-process."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, argv: list[str], monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_two_step_table_matches_the_closed_forms(monkeypatch, capsys):
    out = _run_script("two_step_table.py", ["--max-exponent", "8"],
                      monkeypatch, capsys)
    lines = out.splitlines()
    assert lines[-1] == "all rows match the closed forms"
    assert len(lines) == 2 + 8 + 1          # caption, header, rows, verdict
    assert "MISMATCH" not in out


@pytest.mark.parametrize("mutate,verdict", [
    (False, "all cells agree"),
    (True, "mutation caught: worst cell had"),
])
def test_run_campaign_small_grid(monkeypatch, capsys, mutate, verdict):
    argv = ["--trials", "24", "--seed", "3", "--ranks", "4",
            "--exponents", "3"] + (["--mutate"] if mutate else [])
    out = _run_script("run_campaign.py", argv, monkeypatch, capsys)
    assert out.splitlines()[-1].startswith(verdict)


def test_run_campaign_exits_nonzero_when_the_mutation_is_not_caught(
        monkeypatch, capsys):
    import uchain.lefschetz

    def passing(seed, trials, *args, **kwargs):
        return uchain.lefschetz.VerificationReport(seed, trials, (), 0)

    monkeypatch.setattr(uchain.lefschetz, "verify_proposition", passing)
    argv = ["--trials", "4", "--ranks", "4", "--exponents", "3", "--mutate"]
    with pytest.raises(SystemExit) as exc:
        _run_script("run_campaign.py", argv, monkeypatch, capsys)
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "mutation NOT caught: worst cell had 0 failures")


def _canned_runs(parent: list[float], change: list[float]) -> list[dict]:
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"pair": k, "seed": 100 + k, "side": side,
                         "correct": True, "failed": 0, "digest": f"d{k}",
                         "metrics": {"ops_per_s": v, "op_ms_p50": 1000 / v}})
    return runs


def test_bench_pairs_summary_reads_medians_quartiles_and_wins():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    declared = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                {"name": "op_ms_p50", "better": "lower", "bound": 0.25}]
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [120.0, 125.0, 115.0, 100.0, 130.0]
    entry = bench["workload_entry"](_canned_runs(parent, change), declared)
    ops = entry["summary"]["ops_per_s"]
    assert ops["parent"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert ops["change"] == {"median": 120.0, "q1": 115.0, "q3": 125.0}
    assert (ops["pairs"], ops["change_wins"]) == (5, 4)
    assert ops["median_change"] == 0.2 and ops["bound_check"] == "within"
    assert ops["parent_spread"] == 0.1
    # 4 of 5 wins is below the 9-in-10 rule, though the gain beats the IQR
    assert ops["parent_iqr"] == 10.0 and not ops["claim_rule_met"]
    p50 = entry["summary"]["op_ms_p50"]
    assert p50["change_wins"] == 4          # lower is better here
    assert p50["median_change"] == round(1000 / 120 / 10 - 1, 4)
    assert entry["seeds"] == [100, 101, 102, 103, 104]
    assert entry["all_correct"] and entry["digests_equal_per_pair"]

    # a slower change reads out of bound, and an unpaired run is ignored
    runs = _canned_runs(parent, [v * 0.7 for v in parent])
    runs.append({**runs[0], "pair": 9})
    ops = bench["workload_entry"](runs, declared)["summary"]["ops_per_s"]
    assert ops["pairs"] == 5 and ops["change_wins"] == 0
    assert ops["bound_check"] == "worse" and not ops["claim_rule_met"]
    assert bench["parse_seeds"]("7-9,12") == [7, 8, 9, 12]

    # 9 wins in 10 pairs and a gain past the parent's IQR meet the rule
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [v + 20 for v in parent[:9]] + [95.0]
    ops = bench["summarize"](_canned_runs(parent, change), declared)["ops_per_s"]
    assert ops["change_wins"] == 9 and ops["claim_rule_met"]


def test_bench_pairs_reads_a_metric_spread_wider_than_its_bound_as_unresolved():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    declared = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                {"name": "op_ms_p50", "better": "lower", "bound": 0.25}]
    parent = [60.0, 100.0, 140.0, 80.0, 120.0]     # IQR 40 on a median of 100

    def checks(change):
        summary = bench["summarize"](_canned_runs(parent, change), declared)
        return {k: s["bound_check"] for k, s in summary.items()}

    # a median inside the parent's spread shows nothing either way
    assert checks([v + 5 for v in parent]) == {
        "ops_per_s": "unresolved", "op_ms_p50": "unresolved"}
    assert checks([v - 5 for v in parent]) == {
        "ops_per_s": "unresolved", "op_ms_p50": "unresolved"}
    # every change run better than every parent run resolves it
    assert checks([150.0, 145.0, 160.0, 142.0, 155.0]) == {
        "ops_per_s": "within", "op_ms_p50": "within"}
    # a median past the bound reads worse, however wide the spread
    assert checks([v * 0.7 for v in parent]) == {
        "ops_per_s": "worse", "op_ms_p50": "worse"}
