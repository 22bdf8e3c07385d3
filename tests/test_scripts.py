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
