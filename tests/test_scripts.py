import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("demo_run.py", []),
    ("mode_comparison.py", ["--runs", "1"]),
])
def test_script_runs_without_deliveries(script, args, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *args, "--interests", "0", "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert "n/a" in out
    if script == "mode_comparison.py":
        # With nothing requested both runs of the pair are equal: each compared
        # statistic is a tie, and no tie counts as a win.
        wins = re.findall(r"multi wins\s+(\d+)/1( \(1 tie\))?", out)
        assert wins == [("0", " (1 tie)")] * 3
