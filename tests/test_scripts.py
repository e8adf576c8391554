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
    assert "n/a" in capsys.readouterr().out
