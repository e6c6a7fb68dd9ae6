"""Smoke test: the example scripts run end to end against this checkout,
without a RuntimeWarning, ResourceWarning or unraisable exception.

Each script runs in this process as `__main__` (`runpy.run_path`), in the
order a reader runs them, so the suite's own warning filters turn those
warnings into errors; each must leave stderr empty.
"""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_example_scripts_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ZADR_THREADS", "1")
    for script, args in [
        ("make_example_data.py", []),
        ("run_diagnostic_example.py", ["--B", "19"]),
        ("run_simulation_study.py", ["--sizes", "30", "--reps", "2"]),
    ]:
        path = str(SCRIPTS / script)
        monkeypatch.setattr(sys, "argv", [path, *args])
        runpy.run_path(path, run_name="__main__")
        assert capsys.readouterr().err == "", f"{script} wrote to stderr"
