"""Smoke test: the example scripts run end to end against this checkout,
without a RuntimeWarning or ResourceWarning.

The scripts run in subprocesses, which the suite's warning filters do not
reach, so each runs with those warnings turned into errors and must leave
stderr empty.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_example_scripts_run(tmp_path):
    env = dict(os.environ, ZADR_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for script, args in [
        ("make_example_data.py", []),
        ("run_diagnostic_example.py", ["--B", "19"]),
        ("run_simulation_study.py", ["--sizes", "30", "--reps", "2"]),
    ]:
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-W", "error::ResourceWarning",
                               str(ROOT / "scripts" / script), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"
        assert proc.stderr == "", f"{script} wrote to stderr:\n{proc.stderr}"
