import os
import pathlib
import subprocess
import sys

import diocurves

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_height_survey_certifies_connell_points():
    # the script is the last public caller of the height Gram certificate
    # on a full set of record points
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "height_survey.py"),
                           "s6-connell"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "independent: True" in proc.stdout
