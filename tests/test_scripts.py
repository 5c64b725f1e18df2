import os
import pathlib
import subprocess
import sys

import diocurves

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _height_survey(*args):
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "height_survey.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_height_survey_certifies_connell_points():
    # the script is the last public caller of the height Gram certificate
    # on a full set of record points
    assert "independent: True" in _height_survey("s6-connell")


def test_height_survey_heights_are_the_matrix_diagonal():
    # one matrix is computed and printed: each listed height is its
    # diagonal cell, not a second evaluation at another accuracy
    lines = _height_survey("s5-rank4").splitlines()
    heights = [line.split()[2] for line in lines
               if line.strip().startswith("P")]
    start = lines.index("pairing matrix:") + 1
    rows = [line.split() for line in lines[start:start + len(heights)]]
    assert len(heights) == 4
    assert [f"{float(h):.4f}" for h in heights] == \
        [row[i] for i, row in enumerate(rows)]
