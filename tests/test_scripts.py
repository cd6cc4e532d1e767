"""Smoke tests of the scripts in scripts/: each runs to exit 0 on small
arguments and writes its CSV header (and, for growth_tables.py, a row)."""

import os
import subprocess
import sys

import pytest

import matroidlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(matroidlab.__file__))


@pytest.mark.parametrize("script,args,lines", [
    ("threshold_curves.py", ["--grid", "2", "--trials", "200"],
     ["R,theta_binary,theta_graphic,theta_graphic_status"]),
    ("goodness_probe.py", ["--horizon", "3"], ["index,n,k,d,rate,rel_dist,good"]),
    ("girth_survey.py", ["--samples", "2", "--max-vertices", "4"],
     ["family,index,n,rank,girth,cogirth"]),
    # rank 3 is the first row with the forbidden-minor columns
    ("growth_tables.py", ["--rmax", "3"],
     ["q,r,formula_pg,exhaustive_pg,frame_alpha1,exhaustive_no_fano,exhaustive_no_k4",
      "2,3,7,7,6,6,5"]),
], ids=["threshold_curves", "goodness_probe", "girth_survey", "growth_tables"])
def test_script_runs_and_writes_csv_header(script, args, lines):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert all(line in out for line in lines)
