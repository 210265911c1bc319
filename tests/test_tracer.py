"""The benchmark's traced mode, end to end.

perfbench/tracer.py wraps functions by the names glzi.scan and glzi.protocol
bind, so a rename there breaks the per-layer trace; this runs it on two tiny
scans and checks that every span it installs is recorded.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced(tmp_path, name, *args):
    trace = tmp_path / f"{name}.trace.json"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace), *args, "--out", str(tmp_path / name),
         "--workers", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(trace.read_text())["spans"]}


def test_tracer_records_every_installed_span(tmp_path):
    installed = set(re.findall(r'span\(\s*"([\w.]+)"', TRACER.read_text()))
    assert "metrics.reduce" in installed and "hilbert.check_density" in installed
    seen = _traced(tmp_path, "fringe", "fringe",
                   "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1")
    seen |= _traced(tmp_path, "squeeze", "squeeze-bench",
                    "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1",
                    "--set", "grid.r_list=0.25", "--set", "grid.q_list=0.5")
    assert installed <= seen, sorted(installed - seen)
