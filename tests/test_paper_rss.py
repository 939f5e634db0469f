"""tests/paper_rss.py at one sketch: the structure of its line, not its figures."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_json_line_with_batch_wall_time_and_peak_rss():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tests", "paper_rss.py"), "--src", os.path.join(ROOT, "src"), "--batch", "1"],
        capture_output=True, text=True, check=True,
    )
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert set(report) == {"batch", "wall_s", "peak_rss_mb"} and report["batch"] == 1
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0
