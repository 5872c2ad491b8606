"""The benchmark's traced run wraps conescope functions by name; a target
that is renamed or removed would silently read zero there."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import conescope, traced
tracer = traced.Tracer()
traced.install(tracer)
print(json.dumps({"file": conescope.__file__, "missing": tracer.missing}))
"""


def test_perfbench_trace_finds_every_target():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert Path(result["file"]).resolve().parent == ROOT / "src" / "conescope"
    assert result["missing"] == []
