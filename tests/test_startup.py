"""Every command starts in a fresh interpreter, so what `import
conescope.cli` loads is paid once per verdict. The modules below cost
milliseconds each: `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize`, `fractions` loads `decimal`, which raises peak RSS, and
`argparse` loads `gettext`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
         "argparse", "gettext")

PROBE = "import json, sys\n{}\nprint(json.dumps(sorted(sys.modules)))"


def _modules_after(statement: str) -> set[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_heavy_module():
    baseline = _modules_after("pass")
    loaded = _modules_after("import conescope.cli") - baseline
    assert "conescope.cli" in loaded
    assert sorted(loaded & set(HEAVY)) == []
