import json
import os
import subprocess
import sys
from pathlib import Path

import alphaleak


def test_import_loads_no_scipy():
    """scipy costs most of a CLI start-up; only `sensitive_lower_bound`
    needs it, and imports it on use."""
    src = str(Path(alphaleak.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import alphaleak, alphaleak.cli, json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
