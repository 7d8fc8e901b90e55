"""The installed package stands alone: every module imports, and every
exported name resolves, with nothing but src/ on the path (no tests/
directory, no repository root as the working directory)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil
import qgauss
modules = sorted(m.name for m in pkgutil.iter_modules(qgauss.__path__))
for name in modules:
    importlib.import_module("qgauss." + name)
for name in qgauss.__all__:
    getattr(qgauss, name)
print(json.dumps({"file": qgauss.__file__, "modules": modules}))
"""


def test_every_module_and_export_loads_from_src_alone(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["file"]).resolve().is_relative_to(SRC)
    assert {"cli", "copies", "matmodel", "moments",
            "partitions"} <= set(report["modules"])
