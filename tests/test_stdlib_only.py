"""The runtime needs nothing beyond the standard library.

Every ``onerel`` module is imported in a fresh interpreter, and each
top-level module the imports add to ``sys.modules`` must be ``onerel`` or a
standard-library module.  The test environment has sympy and hypothesis
installed, so a stray runtime import of either would otherwise go unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

import onerel

SRC = Path(onerel.__file__).resolve().parent.parent

IMPORT_ALL = """
import json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import onerel
names = [info.name for info in pkgutil.iter_modules(onerel.__path__)]
for name in names:
    __import__(f"onerel.{name}")
print(json.dumps({"modules": names, "added": sorted(set(sys.modules) - before)}))
"""


def test_every_module_imports_only_the_standard_library():
    run = subprocess.run([sys.executable, "-c", IMPORT_ALL, str(SRC)],
                         capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    assert {"cli", "groupring", "intlinalg"} <= set(result["modules"])
    added = {name.partition(".")[0] for name in result["added"]}
    assert "onerel" in added
    stray = sorted(added - {"onerel"} - set(sys.stdlib_module_names))
    assert not stray, f"onerel imports modules outside the standard library: {stray}"
