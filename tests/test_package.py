import os
import subprocess
import sys
from pathlib import Path

import ariswpc
from ariswpc import channel, closedform, config, montecarlo, optimize, power, ris

LIBRARY_MODULES = (channel, closedform, config, montecarlo, optimize, power, ris)
SRC = str(Path(ariswpc.__file__).resolve().parents[1])


def test_exports_are_the_library_modules_public_names():
    expected = [name for module in LIBRARY_MODULES for name in module.__all__] + ["__version__"]
    assert ariswpc.__all__ == expected
    assert len(set(ariswpc.__all__)) == len(ariswpc.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(ariswpc, name) is getattr(module, name), name
    assert isinstance(ariswpc.__version__, str)


_FRESH_IMPORT = """
import sys
import ariswpc
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the test helpers
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
