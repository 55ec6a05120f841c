import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats

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
import ariswpc.cli
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
from ariswpc import SystemConfig, gamma_fit
fit = gamma_fit(SystemConfig())
print(fit.cdf(fit.mean_x), fit.cdf(-1.0))
"""


def test_cli_import_loads_no_scipy_and_gamma_fit_cdf_still_works():
    # a fresh interpreter: this one has scipy loaded by the test helpers
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT], capture_output=True, text=True, env=env, check=True
    )
    loaded, cdf_line = proc.stdout.splitlines()
    assert loaded == "[]"
    at_mean, below_zero = map(float, cdf_line.split())
    fit = ariswpc.gamma_fit(ariswpc.SystemConfig())
    assert at_mean == pytest.approx(stats.gamma.cdf(fit.mean_x, fit.s, scale=fit.r), rel=1e-12)
    assert below_zero == 0.0
