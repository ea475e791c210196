"""Start-up cost: an entry point imports only the stack it runs.

Each sweep module and the CLI must load without the figure harness,
the offload and workload models, ``scipy.special`` or ``networkx``.
Every check runs in a fresh interpreter, so modules imported by other
tests cannot mask a regression.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

FORBIDDEN_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(
    name for name in sys.modules
    if name in ("scipy.special", "networkx")
    or name.startswith(("networkx.", "scipy.special.", "repro.workloads",
                        "repro.offload", "repro.experiments.fig",
                        "repro.experiments.tab"))
)))
"""


@pytest.mark.parametrize("module", [
    "repro.experiments.chaos_sweep",
    "repro.experiments.loadstorm_sweep",
    "repro.experiments.gpu_scaling_sweep",
    "repro.cli",
])
def test_entry_point_loads_no_figure_code_scipy_special_or_networkx(module):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", FORBIDDEN_PROBE, module],
                           capture_output=True, text=True, env=env)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == []
