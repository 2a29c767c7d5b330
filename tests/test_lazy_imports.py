"""Import cost: heavy optional dependencies stay off the import path.

``scipy.ndimage`` (one blur in the synthetic image generator) and
``networkx`` (graph topologies only) took about 0.6 s of a 0.67 s
``import repro.core, repro.harness`` on a 2-vCPU VM, which every CLI
invocation and timing-mode run paid without using either. They are
imported inside the functions that need them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

SRC = Path(__file__).resolve().parent.parent / "src"


def test_core_and_harness_import_without_scipy_or_networkx():
    code = (
        "import sys, repro.core, repro.harness; "
        "print(','.join(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""

