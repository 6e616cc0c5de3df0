"""The serve path stays free of ``scipy.stats``.

Importing ``scipy.stats`` costs most of a second and tens of MiB, which a
server pays at start-up and a lazy import would move into the first
served session's tick.  Checked in a fresh interpreter, since the test
session itself imports ``scipy.stats`` elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import numpy as np

import repro.core.pipeline
import repro.server
from repro.quantization import MultiBitQuantizer

quantizer = MultiBitQuantizer(bits_per_sample=2, fixed_thresholds=True)
quantizer.quantize(np.random.default_rng(0).normal(size=64))
if "scipy.stats" in sys.modules:
    sys.exit("scipy.stats was imported")
"""


def test_pipeline_server_and_quantizer_do_not_import_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
