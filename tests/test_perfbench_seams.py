"""The traced benchmark's seams: ``perfbench/ledger.py``'s ``install()``.

``install()`` wraps program names it looks up with ``getattr``: the
batch kernels bound on ``repro.partition.backend``,
``repro.serve.coordinator.batch_probe_tasks``, the explain functions and
``repro.serve.protocol.parse_*``.  A renamed or unbound one makes it
raise ``AttributeError``, which otherwise shows only in a ``--trace``
run.  ``install()`` patches the program process-wide, so it runs in a
fresh interpreter; nothing under ``perfbench/`` changes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ledger_install_finds_every_seam(tmp_path):
    path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    code = "import sys, pathlib, ledger; ledger.install(pathlib.Path(sys.argv[1]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "ledger.json")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
