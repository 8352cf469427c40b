"""Package surface: the names ``qcla`` re-exports, and no import beyond the
standard library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qcla


def test_all_names_resolve():
    missing = [name for name in qcla.__all__ if not hasattr(qcla, name)]
    assert not missing
    assert len(set(qcla.__all__)) == len(qcla.__all__)


def test_lowering_and_counting_import_no_numpy():
    """qcla runs on the standard library alone: importing it and costing a
    lowered adder leaves numpy unimported."""
    code = (
        "import sys, qcla\n"
        "qcla.count(qcla.lower(qcla.build(qcla.Design.IN_FT_QCLA1, 8)))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(qcla.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_version_matches_pyproject():
    text = (Path(qcla.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "(.*)"$', project, re.M)[1] == qcla.__version__
