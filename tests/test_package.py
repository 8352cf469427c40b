"""Package surface: the names ``qcla`` re-exports, and no import beyond the
standard library."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcla


def test_all_names_resolve():
    missing = [name for name in qcla.__all__ if not hasattr(qcla, name)]
    assert not missing
    assert len(set(qcla.__all__)) == len(qcla.__all__)


def test_dir_lists_every_public_name():
    assert set(qcla.__all__) <= set(dir(qcla))
    assert {"revsim", "statevec"} <= set(dir(qcla))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in qcla._LAZY.items() for n in names])
def test_lazy_names_are_the_defining_modules_own(module, name):
    defining = importlib.import_module(f"qcla.{module}")
    assert getattr(qcla, module) is defining
    assert getattr(qcla, name) is getattr(defining, name)
    assert name in qcla.__all__


def test_unknown_names_fail_as_before():
    with pytest.raises(AttributeError, match="^module 'qcla' has no attribute 'nope'$"):
        qcla.nope
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'qcla'"):
        from qcla import nope  # noqa: F401


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from qcla import *", namespace)
    assert {name: namespace[name] for name in qcla.__all__} == {
        name: getattr(qcla, name) for name in qcla.__all__}


def test_lowering_and_counting_import_no_numpy():
    """qcla runs on the standard library alone: importing it and costing a
    lowered adder leaves numpy unimported, and loads neither simulator nor
    the cost tables, the verifier or exporters until a name of theirs is
    touched.  Nor does it load dataclasses, fractions or inspect."""
    code = (
        "import sys, qcla\n"
        "qcla.count(qcla.lower(qcla.build(qcla.Design.IN_FT_QCLA1, 8)))\n"
        "print('numpy' in sys.modules)\n"
        "print(*sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules)))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qcla.')))\n"
        "qcla.simulate\n"
        "print('qcla.statevec' in sys.modules)\n"
    )
    src = str(Path(qcla.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    numpy, stdlib, loaded, statevec = result.stdout.splitlines()
    assert numpy == "False"
    assert stdlib == ""
    assert loaded.split() == ["qcla.builders", "qcla.ir", "qcla.lowering", "qcla.measure"]
    assert statevec == "True"


def test_version_matches_pyproject():
    text = (Path(qcla.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "(.*)"$', project, re.M)[1] == qcla.__version__
