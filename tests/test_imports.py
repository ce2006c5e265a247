"""The package import leaves numpy and scipy to `satlink.antenna`.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import satlink

SRC = str(Path(satlink.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_core_modules_run_without_numpy_or_scipy():
    out = python(
        "import sys\n"
        "import satlink\n"
        "from satlink import capacity, constellation, linkbudget, scenario\n"
        "linkbudget.link_budget(linkbudget.Transmitter(power_w=2.0, gain_dbi=12.0),\n"
        "                       linkbudget.Receiver(gain_dbi=12.0, nf_db=5.0), 5.5e5, 11.7e9, 1e6)\n"
        "scenario.run_scenario(scenario.fixture('thales'))\n"
        "capacity.select_modcod(6.0)\n"
        "constellation.shell_stats('S1')\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert out == "[]"


def test_antenna_loads_on_first_use():
    out = python(
        "import sys\n"
        "import satlink\n"
        "assert 'satlink.antenna' not in sys.modules\n"
        "print(satlink.antenna.ArraySpec.linear(4).elements)\n"
        "print(satlink.antenna is sys.modules['satlink.antenna'])\n"
    )
    assert out.split() == ["4", "True"]


def test_star_import_binds_antenna():
    out = python("from satlink import *\nprint(antenna.__name__)\n")
    assert out == "satlink.antenna"


def test_every_exported_name_resolves():
    """A name deleted from the package cannot stay in `__all__`; the lazy
    `antenna` resolves through the module `__getattr__`."""
    assert "antenna" in satlink.__all__
    assert [name for name in satlink.__all__ if not hasattr(satlink, name)] == []


def test_unknown_attribute_is_still_missing():
    out = python(
        "import satlink\n"
        "print(getattr(satlink, 'nope', None), hasattr(satlink, 'nope'))\n"
        "try:\n"
        "    from satlink import nope\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert out.split() == ["None", "False", "ImportError"]


def test_benchmark_import_probe_times_every_module(monkeypatch):
    """The benchmark's traced runs read an import time for each module it lists."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        run = importlib.import_module("run")
        times = run.import_times_ms()
    finally:  # perfbench's flat module names stay out of later tests
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
    assert set(times) == {f"import.{name}_ms" for name in run.IMPORTED}
    assert all(ms > 0 for ms in times.values())
